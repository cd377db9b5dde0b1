"""Normal-ordered polynomial algebra checked against dense Fock matrices.

The multiplication, commutator and adjoint-series routines are the foundation
of every symbolic check in the package, so they are validated here against an
independent oracle: truncated oscillator matrices at a generous cutoff, with
comparisons restricted to low levels where truncation is irrelevant.
"""

import cmath
import math

import numpy as np
import pytest

from cvexact.algebra import (NOPoly, NonTerminatingSeries, adjoint_series,
                             commutator, max_coeff_diff, poly_mul)

from util import poly_matrix, poly_mul_by_loops

CUTOFF = 40
BLOCK = 10  # compare only the lowest 10 levels per mode


def _close(poly_a, poly_b, tol=1e-10):
    return max_coeff_diff(poly_a, poly_b) < tol


def _matrix_close(poly, n_modes, reference, tol=1e-9):
    import itertools
    got = poly_matrix(poly, n_modes, CUTOFF)
    idx = [sum(c * CUTOFF ** (n_modes - 1 - i) for i, c in enumerate(tup))
           for tup in itertools.product(range(BLOCK), repeat=n_modes)]
    blk = np.ix_(idx, idx)
    return np.max(np.abs(got[blk] - reference[blk])) < tol


def test_monomial_refuses_a_repeated_mode():
    with pytest.raises(ValueError, match="duplicate mode"):
        NOPoly.monomial([(0, 1, 0), (0, 0, 1)])


def test_canonical_commutator():
    c = commutator(NOPoly.x(0), NOPoly.p(0))
    assert _close(c, NOPoly.constant(0.5j))


def test_product_against_fock_matrices_single_mode():
    rng = np.random.default_rng(7)
    for _ in range(6):
        ka = (0, rng.integers(0, 4), rng.integers(0, 4))
        kb = (0, rng.integers(0, 4), rng.integers(0, 4))
        a = NOPoly.monomial([ka], complex(rng.normal(), rng.normal()))
        b = NOPoly.monomial([kb], complex(rng.normal(), rng.normal()))
        prod = poly_mul(a, b)
        ref = poly_matrix(a, 1, CUTOFF) @ poly_matrix(b, 1, CUTOFF)
        assert _matrix_close(prod, 1, ref)


def test_product_against_fock_matrices_two_modes():
    a = NOPoly.monomial([(0, 1, 1), (1, 0, 2)], 1.3) + NOPoly.x(1, 2, -0.4)
    b = NOPoly.monomial([(0, 0, 2), (1, 2, 0)], 0.7) + NOPoly.p(0, 1, 2.0)
    prod = poly_mul(a, b)
    ref = poly_matrix(a, 2, CUTOFF) @ poly_matrix(b, 2, CUTOFF)
    assert _matrix_close(prod, 2, ref)


def _random_poly(rng, n_terms):
    """n_terms random monomials on modes 0-3, exponents 0-4, complex
    coefficients."""
    terms = {}
    for _ in range(n_terms):
        modes = sorted(rng.choice(4, size=rng.integers(0, 5), replace=False))
        key = [(int(m), int(rng.integers(0, 5)), int(rng.integers(0, 5)))
               for m in modes]
        terms[tuple(f for f in key if f[1] or f[2])] = complex(*rng.normal(size=2))
    return NOPoly(terms)


def test_product_matches_the_plain_loops_bit_for_bit():
    rng = np.random.default_rng(17)
    pairs = [(_random_poly(rng, rng.integers(1, 5)),
              _random_poly(rng, rng.integers(1, 5))) for _ in range(300)]
    # X and P in both factors on shared modes: every reordering term k ≥ 1
    both = NOPoly.monomial([(0, 2, 3), (1, 4, 1), (3, 1, 4)], 0.3 - 1.1j)
    pairs += [(both, both),
              (both, NOPoly.monomial([(0, 4, 4), (1, 1, 2), (2, 3, 1)], -0.7j)),
              (NOPoly.monomial([(1, 1, 4)], 2.5) + NOPoly.constant(1e-3j),
               NOPoly.monomial([(1, 4, 1), (2, 2, 2)], -1.3 + 0.2j))]
    for a, b in pairs:
        got, want = poly_mul(a, b), poly_mul_by_loops(a, b)
        # same keys in the same order; repr tells every float apart, the
        # sign of a zero included
        assert repr(list(got.terms.items())) == repr(list(want.terms.items()))


def test_commutator_matches_the_difference_of_products():
    rng = np.random.default_rng(23)
    for _ in range(200):
        a = _random_poly(rng, rng.integers(1, 4))
        b = _random_poly(rng, rng.integers(1, 4))
        ab, ba = poly_mul(a, b), poly_mul(b, a)
        scale = max(map(abs, [*ab.terms.values(), *ba.terms.values()]))
        assert max_coeff_diff(commutator(a, b), ab - ba) <= 1e-12 * scale


def test_product_associative():
    a = NOPoly.x(0, 2) + NOPoly.p(0, 1, 0.5j)
    b = NOPoly.monomial([(0, 1, 1)], 1.0)
    c = NOPoly.p(0, 2)
    left = poly_mul(poly_mul(a, b), c)
    right = poly_mul(a, poly_mul(b, c))
    assert _close(left, right)


def test_commutator_antisymmetry_and_jacobi():
    a = NOPoly.x(0, 3)
    b = NOPoly.monomial([(0, 1, 1)], 1.0)
    c = NOPoly.p(0, 2)
    assert _close(commutator(a, b), commutator(b, a).scale(-1))
    jac = (commutator(a, commutator(b, c))
           + commutator(b, commutator(c, a))
           + commutator(c, commutator(a, b)))
    assert _close(jac, NOPoly.zero())


def test_adjoint_series_shear():
    # e^{A} P e^{-A} with A = itX^2 shifts P linearly in X
    t = 0.37
    a = NOPoly.x(0, 2, 1j * t)
    got = adjoint_series(a, NOPoly.p(0))
    want = NOPoly.p(0) + NOPoly.x(0, 1, -t)
    assert _close(got, want)


def test_adjoint_series_cubic():
    t = 0.21
    a = NOPoly.x(0, 3, 1j * t)
    got = adjoint_series(a, NOPoly.p(0))
    want = NOPoly.p(0) + NOPoly.x(0, 2, -1.5 * t)
    assert _close(got, want)


def test_adjoint_series_two_mode_shift():
    # A = 2iP_0X_1 displaces X_0 by X_1 and leaves X_1 alone
    a = NOPoly.monomial([(0, 0, 1), (1, 1, 0)], 2j)
    got = adjoint_series(a, NOPoly.x(0))
    want = NOPoly.x(0) + NOPoly.x(1)
    assert _close(got, want)
    assert _close(adjoint_series(a, NOPoly.x(1)), NOPoly.x(1))


def test_adjoint_series_matches_matrix_commutator_series():
    # oracle: the same nested-commutator sum evaluated with dense matrices,
    # which is exact on low levels because each term raises finitely many
    t = 0.11
    a_mat = 1j * t * poly_matrix(NOPoly.x(0, 3), 1, CUTOFF)
    b_mat = poly_matrix(NOPoly.p(0, 2), 1, CUTOFF)
    ref = np.zeros_like(b_mat)
    nested = b_mat
    fact = 1.0
    for k in range(6):
        ref = ref + nested / fact
        nested = a_mat @ nested - nested @ a_mat
        fact *= k + 1
    got = adjoint_series(NOPoly.x(0, 3, 1j * t), NOPoly.p(0, 2))
    assert _matrix_close(got, 1, ref, tol=1e-7)


def test_adjoint_series_raises_when_not_terminating():
    # [X^2, P^2] feeds back into itself: the series never truncates
    with pytest.raises(NonTerminatingSeries):
        adjoint_series(NOPoly.x(0, 2, 1j) + NOPoly.p(0, 2, 1j), NOPoly.x(0))


@pytest.mark.parametrize("coeff", [math.nan, complex(0, math.nan), math.inf])
def test_non_finite_coefficients_are_never_pruned(coeff):
    assert not NOPoly.x(0, 2, coeff).is_zero()
    assert NOPoly.x(0, 2, 1e-13).is_zero()


@pytest.mark.parametrize("t", [1e154, 1e200])
def test_adjoint_series_of_a_huge_commuting_power_stays_finite(t):
    # the second term is [X⁴, X³] = 0; the bracket leaves out the products
    # of ab and ba that would cancel, which overflow at this scale
    image = adjoint_series(NOPoly.x(0, 4, 1j * t), NOPoly.p(0))
    assert image.terms == {((0, 0, 1),): 1, ((0, 3, 0),): -2 * t}


def test_adjoint_series_stops_at_a_non_finite_term():
    # e^A P⁴ e^{-A} with A = itX² is (P − tX)⁴; at t = 1e200 the t² term
    # overflows, and the series ends there, before the t³ term X³P
    image = adjoint_series(NOPoly.x(0, 2, 1j * 1e200), NOPoly.p(0, 4))
    assert not all(map(cmath.isfinite, image.terms.values()))
    assert ((0, 3, 1),) not in image.terms
