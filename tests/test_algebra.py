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

from util import poly_matrix

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


def test_adjoint_series_stops_at_a_non_finite_term():
    # the second term is [X⁴, X³] = 0, but at this scale the two products
    # overflow and their difference is inf − inf: the series ends with that
    # NaN term instead of running on to NonTerminatingSeries
    big = NOPoly.x(0, 4, 1j * 1e200)
    image = adjoint_series(big, NOPoly.p(0))
    assert not all(map(cmath.isfinite, image.terms.values()))
