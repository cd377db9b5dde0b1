"""Gate and sequence semantics: Heisenberg rules and ordering.

The gate-list convention (first entry is the leftmost operator, i.e. applied
last) and the conjugation rules are pinned down against dense truncated-Fock
matrices so that every later symbolic identity stands on checked ground.
"""

import numpy as np
import pytest

from cvexact.algebra import NOPoly, adjoint_series, max_coeff_diff
from cvexact.circuit import (EXPPOLY, FOURIER, Gate, GateSeq, gate_images,
                             heisenberg_conjugate)
from cvexact.circuit_tools import ZERO_STRENGTH

from util import fourier_by_products, gate_matrix, seq_matrix


def _close(a, b, tol=1e-10):
    return max_coeff_diff(a, b) < tol


def test_fourier_rules():
    f = Gate.fourier(0)
    assert _close(heisenberg_conjugate(f, NOPoly.x(0)), NOPoly.p(0, 1, -1.0))
    assert _close(heisenberg_conjugate(f, NOPoly.p(0)), NOPoly.x(0))
    fi = f.inverse()
    assert _close(heisenberg_conjugate(fi, NOPoly.x(0)), NOPoly.p(0))
    assert _close(heisenberg_conjugate(fi, NOPoly.p(0)), NOPoly.x(0, 1, -1.0))


def test_fourier_numeric_matches_heisenberg_rule():
    cutoff = 30
    f = gate_matrix(Gate.fourier(0), 1, cutoff)
    from util import xp_matrices
    x, p = xp_matrices(cutoff)
    blk = np.ix_(range(10), range(10))
    # F X F^dag = P and F P F^dag = -X for this Fourier convention
    assert np.max(np.abs((f @ x @ f.conj().T - p)[blk])) < 1e-10
    assert np.max(np.abs((f @ p @ f.conj().T + x)[blk])) < 1e-10


def test_fourier_period_four():
    f = Gate.fourier(0)
    b = NOPoly.x(0) + NOPoly.p(0, 1, 0.5)
    img = b
    for _ in range(4):
        img = heisenberg_conjugate(f, img)
    assert _close(img, b)


# X₀²P₀³X₁ + 0.5i·P₀X₂² + (-0.7+0.2i)·X₀³P₀³X₁P₁² + 0.25·X₁P₁ - P₀X₁³P₂
MIXED_B = (NOPoly.monomial([(0, 2, 3), (1, 1, 0)])
           + NOPoly.monomial([(0, 0, 1), (2, 2, 0)], 0.5j)
           + NOPoly.monomial([(0, 3, 3), (1, 1, 2)], -0.7 + 0.2j)
           + NOPoly.monomial([(1, 1, 1)], 0.25)
           - NOPoly.monomial([(0, 0, 1), (1, 3, 0), (2, 0, 1)]))


@pytest.mark.parametrize("mode", [0, 1])
def test_fourier_substitution_beyond_degree_one(mode):
    b = MIXED_B
    f = Gate.fourier(mode)
    for gate, forward in ((f, True), (f.inverse(), False)):
        got = heisenberg_conjugate(gate, b)
        assert max_coeff_diff(got, fourier_by_products(b, mode, forward)) < 1e-12
    img = b
    for _ in range(4):
        img = heisenberg_conjugate(f, img)
    assert max_coeff_diff(img, b) < 1e-12
    back = heisenberg_conjugate(f.inverse(), heisenberg_conjugate(f, b))
    assert max_coeff_diff(back, b) < 1e-12


@pytest.mark.parametrize("s", [0.7, -1.3])
@pytest.mark.parametrize("kind,gate", [
    ("x1", lambda s: Gate.x(0, 1, s)),
    ("x2", lambda s: Gate.x(1, 2, s)),
    ("x3", lambda s: Gate.x(0, 3, s)),
    ("xx", lambda s: Gate.xx(0, 1, s)),
    ("xx", lambda s: Gate.xx(2, 1, s)),
    ("exppoly", lambda s: Gate.exp_poly(NOPoly.x(0, 4), s)),
    ("exppoly", lambda s: Gate.exp_poly(
        NOPoly.monomial([(0, 0, 1), (1, 2, 0)]), s)),
], ids=["x1", "x2", "x3", "xx01", "xx12", "exppoly-X0^4", "exppoly-P0X1^2"])
def test_exponential_conjugation_matches_adjoint_series(kind, gate, s):
    # the closed-form images substituted into b against e^{A} b e^{-A}
    # summed as nested commutators of the whole of b
    g = gate(s)
    assert g.kind == kind
    want = adjoint_series(g.generator.scale(1j * s), MIXED_B)
    got = heisenberg_conjugate(g.inverse(), MIXED_B)
    scale = max(abs(c) for c in want.terms.values())
    assert max_coeff_diff(got, want) < 1e-12 * scale


def test_exppoly_conjugation_shear():
    t = 0.4
    g = Gate.x(0, 2, t)
    got = heisenberg_conjugate(g.inverse(), NOPoly.p(0))
    # g b g^dag for the quadratic phase: P picks up -tX
    assert _close(got, NOPoly.p(0) + NOPoly.x(0, 1, -t))
    goti = heisenberg_conjugate(g, NOPoly.p(0))
    assert _close(goti, NOPoly.p(0) + NOPoly.x(0, 1, t))


def test_coupling_gate_conjugation():
    tau = 0.8
    g = Gate.xx(0, 1, tau)
    got = heisenberg_conjugate(g, NOPoly.p(0))
    assert _close(got, NOPoly.p(0) + NOPoly.x(1, 1, tau / 2.0))
    assert _close(heisenberg_conjugate(g, NOPoly.x(0)), NOPoly.x(0))


@pytest.mark.parametrize("s", [ZERO_STRENGTH, 0.0, -0.0])
def test_gates_of_zero_strength_have_identity_images(s):
    # no strength threshold of its own: the image terms of so weak a gate
    # fall below the polynomial's pruning threshold
    for g in (Gate.x(0, 1, s), Gate.x(0, 2, s), Gate.x(0, 3, s),
              Gate.xx(0, 1, s)):
        for m in g.modes:
            assert gate_images(g, m) == (NOPoly.x(m), NOPoly.p(m)), (g, m)


@pytest.mark.parametrize("make", [lambda: Gate.fourier(0, 2),
                                  lambda: Gate.fourier(0, 0),
                                  lambda: Gate.xx(1, 1, 0.3)],
                         ids=["fourier-power-2", "fourier-power-0", "xx-same-mode"])
def test_malformed_gates_are_refused(make):
    with pytest.raises(ValueError):
        make()


@pytest.mark.parametrize("mode", [0, 3])
def test_fourier_record_and_its_inverse(mode):
    # a plain record, its strength always 0.0; the compiler decides sharing
    f = Gate.fourier(mode)
    assert (f.kind, f.modes, f.strength, f.power) == (FOURIER, (mode,), 0.0, 1)
    assert f == Gate.fourier(mode, 1) and f is not Gate.fourier(mode, 1)
    assert f.inverse() == Gate.fourier(mode, -1)
    assert Gate.fourier(mode, -1).inverse() == f


def test_gate_inverse_roundtrip():
    g = Gate.x(0, 3, 0.7)
    b = NOPoly.p(0, 2)
    back = heisenberg_conjugate(g.inverse(), heisenberg_conjugate(g, b))
    assert _close(back, b)


def test_sequence_order_first_gate_applied_last():
    # [A, B] as a list means the operator product A.B, so B acts first;
    # checked against explicit dense matrices
    cutoff = 30
    a = Gate.x(0, 2, 0.3)
    b = Gate.x(0, 1, 0.9)
    seq = GateSeq((a, b), 1)
    ref = gate_matrix(a, 1, cutoff) @ gate_matrix(b, 1, cutoff)
    got = seq_matrix(seq, cutoff)
    assert np.max(np.abs(got - ref)) < 1e-12


def test_sequence_inverse():
    seq = GateSeq((Gate.x(0, 3, 0.2), Gate.fourier(0), Gate.x(0, 2, -0.4)), 1)
    cutoff = 24
    u = seq_matrix(seq, cutoff)
    ui = seq_matrix(seq.inverse(), cutoff)
    blk = np.ix_(range(8), range(8))
    assert np.max(np.abs((u @ ui)[blk] - np.eye(cutoff)[blk])) < 1e-8


# generators that Gate.exp_poly turns into the record of Gate.x or Gate.xx
UNIT_MONOMIALS = [
    (NOPoly.x(0, 1), Gate.x(0, 1, 0.3)),
    (NOPoly.x(2, 2), Gate.x(2, 2, 0.3)),
    (NOPoly.x(1, 3), Gate.x(1, 3, 0.3)),
    (NOPoly.monomial([(0, 1, 0), (3, 1, 0)]), Gate.xx(3, 0, 0.3)),
]
# generators that stay exppoly gates
OTHER_GENERATORS = [NOPoly.x(0, 4), NOPoly.x(0, 3, 2.0),
                    NOPoly.monomial([(0, 1, 1)]),
                    NOPoly.monomial([(0, 1, 0), (1, 0, 1)])]


def test_exp_poly_normalises_universal_unit_monomials():
    for poly, record in UNIT_MONOMIALS:
        g = Gate.exp_poly(poly, 0.3)
        assert g == record
        assert g.poly is None
        assert g.generator == poly
    assert Gate.xx(3, 0, 0.3).modes == (0, 3)
    for poly in OTHER_GENERATORS:
        g = Gate.exp_poly(poly, 0.3)
        assert g.kind == EXPPOLY
        assert g.generator is poly
    assert Gate.x(0, 4, 0.3).kind == EXPPOLY


def test_universal_flag_and_generator_match_on_the_table():
    # the answers of the polynomial rules: universal means Fourier or a unit
    # monomial of the set, and two gates merge when their generators agree
    universal = [g for _, g in UNIT_MONOMIALS] + [Gate.fourier(1, -1)]
    others = [Gate.exp_poly(p, 0.3) for p in OTHER_GENERATORS]
    assert all(g.kind != EXPPOLY for g in universal)
    assert all(g.kind == EXPPOLY for g in others)
    table = universal + others + [Gate.xx(0, 3, -1.0), Gate.x(1, 3, 2.0),
                                  Gate.exp_poly(NOPoly.x(0, 4), -0.1)]
    for g in table:
        for h in table:
            want = (g.kind != FOURIER and h.kind != FOURIER
                    and g.generator == h.generator)
            assert g.same_generator(h) == want, (g, h)
