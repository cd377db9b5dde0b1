"""Compiler routes, eligibility rules, and exact identity building blocks.

Every decomposition is validated with the symbolic Heisenberg verifier, which
is itself tested against dense matrices elsewhere; gate counts follow the
non-Fourier counting convention of the reports.
"""

import numpy as np
import pytest

from cvexact.algebra import Basis, NOPoly
from cvexact.decompose import (Ineligible, NoUnitCentralMode, TargetGate,
                               check_eligibility, compile, decompose_poly_power)
from cvexact.circuit_tools import count_gates
from cvexact.cli import parse_spec
from cvexact.verify import verify_symbolic

from util import negate_last_exp

TOL = 1e-9
X, P = Basis.POSITION, Basis.MOMENTUM


def _check(seq, generator, strength):
    assert verify_symbolic(seq, generator, strength) < TOL


def _compiled(strength, *factors):
    """Circuit of e^{i*strength*Π factors}, each factor (mode, power, basis)."""
    return compile(TargetGate(factors, strength))[0]


# ---------------------------------------------------------------- counts ---

def test_triple_product_count():
    seq, rep = compile(TargetGate.position({0: 1, 1: 1, 2: 1}, 1.0))
    assert rep.n_gates_nonfourier == 17


def test_quartic_count():
    seq, rep = compile(TargetGate.position({0: 4}, 1.0))
    assert rep.n_gates_nonfourier == 29


def test_two_squares_count():
    seq, rep = compile(TargetGate.position({0: 2, 1: 2}, 1.0))
    assert rep.n_gates_nonfourier == 119


@pytest.mark.parametrize("exps,reference", [
    ({0: 1, 1: 3}, 125),
    ({0: 2, 1: 1, 2: 1}, 281),
    ({0: 1, 1: 1, 2: 1, 3: 1}, 440),
])
def test_multi_mode_counts_within_factor_four(exps, reference):
    seq, rep = compile(TargetGate.position(exps, 1.0))
    count = rep.n_gates_nonfourier
    assert count <= 4 * reference
    assert count >= reference / 4


def test_counts_independent_of_strength_and_split():
    for t in (0.05, 1.0, -2.0):
        for bal in (False, True):
            _, rep = compile(TargetGate.position({0: 4}, t), balanced=bal)
            assert rep.n_gates_nonfourier == 29


# route, non-Fourier count, total count and ancillas at t = 0.3
ROUTE_PINS = [
    ("X[0]^3", "UniversalPrimitive", 1, 1, 0),
    ("X[0] X[1]", "UniversalPrimitive", 1, 1, 0),
    ("P[0] X[1]", "UniversalPrimitive", 1, 3, 0),
    ("X[0]^4", "SingleEven", 29, 55, 1),
    ("X[0] X[1] X[2]", "GeneralMultiMode", 17, 29, 0),
    ("P[0] P[1] P[2]", "GeneralMultiMode", 17, 35, 0),
    ("X[0]^2 X[1] X[2]", "GeneralMultiMode", 873, 1681, 6),
    ("P[0] X[1]^2", "SpecialIdentity(px2)", 9, 17, 0),
    ("P[0] X[1]^3", "SpecialIdentity(pxn)", 269, 519, 4),
    ("X[0]^2 P[1] P[2]", "SpecialIdentity(ppxn)", 359, 699, 4),
    ("X[0]^2 X[1]^2", "SpecialIdentity(twosquares)", 119, 229, 1),
    ("X[0] X[1]^3", "SpecialIdentity(xxn)", 269, 521, 4),
    # momentum forms of the two patterns above: routed as their
    # all-position form inside the intake Fourier conjugation
    ("X[0] P[1]^2", "SpecialIdentity(xxn)", 9, 21, 0),
    ("P[0]^2 P[1]^2", "SpecialIdentity(twosquares)", 119, 233, 1),
]


@pytest.mark.parametrize("body,route,nonfourier,total,ancillas", ROUTE_PINS,
                         ids=[b.translate({ord(c): None for c in "[] "})
                              for b, *_ in ROUTE_PINS])
def test_route_and_counts_pinned(body, route, nonfourier, total, ancillas):
    _, rep = compile(parse_spec(f"t=0.3 {body}"))
    assert (rep.route, rep.n_gates_nonfourier, rep.n_gates_total,
            rep.n_ancillas) == (route, nonfourier, total, ancillas)


# ----------------------------------------------------------- eligibility ---

@pytest.mark.parametrize("exps", [{0: 5}, {0: 7}, {0: 2, 1: 2, 2: 2}])
def test_rejections_cite_restrictions(exps):
    v = check_eligibility(TargetGate.position(exps, 1.0))
    assert not v.eligible
    assert "divisible" in v.reason or "exponent" in v.reason


@pytest.mark.parametrize("exps", [
    {0: 6}, {0: 9}, {0: 1, 1: 3}, {0: 2, 1: 1, 2: 1},
    {0: 1, 1: 1, 2: 1, 3: 1},
])
def test_accepted_targets(exps):
    v = check_eligibility(TargetGate.position(exps, 1.0))
    assert v.eligible, v.reason


def test_compile_raises_on_ineligible():
    with pytest.raises(Ineligible):
        compile(TargetGate.position({0: 5}, 1.0))


def test_mixed_quadrature_targets_compile():
    # momentum factors are absorbed by Fourier conjugation at intake
    tg = TargetGate(((0, 1, Basis.MOMENTUM), (1, 2, Basis.POSITION)), 0.3)
    seq, rep = compile(tg)
    _check(seq, tg.generator(), tg.strength)


def test_momentum_two_squares_is_exact():
    # P0²P1² is X0²X1² inside an intake Fourier conjugation of both modes
    tg = parse_spec("t=0.3 P[0]^2 P[1]^2")
    seq, _ = compile(tg)
    _check(seq, tg.generator(), tg.strength)


# --------------------------------------------------- building-block routes ---

@pytest.mark.parametrize("s", [0.5, -0.8, 2.0])
def test_px2_identity(s):
    seq = _compiled(s, (0, 1, P), (1, 2, X))
    gen = NOPoly.monomial([(0, 0, 1), (1, 2, 0)], 1.0)
    _check(seq, gen, s)
    assert count_gates(seq, exclude_fourier=True) == 9


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_px_n_identity(n):
    s = 0.7
    seq = _compiled(s, (0, 1, P), (1, n, X))
    gen = NOPoly.monomial([(0, 0, 1), (1, n, 0)], 1.0)
    _check(seq, gen, s)


def test_px_n_negative_strength():
    seq = _compiled(-0.4, (0, 1, P), (1, 3, X))
    gen = NOPoly.monomial([(0, 0, 1), (1, 3, 0)], 1.0)
    _check(seq, gen, -0.4)


def test_pp_xn_identity():
    s = 0.6
    seq = _compiled(s, (0, 2, X), (1, 1, P), (2, 1, P))
    gen = NOPoly.monomial([(0, 2, 0), (1, 0, 1), (2, 0, 1)], 1.0)
    _check(seq, gen, s)


def test_pp_xn_higher_power_compiles_to_universal_gates():
    # the n >= 3 route goes through the general multi-mode expansion; full
    # symbolic verification of that large circuit lives with the expansion
    # tests, here we check the structure
    seq = _compiled(0.6, (0, 3, X), (1, 1, P), (2, 1, P))
    assert all(g.is_universal() for g in seq.gates)


@pytest.mark.parametrize("t", [0.5, -1.2])
def test_x2x2_identity(t):
    seq = _compiled(t, (0, 2, X), (1, 2, X))
    gen = NOPoly.monomial([(0, 2, 0), (1, 2, 0)], 1.0)
    _check(seq, gen, t)


@pytest.mark.parametrize("n", [4, 6, 8, 10])
def test_single_even_identity(n):
    t = 0.9
    seq = _compiled(t, (0, n, X))
    _check(seq, NOPoly.x(0, n), t)


def test_x8_at_unit_strength_is_exact():
    # the per-operator fold never finished this row; the composed map
    # decides it, and a circuit with its last gate negated is rejected
    seq = _compiled(1.0, (0, 8, X))
    _check(seq, NOPoly.x(0, 8), 1.0)
    assert verify_symbolic(negate_last_exp(seq), NOPoly.x(0, 8), 1.0) > 1e-2


def test_single_odd_nine_compiles_to_universal_gates():
    seq = _compiled(0.3, (0, 9, X))
    assert all(g.is_universal() for g in seq.gates)
    assert len(seq.gates) > 100


def test_poly_power_expands_mode_sum():
    # e^{it(X_0 + X_1^2)^2}
    t = 0.4
    seq = decompose_poly_power([(0, 1), (1, 2)], 2, t)
    base = NOPoly.x(0) + NOPoly.x(1, 2)
    gen = NOPoly.zero()
    from cvexact.algebra import poly_mul
    gen = poly_mul(base, base)
    _check(seq, gen, t)


def test_poly_power_needs_unit_summand():
    with pytest.raises(NoUnitCentralMode):
        decompose_poly_power([(0, 2), (1, 2)], 4, 0.3)


# ------------------------------------------------------------ full routes ---

@pytest.mark.parametrize("exps,t", [
    ({0: 4}, 0.7),
    ({0: 6}, 0.2),
    ({0: 1, 1: 1, 2: 1}, 1.0),
    ({0: 2, 1: 2}, 0.5),
    ({0: 1, 1: 3}, 0.3),
    ({0: 2, 1: 1, 2: 1}, 0.4),
    ({0: 1, 1: 1, 2: 1, 3: 1}, 0.6),
])
def test_full_compilations_are_symbolically_exact(exps, t):
    tg = TargetGate.position(exps, t)
    seq, rep = compile(tg)
    _check(seq, tg.generator(), tg.strength)
    assert all(g.is_universal() for g in seq.gates)


def test_balanced_split_is_also_exact():
    tg = TargetGate.position({0: 4}, 0.05)
    seq, _ = compile(tg, balanced=True)
    _check(seq, tg.generator(), tg.strength)


def test_ancillas_present_in_report():
    _, rep = compile(TargetGate.position({0: 4}, 1.0))
    assert rep.n_ancillas >= 1
    assert rep.recursion_trace  # route labels were recorded


def test_montecarlo_style_targets():
    # X_0^n P_1 P_2 P_3 is eligible for any n >= 1
    for n in (1, 2, 3, 4):
        exps = ((0, n, Basis.POSITION), (1, 1, Basis.MOMENTUM),
                (2, 1, Basis.MOMENTUM), (3, 1, Basis.MOMENTUM))
        v = check_eligibility(TargetGate(exps, 1.0))
        assert v.eligible, (n, v.reason)
