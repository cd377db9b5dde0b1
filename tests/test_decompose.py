"""Compiler routes, eligibility rules, and exact identity building blocks.

Every decomposition is validated with the symbolic Heisenberg verifier, which
is itself tested against dense matrices elsewhere; gate counts follow the
non-Fourier counting convention of the reports.
"""

import numpy as np
import pytest

from cvexact.algebra import Basis, NOPoly, poly_mul
from cvexact.circuit import EXPPOLY, Gate, GateSeq
from cvexact.decompose import (EligibilityVerdict, Ineligible, TargetGate,
                               _Compiler, check_eligibility, compile)
from cvexact.circuit_tools import ZERO_STRENGTH, count_gates
from cvexact.cli import parse_spec
from cvexact.verify import verify_symbolic

from test_acceptance import _NativeQuartics
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
    ("X[0]^2 X[1] X[2]", "GeneralMultiMode", 873, 1681, 2),
    ("P[0] X[1]^2", "SpecialIdentity(px2)", 9, 17, 0),
    ("P[0] X[1]^3", "SpecialIdentity(pxn)", 269, 519, 1),
    ("X[0]^2 P[1] P[2]", "SpecialIdentity(ppxn)", 359, 699, 1),
    ("X[0]^2 X[1]^2", "SpecialIdentity(twosquares)", 119, 229, 1),
    ("X[0] X[1]^3", "SpecialIdentity(xxn)", 269, 521, 1),
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


@pytest.mark.parametrize("factor", [
    (0, True, X), (0, 2.0, X), (0, 0, X), (0.5, 2, X), (-1, 2, X),
    (True, 2, X), (0, 2, "x"),
], ids=["power-bool", "power-float", "power-zero", "mode-float",
        "mode-negative", "mode-bool", "basis-str"])
def test_target_refuses_an_ill_typed_factor(factor):
    # each of these once recursed without end, compiled a fractional mode
    # count, or failed only after a full compile
    with pytest.raises(ValueError):
        TargetGate(((3, 1, P), factor), 0.3)


def test_run_refuses_a_gate_strength_that_overflows():
    # the balanced px2 split makes 0.75·α³·t inf at s = 1e308, a strength
    # of a gate it builds directly, not of a nested target
    tg = parse_spec("t=1e308 P[0] X[1]^2")
    with pytest.raises(Ineligible, match="overflows the parameters"):
        _Compiler(2, balanced=True).run(tg)


def test_compile_refuses_a_merge_that_overflows(monkeypatch):
    # each gate run returns is finite; optimize merges the two to inf
    def px2(self, j, k, s):
        x3 = self._gate(Gate.x(j, 3, 1e308))
        return [x3, x3]

    monkeypatch.setattr(_Compiler, "px2", px2)
    with pytest.raises(Ineligible, match="overflows the parameters"):
        compile(parse_spec("t=0.3 P[0] X[1]^2"))


def test_compile_raises_on_ineligible():
    with pytest.raises(Ineligible):
        compile(TargetGate.position({0: 5}, 1.0))


@pytest.mark.parametrize("body,reason", [
    ("X[0] X[1] X[2] X[3] X[4]",
     "mode count 5 is divisible by neither 2 nor 3"),
    # a momentum target whose all-position form has no route
    ("P[0]^5", "single-mode power 5 is divisible by neither 2 nor 3"),
])
def test_ineligible_verdict_carries_the_reason_compile_raises(body, reason):
    tg = parse_spec(f"t=0.3 {body}")
    assert check_eligibility(tg) == EligibilityVerdict(False, "", reason)
    with pytest.raises(Ineligible) as exc:
        compile(tg)
    assert str(exc.value) == reason


def test_eligible_verdict_has_route_and_no_reason():
    assert (check_eligibility(parse_spec("t=0.3 X[0] P[1]^2"))
            == EligibilityVerdict(True, "SpecialIdentity(xxn)", ""))


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
    assert count_gates(seq) == 9


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
    # n >= 3 takes the generic momentum route: the general multi-mode
    # expansion inside the intake Fourier conjugation
    seq, rep = compile(TargetGate(((0, 3, X), (1, 1, P), (2, 1, P)), 0.6))
    assert rep.route == "GeneralMultiMode"
    assert all(g.kind != EXPPOLY for g in seq.gates)


def test_pp_xn_higher_power_negative_strength_is_exact():
    tg = parse_spec("t=-0.6 P[0] P[1] X[2]^3")
    seq, _ = compile(tg)
    _check(seq, tg.generator(), tg.strength)


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
    assert all(g.kind != EXPPOLY for g in seq.gates)
    assert len(seq.gates) > 100


# ------------------------------------------------- one identity, one level ---

class _OneLevel(_Compiler):
    """Every nested target is one ideal gate, so a route emits the gates of
    its own identity only."""

    def _sub(self, s, *factors):
        return [Gate.exp_poly(TargetGate(factors, s).generator(), s)]


# (body, strength, whether the identity asks for a nested target)
ONE_LEVEL = [
    ("X[0]^4", 0.7, True),                 # single_even
    ("X[0]^6", -0.3, True),
    ("X[0]^8", 1.0, True),
    ("X[0]^12", 0.9, True),
    ("X[0]^9", 0.3, True),                 # single_odd3
    ("X[0]^2 X[1]^2", 0.5, True),          # x2x2
    ("P[0] X[1]^2", 0.5, False),           # px2
    ("P[0] X[1]^2", -0.8, False),
    ("P[0] X[1]^3", 0.7, True),            # commutator_round, Y = X_1ⁿ⁻²
    ("P[0] X[1]^4", -0.4, True),
    ("P[0] X[1]^5", 0.4, True),
    ("P[0] X[1]^3", -0.7, True),
    ("X[0]^2 P[1] P[2]", 0.6, True),       # commutator_round, Y = P_2
    ("X[0]^2 P[1] P[2]", -0.6, True),
    ("X[0]^2 X[1] X[2]", 0.4, True),       # general
    ("X[0] X[1] X[2] X[3]", -0.6, True),
    ("X[0]^2 X[1] X[2] X[3]", 0.3, True),
    ("X[0] X[1] X[2] X[3] X[4] X[5]", 0.4, True),
    ("X[0]^2 X[1] X[2] X[3] X[4] X[5]", -0.5, True),
    ("X[0]^3 P[1] P[2] P[3]", 0.5, True),  # montecarlo:3: general inside
    ("P[0] P[1] X[2]^3", 0.3, True),       # the intake Fourier conjugation
    ("P[0] P[1] X[2]^4", -0.3, True),
    ("X[0] X[1]^3", 0.3, True),            # the xxn row of _classify
]


@pytest.mark.parametrize("body,t,nests,balanced", [
    pytest.param(b, t, nests, bal,
                 id=f"{b}@{t}".translate({ord(c): None for c in "[] "})
                 + ("-balanced" if bal else ""))
    for bal in (False, True) for b, t, nests in ONE_LEVEL])
def test_each_identity_is_exact_with_ideal_nested_targets(body, t, nests,
                                                          balanced):
    tg = parse_spec(f"t={t} {body}")
    comp = _OneLevel(max(tg.modes()) + 1, balanced)
    _, gates = comp.run(tg)
    seq = GateSeq(tuple(gates), max(tg.modes()) + 1, tuple(comp.ancillas))
    assert verify_symbolic(seq, tg.generator(), t) <= 1e-12
    assert verify_symbolic(negate_last_exp(seq), tg.generator(), t) > 1e-3
    assert any(g.kind == EXPPOLY for g in gates) == nests
    assert len(comp.trace) <= 1


@pytest.mark.parametrize("body,trace", [
    ("X[0]^4", [("single-even", 0)]),
    ("P[0]^4", [("single-even", 0)]),      # the intake row's label
    ("X[0]^2 X[1]^2", [("twosquares", 0)] + [("single-even", 1)] * 4),
    # the xxn row records none; pxn's f2 is a two-squares target, f5 X⁴
    ("X[0] X[1]^3", [("pxn", 0), ("twosquares", 1)]
     + [("single-even", 2)] * 4 + [("single-even", 1)]),
])
def test_an_overridden_identity_is_traced_under_its_route_label(body, trace):
    tg = parse_spec(f"t=0.5 {body}")
    comp = _NativeQuartics(max(tg.modes()) + 1)
    comp.run(tg)
    assert comp.trace == trace and comp.depth == 0


def test_an_identity_called_directly_records_nothing():
    comp = _OneLevel(2)
    assert comp.commutator_round(1, 0, (1, 1, X), 0.7)
    assert comp.px2(1, 0, 0.5)
    assert comp.trace == [] and comp.depth == 0


def test_a_nested_target_below_zero_strength_records_nothing():
    comp = _Compiler(1)
    assert comp._sub(ZERO_STRENGTH / 2, (0, 4, X)) == []
    assert comp.trace == [] and comp.ancillas == []
    assert comp._sub(ZERO_STRENGTH * 2, (0, 4, X))
    assert comp.trace[0] == ("single-even", 0)


# (central mode c, shifts (s, Y factors), power n, strength t)
SHIFTED_POWERS = {
    "unit-shift-squared": (0, [(2.0, [(1, 1, X)])], 2, 0.3),
    "square-shift-cubed": (0, [(0.8, [(1, 2, X)])], 3, -0.4),
    # single_odd3's square, and the cross-term square of two monomials
    "two-shifts-squared": (2, [(2.0, [(0, 3, X)]), (2.0, [(1, 2, X)])], 2,
                           -0.45),
    # one sign-sum row: shifts of both signs
    "sign-sum-cubed": (0, [(-2.0, [(1, 1, X)]), (2.0, [(2, 1, X)])], 3,
                       0.25),
}


@pytest.mark.parametrize("c,shifts,n,t", SHIFTED_POWERS.values(),
                         ids=SHIFTED_POWERS.keys())
def test_shifted_power_is_the_power_of_the_shifted_quadrature(c, shifts, n,
                                                              t):
    n_modes = 1 + max([c] + [m for _, y in shifts for m, _, _ in y])
    gates = _OneLevel(n_modes)._shifted_power(c, shifts, n, t)
    seq = GateSeq(tuple(gates), n_modes, ())
    shifted = NOPoly.x(c, 1)
    for s, y in shifts:
        shifted = shifted + TargetGate(tuple(y), 1.0).generator().scale(s / 2)
    power = NOPoly.constant(1.0)
    for _ in range(n):
        power = poly_mul(power, shifted)
    assert verify_symbolic(seq, power, t) <= 1e-12
    assert verify_symbolic(negate_last_exp(seq), power, t) > 1e-3


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
    assert all(g.kind != EXPPOLY for g in seq.gates)


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
