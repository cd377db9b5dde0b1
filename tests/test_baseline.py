"""Approximate baselines: Trotter splitting and group-commutator circuits."""

import math

import numpy as np
import pytest

from cvexact import baseline
from cvexact.algebra import NOPoly, commutator
from cvexact.baseline import (COMMUTATOR_MODEL_C, commutator_approx,
                              commutator_repeats, estimate_commutator_count,
                              target_from_poly, trotter_suzuki)
from cvexact.decompose import Ineligible, TargetGate, compile
from cvexact.verify import FockContext, verify_numeric, verify_symbolic


def test_target_from_poly_folds_coefficient():
    tg = target_from_poly(NOPoly.x(0, 4, 2.0), 0.5)
    assert tg.strength == 1.0
    assert tg.exponents[0][1] == 4


def test_target_from_poly_rejects_sums_and_mixed_factors():
    with pytest.raises(Ineligible):
        target_from_poly(NOPoly.x(0) + NOPoly.x(1))
    with pytest.raises(Ineligible):
        target_from_poly(NOPoly.monomial([(0, 1, 1)], 1.0))
    # a constant is the empty product, which no target may be
    with pytest.raises(Ineligible, match="constant generator"):
        target_from_poly(NOPoly.constant(2.0))
    for empty in (lambda: TargetGate((), 1.0),
                  lambda: TargetGate.position({}, 1.0)):
        with pytest.raises(ValueError, match="at least one quadrature factor"):
            empty()


def test_target_from_poly_rejects_complex_coefficient():
    with pytest.raises(Ineligible, match="must be real"):
        target_from_poly(NOPoly.x(0, 4, 2.0 + 0.5j))


@pytest.mark.parametrize("build,exc,match", [
    (lambda: commutator_approx(NOPoly.x(0, 3), NOPoly.p(0), 0.1, 0),
     ValueError, "K must"),
    (lambda: commutator_approx(NOPoly.x(0, 3), NOPoly.p(0), -0.1, 2),
     ValueError, "t2 must"),
    (lambda: trotter_suzuki([NOPoly.x(0, 2)], 0.4, 0), ValueError, "K must"),
    (lambda: commutator_repeats(1.0, 0.0), ValueError, "epsilon must"),
    (lambda: commutator_repeats(1.0, -1e-3), ValueError, "epsilon must"),
    (lambda: commutator_repeats(1e200, 1e-300), ValueError, "than a float"),
    # strengths whose identity parameters overflow, as compile refuses them
    (lambda: trotter_suzuki([NOPoly.x(0, 4)], 1e300, 1), Ineligible,
     "overflows"),
    (lambda: trotter_suzuki([NOPoly.x(0, 8)], 1e150, 1), Ineligible,
     "overflows"),
    # a finite coefficient times a finite strength that overflows
    (lambda: trotter_suzuki([NOPoly.x(0, 4, 1e200)], 1e200, 1), Ineligible,
     "overflows"),
    (lambda: commutator_approx(NOPoly.x(0, 3, -1e300), NOPoly.p(0), 1e20, 1),
     Ineligible, "overflows"),
    (lambda: target_from_poly(NOPoly.x(0, 2, 1e300), 1e10), Ineligible,
     "overflows"),
    # a non-finite strength or coefficient is no overflow
    (lambda: target_from_poly(NOPoly.x(0, 2), math.inf), ValueError,
     "not finite"),
    (lambda: target_from_poly(NOPoly.x(0, 2, math.inf), 1.0), ValueError,
     "not finite"),
    (lambda: target_from_poly(NOPoly.x(0, 2), math.nan), ValueError,
     "not finite"),
], ids=["commutator-K0", "commutator-negative-t2", "trotter-K0",
        "repeats-epsilon-0", "repeats-negative-epsilon", "repeats-past-float",
        "trotter-overflow-x4", "trotter-overflow-x8",
        "trotter-coefficient-overflow", "commutator-coefficient-overflow",
        "target-coefficient-overflow", "target-strength-inf",
        "target-coefficient-inf", "target-strength-nan"])
def test_baselines_refuse_bad_parameters(build, exc, match):
    with pytest.raises(exc, match=match):
        build()


def test_commutator_of_zero_strength_compiles_nothing(monkeypatch):
    monkeypatch.setattr(baseline, "_compiled_gates", None)  # a call would raise
    seq = commutator_approx(NOPoly.x(0, 3), NOPoly.p(1), 0.0, 3)
    assert (seq.gates, seq.n_target_modes, seq.ancilla_modes) == ((), 2, ())


def test_trotter_commuting_terms_is_exact():
    terms = [NOPoly.x(0, 2), NOPoly.x(0, 1, 0.5)]
    seq = trotter_suzuki(terms, 0.4, 1)
    gen = terms[0] + terms[1]
    err, _ = verify_numeric(seq, gen, 0.4, FockContext(cutoff=24, subspace=5))
    assert err < 1e-10


def test_trotter_error_shrinks_with_K():
    terms = [NOPoly.x(0, 2), NOPoly.p(0, 2)]
    gen = terms[0] + terms[1]
    errs = []
    for K in (2, 8):
        seq = trotter_suzuki(terms, 0.3, K)
        err, _ = verify_numeric(seq, gen, 0.3, FockContext(cutoff=30, subspace=5))
        errs.append(err)
    assert errs[1] < errs[0] / 2.5


def test_trotter_gate_count_scales_with_K():
    terms = [NOPoly.x(0, 2), NOPoly.p(0, 2)]
    s1 = trotter_suzuki(terms, 0.3, 3)
    s2 = trotter_suzuki(terms, 0.3, 6)
    assert len(s2.gates) == 2 * len(s1.gates)


def test_commutator_approx_error_scales_as_one_over_K():
    a = NOPoly.x(0, 3)
    b = NOPoly.p(0, 2)
    gen = commutator(a, b).scale(-1j)  # e^{t2 [a,b]} = e^{i t2 G}
    t2 = 0.01
    ctx = FockContext(cutoff=40, subspace=8)
    errs = []
    for K in (5, 10, 20):
        seq = commutator_approx(a, b, t2, K)
        err, _ = verify_numeric(seq, gen, t2, ctx)
        errs.append(err)
    slope = np.polyfit(np.log([5, 10, 20]), np.log(errs), 1)[0]
    assert abs(slope + 1.0) < 0.3


def test_commutator_approx_group_structure():
    a, b = NOPoly.x(0, 3), NOPoly.p(0, 2)
    K = 3
    seq = commutator_approx(a, b, 0.04, K)
    # K^2 repetitions of the four-gate group, each gate itself compiled
    assert len(seq.gates) % (K * K) == 0


def test_commutator_repeats_floor_and_scaling():
    assert commutator_repeats(0.5, 1e6) == 1
    k1 = commutator_repeats(2.0 / 3.0, 1e-3)
    assert k1 == math.ceil(COMMUTATOR_MODEL_C * (2.0 / 3.0) / math.sqrt(1e-3))
    # quadrupling the error budget halves the repeat count (up to rounding)
    k2 = commutator_repeats(2.0 / 3.0, 4e-3)
    assert abs(k1 - 2 * k2) <= 2


def test_reference_repeat_count_within_order_of_magnitude():
    # nested-cube example at strength 2/3: about 1e5 group repetitions
    k = commutator_repeats(2.0 / 3.0, 1e-3)
    assert 1e4 <= k * k <= 1e6


def test_estimates_dwarf_exact_counts():
    eps = 1e-3
    for exps, exact in (({0: 4}, 29), ({0: 2, 1: 2}, 119)):
        count, model = estimate_commutator_count(
            TargetGate.position(exps, 1.0), eps)
        assert count > 50 * exact
        assert "commutator" in model


@pytest.mark.parametrize("exps,at_1e_3", [
    ({0: 4}, 74), ({0: 2, 1: 2}, 130), ({0: 1, 1: 1, 2: 1}, 130)])
def test_the_identity_costs_no_gate(exps, at_1e_3):
    # below ZERO_STRENGTH the compiler emits no gate, and the estimate
    # prices none; from there on it is unchanged
    for t in (0.0, -0.0, 1e-15, -1e-15):
        tg = TargetGate.position(exps, t)
        assert compile(tg)[1].n_gates_nonfourier == 0
        assert estimate_commutator_count(tg, 1e-3)[0] == 0
    for t in (1e-3, -1e-3):
        tg = TargetGate.position(exps, t)
        assert estimate_commutator_count(tg, 1e-3)[0] == at_1e_3


def test_estimate_monotone_in_precision():
    tg = TargetGate.position({0: 4}, 1.0)
    c1, _ = estimate_commutator_count(tg, 1e-2)
    c2, _ = estimate_commutator_count(tg, 1e-4)
    assert c2 > c1


def test_trotter_compiled_factors_are_exact_per_step():
    # one step of a two-term split: the individual factors carry no error,
    # so the sequence conjugates like the product of the two exponentials
    terms = [NOPoly.x(0, 3), NOPoly.x(0, 2)]
    seq = trotter_suzuki(terms, 0.2, 1)
    # both terms commute here, so even the full product is exact
    assert verify_symbolic(seq, terms[0] + terms[1], 0.2) < 1e-9


def test_unit_product_on_three_modes_costs_more_as_epsilon_shrinks():
    # the unit-product branch of the estimate: X₀X₁X₂ sheds one mode a level
    tg = TargetGate.position({0: 1, 1: 1, 2: 1}, 1.0)
    counts = [estimate_commutator_count(tg, eps)[0]
              for eps in (1e-1, 1e-3, 1e-5)]
    assert counts[1] == 361_000
    assert compile(tg)[1].n_gates_nonfourier < counts[0] < counts[1] < counts[2]
