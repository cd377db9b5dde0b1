"""Approximation baselines: Trotter splitting and group-commutator circuits.

These produce approximate circuits (and gate-count estimates) for comparison
with the exact compiler. The Trotter splitter handles sums of monomial
Hamiltonians; the commutator expander approximates e^{t²[a,b]} by the
classic 4-gate group commutator repeated K² times, with error O(t⁴/K).
"""

from __future__ import annotations

import math

from .algebra import Basis, NOPoly
from .circuit import Gate, GateSeq
from .circuit_tools import ZERO_STRENGTH
from .decompose import Ineligible, TargetGate, _Compiler

# error-model constant for repeat-count estimates, calibrated so that the
# strength-2/3 nested-cubic example lands near its known 1e5 repeat count
COMMUTATOR_MODEL_C = 6.0


def target_from_poly(p: NOPoly, strength: float = 1.0) -> TargetGate:
    """Interpret a single-monomial polynomial as a TargetGate.

    The monomial coefficient (which must be real) folds into the strength.
    Mixed X·P factors on one mode and constants (the empty product) are
    rejected: they are not gate targets. A product of a finite coefficient
    and a finite strength that overflows is Ineligible, as compile refuses
    an overflowing parameter; a non-finite one is a ValueError.
    """
    if len(p.terms) != 1:
        raise Ineligible("only single-monomial generators are compilable")
    (key, coeff), = p.terms.items()
    if not key:
        raise Ineligible("a constant generator has no quadrature factor")
    if abs(coeff.imag) > 1e-12:
        raise Ineligible("generator coefficient must be real")
    exps = []
    for m, a, b in key:
        if a and b:
            raise Ineligible(
                f"mode {m} mixes X and P factors; no exact route exists")
        exps.append((m, a, Basis.POSITION) if a else (m, b, Basis.MOMENTUM))
    folded = strength * coeff.real
    finite = math.isfinite(strength) and math.isfinite(coeff.real)
    if finite and math.isinf(folded):
        raise Ineligible(f"strength {strength!r} times coefficient "
                         f"{coeff.real!r} overflows")
    return TargetGate(tuple(exps), folded)


def _compiled_gates(comp: _Compiler, p: NOPoly, strength: float) -> list[Gate]:
    return comp.run(target_from_poly(p, strength))[1]


def trotter_suzuki(terms: list[NOPoly], t: float, K: int) -> GateSeq:
    """(Π_j e^{i(t/K)H_j})^K with every factor exactly compiled.

    First-order splitting: the only approximation error is the Trotter
    commutator error O(t²/K); each factor circuit is exact.
    """
    if K < 1:
        raise ValueError("K must be at least 1")
    modes = set().union(*(p.modes() for p in terms)) if terms else set()
    n = max(modes) + 1 if modes else 1
    comp = _Compiler(n)
    group: list[Gate] = []
    for p in terms:
        group += _compiled_gates(comp, p, t / K)
    return GateSeq(tuple(group * K), n, tuple(comp.ancillas))


def commutator_approx(a: NOPoly, b: NOPoly, t2: float, K: int) -> GateSeq:
    """Approximate e^{t²[a,b]} by the group commutator to O(1/K).

    With τ = sqrt(t²)/K the 4-gate group e^{iτb}e^{iτa}e^{−iτb}e^{−iτa}
    equals e^{(t²/K²)[a,b]} up to third-order corrections; K² repetitions
    reach the full strength.
    """
    if K < 1:
        raise ValueError("K must be at least 1")
    if t2 < 0:
        raise ValueError("t2 must be nonnegative")
    modes = a.modes() | b.modes()
    n = max(modes) + 1 if modes else 1
    comp = _Compiler(n)
    if t2 == 0:
        return GateSeq((), n)
    tau = math.sqrt(t2) / K
    gb, ga = _compiled_gates(comp, b, tau), _compiled_gates(comp, a, tau)
    gbi, gai = _compiled_gates(comp, b, -tau), _compiled_gates(comp, a, -tau)
    group = gb + ga + gbi + gai
    return GateSeq(tuple(group * (K * K)), n, tuple(comp.ancillas))


def commutator_repeats(strength: float, epsilon: float) -> int:
    """K for one commutator level at the given strength and target error."""
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    return max(1, math.ceil(COMMUTATOR_MODEL_C * abs(strength)
                            / math.sqrt(epsilon)))


def _unit_like(exps) -> bool:
    """All exponents 1: realizable as one (Fourier-conjugated) coupling gate
    when at most two modes are involved."""
    return all(n == 1 for _, n, _ in exps)


def _estimate(exps: tuple[tuple[int, int, Basis], ...], strength: float,
              epsilon: float) -> int:
    """Gate count of the nested commutator scheme for e^{i*strength*H}.

    Cost model (a deliberate simplification, stated with every estimate):
    one- and two-mode monomials with all exponents 1, and single-mode powers
    up to 3, cost one gate via Fourier equivalence. A unit-exponent product
    on three or more modes sheds one mode per level via
    X_aX_b·M ∝ [X_aX_b², P_bM].
    Otherwise the mode with the largest exponent n is peeled with a cubic
    commutator: X^n·M is proportional to [X³, (X^{n−2}P + PX^{n−2})·M]
    (or [X³, P·M] when n = 2), giving a level with K = ceil(C·s/√ε) and
    4 group gates of 2·cost(X³) + 2·cost(rest).
    """
    exps = tuple(e for e in exps if e[1] > 0)
    if not exps or (_unit_like(exps) and len(exps) <= 2):
        return 1
    if len(exps) == 1 and exps[0][1] <= 3:
        return 1
    if _unit_like(exps):
        # three or more unit factors: X_aX_b·M is proportional to
        # [X_aX_b², P_bM], and both commutator sides involve fewer modes
        (a, _, _), (b2, _, _) = sorted(exps, key=lambda e: e[0])[:2]
        rest = tuple(e for e in exps if e[0] not in (a, b2))
        K = commutator_repeats(abs(strength), epsilon)
        tau = math.sqrt(abs(strength)) / K
        ca = _estimate(((a, 1, Basis.POSITION), (b2, 2, Basis.POSITION)),
                       tau, epsilon)
        cb = _estimate(rest + ((b2, 1, Basis.MOMENTUM),), tau, epsilon)
        return (2 * ca + 2 * cb) * K * K
    j, n, basis = max(exps, key=lambda e: e[1])
    rest = tuple(e for e in exps if e[0] != j)
    m = n - 2
    s_level = (2.0 if m == 0 else 1.0) / 3.0 * abs(strength)
    K = commutator_repeats(s_level, epsilon)
    tau = math.sqrt(s_level) / K
    cost_a = 1  # cubic gate on the peeled mode
    if m == 0:
        # partner operator P_j · M
        cost_b = _estimate(rest + ((j, 1, Basis.MOMENTUM),), tau, epsilon)
    else:
        # partner (X^m P + P X^m) · M, priced by one more commutator level:
        # it is proportional to [X^{m+1}, P² · M]
        inner_s = 2.0 / (m + 1) * tau
        Ki = commutator_repeats(inner_s, epsilon)
        taui = math.sqrt(inner_s) / Ki
        ca = _estimate(((j, m + 1, basis),), taui, epsilon)
        cb = _estimate(rest + ((j, 2, Basis.MOMENTUM),), taui, epsilon)
        cost_b = (2 * ca + 2 * cb) * Ki * Ki
    return (2 * cost_a + 2 * cost_b) * K * K


MODEL_DESCRIPTION = (
    "nested group-commutator estimate: each level approximating e^{s[A,B]} "
    f"uses K = max(1, ceil({COMMUTATOR_MODEL_C:g}*s/sqrt(eps))) repetitions of "
    "a 4-gate group; the largest exponent is peeled via cubic commutators, "
    "unit-exponent products on 3+ modes shed one mode per level; one- and "
    "two-mode unit products and single-mode powers up to 3 are priced as one "
    "gate (Fourier equivalence)"
)


def estimate_commutator_count(target: TargetGate, epsilon: float
                              ) -> tuple[int, str]:
    """Estimated gate count to reach precision epsilon without exact routes:
    0 below ZERO_STRENGTH, where the target is the identity, as the
    compiler's own rule has it."""
    count = (0 if abs(target.strength) < ZERO_STRENGTH
             else _estimate(target.exponents, target.strength, epsilon))
    return count, MODEL_DESCRIPTION
