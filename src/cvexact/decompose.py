"""Exact compilation of quadrature-monomial gates into the universal set.

The compiler accepts targets e^{itH} where H is a product of quadrature
operators, one factor per mode, and rewrites them as finite products of
Fourier, e^{itX}, e^{itX²}, e^{itX³} and e^{iτX_jX_k} gates. Every rewrite
step is an exact operator identity, so the output circuit equals the target
up to floating-point rounding of the gate strengths; no Trotter error is
introduced anywhere.

Route overview:
  - single-mode powers n ≤ 3 and bilinear X_jX_k are primitives;
  - higher single-mode powers, and products with two exponents above one
    or a mode count divisible by neither 2 nor 3, split as e^{itYZ} into
    two shifted squares on one ancilla (dss), Y = Z for an even power;
  - other multi-mode products expand into powers of mode sums with
    rational coefficients fixed by a Pascal-matrix null vector; general
    shifts each power onto a single mode by conjugation;
  - a registry of special patterns (P·X², P·Xⁿ, P·P·X², X²X², X·Xᵐ) is
    consulted first, since several of them beat the general route badly;
    P·Xⁿ and P·P·X² are one conjugation round, e^{isP_kX_j²Y} with
    Y = X_jⁿ⁻² or Y = P_l;
  - momentum factors are eliminated by an outer Fourier conjugation of
    the all-position form.

_classify is the one route table, for the top-level target and for every
nested target an identity asks for through _Compiler._sub; no identity
calls another directly. _Compiler._emit is the one entry that runs a
row's builder, records its identity in the recursion trace and scopes the
ancillas it takes. It also builds each distinct nested target once per
scope, the nested targets of one identity: a repeat gets the first build's
gate list and replays its trace entries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, combinations
from typing import Callable

from .algebra import Basis, NOPoly
from .circuit import Gate, GateSeq, _map_records
from .circuit_tools import (ZERO_STRENGTH, DecompReport, _integer,
                            _record_key, count_gates, optimize)

_X, _P = Basis.POSITION, Basis.MOMENTUM


class Ineligible(Exception):
    """Target refused, with the reason: a strength that overflows the
    identities' parameters, or a generator that is no gate target."""


@dataclass(frozen=True)
class TargetGate:
    """e^{i * strength * H} with H a product of quadrature powers.

    exponents maps each mode to (power, basis); there is at least one
    factor, modes are nonnegative integers, powers are positive integers,
    each basis is a Basis member, each mode appears once, and the strength
    is finite. An integer is an int that is not a bool.
    """

    exponents: tuple[tuple[int, int, Basis], ...]  # (mode, power, basis)
    strength: float

    def __post_init__(self):
        modes = [m for m, _, _ in self.exponents]
        if not modes:
            raise ValueError("a target needs at least one quadrature factor")
        for m, n, b in self.exponents:
            if not (_integer(m) and m >= 0):
                raise ValueError(f"mode {m!r} is not a nonnegative integer")
            if not (_integer(n) and n >= 1):
                raise ValueError(f"power {n!r} is not a positive integer")
            if not isinstance(b, Basis):
                raise ValueError(f"basis {b!r} is not a Basis member")
        if len(set(modes)) != len(modes):
            raise ValueError("each mode may appear only once")
        if not math.isfinite(self.strength):
            raise ValueError(f"strength {self.strength!r} is not finite")
        object.__setattr__(self, "exponents",
                           tuple(sorted(self.exponents, key=lambda e: e[0])))

    @staticmethod
    def position(exponents: dict[int, int], strength: float) -> "TargetGate":
        return TargetGate(tuple((m, n, Basis.POSITION)
                                for m, n in exponents.items()), strength)

    def generator(self) -> NOPoly:
        """H as a normal-ordered polynomial (a single monomial)."""
        return NOPoly.monomial(
            [(m, n, 0) if b is Basis.POSITION else (m, 0, n)
             for m, n, b in self.exponents])

    def position_form(self) -> "TargetGate":
        """Same powers with every momentum factor relabeled to position."""
        return TargetGate(tuple((m, n, Basis.POSITION)
                                for m, n, _ in self.exponents), self.strength)

    def modes(self) -> list[int]:
        return [m for m, _, _ in self.exponents]


@dataclass(frozen=True)
class EligibilityVerdict:
    """The route of a target. Every target has one, so eligible is True
    and reason is ""; the fields keep the verdict's published shape."""

    eligible: bool
    route: str
    reason: str


def solve_pascal_coeffs(N: int) -> tuple[Fraction, ...]:
    """(c_1, ..., c_N), the coefficients of the mode-sum powers by subset
    size: c_{N-k} = (-1)^k / N!, verified exactly against the Pascal system.

    The system demands that, for every r in 1..N-1, the binomially-weighted
    sum over subset sizes vanishes; the alternating-sign solution does so
    because sum_j C(r,j)(-1)^j = (1-1)^r = 0.
    """
    if N < 2:
        raise ValueError("need N >= 2")
    cN = Fraction(1, math.factorial(N))
    coeffs = tuple(cN * (-1) ** (N - j) for j in range(1, N + 1))
    vec = coeffs[::-1]  # (c_N, ..., c_1)
    for r in range(1, N):
        acc = sum(Fraction(math.comb(r, j)) * vec[j] for j in range(N))
        assert acc == 0, "Pascal system not satisfied"
    return coeffs


def check_eligibility(target: TargetGate) -> EligibilityVerdict:
    """The compilation route of target; compile still refuses a strength
    whose identity parameters overflow."""
    route, _, _ = _classify(target)
    return EligibilityVerdict(True, route, "")


def _classify(target: TargetGate) -> tuple[
        str, str | None, Callable[[_Compiler], list[Gate]]]:
    """The route of target, its trace label and the builder that emits it.

    The builder takes the compiler of the run. The label names the
    identity the builder runs, None for a primitive and for the xxn row,
    whose one nested target records its own identity; the momentum intake
    row passes on the label of its position form. Every target has a row:
    dss takes a power above 3 and each product no other row covers, under
    route SingleEven for an even power and DSS otherwise.
    """
    t = target.strength
    xs = [(m, n) for m, n, b in target.exponents if b is Basis.POSITION]
    ps = [(m, n) for m, n, b in target.exponents if b is Basis.MOMENTUM]

    # special-pattern registry, consulted before the general restrictions
    if len(ps) == 1 and ps[0][1] == 1 and len(xs) == 1:
        (j, n), (k, _) = xs[0], ps[0]
        if n == 2:
            return "SpecialIdentity(px2)", "px2", lambda c: c.px2(j, k, t)
        if n >= 3:
            return "SpecialIdentity(pxn)", "pxn", lambda c: (
                c.commutator_round(j, k, (j, n - 2, _X), t))
    if (len(ps) == 2 and all(n == 1 for _, n in ps)
            and len(xs) == 1 and xs[0][1] == 2):
        # P·P·Xⁿ (n ≥ 3) would need f5 = e^{iσα³X_j^{2n−2}P_l²}, two
        # exponents above one, so it takes the intake row below
        (j, _), (k, _), (l, _) = xs[0], ps[0], ps[1]
        return "SpecialIdentity(ppxn)", "ppxn", lambda c: (
            c.commutator_round(j, k, (l, 1, _P), t))
    if ps:
        # momentum factors are eliminated by an outer Fourier conjugation:
        # the all-position form decides the route and emits the gates
        route, label, build = _classify(target.position_form())
        pmodes = [m for m, _ in ps]
        return route, label, lambda c: c._fourier_conj(pmodes, build(c))

    if len(xs) == 2:
        (u, n1), (j, n2) = sorted(xs, key=lambda e: e[1])
        if (n1, n2) == (2, 2):
            return ("SpecialIdentity(twosquares)", "twosquares",
                    lambda c: c.x2x2(u, j, t))
        if n1 == 1 and n2 >= 2:
            # e^{itX_uX_jⁿ} = F_u e^{−itP_uX_jⁿ} F_u†
            return "SpecialIdentity(xxn)", None, lambda c: c._fourier_conj(
                [u], c._sub(-t, (u, 1, _P), (j, n2, _X)))

    # general rules
    powers, nmodes = [n for _, n in xs], len(xs)
    if nmodes == 1 and powers[0] <= 3:
        (m, n), = xs
        return "UniversalPrimitive", None, lambda c: [
            c._gate(Gate.x(m, n, t))]
    if powers == [1, 1]:
        j, k = target.modes()
        return "UniversalPrimitive", None, lambda c: [
            c._gate(Gate.xx(j, k, t))]
    # one mode is a mode count divisible by neither 2 nor 3
    if sum(n > 1 for n in powers) > 1 or (nmodes % 2 and nmodes % 3):
        y, z = _split(xs)
        if y == z:
            return "SingleEven", "single-even", lambda c: c.dss(y, y, t)
        return "DSS", "dss", lambda c: c.dss(y, z, t)
    return "GeneralMultiMode", "general", lambda c: c.general(dict(xs), t)


def _split(xs: list[tuple[int, int]]) -> tuple[list, list]:
    """Position factors (Y, Z) with YZ = Π X_m^n over xs' (m, n) pairs.

    One mode gives Y = X^{⌊n/2⌋}, Z = X^{⌈n/2⌉}. Otherwise Y is the prefix,
    in mode order, whose degree is closest to half the total among the cuts
    that leave both sides of degree ≥ 2, the shorter on a tie; two
    exponents above one, or five modes or more, always leave such a cut.
    """
    if len(xs) == 1:
        (m, n), = xs
        return [(m, n // 2, _X)], [(m, n - n // 2, _X)]
    total = sum(n for _, n in xs)
    cut = min((abs(2 * d - total), i) for i, d in
              enumerate(accumulate(n for _, n in xs[:-1]), 1)
              if 2 <= d <= total - 2)[1]
    factors = [(m, n, _X) for m, n in xs]
    return factors[:cut], factors[cut:]


class _Compiler:
    """One compilation run: ancilla allocation plus the recursion trace,
    one (label, depth) entry per identity _emit runs, in call order.

    Ancillas form a stack that _emit scopes. Every identity acts as the
    identity on its ancillas, so the labels a nested target takes are free
    again once it returns; a label is only ever taken above every label
    still in use, so it is never one of a nested target's own modes.

    Identities get their nested targets from _sub, never by calling
    another identity. An identity method called directly records
    nothing. A subclass may override an identity method, which _emit
    then runs under the route's label, and its _sub decides what a
    nested target becomes, e.g. one ideal exppoly gate.

    The run decides record identity: every gate it makes goes through
    _gate, so its gate lists hold one Gate object per record, and later
    passes share their work per object.

    Each distinct nested target is built once per scope, the nested
    targets of one identity (_emit); a repeat appends the first build's
    trace entries again, so the trace is that of a run that rebuilds it.
    """

    def __init__(self, n_modes: int, balanced: bool = False):
        self.next_anc = n_modes
        self.ancillas: list[int] = []
        self.trace: list[tuple[str, int]] = []
        self.depth = 0
        self.balanced = balanced
        self._records: dict = {}  # record key -> its one Gate, for _gate
        self._inverses: dict = {}  # _map_records' table for _inverse
        # the running builder's table of its nested targets, for _emit
        self._built: dict = {}

    def fresh_ancilla(self) -> int:
        """The label above the current top of the ancilla stack, held until
        the _emit that runs the caller returns. ancillas lists every label
        the run has handed out, each once."""
        a = self.next_anc
        self.next_anc += 1
        if not self.ancillas or a > self.ancillas[-1]:
            self.ancillas.append(a)
        return a

    # -- helpers -----------------------------------------------------------

    def _gate(self, g: Gate) -> Gate:
        """The run's one Gate of g's record, g if it is the first; an
        exppoly gate has no record key and is returned as it is.

        OverflowError if g's strength is not finite: a parameter of an
        identity overflowed."""
        if not math.isfinite(g.strength):
            raise OverflowError(f"gate strength {g.strength!r}")
        key = _record_key(g.kind, g.modes, g.strength, g.power)
        return g if key is None else self._records.setdefault(key, g)

    def _fourier_conj(self, modes: list[int],
                      gates: list[Gate]) -> list[Gate]:
        """F·gates·F†, F the forward Fourier transform on each of modes."""
        return ([self._gate(Gate.fourier(m, 1)) for m in modes] + gates
                + [self._gate(Gate.fourier(m, -1)) for m in reversed(modes)])

    def _inverse(self, gates: list[Gate]) -> list[Gate]:
        """The inverse circuit: gates reversed, each one inverted.

        Each distinct Gate object is inverted once per run, through the
        run's table, and its one inverse stands at every position where
        the object recurs; that holds also for a gate that is not one of
        the run's records, such as an exppoly gate a subclass's _sub
        returns.
        """
        return _map_records(lambda g: self._gate(g.inverse()),
                            reversed(gates), self._inverses)

    def _sub(self, s: float, *factors: tuple[int, int, Basis]) -> list[Gate]:
        """Gates of the nested target e^{isΠ factors}, each factor
        (mode, power, basis), by the route _classify picks for it."""
        if not math.isfinite(s):
            raise OverflowError(f"nested strength {s!r}")
        return self._emit(TargetGate(factors, s))

    def _shifted_power(self, c: int, shifts: list[tuple[float, list]],
                       n: int, t: float) -> list[Gate]:
        """e^{it(X_c + Σ(s/2)Y)ⁿ}, the paper's conjugation lemma.

        Each (s, Y) in shifts is one shift e^{isP_cY}, Y a monomial given
        as (mode, power, basis) factors off mode c; it carries X_c to
        X_c + (s/2)Y. The shifts stand in the listed order around
        e^{itX_cⁿ}, and their inverse after it.
        """
        conj = [g for s, y in shifts for g in self._sub(s, (c, 1, _P), *y)]
        return conj + self._sub(t, (c, n, _X)) + self._inverse(conj)

    # -- identity routes ---------------------------------------------------

    def px2(self, j: int, k: int, s: float) -> list[Gate]:
        """e^{isP_kX_j²} as nine non-Fourier gates.

        The strength factors as 3α²t = s; the default split keeps the cubic
        strengths at ±1, the balanced split equalizes α and t, which is
        gentler on truncated-Fock simulation.
        """
        if self.balanced:
            al = (abs(s) / 3.0) ** (1.0 / 3.0)
            t = math.copysign(al, s)
        else:
            al = math.sqrt(abs(s) / 3.0)
            t = math.copysign(1.0, s)
        xx = lambda q: [self._gate(Gate.xx(j, k, q))]
        # e^{iqP_k³}
        p3 = lambda q: self._fourier_conj([k], [self._gate(Gate.x(k, 3, q))])
        return (xx(2 * al) + p3(t) + xx(-al) + p3(-t)
                + xx(-2 * al) + p3(t) + xx(al) + p3(-t)
                + [self._gate(Gate.x(j, 3, 0.75 * al ** 3 * t))])

    def commutator_round(self, j: int, k: int, y: tuple[int, int, Basis],
                         s: float) -> list[Gate]:
        """e^{isP_kX_j²Y}, Y the one factor y = (mode, power, basis) off
        mode k, via one conjugation round of strength α = √(|s|/2).

        The round f1·f2·f1⁻¹·f2⁻¹·f5 with f1 = e^{2iαX_kY} and
        f2 = e^{−iσαX_j²P_k²}, σ the sign of s. f1 shifts P_k, and the
        terms its conjugation adds to f2 all commute, so the commutator
        is e^{isP_kX_j²Y} times an X_j²Y² term that f5 = e^{iσα³X_j²Y²}
        cancels, at either sign of s. P·Xⁿ is Y = X_jⁿ⁻², P·P·X² is
        Y = P_l.
        """
        al = math.sqrt(abs(s) / 2.0)
        sg = math.copysign(1.0, s)
        m, n, b = y
        x2y2 = [(j, 2 * n + 2, _X)] if m == j else [(j, 2, _X), (m, 2 * n, b)]
        f1 = self._sub(2 * al, (k, 1, _X), y)
        f2 = self._sub(-sg * al, (j, 2, _X), (k, 2, _P))
        f5 = self._sub(sg * al ** 3, *x2y2)
        return f1 + f2 + self._inverse(f1) + self._inverse(f2) + f5

    def x2x2(self, j: int, k: int, t: float) -> list[Gate]:
        """e^{itX_j²X_k²} from four X⁴ gates inside shift conjugations.

        The shift strengths (s, -2s, s) are free; s = 2 reproduces the
        canonical constants, the balanced mode shrinks them for numerics.
        """
        s = min(2.0, (12.0 * abs(t)) ** (1.0 / 6.0)) if self.balanced else 2.0
        beta = t / (3.0 * s * s)
        shift = lambda q: self._sub(q, (j, 1, _P), (k, 1, _X))
        x4 = lambda m, q: self._sub(q, (m, 4, _X))
        return (shift(s) + x4(j, beta) + shift(-2 * s) + x4(j, beta)
                + shift(s) + x4(j, -2 * beta) + x4(k, -beta * s ** 4 / 8.0))

    def dss(self, y: list, z: list, t: float) -> list[Gate]:
        """e^{itYZ} for commuting position monomials Y and Z, lists of
        (mode, power, basis) factors: the difference of two shifted squares
        on one fresh ancilla a.

        S(q, W) = e^{iqP_aW} carries X_a to X_a + (q/2)W. The circuit is
        e^{iσ(X_a+(s/4)(Z+Y))²}·e^{−iσ(X_a+(s/4)(Z−Y))²}·e^{−i(4t/s)X_aY}:
        the squares differ by σs·X_aY + σ(s²/4)·YZ, so at σ = 4t/s² the
        last factor leaves tYZ. Y = Z, an even power, takes one shift; the
        balanced split shrinks s below 2 for small |t|. S(s/2, Y) stands
        twice but is asked for once: _emit's table would return the same
        list for a second request, but would also trace its identities
        again. Each nested target,
        P_aZ, P_aY or X_aY, has a lower total degree than YZ, as Y and Z
        have degree ≥ 2 each, so the recursion ends.
        """
        a = self.fresh_ancilla()
        s = min(2.0, (4.0 * abs(t)) ** (1.0 / 3.0)) if self.balanced else 2.0
        sigma = 4.0 * t / (s * s)
        shift = lambda q, w: self._sub(q, (a, 1, _P), *w)
        if y == z:
            left = sy = shift(s, y)
            right = []
        else:
            hz, hy = shift(s / 2, z), shift(s / 2, y)
            left, sy, right = hz + hy, shift(s, y), hy + shift(-s / 2, z)
        x2 = lambda q: [self._gate(Gate.x(a, 2, q))]
        return (left + x2(sigma) + self._inverse(sy) + x2(-sigma) + right
                + self._sub(-4.0 * t / s, (a, 1, _X), *y))

    def general(self, powers: dict[int, int], t: float) -> list[Gate]:
        """e^{itΠX_m^{n_m}}, powers mapping each of its N modes m to n_m.

        The product is Σ_S c_|S| (Σ_{m∈S} X_m^{n_m})^N over the nonempty
        subsets S of the modes, largest first, lexicographic within a size.
        A singleton is the power X_m^{N·n_m}. A larger subset has a unit
        mode c, as at most one exponent exceeds one: shifts e^{2iP_cX_m^{n_m}}
        of its other modes, highest first, carry X_c^N onto the mode sum.
        """
        N = len(powers)
        coeffs = solve_pascal_coeffs(N)
        gates: list[Gate] = []
        for size in range(N, 0, -1):
            s = t * float(coeffs[size - 1])
            if abs(s) < ZERO_STRENGTH:
                continue
            for subset in combinations(sorted(powers.items()), size):
                if size == 1:
                    (m, n), = subset
                    gates += self._sub(s, (m, N * n, _X))
                    continue
                c = min(m for m, n in subset if n == 1)
                gates += self._shifted_power(
                    c, [(2.0, [(m, n, _X)]) for m, n in reversed(subset)
                        if m != c], N, s)
        return gates

    # -- dispatch ----------------------------------------------------------

    def _emit(self, target: TargetGate) -> list[Gate]:
        """The gates target emits, by the route _classify picks for it.

        The one entry that runs an identity: a target below ZERO_STRENGTH
        emits nothing and records nothing; otherwise a row with a label
        appends (label, depth) to the trace and its builder runs one level
        deeper. It is also the one scope of ancillas: the labels the
        builder takes are released when it returns, labelled or not.

        The nested targets of a labelled row share one table, dropped when
        its builder returns; an unlabelled row, which runs no identity of
        its own, uses its caller's. A target met again there, at the same
        strength, ancilla top and depth, gets the stored gate list, and the
        trace entries of its first build are appended again. A gate list
        depends on nothing else of the run, so a stored one is what a
        rebuild would return, object for object; no caller mutates one.
        """
        if abs(target.strength) < ZERO_STRENGTH:
            return []
        top, depth = self.next_anc, self.depth
        key = (target.exponents, target.strength, top, depth)
        hit = self._built.get(key)
        if hit is not None:
            gates, start, end = hit
            self.trace += self.trace[start:end]
            return gates
        _, label, build = _classify(target)
        start, scope = len(self.trace), self._built
        if label is not None:
            self.trace.append((label, depth))
            self.depth += 1
            self._built = {}
        try:
            gates = build(self)
        finally:
            self.next_anc, self.depth, self._built = top, depth, scope
        scope[key] = gates, start, len(self.trace)
        return gates

    def run(self, target: TargetGate) -> tuple[str, list[Gate]]:
        """The route of target and the gates _emit gives for it, for a
        caller outside the compiler: also Ineligible, never OverflowError,
        when a parameter of the route's identities overflows, so no
        returned gate strength is inf or NaN. It empties _emit's table when
        it returns, so no later run meets this run's lists."""
        try:
            return _classify(target)[0], self._emit(target)
        except OverflowError:
            raise _overflows(target) from None
        finally:
            self._built = {}


def _overflows(target: TargetGate) -> Ineligible:
    return Ineligible(f"strength {target.strength!r} overflows the "
                      "parameters of its identities")


def compile(target: TargetGate, balanced: bool = False
            ) -> tuple[GateSeq, DecompReport]:
    """Full pipeline: route dispatch, recursion, then peephole optimization.

    Raises Ineligible when a parameter of the route's identities
    overflows: no returned gate strength is inf or NaN.
    """
    n_modes = max(target.modes()) + 1
    comp = _Compiler(n_modes, balanced)
    route, gates = comp.run(target)
    raw = GateSeq(tuple(gates), n_modes, tuple(comp.ancillas))
    del gates  # raw holds the circuit; optimize's peak need not hold it twice
    seq = optimize(raw)
    if not all(math.isfinite(g.strength) for g in seq.gates):
        raise _overflows(target)  # merging two gates can overflow
    report = DecompReport(
        n_gates_total=len(seq.gates),
        n_gates_nonfourier=count_gates(seq),
        n_gates_preopt=len(raw.gates),
        n_ancillas=len(seq.ancilla_modes),
        recursion_trace=comp.trace,
        route=route,
    )
    return seq, report
