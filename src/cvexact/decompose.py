"""Exact compilation of quadrature-monomial gates into the universal set.

The compiler accepts targets e^{itH} where H is a product of quadrature
operators, one factor per mode, and rewrites them as finite products of
Fourier, e^{itX}, e^{itX²}, e^{itX³} and e^{iτX_jX_k} gates. Every rewrite
step is an exact operator identity, so the output circuit equals the target
up to floating-point rounding of the gate strengths; no Trotter error is
introduced anywhere.

Route overview:
  - single-mode powers n ≤ 3 and bilinear X_jX_k are primitives;
  - even powers X^N reduce through an ancilla and two X^{N/2} conjugations;
  - odd powers divisible by 3 reduce through two ancillas;
  - multi-mode products expand into powers of mode sums with rational
    coefficients fixed by a Pascal-matrix null vector; general shifts each
    power onto a single mode by conjugation;
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
ancillas it takes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Callable

from .algebra import Basis, NOPoly
from .circuit import Gate, GateSeq
from .circuit_tools import (ZERO_STRENGTH, DecompReport, _integer,
                            _record_key, count_gates, optimize)

_X, _P = Basis.POSITION, Basis.MOMENTUM


class Ineligible(Exception):
    """Target admits no exact route; carries the verdict reason."""


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
    """route of an eligible target; reason is why none exists, else ""."""

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
    """Decide the compilation route, or explain why none exists."""
    try:
        route, _, _ = _classify(target)
    except Ineligible as exc:
        return EligibilityVerdict(False, "", str(exc))
    return EligibilityVerdict(True, route, "")


def _classify(target: TargetGate) -> tuple[
        str, str | None, Callable[[_Compiler], list[Gate]]]:
    """The route of target, its trace label and the builder that emits it.

    The builder takes the compiler of the run. The label names the
    identity the builder runs, None for a primitive and for the xxn row,
    whose one nested target records its own identity; the momentum intake
    row passes on the label of its position form. Raises Ineligible, with
    the reason, when no exact route exists.
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
    powers = [n for _, n in xs]
    nmodes = len(powers)
    nonunit = [n for n in powers if n > 1]
    if nmodes == 1:
        (m, n), = xs
        if n <= 3:
            return "UniversalPrimitive", None, lambda c: [
                c._gate(Gate.x(m, n, t))]
        if n % 2 == 0:
            return ("SingleEven", "single-even",
                    lambda c: c.single_even(m, n, t))
        if n % 3 == 0:
            return ("SingleOdd3", "single-odd3",
                    lambda c: c.single_odd3(m, n, t))
        raise Ineligible(
            f"single-mode power {n} is divisible by neither 2 nor 3")
    if len(nonunit) > 1:
        raise Ineligible(
            "at most one mode may carry an exponent larger than one "
            f"(found {len(nonunit)}) and no special identity applies")
    if all(n == 1 for n in powers) and nmodes == 2:
        j, k = target.modes()
        return "UniversalPrimitive", None, lambda c: [
            c._gate(Gate.xx(j, k, t))]
    if nmodes % 2 != 0 and nmodes % 3 != 0:
        raise Ineligible(f"mode count {nmodes} is divisible by neither 2 nor 3")
    return "GeneralMultiMode", "general", lambda c: c.general(dict(xs), t)


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
    """

    def __init__(self, n_modes: int, balanced: bool = False):
        self.next_anc = n_modes
        self.ancillas: list[int] = []
        self.trace: list[tuple[str, int]] = []
        self.depth = 0
        self.balanced = balanced
        self._records: dict = {}  # record key -> its one Gate, for _gate
        self._inverses: dict = {}  # id(g) -> (g, its inverse), for _inverse

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

        Each distinct Gate object is inverted once per run, and its one
        inverse stands at every position where the object recurs. The
        table keeps every object it keys alive, so an id names one object
        for the whole run, also for a gate that is not one of the run's
        records, such as an exppoly gate a subclass's _sub returns.
        """
        table = self._inverses
        out = []
        for g in reversed(gates):
            hit = table.get(id(g))
            if hit is None:
                hit = table[id(g)] = g, self._gate(g.inverse())
            out.append(hit[1])
        return out

    def _sub(self, s: float, *factors: tuple[int, int, Basis]) -> list[Gate]:
        """Gates of the nested target e^{isΠ factors}, each factor
        (mode, power, basis), by the route _classify picks for it."""
        if not math.isfinite(s):
            raise OverflowError(f"nested strength {s!r}")
        return self._emit(TargetGate(factors, s))[1]

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

    def single_even(self, k: int, n: int, t: float) -> list[Gate]:
        """e^{itX_kⁿ} for even n ≥ 4, through a fresh ancilla.

        Conjugating e^{it'X_a²} by e^{isP_aX_k^{n/2}} shifts the ancilla
        quadrature by (s/2)X_k^{n/2}; the cross term is cancelled by a
        final coupling gate and the X_kⁿ term survives with strength
        t = t's²/4.
        """
        a = self.fresh_ancilla()
        m = n // 2
        s = min(2.0, (4.0 * abs(t)) ** (1.0 / 3.0)) if self.balanced else 2.0
        tp = 4.0 * t / (s * s)
        return (self._shifted_power(a, [(s, [(k, m, _X)])], 2, tp)
                + [self._gate(Gate.x(a, 2, -tp))]
                + self._sub(-4.0 * t / s, (a, 1, _X), (k, m, _X)))

    def single_odd3(self, k: int, n: int, t: float) -> list[Gate]:
        """e^{itX_kⁿ} for odd n divisible by 3, n ≥ 9, with two ancillas.

        Writes 2α X^n as a combination of a shifted cube, a shifted square
        and lower powers; each piece reduces to already-solved routes with
        maximum single-mode power strictly below n.
        """
        al = t / 2.0
        j = self.fresh_ancilla()
        l = self.fresh_ancilla()
        m = n // 3
        xkm, xj2 = [(k, m, _X)], [(j, 2, _X)]
        return (
            self._shifted_power(j, [(2.0, xkm)], 3, 2 * al)
            + self._shifted_power(l, [(2.0, xkm), (2.0, xj2)], 2, -3 * al)
            + [self._gate(Gate.x(j, 3, -2 * al))]
            + self._sub(3 * al, (j, 4, _X))
            + self._sub(3 * al, (k, 2 * n // 3, _X))
            + self._sub(-6 * al, (j, 1, _X), (k, 2 * m, _X))
            + self._sub(6 * al, (l, 1, _X), (j, 2, _X))
            + self._sub(6 * al, (l, 1, _X), (k, m, _X))
            + [self._gate(Gate.x(l, 2, 3 * al))])

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

    def _emit(self, target: TargetGate) -> tuple[str, list[Gate]]:
        """Route of target and the gates it emits; Ineligible if none.

        The one entry that runs an identity: a target below ZERO_STRENGTH
        emits nothing and records nothing; otherwise a row with a label
        appends (label, depth) to the trace and its builder runs one level
        deeper. It is also the one scope of ancillas: the labels the
        builder takes are released when it returns, labelled or not.
        """
        route, label, build = _classify(target)
        if abs(target.strength) < ZERO_STRENGTH:
            return route, []
        top, depth = self.next_anc, self.depth
        if label is not None:
            self.trace.append((label, depth))
            self.depth += 1
        try:
            return route, build(self)
        finally:
            self.next_anc, self.depth = top, depth

    def run(self, target: TargetGate) -> tuple[str, list[Gate]]:
        """_emit for a caller outside the compiler: also Ineligible, never
        OverflowError, when a parameter of the route's identities overflows,
        so no returned gate strength is inf or NaN."""
        try:
            return self._emit(target)
        except OverflowError:
            raise _overflows(target) from None


def _overflows(target: TargetGate) -> Ineligible:
    return Ineligible(f"strength {target.strength!r} overflows the "
                      "parameters of its identities")


def compile(target: TargetGate, balanced: bool = False
            ) -> tuple[GateSeq, DecompReport]:
    """Full pipeline: route dispatch, recursion, then peephole optimization.

    Raises Ineligible when no exact route exists, or when a parameter of
    the route's identities overflows: no returned gate strength is inf or NaN.
    """
    n_modes = max(target.modes()) + 1
    comp = _Compiler(n_modes, balanced)
    route, gates = comp.run(target)
    raw = GateSeq(tuple(gates), n_modes, tuple(comp.ancillas))
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
