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
    coefficients fixed by a Pascal-matrix null vector, each power compiled
    by shift conjugations onto a single mode;
  - a registry of special patterns (P·X², P·Xⁿ, P·P·Xⁿ, X²X², X·Xᵐ) is
    consulted first, since several of them beat the general route badly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Callable

from .algebra import Basis, NOPoly
from .circuit import ZERO_STRENGTH, Gate, GateSeq
from .circuit_tools import DecompReport, count_gates, optimize

# route identifiers
UNIVERSAL_PRIMITIVE = "UniversalPrimitive"
SINGLE_EVEN = "SingleEven"
SINGLE_ODD3 = "SingleOdd3"
GENERAL_MULTI_MODE = "GeneralMultiMode"


def special_identity(label: str) -> str:
    return f"SpecialIdentity({label})"


class Ineligible(Exception):
    """Target admits no exact route; carries the verdict reason."""


class NoUnitCentralMode(Exception):
    """Polynomial-power sandwich needs a summand with exponent one."""


@dataclass(frozen=True)
class TargetGate:
    """e^{i * strength * H} with H a product of quadrature powers.

    exponents maps each mode to (power, basis); powers are positive
    integers, each mode appears once, and the strength is finite.
    """

    exponents: tuple[tuple[int, int, Basis], ...]  # (mode, power, basis)
    strength: float

    def __post_init__(self):
        modes = [m for m, _, _ in self.exponents]
        if len(set(modes)) != len(modes):
            raise ValueError("each mode may appear only once")
        if any(n < 1 for _, n, _ in self.exponents):
            raise ValueError("powers must be positive integers")
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
    eligible: bool
    route: str
    reason: str


@dataclass(frozen=True)
class CoeffSolution:
    """Null vector of the Pascal matrix: coefficients of the mode-sum powers."""

    N: int
    coeffs: tuple[Fraction, ...]  # (c_1, ..., c_N)


def solve_pascal_coeffs(N: int) -> CoeffSolution:
    """c_{N-k} = (-1)^k / N!, verified exactly against the Pascal system.

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
    return CoeffSolution(N, coeffs)


def check_eligibility(target: TargetGate) -> EligibilityVerdict:
    """Decide the compilation route, or explain why none exists."""
    return _classify(target)[0]


def _classify(target: TargetGate
              ) -> tuple[EligibilityVerdict, Callable[[_Compiler], list[Gate]] | None]:
    """The route of target together with the builder that emits it.

    The builder takes the compiler of the run; it is None when no exact
    route exists.
    """
    t = target.strength
    xs = [(m, n) for m, n, b in target.exponents if b is Basis.POSITION]
    ps = [(m, n) for m, n, b in target.exponents if b is Basis.MOMENTUM]

    def eligible(route, reason, build):
        return EligibilityVerdict(True, route, reason), build

    def ineligible(reason):
        return EligibilityVerdict(False, "", reason), None

    # special-pattern registry, consulted before the general restrictions
    if len(ps) == 1 and ps[0][1] == 1 and len(xs) == 1:
        (j, n), (k, _) = xs[0], ps[0]
        if n == 2:
            return eligible(special_identity("px2"),
                            "momentum times squared position",
                            lambda c: c.px2(j, k, t))
        if n >= 3:
            return eligible(special_identity("pxn"),
                            "momentum times position power",
                            lambda c: c.px_n(j, k, n, t))
    if (len(ps) == 2 and all(n == 1 for _, n in ps)
            and len(xs) == 1 and xs[0][1] >= 2):
        (j, n), (k, _), (l, _) = xs[0], ps[0], ps[1]
        return eligible(special_identity("ppxn"),
                        "two momenta times position power",
                        lambda c: c.pp_xn(j, k, l, n, t))
    if ps:
        # momentum factors are eliminated by an outer Fourier conjugation:
        # the all-position form decides the route and emits the gates
        verdict, build = _classify(target.position_form())
        if build is None:
            return verdict, None
        pmodes = [m for m, _ in ps]
        return verdict, lambda c: _fourier_conj(pmodes, build(c), "intake")

    if len(xs) == 2:
        (u, n1), (j, n2) = sorted(xs, key=lambda e: e[1])
        if (n1, n2) == (2, 2):
            return eligible(special_identity("twosquares"),
                            "product of two squared positions",
                            lambda c: c.x2x2(u, j, t))
        if n1 == 1 and n2 >= 2:
            return eligible(special_identity("xxn"),
                            "position times position power",
                            lambda c: c._x_xn(u, j, n2, t))

    # general rules
    powers = [n for _, n in xs]
    nmodes = len(powers)
    nonunit = [n for n in powers if n > 1]
    if nmodes == 1:
        (m, n), = xs
        if n <= 3:
            return eligible(UNIVERSAL_PRIMITIVE, "single-mode power at most 3",
                            lambda c: [Gate.x(m, n, t, "primitive")])
        if n % 2 == 0:
            return eligible(SINGLE_EVEN, "even single-mode power",
                            lambda c: c.single_even(m, n, t))
        if n % 3 == 0:
            return eligible(SINGLE_ODD3, "odd single-mode power divisible by 3",
                            lambda c: c.single_odd3(m, n, t))
        return ineligible(
            f"single-mode power {n} is divisible by neither 2 nor 3")
    if len(nonunit) > 1:
        return ineligible(
            "at most one mode may carry an exponent larger than one "
            f"(found {len(nonunit)}) and no special identity applies")
    if all(n == 1 for n in powers) and nmodes == 2:
        j, k = target.modes()
        return eligible(UNIVERSAL_PRIMITIVE, "bilinear coupling",
                        lambda c: [Gate.xx(j, k, t, "primitive")])
    if nmodes % 2 != 0 and nmodes % 3 != 0:
        return ineligible(f"mode count {nmodes} is divisible by neither 2 nor 3")
    return eligible(GENERAL_MULTI_MODE,
                    f"{nmodes}-mode product, one exponent above one",
                    lambda c: c.general(target))


def expand_general_d(target: TargetGate) -> list[tuple[float, list[tuple[int, int]]]]:
    """Linear combination of mode-sum powers equal to the target monomial.

    Returns (coefficient, [(mode, power), ...]) for every nonempty subset S
    of the modes, largest subsets first, lexicographic within a size; the
    combination sum_S c_|S| (sum_{i in S} X_i^{n_i})^N reproduces the target
    product exactly.
    """
    exps = [(m, n) for m, n, _ in target.exponents]
    N = len(exps)
    sol = solve_pascal_coeffs(N)
    out = []
    for size in range(N, 0, -1):
        c = float(sol.coeffs[size - 1])
        for subset in combinations(exps, size):
            out.append((c, list(subset)))
    return out


def _fourier_conj(modes: list[int], gates: list[Gate], label: str) -> list[Gate]:
    """F·gates·F†, with F the forward Fourier transform on each of modes."""
    return ([Gate.fourier(m, 1, label) for m in modes] + gates
            + [Gate.fourier(m, -1, label) for m in reversed(modes)])


class _Compiler:
    """One compilation run: ancilla allocation plus recursion tracing."""

    def __init__(self, n_modes: int, balanced: bool = False):
        self.n_modes = n_modes
        self.next_anc = n_modes
        self.ancillas: list[int] = []
        self.trace: list[tuple[str, int]] = []
        self.depth = 0
        self.balanced = balanced

    def fresh_ancilla(self) -> int:
        a = self.next_anc
        self.next_anc += 1
        self.ancillas.append(a)
        return a

    def _enter(self, label: str):
        self.trace.append((label, self.depth))
        self.depth += 1

    def _leave(self):
        self.depth -= 1

    # -- helpers -----------------------------------------------------------

    @staticmethod
    def _inverse(gates: list[Gate]) -> list[Gate]:
        return [g.inverse() for g in reversed(gates)]

    @staticmethod
    def _p3(k: int, q: float) -> list[Gate]:
        """e^{iqP_k³} = F_k e^{iqX_k³} F_k†."""
        return _fourier_conj([k], [Gate.x(k, 3, q, "p-cubed")], "p-cubed")

    @staticmethod
    def _px_unit(c: int, i: int, s: float) -> list[Gate]:
        """e^{isP_cX_i} = F_c e^{isX_cX_i} F_c†."""
        return _fourier_conj([c], [Gate.xx(c, i, s, "shift")], "shift")

    def _x_xn(self, u: int, j: int, m: int, s: float) -> list[Gate]:
        """e^{isX_uX_j^m}: bilinear when m = 1, else Fourier-wrapped P·Xᵐ."""
        if m == 1:
            return [Gate.xx(u, j, s, "coupling")]
        return _fourier_conj([u], self.px_n(j, u, m, -s), "coupling")

    def _x2p2(self, j: int, k: int, s: float) -> list[Gate]:
        """e^{isX_j²P_k²} = F_k e^{isX_j²X_k²} F_k†."""
        return _fourier_conj([k], self.x2x2(j, k, s), "squares")

    # -- identity routes ---------------------------------------------------

    def px2(self, j: int, k: int, s: float) -> list[Gate]:
        """e^{isP_kX_j²} as nine non-Fourier gates.

        The strength factors as 3α²t = s; the default split keeps the cubic
        strengths at ±1, the balanced split equalizes α and t, which is
        gentler on truncated-Fock simulation.
        """
        if abs(s) < ZERO_STRENGTH:
            return []
        self._enter("px2")
        if self.balanced:
            al = (abs(s) / 3.0) ** (1.0 / 3.0)
            t = math.copysign(al, s)
        else:
            al = math.sqrt(abs(s) / 3.0)
            t = math.copysign(1.0, s)
        xx = lambda q: Gate.xx(j, k, q, "px2")
        gates = ([xx(2 * al)] + self._p3(k, t) + [xx(-al)] + self._p3(k, -t)
                 + [xx(-2 * al)] + self._p3(k, t) + [xx(al)] + self._p3(k, -t)
                 + [Gate.x(j, 3, 0.75 * al ** 3 * t, "px2")])
        self._leave()
        return gates

    def px_n(self, j: int, k: int, n: int, s: float) -> list[Gate]:
        """e^{isP_kX_jⁿ} via one strength-√(s/2) conjugation round."""
        if abs(s) < ZERO_STRENGTH:
            return []
        if n == 1:
            return self._px_unit(k, j, s)
        if n == 2:
            return self.px2(j, k, s)
        if s < 0:
            return self._inverse(self.px_n(j, k, n, -s))
        self._enter("pxn")
        al = math.sqrt(s / 2.0)
        f1 = self._x_xn(k, j, n - 2, 2 * al)
        f2 = self._x2p2(j, k, -al)
        f5 = self.single_even(j, 2 * (n - 1), al ** 3)
        gates = f1 + f2 + self._inverse(f1) + self._inverse(f2) + f5
        self._leave()
        return gates

    def pp_xn(self, j: int, k: int, l: int, n: int, s: float) -> list[Gate]:
        """e^{isP_kP_lX_jⁿ}: the P·Xⁿ pattern with one more momentum mode.

        For n = 2 this is the five-factor conjugation round with a
        two-squares compensation gate e^{iα³X_j²P_l²}; for larger n that
        compensation gate has two exponents above one and is itself not
        exactly compilable, so the target is handled instead by Fourier
        rotation of both momentum modes followed by the general multi-mode
        expansion of X_jⁿX_kX_l.
        """
        if abs(s) < ZERO_STRENGTH:
            return []
        if s < 0:
            return self._inverse(self.pp_xn(j, k, l, n, -s))
        self._enter("ppxn")
        if n == 2:
            al = math.sqrt(s / 2.0)
            f1 = _fourier_conj([l], [Gate.xx(k, l, 2 * al, "ppxn")], "ppxn")
            f2 = self._x2p2(j, k, -al)
            f5 = _fourier_conj([l], self.x2x2(j, l, al ** 3), "ppxn")
            gates = f1 + f2 + self._inverse(f1) + self._inverse(f2) + f5
        else:
            inner = self.general(TargetGate.position({j: n, k: 1, l: 1}, s))
            gates = _fourier_conj([k, l], inner, "ppxn")
        self._leave()
        return gates

    def x2x2(self, j: int, k: int, t: float, s: float | None = None) -> list[Gate]:
        """e^{itX_j²X_k²} from four X⁴ gates inside shift conjugations.

        The shift strengths (s, -2s, s) are free; s = 2 reproduces the
        canonical constants, the balanced mode shrinks them for numerics.
        """
        if abs(t) < ZERO_STRENGTH:
            return []
        self._enter("twosquares")
        if s is None:
            s = min(2.0, (12.0 * abs(t)) ** (1.0 / 6.0)) if self.balanced else 2.0
        beta = t / (3.0 * s * s)
        shift = lambda q: self._px_unit(j, k, q)
        gates = (shift(s) + self.single_even(j, 4, beta) + shift(-2 * s)
                 + self.single_even(j, 4, beta) + shift(s)
                 + self.single_even(j, 4, -2 * beta)
                 + self.single_even(k, 4, -beta * s ** 4 / 8.0))
        self._leave()
        return gates

    def single_even(self, k: int, n: int, t: float) -> list[Gate]:
        """e^{itX_kⁿ} for even n ≥ 4, through a fresh ancilla.

        Conjugating e^{it'X_a²} by e^{isP_aX_k^{n/2}} shifts the ancilla
        quadrature by (s/2)X_k^{n/2}; the cross term is cancelled by a
        final coupling gate and the X_kⁿ term survives with strength
        t = t's²/4.
        """
        if abs(t) < ZERO_STRENGTH:
            return []
        if n <= 3:
            raise ValueError("even-power route needs n >= 4")
        self._enter("single-even")
        a = self.fresh_ancilla()
        m = n // 2
        s = min(2.0, (4.0 * abs(t)) ** (1.0 / 3.0)) if self.balanced else 2.0
        tp = 4.0 * t / (s * s)
        conj = self.px_n(k, a, m, s)
        gates = (conj + [Gate.x(a, 2, tp, "single-even")] + self._inverse(conj)
                 + [Gate.x(a, 2, -tp, "single-even")]
                 + self._x_xn(a, k, m, -4.0 * t / s))
        self._leave()
        return gates

    def single_odd3(self, k: int, n: int, t: float) -> list[Gate]:
        """e^{itX_kⁿ} for odd n divisible by 3, n ≥ 9, with two ancillas.

        Writes 2α X^n as a combination of a shifted cube, a shifted square
        and lower powers; each piece reduces to already-solved routes with
        maximum single-mode power strictly below n.
        """
        if abs(t) < ZERO_STRENGTH:
            return []
        self._enter("single-odd3")
        al = t / 2.0
        j = self.fresh_ancilla()
        l = self.fresh_ancilla()
        m = n // 3
        cube_conj = self.px_n(k, j, m, 2.0)
        sq_conj_a = self.px_n(k, l, m, 2.0)
        sq_conj_b = self.px2(j, l, 2.0)
        gates = (
            cube_conj + [Gate.x(j, 3, 2 * al, "single-odd3")]
            + self._inverse(cube_conj)
            + sq_conj_a + sq_conj_b + [Gate.x(l, 2, -3 * al, "single-odd3")]
            + self._inverse(sq_conj_b) + self._inverse(sq_conj_a)
            + [Gate.x(j, 3, -2 * al, "single-odd3")]
            + self.single_even(j, 4, 3 * al)
            + self.single_even(k, 2 * n // 3, 3 * al)
            + self._x_xn(j, k, 2 * m, -6 * al)
            + _fourier_conj([l], self.px2(j, l, -6 * al), "single-odd3")
            + self._x_xn(l, k, m, 6 * al)
            + [Gate.x(l, 2, 3 * al, "single-odd3")])
        self._leave()
        return gates

    def single_power(self, mode: int, n: int, t: float) -> list[Gate]:
        if abs(t) < ZERO_STRENGTH:
            return []
        if n <= 3:
            return [Gate.x(mode, n, t, "primitive")]
        if n % 2 == 0:
            return self.single_even(mode, n, t)
        if n % 3 == 0:
            return self.single_odd3(mode, n, t)
        raise Ineligible(f"single-mode power {n} divisible by neither 2 nor 3")

    def poly_power(self, summands: list[tuple[int, int]], N: int,
                   t: float) -> list[Gate]:
        """e^{it(Σ X_i^{n_i})^N} by shifting everything onto one unit mode."""
        if abs(t) < ZERO_STRENGTH:
            return []
        units = [m for m, n in summands if n == 1]
        if not units:
            raise NoUnitCentralMode(
                "every mode-sum power needs a summand with exponent one")
        self._enter("poly-power")
        c = min(units)
        conj: list[Gate] = []
        for m, n in sorted(summands, key=lambda e: -e[0]):
            if m == c:
                continue
            if n == 1:
                conj += self._px_unit(c, m, 2.0)
            else:
                conj += self.px_n(m, c, n, 2.0)
        gates = conj + self.single_power(c, N, t) + self._inverse(conj)
        self._leave()
        return gates

    def general(self, target: TargetGate) -> list[Gate]:
        """Multi-mode product via the mode-sum power expansion."""
        self._enter("general")
        gates: list[Gate] = []
        for coeff, base in expand_general_d(target):
            strength = target.strength * coeff
            if len(base) == 1:
                m, n = base[0]
                gates += self.single_power(m, n * len(target.exponents), strength)
            else:
                gates += self.poly_power(base, len(target.exponents), strength)
        self._leave()
        return gates

    # -- dispatch ----------------------------------------------------------

    def run(self, target: TargetGate) -> tuple[str, list[Gate]]:
        """Route of target and the gates it emits; Ineligible if none."""
        verdict, build = _classify(target)
        if not verdict.eligible:
            raise Ineligible(verdict.reason)
        if abs(target.strength) < ZERO_STRENGTH:
            return verdict.route, []
        return verdict.route, build(self)


def compile(target: TargetGate, balanced: bool = False
            ) -> tuple[GateSeq, DecompReport]:
    """Full pipeline: route dispatch, recursion, then peephole optimization."""
    n_modes = (max(target.modes()) + 1) if target.exponents else 0
    comp = _Compiler(n_modes, balanced)
    route, gates = comp.run(target)
    raw = GateSeq(tuple(gates), n_modes, tuple(comp.ancillas))
    seq = optimize(raw)
    report = DecompReport(
        n_gates_total=len(seq.gates),
        n_gates_nonfourier=count_gates(seq, exclude_fourier=True),
        n_gates_preopt=len(raw.gates),
        n_ancillas=len(seq.ancilla_modes),
        recursion_trace=comp.trace,
        route=route,
    )
    return seq, report


def decompose_poly_power(summands: list[tuple[int, int]], N: int, t: float,
                         balanced: bool = False) -> GateSeq:
    """e^{it(Σ X_i^{n_i})^N} for summands [(mode, n_i), ...]."""
    n_modes = max(m for m, _ in summands) + 1
    comp = _Compiler(n_modes, balanced)
    gates = comp.poly_power(summands, N, t)
    return optimize(GateSeq(tuple(gates), n_modes, tuple(comp.ancillas)))
