"""Normal-ordered polynomials in bosonic quadrature operators.

Everything is written against the convention [X_j, P_j] = i/2, with
X = (a† + a)/2 and P = i(a† - a)/2. A polynomial is stored in a canonical
form where, within each mode, all X factors stand to the left of all P
factors; multiplication reorders via the commutator and is exact up to
floating-point rounding of the i/2 correction cascade.
"""

from __future__ import annotations

import cmath
import math
from enum import Enum
from typing import Iterable, Mapping

PRUNE_THRESHOLD = 1e-12


class Basis(Enum):
    POSITION = "x"
    MOMENTUM = "p"


class NonTerminatingSeries(Exception):
    """The adjoint series of a conjugation did not terminate within bound."""


# A term key lists (mode, x_exponent, p_exponent) triples, sorted by mode,
# omitting modes with both exponents zero. The empty tuple is the constant.
TermKey = tuple[tuple[int, int, int], ...]


# The k >= 1 terms (k, coefficient) of the one-mode reordering
# P^b X^c = sum_k (-i/2)^k k! C(b,k) C(c,k) X^(c-k) P^(b-k), by (b, c);
# b and c are exponents, so the table stays small.
_REORDER: dict[tuple[int, int], tuple[tuple[int, complex], ...]] = {}


def _reorder(b: int, c: int) -> tuple[tuple[int, complex], ...]:
    got = _REORDER.get((b, c))
    if got is None:
        got = _REORDER[b, c] = tuple(
            (k, ((-0.5j) ** k) * math.factorial(k) * math.comb(b, k) * math.comb(c, k))
            for k in range(1, min(b, c) + 1))
    return got


class NOPoly:
    """Immutable normal-ordered polynomial with complex coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[TermKey, complex] | None = None):
        pruned: dict[TermKey, complex] = {}
        if terms:
            for key, coeff in terms.items():
                # a NaN fails every comparison, so it is kept, not pruned
                if not abs(coeff) < PRUNE_THRESHOLD:
                    pruned[key] = complex(coeff)
        object.__setattr__(self, "terms", pruned)

    def __setattr__(self, name, value):
        raise AttributeError("NOPoly is immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "NOPoly":
        return NOPoly()

    @staticmethod
    def constant(c: complex) -> "NOPoly":
        return NOPoly({(): c})

    @staticmethod
    def x(mode: int, power: int = 1, coeff: complex = 1.0) -> "NOPoly":
        if power == 0:
            return NOPoly.constant(coeff)
        return NOPoly({((mode, power, 0),): coeff})

    @staticmethod
    def p(mode: int, power: int = 1, coeff: complex = 1.0) -> "NOPoly":
        if power == 0:
            return NOPoly.constant(coeff)
        return NOPoly({((mode, 0, power),): coeff})

    @staticmethod
    def monomial(factors: Iterable[tuple[int, int, int]], coeff: complex = 1.0) -> "NOPoly":
        """Build coeff * prod X_m^a P_m^b from (mode, a, b) triples."""
        key = tuple(sorted((m, a, b) for m, a, b in factors if a or b))
        modes = [m for m, _, _ in key]
        if len(set(modes)) != len(modes):
            raise ValueError("duplicate mode in monomial factors")
        return NOPoly({key: coeff})

    # -- structure ---------------------------------------------------------

    def degree(self) -> int:
        if not self.terms:
            return 0
        return max(sum(a + b for _, a, b in key) for key in self.terms)

    def modes(self) -> set[int]:
        return {m for key in self.terms for m, _, _ in key}

    def is_zero(self) -> bool:
        return not self.terms  # __init__ prunes every zero coefficient

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "NOPoly") -> "NOPoly":
        terms = dict(self.terms)
        for key, coeff in other.terms.items():
            terms[key] = terms.get(key, 0.0) + coeff
        return NOPoly(terms)

    def __sub__(self, other: "NOPoly") -> "NOPoly":
        terms = dict(self.terms)
        for key, coeff in other.terms.items():
            terms[key] = terms.get(key, 0.0) - coeff
        return NOPoly(terms)

    def __neg__(self) -> "NOPoly":
        return NOPoly({k: -c for k, c in self.terms.items()})

    def scale(self, c: complex) -> "NOPoly":
        return NOPoly({k: c * v for k, v in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, NOPoly):
            return poly_mul(self, other)
        return self.scale(other)

    def __rmul__(self, c):
        return self.scale(c)

    def __eq__(self, other):
        if not isinstance(other, NOPoly):
            return NotImplemented
        return max_coeff_diff(self, other) == 0.0

    def __hash__(self):
        raise TypeError("NOPoly is not hashable")

    def __repr__(self):
        if not self.terms:
            return "NOPoly(0)"
        parts = []
        for key in sorted(self.terms):
            coeff = self.terms[key]
            factors = "".join(
                (f"X{m}" + (f"^{a}" if a > 1 else "") if a else "")
                + (f"P{m}" + (f"^{b}" if b > 1 else "") if b else "")
                for m, a, b in key
            )
            parts.append(f"({coeff:g})" + (factors or "1"))
        return "NOPoly[" + " + ".join(parts) + "]"


def max_coeff_diff(a: NOPoly, b: NOPoly) -> float:
    """Largest absolute coefficient difference between two polynomials."""
    keys = set(a.terms) | set(b.terms)
    if not keys:
        return 0.0
    return max(abs(a.terms.get(k, 0.0) - b.terms.get(k, 0.0)) for k in keys)


def poly_mul(a: NOPoly, b: NOPoly) -> NOPoly:
    """Normal-ordered product a*b.

    Relies on the TermKey invariant that every constructor keeps: a key's
    (mode, x, p) triples are sorted by mode, and none is (m, 0, 0).
    """
    out: dict[TermKey, complex] = {}
    _mul_into(out, a.terms, b.terms, leading=True)
    return NOPoly(out)


def _mul_into(out: dict[TermKey, complex], a: Mapping[TermKey, complex],
              b: Mapping[TermKey, complex], leading: bool) -> None:
    """Add the normal-ordered product of every term pair of a and b to out.

    Each pair's keys are merged by mode in one pass. A mode in one key only
    passes through; a shared mode X^ax P^ap · X^bx P^bp becomes
    X^(ax+bx) P^(ap+bp), plus, when ap and bx are both non-zero, the k >= 1
    terms of _reorder(ap, bx), expanded over such modes with the first mode
    outermost. leading=False leaves out each pair's term without any
    reordering (k = 0 on every mode).
    """
    b_items = list(b.items())
    for ka, ca in a.items():
        na = len(ka)
        for kb, cb in b_items:
            nb = len(kb)
            i = j = 0
            factors = []
            split = None
            while i < na and j < nb:
                fa, fb = ka[i], kb[j]
                if fa[0] < fb[0]:
                    factors.append(fa)
                    i += 1
                elif fb[0] < fa[0]:
                    factors.append(fb)
                    j += 1
                else:
                    m, ax, ap = fa
                    _, bx, bp = fb
                    if ap and bx:
                        split = (split or []) + [(len(factors), ap, bx)]
                    factors.append((m, ax + bx, ap + bp))
                    i += 1
                    j += 1
            factors += ka[i:] if i < na else kb[j:]
            if split is None:
                if leading:
                    key = tuple(factors)
                    out[key] = out.get(key, 0.0) + ca * cb
                continue
            terms = [(ca * cb, factors)]
            for pos, p, x in split:
                m, fx, fp = factors[pos]
                expanded = []
                for coeff, fs in terms:
                    expanded.append((coeff, fs))
                    for k, corr in _reorder(p, x):
                        f = fs.copy()
                        f[pos] = None if fx == k == fp else (m, fx - k, fp - k)
                        expanded.append((coeff * corr, f))
                terms = expanded
            for coeff, fs in terms if leading else terms[1:]:
                key = tuple(f for f in fs if f is not None)
                out[key] = out.get(key, 0.0) + coeff


def substitute(b: NOPoly, images: Mapping[int, tuple[NOPoly, NOPoly]]) -> NOPoly:
    """φ(b) for the algebra homomorphism φ given by its generators' images.

    images maps a mode m to (φ(X_m), φ(P_m)); a mode it omits is left as it
    is. Each term X_m^a P_m^b ... becomes the ordered product φ(X_m)^a
    φ(P_m)^b ... of the images. That is φ(b) when the images keep the
    canonical commutation relations, as those of a unitary conjugation do.
    When b is X_m or P_m of a mapped mode, its image is returned as it is.
    """
    if len(b.terms) == 1:
        [(key, coeff)] = b.terms.items()
        if coeff == 1 and len(key) == 1:
            [(m, a, p)] = key
            if a + p == 1 and m in images:
                return images[m][p]
    powers: dict[tuple[int, int, int], NOPoly] = {}

    def power(m: int, which: int, n: int) -> NOPoly:
        got = powers.get((m, which, n))
        if got is None:
            got = images[m][which]
            if n > 1:
                got = poly_mul(power(m, which, n - 1), got)
            powers[(m, which, n)] = got
        return got

    out: dict[TermKey, complex] = {}
    for key, coeff in b.terms.items():
        factors = []
        for m, a, p in key:
            if m not in images:
                factors.append(NOPoly({((m, a, p),): 1.0}))
                continue
            factors += [power(m, which, n) for which, n in ((0, a), (1, p)) if n]
        if not factors:
            out[()] = out.get((), 0.0) + coeff
            continue
        term = factors[0]
        for f in factors[1:]:
            term = poly_mul(term, f)
        for k, c in term.terms.items():
            out[k] = out.get(k, 0.0) + coeff * c
    return NOPoly(out)


def commutator(a: NOPoly, b: NOPoly) -> NOPoly:
    """[a, b] = ab - ba, normal-ordered.

    Each term pair's product without reordering is the same in ab and in
    ba, so it is left out of both rather than formed twice and cancelled:
    two commuting terms give nothing, not inf − inf when their product
    overflows.
    """
    out: dict[TermKey, complex] = {}
    _mul_into(out, a.terms, b.terms, leading=False)
    _mul_into(out, b.terms, {k: -c for k, c in a.terms.items()}, leading=False)
    return NOPoly(out)


def adjoint_series(a: NOPoly, b: NOPoly) -> NOPoly:
    """e^a b e^{-a} = b + [a,b] + [a,[a,b]]/2! + ..., summed to termination.

    Raises NonTerminatingSeries if no zero term appears within
    2 + deg(b) * deg(a) terms; the conjugators used by the compiler all
    terminate well inside that bound. A term with a coefficient that is
    not finite ends the series at once: every later term would carry
    inf − inf, and the sum is not finite either way.
    """
    max_terms = 2 + b.degree() * max(a.degree(), 1)
    total = b
    term = b
    for n in range(1, max_terms + 1):
        term = commutator(a, term).scale(1.0 / n)
        if term.is_zero():
            return total
        total = total + term
        if not all(map(cmath.isfinite, term.terms.values())):
            return total
    raise NonTerminatingSeries(
        f"adjoint series did not terminate within {max_terms} terms"
    )
