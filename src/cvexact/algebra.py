"""Normal-ordered polynomials in bosonic quadrature operators.

Everything is written against the convention [X_j, P_j] = i/2, with
X = (a† + a)/2 and P = i(a† - a)/2. A polynomial is stored in a canonical
form where, within each mode, all X factors stand to the left of all P
factors; multiplication reorders via the commutator and is exact up to
floating-point rounding of the i/2 correction cascade.
"""

from __future__ import annotations

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


def _mul_single_mode(a: int, b: int, c: int, d: int):
    """Normal-order (X^a P^b)(X^c P^d) for one mode.

    Yields (coefficient, x_exp, p_exp) using
    P^b X^c = sum_k (-i/2)^k k! C(b,k) C(c,k) X^(c-k) P^(b-k).
    """
    for k in range(min(b, c) + 1):
        coeff = ((-0.5j) ** k) * math.factorial(k) * math.comb(b, k) * math.comb(c, k)
        yield coeff, a + c - k, b + d - k


class NOPoly:
    """Immutable normal-ordered polynomial with complex coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[TermKey, complex] | None = None):
        pruned: dict[TermKey, complex] = {}
        if terms:
            for key, coeff in terms.items():
                if abs(coeff) >= PRUNE_THRESHOLD:
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

    def is_zero(self, tol: float = 0.0) -> bool:
        return all(abs(c) <= tol for c in self.terms.values())

    def coefficient(self, factors: Iterable[tuple[int, int, int]]) -> complex:
        key = tuple(sorted((m, a, b) for m, a, b in factors if a or b))
        return self.terms.get(key, 0.0 + 0.0j)

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
    """Normal-ordered product a*b."""
    out: dict[TermKey, complex] = {}
    b_terms = [({m: (x, p) for m, x, p in kb}, cb) for kb, cb in b.terms.items()]
    for ka, ca in a.terms.items():
        da = {m: (x, p) for m, x, p in ka}
        for db, cb in b_terms:
            # per-mode reordering; modes only in one factor pass through
            partial: list[tuple[complex, list[tuple[int, int, int]]]] = [(ca * cb, [])]
            for m in sorted(set(da) | set(db)):
                ax, ap = da.get(m, (0, 0))
                bx, bp = db.get(m, (0, 0))
                expanded = []
                for coeff, factors in partial:
                    for corr, xe, pe in _mul_single_mode(ax, ap, bx, bp):
                        if xe or pe:
                            expanded.append((coeff * corr, factors + [(m, xe, pe)]))
                        else:
                            expanded.append((coeff * corr, factors))
                partial = expanded
            for coeff, factors in partial:
                key = tuple(factors)
                out[key] = out.get(key, 0.0) + coeff
    return NOPoly(out)


def substitute(b: NOPoly, images: Mapping[int, tuple[NOPoly, NOPoly]]) -> NOPoly:
    """φ(b) for the algebra homomorphism φ given by its generators' images.

    images maps a mode m to (φ(X_m), φ(P_m)); a mode it omits is left as it
    is. Each term X_m^a P_m^b ... becomes the ordered product φ(X_m)^a
    φ(P_m)^b ... of the images. That is φ(b) when the images keep the
    canonical commutation relations, as those of a unitary conjugation do.
    """
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
    """[a, b] = ab - ba, normal-ordered."""
    return poly_mul(a, b) - poly_mul(b, a)


def adjoint_series(a: NOPoly, b: NOPoly) -> NOPoly:
    """e^a b e^{-a} = b + [a,b] + [a,[a,b]]/2! + ..., summed to termination.

    Raises NonTerminatingSeries if no zero term appears within
    2 + deg(b) * deg(a) terms; the conjugators used by the compiler all
    terminate well inside that bound.
    """
    max_terms = 2 + b.degree() * max(a.degree(), 1)
    total = b
    term = b
    for n in range(1, max_terms + 1):
        term = commutator(a, term).scale(1.0 / n)
        if term.is_zero():
            return total
        total = total + term
    raise NonTerminatingSeries(
        f"adjoint series did not terminate within {max_terms} terms"
    )
