"""Gates, gate sequences, and Heisenberg conjugation by gates.

A Gate is either a Fourier transform on one mode or an exponential
e^{i * strength * generator} of a normal-ordered polynomial generator.
Gate sequences follow operator-product order: the first list entry is the
leftmost factor, i.e. the gate applied *last*.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .algebra import (
    NOPoly,
    adjoint_series,
    commutator,
    max_coeff_diff,
)

FOURIER = "fourier"
EXPPOLY = "exppoly"

# |strength| below this is treated as the identity gate
ZERO_STRENGTH = 1e-14


@dataclass(frozen=True)
class Gate:
    kind: str
    mode: int = 0  # fourier only
    power: int = 1  # fourier only, +1 or -1
    generator: NOPoly | None = None  # exppoly only
    strength: float = 0.0  # exppoly only
    provenance: str = ""

    @staticmethod
    def fourier(mode: int, power: int = 1, provenance: str = "") -> "Gate":
        if power not in (1, -1):
            raise ValueError("Fourier power must be +1 or -1")
        return Gate(kind=FOURIER, mode=mode, power=power, provenance=provenance)

    @staticmethod
    def exp_poly(generator: NOPoly, strength: float, provenance: str = "") -> "Gate":
        return Gate(kind=EXPPOLY, generator=generator, strength=float(strength),
                    provenance=provenance)

    @staticmethod
    def x(mode: int, power: int, strength: float, provenance: str = "") -> "Gate":
        return Gate.exp_poly(NOPoly.x(mode, power), strength, provenance)

    @staticmethod
    def xx(j: int, k: int, strength: float, provenance: str = "") -> "Gate":
        if j == k:
            raise ValueError("XX gate needs two distinct modes")
        return Gate.exp_poly(NOPoly.monomial([(j, 1, 0), (k, 1, 0)]), strength,
                             provenance)

    def inverse(self) -> "Gate":
        if self.kind == FOURIER:
            return replace(self, power=-self.power)
        return replace(self, strength=-self.strength)

    def modes(self) -> set[int]:
        if self.kind == FOURIER:
            return {self.mode}
        return self.generator.modes()

    def is_universal(self) -> bool:
        """True for the universal set: Fourier, X, X², X³, and X_j X_k."""
        if self.kind == FOURIER:
            return True
        terms = self.generator.terms
        if len(terms) != 1:
            return False
        (key, coeff), = terms.items()
        if abs(coeff - 1.0) > 1e-12:
            return False
        if any(p for _, _, p in key):
            return False
        if len(key) == 1:
            return key[0][1] in (1, 2, 3)
        if len(key) == 2:
            return key[0][1] == 1 and key[1][1] == 1
        return False

    def same_generator(self, other: "Gate") -> bool:
        if self.kind != EXPPOLY or other.kind != EXPPOLY:
            return False
        if set(self.generator.terms) != set(other.generator.terms):
            return False
        return max_coeff_diff(self.generator, other.generator) <= 1e-12

    def __repr__(self):
        if self.kind == FOURIER:
            return f"F{self.mode}" + ("†" if self.power < 0 else "")
        return f"exp(i*{self.strength:g}*{self.generator!r})"


@dataclass(frozen=True)
class GateSeq:
    """Ordered gate list; gates[0] is applied last (leftmost operator)."""

    gates: tuple[Gate, ...]
    n_target_modes: int
    ancilla_modes: tuple[int, ...] = ()

    def __post_init__(self):
        allowed = set(range(self.n_target_modes)) | set(self.ancilla_modes)
        referenced = set().union(*(g.modes() for g in self.gates)) if self.gates else set()
        if not referenced <= allowed:
            raise ValueError(f"gate references undeclared modes {referenced - allowed}")

    def __len__(self):
        return len(self.gates)

    def __iter__(self):
        return iter(self.gates)

    def all_modes(self) -> list[int]:
        return list(range(self.n_target_modes)) + list(self.ancilla_modes)

    def inverse(self) -> "GateSeq":
        return replace(self, gates=tuple(g.inverse() for g in reversed(self.gates)))


def heisenberg_conjugate(g: Gate, b: NOPoly) -> NOPoly:
    """Image of b under conjugation by g.

    For an exponential gate this is e^{A} b e^{-A} with A = i*strength*generator,
    summed via the terminating adjoint series. A forward Fourier acts as
    X -> -P, P -> X on its mode; the inverse Fourier undoes it.
    """
    if g.kind == EXPPOLY:
        if abs(g.strength) <= ZERO_STRENGTH:
            return b
        return adjoint_series(g.generator.scale(1j * g.strength), b)
    return _fourier_substitute(b, g.mode, forward=(g.power == 1))


def _fourier_substitute(b: NOPoly, mode: int, forward: bool) -> NOPoly:
    """Apply X->-P, P->X (forward) or X->P, P->-X (inverse) on one mode."""
    out = NOPoly.zero()
    for key, coeff in b.terms.items():
        term = NOPoly.constant(coeff)
        for m, a, p in key:
            if m != mode:
                term = term * NOPoly.monomial([(m, a, p)])
                continue
            if forward:
                # X^a P^p -> (-P)^a X^p, re-normal-ordered
                sub = ((-1) ** a) * (NOPoly.p(m, a) * NOPoly.x(m, p))
            else:
                # X^a P^p -> P^a (-X)^p
                sub = ((-1) ** p) * (NOPoly.p(m, a) * NOPoly.x(m, p))
            term = term * sub

        out = out + term
    return out


def zassenhaus_split(a: NOPoly, b: NOPoly, t: float, order: int) -> GateSeq:
    """Leading factors of e^{it(a+b)} as a product of exponentials.

    e^{it(A+B)} = e^{itA} e^{itB} e^{(t²/2)[A,B]}
                  e^{(-it³/6)(2[B,[A,B]] + [A,[A,B]])} ...

    Exact (two factors) when [a,b] = 0; otherwise returns the first `order`
    factors, order between 2 and 4.
    """
    if order < 2:
        raise ValueError("order must be >= 2")
    if order > 4:
        raise NotImplementedError("Zassenhaus factors beyond fourth order")
    gates = [Gate.exp_poly(a, t, "zassenhaus"), Gate.exp_poly(b, t, "zassenhaus")]
    c1 = commutator(a, b)
    if not c1.is_zero():
        if order >= 3:
            # e^{(t²/2)[A,B]} = e^{i(t²/2)(-i[A,B])}
            gates.append(Gate.exp_poly(c1.scale(-1j), 0.5 * t * t, "zassenhaus"))
        if order >= 4:
            w = commutator(b, c1).scale(2.0) + commutator(a, c1)
            # e^{(-it³/6) w} = e^{i(t³/6)(-w)}
            gates.append(Gate.exp_poly(-w, t**3 / 6.0, "zassenhaus"))
    modes = (a.modes() | b.modes()) or {0}
    n = max(modes) + 1
    return GateSeq(tuple(gates), n_target_modes=n)
