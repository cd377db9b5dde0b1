"""Gates, gate sequences, and Heisenberg conjugation by gates.

A Gate is a plain record. The universal set, a Fourier transform on one
mode and e^{i * strength * X^n} (n = 1, 2, 3) or e^{i * strength * X_j X_k},
is stored by kind and modes alone; any other exponential e^{i * strength *
generator} keeps its normal-ordered polynomial generator.
Gate sequences follow operator-product order: the first list entry is the
leftmost factor, i.e. the gate applied *last*.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .algebra import NOPoly, adjoint_series, max_coeff_diff, substitute

# gate kinds; the universal ones are the names of the saved-circuit format
FOURIER = "fourier"
X_POWER = {"x1": 1, "x2": 2, "x3": 3}  # e^{isXⁿ} by kind
XX = "xx"
EXPPOLY = "exppoly"  # any other generator

# |strength| below this is treated as the identity gate
ZERO_STRENGTH = 1e-14


@dataclass(frozen=True, slots=True)
class Gate:
    """One gate as a record.

    kind: FOURIER, a key of X_POWER, XX, or EXPPOLY.
    modes: the modes the gate acts on; an XX gate holds its two sorted.
    strength: s in e^{is·generator}; 0.0 for a Fourier gate.
    power: +1 for the forward Fourier transform, -1 for its inverse.
    poly: the generator of an EXPPOLY gate; None for every other kind.
    """

    kind: str
    modes: tuple[int, ...]
    strength: float = 0.0
    power: int = 1
    provenance: str = ""
    poly: NOPoly | None = None

    @staticmethod
    def fourier(mode: int, power: int = 1, provenance: str = "") -> "Gate":
        if power not in (1, -1):
            raise ValueError("Fourier power must be +1 or -1")
        return Gate(FOURIER, (mode,), 0.0, power, provenance)

    @staticmethod
    def exp_poly(generator: NOPoly, strength: float, provenance: str = "") -> "Gate":
        """e^{i*strength*generator}; a unit monomial of the universal set
        gives the same record as Gate.x or Gate.xx."""
        if len(generator.terms) == 1:
            (key, coeff), = generator.terms.items()
            if coeff == 1.0 and not any(p for _, _, p in key):
                if len(key) == 1 and key[0][1] <= 3:
                    return Gate.x(key[0][0], key[0][1], strength, provenance)
                if len(key) == 2 and key[0][1] == key[1][1] == 1:
                    return Gate.xx(key[0][0], key[1][0], strength, provenance)
        return Gate(EXPPOLY, tuple(sorted(generator.modes())), float(strength),
                    1, provenance, generator)

    @staticmethod
    def x(mode: int, power: int, strength: float, provenance: str = "") -> "Gate":
        kind = f"x{power}"
        if kind not in X_POWER:
            return Gate.exp_poly(NOPoly.x(mode, power), strength, provenance)
        return Gate(kind, (mode,), float(strength), 1, provenance)

    @staticmethod
    def xx(j: int, k: int, strength: float, provenance: str = "") -> "Gate":
        if j == k:
            raise ValueError("XX gate needs two distinct modes")
        return Gate(XX, (min(j, k), max(j, k)), float(strength), 1, provenance)

    @property
    def mode(self) -> int:
        return self.modes[0]

    @property
    def generator(self) -> NOPoly | None:
        """The generator as a polynomial, built on each access for the
        universal kinds; None for a Fourier gate."""
        if self.kind == FOURIER:
            return None
        if self.kind == XX:
            return NOPoly.monomial([(m, 1, 0) for m in self.modes])
        if self.kind == EXPPOLY:
            return self.poly
        return NOPoly.x(self.modes[0], X_POWER[self.kind])

    def inverse(self) -> "Gate":
        if self.kind == FOURIER:
            return Gate(FOURIER, self.modes, 0.0, -self.power, self.provenance)
        return Gate(self.kind, self.modes, -self.strength, self.power,
                    self.provenance, self.poly)

    def is_universal(self) -> bool:
        """True for the universal set: Fourier, X, X², X³, and X_j X_k."""
        return self.kind != EXPPOLY

    def same_generator(self, other: "Gate") -> bool:
        if self.kind == FOURIER or other.kind == FOURIER:
            return False
        if self.kind != EXPPOLY and other.kind != EXPPOLY:
            return (self.kind, self.modes) == (other.kind, other.modes)
        a, b = self.generator, other.generator
        return set(a.terms) == set(b.terms) and max_coeff_diff(a, b) <= 1e-12

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
        undeclared = {m for g in self.gates for m in g.modes} - allowed
        if undeclared:
            raise ValueError(f"gate references undeclared modes {undeclared}")

    def __len__(self):
        return len(self.gates)

    def __iter__(self):
        return iter(self.gates)

    def all_modes(self) -> list[int]:
        return list(range(self.n_target_modes)) + list(self.ancilla_modes)

    def inverse(self) -> "GateSeq":
        return replace(self, gates=tuple(g.inverse() for g in reversed(self.gates)))


def gate_images(g: Gate) -> dict[int, tuple[NOPoly, NOPoly]]:
    """Images of X_m and P_m for each mode m of g under heisenberg_conjugate.

    A forward Fourier sends (X, P) to (−P, X) and its inverse to (P, −X).
    e^{isf(X)} for an x1/x2/x3/xx gate fixes every X and sends P_j to
    P_j − (s/2)∂_j f. An exppoly gate's images are its adjoint series on
    each generator. A gate of strength at most ZERO_STRENGTH has none.
    """
    if g.kind == FOURIER:
        m = g.mode
        if g.power == 1:
            return {m: (NOPoly.p(m, 1, -1.0), NOPoly.x(m))}
        return {m: (NOPoly.p(m), NOPoly.x(m, 1, -1.0))}
    s = g.strength
    if abs(s) <= ZERO_STRENGTH:
        return {}
    if g.kind == EXPPOLY:
        a = g.poly.scale(1j * s)
        return {m: (adjoint_series(a, NOPoly.x(m)), adjoint_series(a, NOPoly.p(m)))
                for m in g.modes}
    if g.kind == XX:
        j, k = g.modes
        return {j: (NOPoly.x(j), NOPoly.p(j) + NOPoly.x(k, 1, -s / 2)),
                k: (NOPoly.x(k), NOPoly.p(k) + NOPoly.x(j, 1, -s / 2))}
    m, n = g.mode, X_POWER[g.kind]
    return {m: (NOPoly.x(m), NOPoly.p(m) + NOPoly.x(m, n - 1, -s * n / 2))}


def heisenberg_conjugate(g: Gate, b: NOPoly) -> NOPoly:
    """Image of b under conjugation by g: b with gate_images(g) substituted.

    For an exponential gate this is e^{A} b e^{-A} with A = i*strength*generator.
    A forward Fourier acts as X -> -P, P -> X on its mode; the inverse
    Fourier undoes it.
    """
    return substitute(b, gate_images(g))
