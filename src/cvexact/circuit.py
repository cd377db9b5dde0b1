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
    poly: NOPoly | None = None

    @staticmethod
    def fourier(mode: int, power: int = 1) -> "Gate":
        """The Fourier transform on mode (power +1) or its inverse (-1)."""
        if power not in (1, -1):
            raise ValueError("Fourier power must be +1 or -1")
        return Gate(FOURIER, (mode,), 0.0, power)

    @staticmethod
    def exp_poly(generator: NOPoly, strength: float) -> "Gate":
        """e^{i*strength*generator}; a unit monomial of the universal set
        gives the same record as Gate.x or Gate.xx."""
        if len(generator.terms) == 1:
            (key, coeff), = generator.terms.items()
            if coeff == 1.0 and not any(p for _, _, p in key):
                if len(key) == 1 and key[0][1] <= 3:
                    return Gate.x(key[0][0], key[0][1], strength)
                if len(key) == 2 and key[0][1] == key[1][1] == 1:
                    return Gate.xx(key[0][0], key[1][0], strength)
        return Gate(EXPPOLY, tuple(sorted(generator.modes())), float(strength),
                    1, generator)

    @staticmethod
    def x(mode: int, power: int, strength: float) -> "Gate":
        kind = f"x{power}"
        if kind not in X_POWER:
            return Gate.exp_poly(NOPoly.x(mode, power), strength)
        return Gate(kind, (mode,), float(strength))

    @staticmethod
    def xx(j: int, k: int, strength: float) -> "Gate":
        if j == k:
            raise ValueError("XX gate needs two distinct modes")
        return Gate(XX, (min(j, k), max(j, k)), float(strength))

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
            return Gate.fourier(self.mode, -self.power)
        return Gate(self.kind, self.modes, -self.strength, self.power, self.poly)

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
        n, ancillas = self.n_target_modes, self.ancilla_modes
        if n < 0:
            raise ValueError(f"negative mode count {n}")
        if len(set(ancillas)) != len(ancillas) or any(a < n for a in ancillas):
            raise ValueError(f"ancilla modes {list(ancillas)} must be distinct "
                             f"and at least the mode count {n}")
        used = {m for g in self.gates for m in g.modes}
        undeclared = {m for m in used if not 0 <= m < n} - set(ancillas)
        if undeclared:
            raise ValueError(f"gate references undeclared modes {undeclared}")

    def __len__(self):
        return len(self.gates)

    def __iter__(self):
        return iter(self.gates)

    def inverse(self) -> "GateSeq":
        return replace(self, gates=tuple(g.inverse() for g in reversed(self.gates)))


def gate_images(g: Gate, m: int) -> tuple[NOPoly, NOPoly]:
    """The images (g† X_m g, g† P_m g) of one mode m of g.

    A forward Fourier sends (X, P) to (−P, X) and its inverse to (P, −X).
    e^{isf(X)} for an x1/x2/x3/xx gate fixes every X and sends P_m to
    P_m + (s/2)∂_m f. An exppoly gate's images are the adjoint series of
    −i·s·G on X_m and P_m. A strength of 0.0 gives X_m and P_m.
    """
    if g.kind == FOURIER:
        if g.power == 1:
            return NOPoly.p(m, 1, -1.0), NOPoly.x(m)
        return NOPoly.p(m), NOPoly.x(m, 1, -1.0)
    s = g.strength
    if g.kind == EXPPOLY:
        a = g.poly.scale(-1j * s)
        return adjoint_series(a, NOPoly.x(m)), adjoint_series(a, NOPoly.p(m))
    if g.kind == XX:
        other = g.modes[1] if m == g.modes[0] else g.modes[0]
        return NOPoly.x(m), NOPoly.p(m) + NOPoly.x(other, 1, s / 2)
    n = X_POWER[g.kind]
    return NOPoly.x(m), NOPoly.p(m) + NOPoly.x(m, n - 1, s * n / 2)


def heisenberg_conjugate(g: Gate, b: NOPoly) -> NOPoly:
    """g† b g for a gate of any kind: b with gate_images(g, m) substituted
    for each mode m that b and g share.

    For an exponential gate this is e^{-A} b e^{A} with
    A = i*strength*generator; a forward Fourier acts as X -> -P, P -> X on
    its mode (F X F† = P), and the inverse Fourier undoes it.
    """
    shared = b.modes().intersection(g.modes)
    return substitute(b, {m: gate_images(g, m) for m in shared})
