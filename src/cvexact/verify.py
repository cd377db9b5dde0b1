"""Two independent checks that a gate sequence implements its target.

The symbolic check compares Heisenberg images of every quadrature operator,
computed exactly by composing one substitution map per gate; it is blind to
global phase. The numeric check multiplies truncated-Fock gate matrices and
compares against the exact exponential on a low-lying subspace, which also
pins down the phase.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .algebra import NOPoly, adjoint_series, substitute
from .circuit import FOURIER, X_POWER, Gate, GateSeq, heisenberg_conjugate


class DimensionTooLarge(Exception):
    """Requested truncated Hilbert space exceeds the safe size bound."""


# full many-mode dimension cap for numeric verification
MAX_FULL_DIM = 200_000


@dataclass(frozen=True)
class FockContext:
    """Truncation parameters for numeric verification.

    cutoff: levels kept per mode when simulating the gates.
    subspace: levels per mode on which the comparison is made; at least 1
        and at most cutoff // 3.
    tolerance: acceptance threshold for the subspace error; finite and
        positive.

    subspace <= cutoff/3 is necessary but not enough: the cutoff must also
    hold the circuit's intermediate states, or the state is cut back to
    the cutoff after every gate and an exact circuit reads as wrong. The
    even-power route moves low levels far up the ladder: the compiled
    e^{0.05iX⁴} needs D ≈ 400 on the subspace = 2 block to read below
    1e-5 (0.19 at D = 24, 1.4e-4 at 256, 4.2e-6 at 447).
    """

    cutoff: int = 24
    subspace: int = 5
    tolerance: float = 1e-5

    def __post_init__(self):
        if self.subspace < 1:
            raise ValueError("subspace must be at least 1")
        if self.subspace > self.cutoff // 3:
            raise ValueError("subspace must satisfy d <= D/3")
        if not (math.isfinite(self.tolerance) and self.tolerance > 0):
            raise ValueError("tolerance must be finite and positive")


def fock_matrices(cutoff: int):
    """Return (X, P, a) as dense matrices at the given cutoff.

    a is the standard ladder matrix; X = (a† + a)/2, P = i(a† - a)/2, both
    Hermitian by construction.
    """
    a = np.zeros((cutoff, cutoff), dtype=complex)
    for m in range(cutoff - 1):
        a[m, m + 1] = np.sqrt(m + 1.0)
    x = (a.conj().T + a) / 2.0
    p = 1j * (a.conj().T - a) / 2.0
    return x, p, a


def heisenberg_action(seq: GateSeq,
                      modes: list[int]) -> dict[int, tuple[NOPoly, NOPoly]]:
    """Exact images U† X_m U and U† P_m U, by mode m of modes, for the
    unitary U described by seq.

    Conjugation by U is the composition of one algebra automorphism per
    gate, so the images of all generators are kept together and composed
    gate by gate, rightmost (first applied) gate first: each gate replaces
    the images of its own modes with its own images of them, g† X_m g and
    g† P_m g from heisenberg_conjugate, evaluated on the images so far
    (substitute). Every mode of seq is tracked; modes may add modes seq
    lacks, whose images stay X_m and P_m.
    """
    generators = {m: (NOPoly.x(m), NOPoly.p(m))
                  for m in [*seq.all_modes(), *modes]}
    images = dict(generators)
    for g in reversed(seq.gates):
        # each step is b -> g† b g; the Fourier rule of heisenberg_conjugate
        # already has that orientation
        h = g if g.kind == FOURIER else g.inverse()
        images.update({m: tuple(substitute(heisenberg_conjugate(h, b), images)
                                for b in generators[m])
                       for m in g.modes})
    return {m: images[m] for m in modes}


def target_action(generator: NOPoly, strength: float, b: NOPoly) -> NOPoly:
    """Exact image e^{-isG} b e^{isG} of the ideal target gate."""
    return adjoint_series(generator.scale(-1j * strength), b)


def _verified_modes(seq: GateSeq, generator: NOPoly) -> list[int]:
    """The modes both verifiers check: the circuit's modes in their order,
    then any mode of the target that the circuit lacks."""
    modes = seq.all_modes()
    return modes + sorted(generator.modes() - set(modes))


def verify_symbolic(seq: GateSeq, generator: NOPoly, strength: float) -> float:
    """Worst-case Heisenberg residual of seq against e^{i*strength*generator}.

    Compares the image of X_m and P_m for every mode of the sequence or the
    target, all computed in one heisenberg_action; ancilla modes must
    return to themselves (the target acts as identity there). Returns the
    largest absolute coefficient deviation; exact circuits give ~1e-12
    (floating-point noise only).
    """
    modes = _verified_modes(seq, generator)
    residual = 0.0
    for m, got in heisenberg_action(seq, modes).items():
        for b, image in zip((NOPoly.x(m), NOPoly.p(m)), got):
            diff = image - target_action(generator, strength, b)
            residual = max(residual,
                           max((abs(c) for c in diff.terms.values()), default=0.0))
    return residual


# internal padding for per-gate exponentials: each gate is evaluated on a
# larger position grid and projected back, which converges much faster than
# exponentiating cutoff-truncated generators directly
INTERNAL_PAD = 24


@functools.lru_cache(maxsize=8)
def _position_basis(d_int: int):
    """Eigendecomposition of the truncated position operator.

    Returns (lam, v) with X v[:,a] = lam[a] v[:,a]; the columns form the
    discrete quadrature grid used to apply position-diagonal gates. The
    results for the last few sizes are cached and shared, so both arrays
    are read-only.
    """
    x, _, _ = fock_matrices(d_int)
    lam, v = np.linalg.eigh(x.real)
    lam.flags.writeable = False
    v.flags.writeable = False
    return lam, v


def _mode_split(generator: NOPoly):
    """Classify each mode of the generator as position-only or momentum-only.

    Returns (pmodes, xgen) where xgen replaces P_m by X_m for the momentum
    modes, valid under e^{isG} = (Π F_m) e^{isG'} (Π F_m†); None when some
    mode mixes X and P factors across the terms.
    """
    basis: dict[int, str] = {}
    for key, _ in generator.terms.items():
        for m, a, b in key:
            want = "x" if a else "p"
            if a and b:
                return None
            if basis.setdefault(m, want) != want:
                return None
    pmodes = [m for m, kind in basis.items() if kind == "p"]
    if not pmodes:
        return [], generator
    terms = {}
    for key, coeff in generator.terms.items():
        new_key = tuple(sorted((m, a + b, 0) if m in pmodes else (m, a, b)
                               for m, a, b in key))
        terms[new_key] = terms.get(new_key, 0.0) + coeff
    return pmodes, NOPoly(terms)


def _apply_axis(state, mat, axis, grid_axes=()):
    """Multiply state by mat along axis: one np.matmul on a reshaped view.

    mat is one (D', D) matrix, or a stack of shape (G,)*len(grid_axes) +
    (D', D) that holds one matrix for each grid point of grid_axes, which
    all come before axis. Away from the last axis the product is batched
    over the axes in front of axis; on the last axis it is a
    right-multiplication by the transposed matrix.
    """
    shape = state.shape
    n_out, n_in = mat.shape[-2:]
    # runs of axes between the grid axes merge into one axis of the view
    bounds = [-1, *grid_axes, axis]
    runs = [math.prod(shape[lo + 1:hi]) for lo, hi in zip(bounds, bounds[1:])]
    dims, mdims = [runs[0]], [1]
    for g, run in zip(grid_axes, runs[1:]):
        dims += [shape[g], run]
        mdims += [shape[g], 1]
    out_shape = shape[:axis] + (n_out,) + shape[axis + 1:]
    tail = math.prod(shape[axis + 1:])
    if tail == 1:
        mt = mat.reshape(mdims[:-1] + [n_out, n_in]).swapaxes(-1, -2)
        return (state.reshape(dims + [n_in]) @ mt).reshape(out_shape)
    view = state.reshape(dims + [n_in, tail])
    mat = mat.reshape(mdims + [n_out, n_in])
    if mat.dtype.kind == "f":
        # a real matrix acts on the real and imaginary parts alike: one
        # real product over the interleaved float view
        return (mat @ view.view(np.float64)).view(complex).reshape(out_shape)
    return (mat @ view).reshape(out_shape)


class _NumericEngine:
    """Applies gates to the subspace columns of a multi-mode truncated space.

    The state has shape (cols, D, ..., D): the column axis comes first and
    mode m sits on axis axis_of[m], so the last mode's axis is contiguous.
    Every per-axis product is one np.matmul on a reshaped view of the state
    (_apply_axis), so no axis is ever moved into place by a copy.

    A gate e^{isG} with G diagonal in position acts on its k modes as
    proj·diag(e^{isφ})·projᴴ per mode, with φ the generator on the padded
    position grid of G = D + INTERNAL_PAD points. The product is multiplied
    out in one of two orders:
      - matrix order: the first k−1 axes go to the grid, a stack of G^(k−1)
        D×D matrices proj·diag(e^{isφ})·projᴴ, one per grid point of those
        axes, acts on the last gate axis, and the k−1 axes come back;
      - grid order: all k axes go to the grid, the state is multiplied by
        the diagonal, and the k axes come back.
    Each gate takes the order with fewer multiplications, counted from the
    array shapes (_matrix_order). A single-mode gate always takes matrix
    order; its D×D matrix is cached on the engine, by (kind, mode,
    strength) for an x1/x2/x3 gate and by (generator terms, momentum modes,
    strength) for any other. A momentum mode's Fourier rotations are folded
    into its grid projections.
    """

    def __init__(self, modes: list[int], cutoff: int):
        self.axis_of = {m: i + 1 for i, m in enumerate(modes)}
        self.D = cutoff
        self.lam, v = _position_basis(cutoff + INTERNAL_PAD)
        proj = v[:cutoff, :]  # Fock (D) <- grid
        n = np.arange(cutoff)
        self.fourier_diag = np.exp(1j * np.pi / 2 * (n + 0.5))
        # Fock -> grid and grid -> Fock, keyed by "is a momentum mode":
        # e^{isG(P)} = F e^{isG(X)} F† with F diagonal in the Fock basis
        f = self.fourier_diag
        self.to_grid = {False: proj.conj().T, True: proj.conj().T * f.conj()}
        self.from_grid = {False: proj, True: f[:, None] * proj}
        self.single_mode: dict = {}

    def _grid_phase(self, xgen: NOPoly, gmodes: list[int]):
        """xgen on the joint position grid of gmodes, shape (G,)*len(gmodes)."""
        phase = np.zeros([len(self.lam)] * len(gmodes))
        for key, coeff in xgen.terms.items():
            exps = {m: a for m, a, _ in key}
            term = np.array(coeff.real)
            for i, m in enumerate(gmodes):
                lam_pow = self.lam ** exps.get(m, 0)
                shape = [1] * len(gmodes)
                shape[i] = len(self.lam)
                term = term * lam_pow.reshape(shape)
            phase = phase + term
        return phase

    def _matrix_order(self, shape, k: int) -> bool:
        """True when matrix order costs fewer multiplications than grid
        order for a k-mode gate, on a state of the given shape whose first
        k−1 gate axes are already on the grid (the steps both orders share
        are left out). Building the stack costs G multiplications per
        entry, so matrix order never builds a stack of more than about
        twice the state's size."""
        G, D, size = len(self.lam), self.D, math.prod(shape)
        grid = 2 * size * G + size * G // D  # to the grid, diagonal, back
        matrix = G ** (k - 1) * D * G * (D + 1) + size * D  # build, apply
        return matrix < grid

    def _single_mode_matrix(self, strength, xgen: NOPoly, mode: int,
                            momentum: bool):
        """The D×D matrix of e^{i*strength*xgen} on one mode, rotated to
        momentum when momentum is set."""
        diag = np.exp(1j * strength * self._grid_phase(xgen, [mode]))
        return (self.from_grid[momentum] * diag) @ self.to_grid[momentum]

    def _apply_position_exp(self, state, strength, xgen: NOPoly, pmodes):
        """state <- e^{i*strength*xgen} state for a position-diagonal xgen,
        with the modes in pmodes rotated to momentum."""
        gmodes = sorted(xgen.modes(), key=self.axis_of.get)
        if not gmodes:
            return state * np.exp(1j * strength * self._grid_phase(xgen, []))
        axes = [self.axis_of[m] for m in gmodes]
        fwd = [self.to_grid[m in pmodes] for m in gmodes]
        back = [self.from_grid[m in pmodes] for m in gmodes]
        if len(gmodes) == 1:
            key = (frozenset(xgen.terms.items()), frozenset(pmodes), strength)
            mat = self.single_mode.get(key)
            if mat is None:
                mat = self.single_mode[key] = self._single_mode_matrix(
                    strength, xgen, gmodes[0], gmodes[0] in pmodes)
            return _apply_axis(state, mat, axes[0])
        for ax, f in zip(axes[:-1], fwd[:-1]):
            state = _apply_axis(state, f, ax)
        diag = np.exp(1j * strength * self._grid_phase(xgen, gmodes))
        if self._matrix_order(state.shape, len(gmodes)):
            stack = (back[-1] * diag[..., None, :]) @ fwd[-1]
            state = _apply_axis(state, stack, axes[-1], axes[:-1])
        else:
            state = _apply_axis(state, fwd[-1], axes[-1])
            bshape = [1] * state.ndim
            for ax in axes:
                bshape[ax] = len(self.lam)
            state *= diag.reshape(bshape)
            state = _apply_axis(state, back[-1], axes[-1])
        for ax, b in zip(axes[:-1], back[:-1]):
            state = _apply_axis(state, b, ax)
        return state

    def _apply_dense_exp(self, state, strength, generator: NOPoly):
        """Fallback for generators mixing X and P on one mode: dense
        exponential at the bare cutoff (no padding)."""
        gmodes = sorted(generator.modes(), key=lambda m: self.axis_of[m])
        D = self.D
        dim = D ** len(gmodes)
        if dim > 5000:
            raise DimensionTooLarge(
                f"mixed-basis generator on {len(gmodes)} modes at cutoff {D}")
        x, p, _ = fock_matrices(D)
        h = np.zeros((dim, dim), dtype=complex)
        for key, coeff in generator.terms.items():
            exps = {m: (a, b) for m, a, b in key}
            term = np.ones((1, 1), dtype=complex)
            for m in gmodes:
                a, b = exps.get(m, (0, 0))
                term = np.kron(term, np.linalg.matrix_power(x, a)
                               @ np.linalg.matrix_power(p, b))
            h = h + coeff * term
        h = strength * (h + h.conj().T) / 2.0
        evals, evecs = np.linalg.eigh(h)
        u = (evecs * np.exp(1j * evals)) @ evecs.conj().T
        axes = [self.axis_of[m] for m in gmodes]
        if len(axes) == 1:
            return _apply_axis(state, u, axes[0])
        # u on r axes at once: contract its input indices with those axes
        r, idx = len(axes), list(range(state.ndim))
        new = [state.ndim + i for i in range(r)]
        out = list(idx)
        for ax, i in zip(axes, new):
            out[ax] = i
        return np.einsum(u.reshape([D] * (2 * r)), new + axes, state, idx, out,
                         order="C")

    def apply_exp(self, state, strength, generator: NOPoly):
        split = _mode_split(generator)
        if split is None:
            return self._apply_dense_exp(state, strength, generator)
        pmodes, xgen = split
        return self._apply_position_exp(state, strength, xgen, set(pmodes))

    def apply_gate(self, state, g: Gate):
        """The state after g; a Fourier gate overwrites state in place."""
        if g.kind == FOURIER:
            diag = (self.fourier_diag if g.power == 1
                    else self.fourier_diag.conj())
            shape = [1] * state.ndim
            shape[self.axis_of[g.mode]] = self.D
            state *= diag.reshape(shape)
            return state
        if g.kind in X_POWER:
            key = (g.kind, g.mode, g.strength)
            mat = self.single_mode.get(key)
            if mat is None:
                mat = self.single_mode[key] = self._single_mode_matrix(
                    g.strength, g.generator, g.mode, False)
            return _apply_axis(state, mat, self.axis_of[g.mode])
        return self.apply_exp(state, g.strength, g.generator)


def verify_numeric(seq: GateSeq, generator: NOPoly, strength: float,
                   ctx: FockContext) -> tuple[float, float]:
    """Truncated-Fock comparison of seq against e^{i*strength*generator}.

    Applies each gate's exponential to the basis columns of the
    lowest-d-levels subspace (gates are evaluated on an internally padded
    quadrature grid and projected back, so per-gate truncation artifacts
    stay far below the genuine circuit leakage), then compares the subspace
    block of the result against the block of the target exponential.
    The columns are held as one array of shape (cols, D, ..., D), column
    axis first; each gate is multiplied out in matrix or grid order,
    whichever takes fewer multiplications (see _NumericEngine).
    Returns (subspace_error, phase_offset). phase_offset is the angle of
    tr(B†A), with A the circuit's block and B the target's; the error is
    the largest singular value of A - e^{i*phase_offset} B. That phase
    maximises the overlap Re tr(e^{-iφ}B†A), which minimises the Frobenius
    norm of the difference, not in general its spectral norm.
    """
    modes = _verified_modes(seq, generator)
    nmodes = len(modes)
    D, d = ctx.cutoff, ctx.subspace
    if D ** nmodes > MAX_FULL_DIM:
        raise DimensionTooLarge(
            f"{nmodes} modes at cutoff {D} exceed the bound {MAX_FULL_DIM}")
    eng = _NumericEngine(modes, D)

    cols = d ** nmodes
    state = np.zeros([cols] + [D] * nmodes, dtype=complex)
    for c, tup in enumerate(itertools.product(range(d), repeat=nmodes)):
        state[(c,) + tup] = 1.0
    ref = state.copy()

    for g in reversed(seq.gates):  # rightmost gate acts first
        state = eng.apply_gate(state, g)
    ref = eng.apply_exp(ref, strength, generator)

    # row c of the block is column c of the operator
    sub = (slice(None),) + tuple(slice(0, d) for _ in range(nmodes))
    a_blk = state[sub].reshape(cols, cols).T
    b_blk = ref[sub].reshape(cols, cols).T
    phase = np.angle(np.trace(b_blk.conj().T @ a_blk))
    err = np.linalg.norm(a_blk - np.exp(1j * phase) * b_blk, 2)
    return float(err), float(phase)
