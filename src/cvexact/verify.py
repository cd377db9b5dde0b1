"""Two independent checks that a gate sequence implements its target.

The symbolic check compares Heisenberg images of every quadrature operator,
computed exactly by composing each gate's images g† X_m g and g† P_m g,
one mode at a time; it is blind to global phase. The numeric check
multiplies truncated-Fock gate matrices and compares on a low-lying
subspace, which also pins down the phase. Both take the target as one more
gate and send it down the circuit's own gate code, and both apply every
gate as written: no strength counts as zero.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass

import numpy as np

from .algebra import NOPoly, substitute
from .circuit import (FOURIER, X_POWER, Gate, GateSeq, _map_records,
                      heisenberg_conjugate)
from .circuit_tools import _integer


class DimensionTooLarge(Exception):
    """Requested truncated Hilbert space exceeds the safe size bound."""


# full many-mode dimension cap for numeric verification
MAX_FULL_DIM = 200_000
# cap on cols·Dⁿ, the entries of the numeric state (64 MB of complex), and
# on those of one grid matrix; a three-mode gate in grid order briefly holds
# ((D + INTERNAL_PAD)/D)³ times as many on its grid
MAX_STATE_ENTRIES = 4_000_000
# a state is split over its column axis only into slabs of more than this
# many entries. Handing a slab to an idle worker thread and waiting for it
# costs about 45 µs, and the cheapest product the engine issues, a real
# 24×24 matrix on the interleaved view, about 4.7 ns an entry (2-core Xeon,
# one BLAS thread): 2^17 entries is the power of two at or above ten
# handoffs' worth, so a handoff costs at most a tenth of its slab's time
SPLIT_MIN_ENTRIES = 1 << 17


@dataclass(frozen=True)
class FockContext:
    """Truncation parameters for numeric verification.

    cutoff: levels kept per mode when simulating the gates; at least 3.
    subspace: levels per mode on which the comparison is made; at least 1
        and at most cutoff // 3. Both are ints; a bool or a float, even
        24.0, is refused.
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
        if not (_integer(self.cutoff) and _integer(self.subspace)):
            raise ValueError("cutoff and subspace must be integers")
        if self.cutoff < 3:
            raise ValueError(f"cutoff {self.cutoff} is below 3, where no "
                             "subspace d >= 1 satisfies d <= D/3")
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
    gate, so the images of all generators are composed gate by gate,
    rightmost (first applied) gate first. Each gate replaces the images of
    each of its modes m with g† X_m g and g† P_m g from
    heisenberg_conjugate, evaluated on the images so far (substitute).
    The two images of each of g's modes are built once per call for each
    distinct Gate object (_map_records) and shared at every position of
    the object; a circuit from compile or deserialize holds one object per
    record. The modes a gate of seq touches are tracked, and those of
    modes; a mode no gate touches keeps the images X_m and P_m.
    verify_symbolic calls it twice: on the circuit, and on the target as
    a one-gate circuit.
    """
    generators = {m: (NOPoly.x(m), NOPoly.p(m))
                  for m in [*_touched(seq), *modes]}

    def own(g):  # [(m, (g† X_m g, g† P_m g)) for each mode m of g]
        return [(m, tuple(heisenberg_conjugate(g, b) for b in generators[m]))
                for m in g.modes]

    images = dict(generators)
    for pairs in _map_records(own, reversed(seq.gates)):
        images.update({m: tuple(substitute(b, images) for b in own_m)
                       for m, own_m in pairs})
    return {m: images[m] for m in modes}


def _touched(seq: GateSeq) -> set[int]:
    return {m for g in seq.gates for m in g.modes}


def _verified_modes(seq: GateSeq, generator: NOPoly) -> list[int]:
    """The modes both verifiers check: those a gate or the target touches,
    in the circuit's order (target modes, then ancillas), then any mode of
    the target that the circuit does not declare. A declared mode nothing
    touches is left out: every check on it would pass."""
    touched = _touched(seq) | generator.modes()
    n, ancillas = seq.n_target_modes, seq.ancilla_modes
    declared = sorted(m for m in touched if 0 <= m < n)
    declared += [a for a in ancillas if a in touched]
    return declared + sorted(touched - set(declared))


def verify_symbolic(seq: GateSeq, generator: NOPoly, strength: float) -> float:
    """Worst-case Heisenberg residual of seq against e^{i*strength*generator}.

    Compares the image of X_m and P_m for every mode a gate or the target
    touches (_verified_modes) under seq with its image under the target's
    one-gate circuit, each computed in one heisenberg_action; ancilla
    modes must return to themselves (the target acts as identity there).
    Declared modes that nothing touches are skipped, so the cost does not
    grow with the declared mode count. Returns the largest absolute
    coefficient deviation; exact circuits give ~1e-12 (floating-point noise
    only). The residual is not finite whenever a compared coefficient is
    not: NaN if one has a NaN part and no infinite part (e.g. from
    inf − inf), else inf (a circuit gate of infinite strength reads inf).
    """
    modes = _verified_modes(seq, generator)
    target = Gate.exp_poly(generator, strength)
    want = heisenberg_action(
        GateSeq((target,), 1 + max(target.modes, default=-1)), modes)
    devs = [abs(c) for m, got in heisenberg_action(seq, modes).items()
            for image, ideal in zip(got, want[m])
            for c in (image - ideal).terms.values()]
    # max drops a NaN that does not come first
    return math.nan if any(map(math.isnan, devs)) else max(devs, default=0.0)


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


class _NumericEngine:
    """Applies gates to the subspace columns of a multi-mode truncated space.

    The columns start as product basis vectors, so run keeps them as one
    factor per group of modes that the gates have coupled so far: an array
    of shape (cols_g, D, ..., D) with cols_g = d^k for its k modes. Each
    mode starts in a (d, D) factor of its own; a gate on modes of two or
    more factors first merges them by an outer product, whose columns and
    mode axes follow the engine's canonical mode order (the order of modes
    given to it). Within a factor the column axis comes first and mode m
    sits on axis axis_of[m], in canonical order unless a pair run moved
    it (see below); every per-axis product is one np.matmul on a
    reshaped view of the factor (_apply_axis), so no single gate copies an
    axis into place. A mode no gate couples to another keeps its (d, D)
    factor, and run reads the subspace block as the Kronecker product of
    each factor's block, by the same outer product (_outer). The block
    agrees with one (cols, D, ..., D) array evolved gate by gate up to
    rounding, at the 1e-16 level: the factors leave out products with
    exact zeros, and the joined products and the pair operator sum in
    another order.

    A gate e^{isG} with G diagonal in position acts on its k modes as
    proj·diag(e^{isφ})·projᴴ per mode, with φ the generator on the padded
    position grid of G = D + INTERNAL_PAD points. The product is multiplied
    out in one of two orders:
      - matrix order: the first k−1 axes go to the grid, a stack of G^(k−1)
        D×D matrices proj·diag(e^{isφ})·projᴴ, one per grid point of those
        axes, acts on the last gate axis, and the k−1 axes come back;
      - grid order: all k axes go to the grid, the factor is multiplied by
        the diagonal, and the k axes come back.
    Each gate takes the order with fewer multiplications, counted from the
    array shapes (_order_costs). A single-mode gate always takes matrix
    order; the D×D matrix of an x1/x2/x3 gate is cached on the engine by
    (kind, mode, strength), and no other matrix is cached. A momentum
    factor is applied as F·e^{isG(X)}·F†, the rule the compiler uses at
    intake, with F the diagonal of the Fourier gate.

    run fuses the gates on one mode when the mode's factor holds more
    entries than a D×D matrix (D²). A Fourier gate, or an exponential on
    one mode, is then multiplied into a pending D×D factor P for its mode,
    a diagonal vector while only Fourier gates joined it, and the factor
    is left alone. A pending factor joins the next product on its mode by
    one rule (_joined): the next single-mode factor is multiplied onto it,
    and a gate on the mode and others starts that mode's axis with
    to_grid·P, in either order, so P costs no pass of its own. A
    mixed-basis gate applies the factors of its modes first, and what is
    still pending at the end of run is applied then. On a smaller factor
    the matrix products cost more than the passes they save, so every gate
    is applied as it comes. On one mode, or none, the columns are one
    array, and run is a plain loop over the gates.

    run finds each run of gates that act only on two modes j and k of a
    larger factor, decides it and applies it in one place: gate by gate,
    or composed on a D²-column identity, an operator of D⁴ entries,
    through the same apply_gate, and multiplied into the factor in one
    product on its j and k axes (_apply_run). It takes the operator when
    that holds fewer entries than the factor and the multiplications it
    counts for the run's two-mode gates on the operator, plus the product,
    are fewer than on the factor (_pair_operator). At criterion 4's D_max
    the operator is always the larger, so those checks never take it.
    When other axes lie between j's and k's, _apply_run copies the factor
    once with the later axis moved next to the earlier and leaves it
    there: axis_of keeps each factor's axis order, which _outer reads, so
    a second run on the pair copies nothing. A merge gives its factor the
    canonical order again.

    Each column evolves on its own, so _apply_axis cuts an array of more
    than SPLIT_MIN_ENTRIES entries into slabs along the contiguous column
    axis: one slab per usable CPU, fewer where a slab would hold
    SPLIT_MIN_ENTRIES entries or less (the threshold's measurement is
    given with it). The calling thread multiplies the first slab and
    worker threads the others, each into its own slab of one output array,
    so every column goes through the same arithmetic as unsplit. All else,
    the gate matrices and pending factors, the merges, the diagonal
    multiplies and apply_gate itself, runs in the calling thread. The
    workers are started at the first split and joined by close, which the
    owner of the engine calls when it is done with it. How many threads
    each BLAS call may use is left to the caller: the benchmark pins one,
    and unpinned OpenBLAS spends about 1.7 CPU-seconds per wall second on
    these products, whose inner dimension is D or G, for no gain in wall
    time.
    """

    def __init__(self, modes: list[int], cutoff: int):
        self.modes = list(modes)  # the canonical mode order
        self.rank = {m: i for i, m in enumerate(modes)}
        self.axis_of: dict = {}  # mode -> its axis in its factor; see run
        self.D = cutoff
        self.lam, v = _position_basis(cutoff + INTERNAL_PAD)
        self.from_grid = v[:cutoff, :]  # Fock (D) <- grid
        self.to_grid = self.from_grid.conj().T
        f = np.exp(1j * np.pi / 2 * (np.arange(cutoff) + 0.5))
        self.fourier = {1: f, -1: f.conj()}  # F and F† by power, diagonal
        self.single_mode: dict = {}
        self.pending: dict | None = None  # mode -> factor, while run fuses
        self.cpus = (len(os.sched_getaffinity(0))
                     if hasattr(os, "sched_getaffinity")
                     else os.cpu_count() or 1)
        self._workers = None  # started at the first split; see close

    def _apply_axis(self, state, mat, axis, grid_axes=(), out=None):
        """Multiply state by mat along axis: one np.matmul on a reshaped
        view, written into out, an array of the result's shape, if given.

        mat is one (D', D) matrix, or a stack of shape (G,)*len(grid_axes)
        + (D', D) that holds one matrix for each grid point of grid_axes,
        which all come after the column axis 0 and before axis. Away from
        the last axis the product is batched over the axes in front of
        axis; on the last axis it is a right-multiplication by the
        transposed matrix.

        A state of more than SPLIT_MIN_ENTRIES entries is split over its
        column axis into n = min(CPUs, columns, entries //
        SPLIT_MIN_ENTRIES) slabs when n ≥ 2 (_split), so each slab's
        product takes at least ten thread handoffs. A smaller state is
        multiplied here, in the calling thread, at the cost of one size
        test.
        """
        if state.size > SPLIT_MIN_ENTRIES and out is None:
            n = min(self.cpus, state.shape[0], state.size // SPLIT_MIN_ENTRIES)
            if n > 1:
                return self._split(state, mat, axis, grid_axes, n)
        shape = state.shape
        n_out, n_in = mat.shape[-2:]
        # runs of axes between the grid axes merge into one axis of the view
        bounds = [-1, *grid_axes, axis]
        runs = [math.prod(shape[lo + 1:hi])
                for lo, hi in zip(bounds, bounds[1:])]
        dims, mdims = [runs[0]], [1]
        for g, run in zip(grid_axes, runs[1:]):
            dims += [shape[g], run]
            mdims += [shape[g], 1]
        out_shape = shape[:axis] + (n_out,) + shape[axis + 1:]
        tail = math.prod(shape[axis + 1:])
        if tail == 1:
            mt = mat.reshape(mdims[:-1] + [n_out, n_in]).swapaxes(-1, -2)
            into = None if out is None else out.reshape(dims + [n_out])
            return np.matmul(state.reshape(dims + [n_in]), mt,
                             out=into).reshape(out_shape)
        view = state.reshape(dims + [n_in, tail])
        mat = mat.reshape(mdims + [n_out, n_in])
        if mat.dtype.kind == "f":
            # a real matrix acts on the real and imaginary parts alike: one
            # real product over the interleaved float view
            into = None if out is None else out.view(np.float64).reshape(
                dims + [n_out, 2 * tail])
            return np.matmul(mat, view.view(np.float64),
                             out=into).view(complex).reshape(out_shape)
        into = None if out is None else out.reshape(dims + [n_out, tail])
        return np.matmul(mat, view, out=into).reshape(out_shape)

    def _split(self, state, mat, axis, grid_axes, n):
        """_apply_axis on n slabs of the column axis, into one output: the
        calling thread multiplies the first slab and the workers the
        others. Every slab is waited for, and a worker's exception is
        raised here."""
        out = np.empty(state.shape[:axis] + mat.shape[-2:-1]
                       + state.shape[axis + 1:], complex)
        cuts = [state.shape[0] * i // n for i in range(n + 1)]
        slabs = [(state[lo:hi], mat, axis, grid_axes, out[lo:hi])
                 for lo, hi in zip(cuts, cuts[1:])]
        if self._workers is None:
            # imported here: it adds about 13 ms to importing cvexact, and
            # only a split state needs it
            from concurrent.futures import ThreadPoolExecutor
            self._workers = ThreadPoolExecutor(self.cpus - 1)
        futures = [self._workers.submit(self._apply_axis, *slab)
                   for slab in slabs[1:]]
        self._apply_axis(*slabs[0])
        errors = [f.exception() for f in futures]  # waits for every slab
        for e in errors:
            if e is not None:
                raise e
        return out

    def close(self):
        """Join the worker threads, if any were started; each finishes the
        slab it holds first."""
        if self._workers is not None:
            self._workers.shutdown()
            self._workers = None

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

    def _order_costs(self, size: int, k: int) -> tuple[int, int]:
        """The multiplications of matrix order and of grid order for a
        k-mode gate, on a state of size entries whose first k−1 gate axes
        are already on the grid (the steps both orders share are left
        out). Building the stack costs G multiplications per entry, so
        matrix order never builds a stack of more than about twice the
        state's size."""
        G, D = len(self.lam), self.D
        grid = 2 * size * G + size * G // D  # to the grid, diagonal, back
        matrix = G ** (k - 1) * D * G * (D + 1) + size * D  # build, apply
        return matrix, grid

    def _pair_operator(self, size: int, n: int) -> bool:
        """True when a run of gates on two modes of a factor of size
        entries, n of them on both modes, is to be composed on a D²-column
        operator and multiplied into the factor (_apply_run). The operator
        holds D⁴ entries and must hold fewer than the factor; then the
        multiplications counted for the n gates on it, plus size·D² for
        the product, must be fewer than for the n gates on the factor. A
        two-mode gate on s Fock entries is counted as its first axis to
        the grid and back, 2·s·G, plus its cheaper order on the s·G/D
        entries there; the gates on one mode join a pending factor on
        either path and are not counted."""
        G, D = len(self.lam), self.D
        op = D ** 4

        def gates(s):
            return n * (2 * s * G + min(self._order_costs(s * G // D, 2)))
        return op < size and gates(op) + size * D * D < gates(size)

    def _single_mode_matrix(self, strength, xgen: NOPoly, mode: int):
        """The D×D matrix of e^{i*strength*xgen} on one mode."""
        diag = np.exp(1j * strength * self._grid_phase(xgen, [mode]))
        return (self.from_grid * diag) @ self.to_grid

    def _on_mode(self, state, factor, mode: int):
        """factor, a diagonal vector or a D×D matrix, on mode: multiplied
        into the mode's pending factor while fusing on a state of more
        than D² entries, else applied now."""
        if self.pending is None or state.size <= self.D ** 2:
            return self._apply_factor(state, factor, mode)
        self.pending[mode] = self._joined(factor, mode)
        return state

    def _joined(self, factor, mode: int):
        """factor times mode's pending factor, which is dropped: the one
        rule by which a pending factor joins the next product on its mode.
        Either may be a diagonal vector or a matrix."""
        old = self.pending.pop(mode, None) if self.pending else None
        if old is None:
            return factor
        if factor.ndim == 2 and old.ndim == 2:
            return factor @ old
        if factor.ndim == 1 and old.ndim == 2:
            return factor[:, None] * old
        return factor * old  # entrywise, or old scales factor's columns

    def _apply_factor(self, state, factor, mode: int):
        """state <- factor on mode; a diagonal is multiplied in place."""
        if factor.ndim == 2:
            return self._apply_axis(state, factor, self.axis_of[mode])
        shape = [1] * state.ndim
        shape[self.axis_of[mode]] = self.D
        state *= factor.reshape(shape)
        return state

    def _flush(self, state, modes):
        """state with the pending factors of modes applied and dropped."""
        if self.pending:
            for m in modes:
                factor = self.pending.pop(m, None)
                if factor is not None:
                    state = self._apply_factor(state, factor, m)
        return state

    def _apply_position_exp(self, state, strength, xgen: NOPoly):
        """state <- e^{i*strength*xgen} state for a position-diagonal xgen."""
        gmodes = sorted(xgen.modes(), key=self.axis_of.get)
        if not gmodes:
            return state * np.exp(1j * strength * self._grid_phase(xgen, []))
        if len(gmodes) == 1:
            mat = self._single_mode_matrix(strength, xgen, gmodes[0])
            return self._on_mode(state, mat, gmodes[0])
        axes = [self.axis_of[m] for m in gmodes]
        # each mode's pending factor joins its first product, to_grid·P
        to_grid = [self._joined(self.to_grid, m) for m in gmodes]
        for ax, mat in zip(axes, to_grid[:-1]):
            state = self._apply_axis(state, mat, ax)
        diag = np.exp(1j * strength * self._grid_phase(xgen, gmodes))
        matrix, grid = self._order_costs(state.size, len(gmodes))
        if matrix < grid:
            stack = (self.from_grid * diag[..., None, :]) @ to_grid[-1]
            state = self._apply_axis(state, stack, axes[-1], axes[:-1])
        else:
            state = self._apply_axis(state, to_grid[-1], axes[-1])
            bshape = [1] * state.ndim
            for ax in axes:
                bshape[ax] = len(self.lam)
            state *= diag.reshape(bshape)
            state = self._apply_axis(state, self.from_grid, axes[-1])
        for ax in axes[:-1]:
            state = self._apply_axis(state, self.from_grid, ax)
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
            return self._apply_axis(state, u, axes[0])
        # u on r axes at once: contract its input indices with those axes
        r, idx = len(axes), list(range(state.ndim))
        new = [state.ndim + i for i in range(r)]
        out = list(idx)
        for ax, i in zip(axes, new):
            out[ax] = i
        return np.einsum(u.reshape([D] * (2 * r)), new + axes, state, idx, out,
                         order="C")

    def apply_gate(self, state, g: Gate):
        """The state after g, but for the factors still pending while run
        fuses: a gate on one mode may only join its mode's pending factor.
        Any gate may overwrite state in place."""
        if g.kind == FOURIER:
            return self._on_mode(state, self.fourier[g.power], g.mode)
        if g.kind in X_POWER:
            key = (g.kind, g.mode, g.strength)
            mat = self.single_mode.get(key)
            if mat is None:
                mat = self.single_mode[key] = self._single_mode_matrix(
                    g.strength, g.generator, g.mode)
            return self._on_mode(state, mat, g.mode)
        split = _mode_split(g.generator)
        if split is None:
            state = self._flush(state, g.modes)
            return self._apply_dense_exp(state, g.strength, g.generator)
        pmodes, xgen = split
        for m in pmodes:
            state = self._on_mode(state, self.fourier[-1], m)
        state = self._apply_position_exp(state, g.strength, xgen)
        for m in pmodes:
            state = self._on_mode(state, self.fourier[1], m)
        return state

    def run(self, d: int, gates):
        """The block on the d lowest levels of every mode of the operator
        that gates make, first gate first, as a (d^n, d^n) matrix in the
        canonical mode order, with nothing left pending (see the class).
        Each gate goes through apply_gate on the factor of its modes,
        merged first if they lie in several, and a run on two modes of a
        larger factor through _apply_run where _pair_operator says so. On
        one mode, or none, the columns are one array throughout, fused by
        mode when it is larger than a D×D matrix."""
        D, modes = self.D, self.modes
        self.axis_of = dict.fromkeys(modes, 1)
        if len(modes) <= 1:
            state = (np.eye(d, D, dtype=complex) if modes
                     else np.ones(1, dtype=complex))
            apply = self.apply_gate
            for g in gates:
                state = apply(state, g)
            factors = [[tuple(modes), state]]
        else:
            self.pending = {}
            # mode -> the factor [modes, array] that holds it; column c of
            # a mode's own factor is level c
            factor_of = {m: [(m,), np.eye(d, D, dtype=complex)]
                         for m in modes}
            gates = list(gates)
            i = 0
            while i < len(gates):
                g = gates[i]
                f = self._factor(factor_of, g.modes or modes[:1], d)
                end, pair = i + 1, False
                if len(g.modes) == 2 and len(f[0]) > 2:
                    # the run of gates on g's two modes alone
                    while (end < len(gates)
                           and set(g.modes).issuperset(gates[end].modes)):
                        end += 1
                    n = sum(len(h.modes) == 2 for h in gates[i:end])
                    pair = self._pair_operator(f[1].size, n)
                if pair:
                    self._apply_run(f, gates[i:end])
                else:
                    for h in gates[i:end]:
                        f[1] = self.apply_gate(f[1], h)
                i = end
            factors = list({id(f): f for f in factor_of.values()}.values())
            for f in factors:
                f[1] = self._flush(f[1], f[0])
        self.pending = None
        blocks = [(fm, x[(slice(None),) + (slice(0, d),) * len(fm)])
                  for fm, x in factors]
        block = self._outer(blocks, d)[1]
        # row c is column c of the operator
        return block.reshape(d ** len(modes), -1).T

    def _outer(self, factors, d: int):
        """(modes, array): the outer product of factors, pairs (modes,
        array) whose array holds d^k columns on its first axis and one axis
        per mode after it, with the product's columns and mode axes in the
        canonical mode order."""
        modes = sorted((m for fm, _ in factors for m in fm),
                       key=self.rank.get)
        n, place = len(modes), {m: i for i, m in enumerate(modes)}
        operands = []
        for fm, x in factors:
            # the column axis split into one axis of d per mode, then the
            # mode axes in the order axis_of gives them
            axes = sorted(fm, key=self.axis_of.get)
            operands += [x.reshape((d,) * len(fm) + x.shape[1:]),
                         [place[m] for m in fm] + [n + place[m] for m in axes]]
        x = np.einsum(*operands, list(range(2 * n)), order="C")
        return tuple(modes), x.reshape((d ** n,) + x.shape[n:])

    def _factor(self, factor_of, modes, d: int):
        """The factor [modes, array] that holds modes, merged by an outer
        product first when they lie in several."""
        parts = list({id(f): f for f in map(factor_of.get, modes)}.values())
        if len(parts) == 1:
            return parts[0]
        merged = list(self._outer(parts, d))
        for i, m in enumerate(merged[0]):
            factor_of[m] = merged
            self.axis_of[m] = i + 1
        return merged

    def _apply_run(self, f, gates):
        """f, a factor [modes, array], after gates, which act on the two
        modes of the first gate alone: the gates are composed on a
        D²-column identity through apply_gate, and the operator is
        multiplied into the array in one product on the two modes' axes,
        which goes through the column split. When other axes lie between
        the two, the array is first copied with the later one moved next
        to the earlier, and it keeps that order (axis_of), so the next run
        on the pair copies nothing. What is pending on the two modes joins
        the operator at its first gate on both, as it would join the
        array, and what the run leaves pending stays pending."""
        D, (fmodes, state) = self.D, f
        j, k = sorted(gates[0].modes, key=self.axis_of.get)
        a, b = self.axis_of[j], self.axis_of[k]
        if b > a + 1:
            # k's axis moved next to j's; the axes between shift up by one
            state = np.ascontiguousarray(np.moveaxis(state, b, a + 1))
            for m in fmodes:
                if a < self.axis_of[m] < b:
                    self.axis_of[m] += 1
        self.axis_of[j], self.axis_of[k] = 1, 2
        op = np.eye(D * D, dtype=complex).reshape(D * D, D, D)
        for g in gates:
            op = self.apply_gate(op, g)
        self.axis_of[j], self.axis_of[k] = a, a + 1
        # column (p, q) of op is the run applied to level p of j, q of k
        mat = op.reshape(D * D, D * D).T
        shape = state.shape
        f[1] = self._apply_axis(
            state.reshape(shape[:a] + (D * D,) + shape[a + 2:]), mat,
            a).reshape(shape)


def verify_numeric(seq: GateSeq, generator: NOPoly, strength: float,
                   ctx: FockContext) -> tuple[float, float]:
    """Truncated-Fock comparison of seq against e^{i*strength*generator}.

    Every mode a gate or the target touches (_verified_modes) is kept at
    ctx.cutoff Fock levels, D, and the comparison is made on the block of
    its ctx.subspace lowest levels, d. The circuit's gates, rightmost
    first, and then the target as one more gate go through one engine
    (_NumericEngine, which gives the full account): each gate is
    evaluated on an internally padded quadrature grid and projected back,
    so per-gate truncation artifacts stay far below the genuine circuit
    leakage. The results agree with one state evolved gate by gate up to
    rounding, at the 1e-16 level, and do not depend on the CPU count.

    Bounds, which hold for the whole state as if every mode were coupled:
    a check of Dⁿ > MAX_FULL_DIM, or of more than MAX_STATE_ENTRIES
    entries cols·Dⁿ, with cols = dⁿ, or (D + INTERNAL_PAD)² in one grid
    matrix (only n ≤ 1 lets D reach that), is refused with
    DimensionTooLarge before anything is allocated.

    Returns (subspace_error, phase_offset). phase_offset is the angle of
    tr(B†A), with A the circuit's block and B the target's; the error is
    the largest singular value of A - e^{i*phase_offset} B. That phase
    maximises the overlap Re tr(e^{-iφ}B†A), which minimises the Frobenius
    norm of the difference, not in general its spectral norm.

    Threads: each product on an array of more than SPLIT_MIN_ENTRIES
    entries is split over the column axis, one slab per usable CPU, and
    worker threads of this call multiply all slabs but the caller's. They
    are joined before the call returns or raises, however it ends, so no
    thread outlives it. BLAS threading stays the caller's choice.
    """
    modes = _verified_modes(seq, generator)
    nmodes = len(modes)
    D, d = ctx.cutoff, ctx.subspace
    if D ** nmodes > MAX_FULL_DIM:
        raise DimensionTooLarge(
            f"{nmodes} modes at cutoff {D} exceed the bound {MAX_FULL_DIM}")
    # the state's dⁿ·Dⁿ entries, or a G×G grid matrix's, G = D + INTERNAL_PAD
    entries = max((d * D) ** nmodes, (D + INTERNAL_PAD) ** 2)
    if entries > MAX_STATE_ENTRIES:
        raise DimensionTooLarge(
            f"{nmodes} modes at cutoff {D} and subspace {d} need arrays of "
            f"{entries} entries, over the bound {MAX_STATE_ENTRIES}")
    eng = _NumericEngine(modes, D)
    try:
        a_blk = eng.run(d, reversed(seq.gates))  # rightmost first
        b_blk = eng.run(d, [Gate.exp_poly(generator, strength)])
    finally:
        eng.close()  # no worker thread outlives the call, however it ends
    phase = np.angle(np.trace(b_blk.conj().T @ a_blk))
    err = np.linalg.norm(a_blk - np.exp(1j * phase) * b_blk, 2)
    return float(err), float(phase)
