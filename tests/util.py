"""Independent oracles used only by the tests.

The dense-matrix helpers are built directly from ladder matrices and
eigendecompositions, on purpose not reusing the package's own numeric
verifier, so that symbolic results can be cross-checked against
straightforward linear algebra. The symbolic references (the Fourier rule
by products and the per-operator Heisenberg fold) use only poly_mul and
adjoint_series, not the package's substitution maps.
"""

from dataclasses import replace

import numpy as np

from cvexact.algebra import NOPoly, adjoint_series, poly_mul
from cvexact.circuit import FOURIER


def ladder(cutoff):
    a = np.zeros((cutoff, cutoff), dtype=complex)
    for m in range(cutoff - 1):
        a[m, m + 1] = np.sqrt(m + 1.0)
    return a


def xp_matrices(cutoff):
    a = ladder(cutoff)
    x = (a.conj().T + a) / 2.0
    p = 1j * (a.conj().T - a) / 2.0
    return x, p


def poly_matrix(poly, n_modes, cutoff):
    """Dense matrix of a normal-ordered polynomial on n_modes oscillators."""
    x, p = xp_matrices(cutoff)
    dim = cutoff ** n_modes
    out = np.zeros((dim, dim), dtype=complex)
    for key, coeff in poly.terms.items():
        exps = {m: (a, b) for m, a, b in key}
        term = np.ones((1, 1), dtype=complex)
        for m in range(n_modes):
            a, b = exps.get(m, (0, 0))
            factor = (np.linalg.matrix_power(x, a)
                      @ np.linalg.matrix_power(p, b))
            term = np.kron(term, factor)
        out = out + coeff * term
    return out


def expm_hermitian_times_i(h):
    """e^{iH} for Hermitian h, via eigendecomposition."""
    evals, evecs = np.linalg.eigh(h)
    return (evecs * np.exp(1j * evals)) @ evecs.conj().T


def gate_matrix(g, n_modes, cutoff):
    """Dense unitary of one gate on the full n_modes space."""
    if g.kind == FOURIER:
        n = np.arange(cutoff)
        diag = np.exp(1j * g.power * np.pi / 2 * (n + 0.5))
        full = np.ones(1, dtype=complex)
        for m in range(n_modes):
            full = np.kron(full, diag if m == g.mode else np.ones(cutoff))
        return np.diag(full)
    h = poly_matrix(g.generator, n_modes, cutoff)
    h = g.strength * (h + h.conj().T) / 2.0
    return expm_hermitian_times_i(h)


def seq_matrix(seq, cutoff, n_modes=None):
    """Dense unitary of a gate sequence (gates[0] applied last)."""
    if n_modes is None:
        n_modes = max(seq.all_modes()) + 1 if seq.all_modes() else 1
    dim = cutoff ** n_modes
    u = np.eye(dim, dtype=complex)
    for g in seq.gates:
        u = u @ gate_matrix(g, n_modes, cutoff)
    return u


def fourier_by_products(b, mode, forward):
    """X -> -P, P -> X (forward) or X -> P, P -> -X (inverse) on one mode,
    built factor by factor from poly_mul products."""
    out = NOPoly.zero()
    for key, coeff in b.terms.items():
        term = NOPoly.constant(coeff)
        for m, a, p in key:
            if m == mode:
                sign = (-1) ** (a if forward else p)
                sub = poly_mul(NOPoly.p(m, a), NOPoly.x(m, p)).scale(sign)
            else:
                sub = NOPoly.monomial([(m, a, p)])
            term = poly_mul(term, sub)
        out = out + term
    return out


def heisenberg_fold(seq, b):
    """U† b U by the per-operator fold: the whole image of b is conjugated
    by one gate after another, leftmost (last applied) gate first, through
    the adjoint series of g† · g or the Fourier product rule."""
    for g in seq.gates:
        if g.kind == FOURIER:
            b = fourier_by_products(b, g.mode, forward=g.power == 1)
        else:
            b = adjoint_series(g.generator.scale(-1j * g.strength), b)
    return b


def negate_last_exp(seq):
    """seq with the strength of its last non-Fourier gate negated."""
    i = max(i for i, g in enumerate(seq.gates) if g.kind != FOURIER)
    return replace(seq, gates=(seq.gates[:i] + (seq.gates[i].inverse(),)
                               + seq.gates[i + 1:]))
