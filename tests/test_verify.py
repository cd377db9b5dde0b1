"""The two verifiers: exact Heisenberg comparison and truncated-Fock check."""

import itertools

import numpy as np
import pytest

from cvexact.algebra import Basis, NOPoly, max_coeff_diff
from cvexact.circuit import FOURIER, Gate, GateSeq
from cvexact.cli import parse_spec
from cvexact.decompose import TargetGate, compile
from cvexact.verify import (INTERNAL_PAD, DimensionTooLarge, FockContext,
                            _NumericEngine, _position_basis, _verified_modes,
                            fock_matrices, heisenberg_action, verify_numeric,
                            verify_symbolic)

from test_decompose import ROUTE_PINS
from util import gate_matrix, heisenberg_fold, seq_matrix


def test_fock_matrices_commutator():
    x, p, a = fock_matrices(30)
    c = x @ p - p @ x
    blk = np.ix_(range(20), range(20))
    assert np.max(np.abs(c[blk] - 0.5j * np.eye(30)[blk])) < 1e-12
    assert np.max(np.abs((a @ a.conj().T - a.conj().T @ a)[blk]
                         - np.eye(30)[blk])) < 1e-12


def test_fock_context_validates_subspace():
    FockContext(cutoff=24, subspace=8)
    with pytest.raises(ValueError):
        FockContext(cutoff=24, subspace=9)


@pytest.mark.parametrize("subspace,tolerance", [
    (0, 1e-5), (-1, 1e-5), (5, float("nan")), (5, float("inf")), (5, 0.0),
    (5, -1e-5)])
def test_fock_context_rejects_vacuous_checks(subspace, tolerance):
    with pytest.raises(ValueError):
        FockContext(cutoff=24, subspace=subspace, tolerance=tolerance)


def test_dimension_guard():
    seq = GateSeq(tuple(Gate.x(m, 1, 0.1) for m in range(5)), 5)
    gen = NOPoly.monomial([(m, 1, 0) for m in range(5)], 1.0)
    with pytest.raises(DimensionTooLarge):
        verify_numeric(seq, gen, 0.1, FockContext(cutoff=24, subspace=2))


def test_heisenberg_action_identity_sequence():
    seq = GateSeq((Gate.x(0, 2, 0.5), Gate.x(0, 2, -0.5)), 1)
    (x, p), = heisenberg_action(seq, [0]).values()
    assert (x - NOPoly.x(0)).is_zero()
    assert (p - NOPoly.p(0)).is_zero()


def _mono(*factors):
    return NOPoly.monomial(list(factors))


# every gate kind, both Fourier powers, momentum and mixed exppoly
# generators, and an untouched fourth mode
HAND_BUILT = GateSeq((
    Gate.xx(0, 1, 0.3), Gate.fourier(1), Gate.x(2, 3, 0.15),
    Gate.exp_poly(NOPoly.p(1, 2), 0.2), Gate.fourier(0, -1),
    Gate.exp_poly(_mono((0, 1, 0), (1, 0, 1), (2, 1, 0)), 0.12),
    Gate.x(0, 1, -0.7), Gate.exp_poly(NOPoly.x(2, 4), -0.05),
    Gate.xx(2, 0, -0.35), Gate.x(1, 2, 0.4), Gate.fourier(2),
    Gate.x(2, 3, -0.25)), 4)


@pytest.mark.parametrize("body", [b for b, *_ in ROUTE_PINS] + [None],
                         ids=[b.translate({ord(c): None for c in "[] "})
                              for b, *_ in ROUTE_PINS] + ["hand-built"])
def test_heisenberg_action_matches_per_operator_fold(body):
    # the composed map against each operator folded through every gate on
    # its own, on circuits of up to 1,681 gates
    seq = HAND_BUILT if body is None else compile(parse_spec(f"t=0.3 {body}"))[0]
    modes = seq.all_modes()
    images = heisenberg_action(seq, modes)
    assert list(images) == modes
    for m in modes:
        for b, got in zip((NOPoly.x(m), NOPoly.p(m)), images[m]):
            assert max_coeff_diff(got, heisenberg_fold(seq, b)) < 1e-12


def test_symbolic_accepts_correct_and_rejects_wrong():
    # P₀X₁³'s route runs through nested Fourier conjugations
    for tg in (TargetGate.position({0: 4}, 0.3),
               TargetGate(((0, 1, Basis.MOMENTUM), (1, 3, Basis.POSITION)), 0.3)):
        seq, _ = compile(tg)
        assert verify_symbolic(seq, tg.generator(), tg.strength) < 1e-9
        # same circuit against a slightly different strength must fail loudly
        assert verify_symbolic(seq, tg.generator(), tg.strength * 1.01) > 1e-4


def test_target_modes_the_circuit_lacks_are_verified():
    # an empty circuit on mode 0 is not e^{iX₃²}
    gen, empty = NOPoly.x(3, 2), GateSeq((), 1)
    assert _verified_modes(empty, gen) == [0, 3]
    assert _verified_modes(GateSeq((), 2, (5,)), gen * NOPoly.x(0)) == [0, 1, 5, 3]
    assert verify_symbolic(empty, gen, 1.0) > 0.5
    err, _ = verify_numeric(empty, gen, 1.0, FockContext(cutoff=15, subspace=5))
    assert err > 0.1


def test_symbolic_detects_ancilla_disturbance():
    tg = TargetGate.position({0: 4}, 0.3)
    seq, _ = compile(tg)
    anc = seq.ancilla_modes[0]
    broken = GateSeq(seq.gates + (Gate.x(anc, 1, 0.05),),
                     seq.n_target_modes, seq.ancilla_modes)
    assert verify_symbolic(broken, tg.generator(), tg.strength) > 1e-3


def test_numeric_exact_gate_is_machine_precision():
    # a sequence that IS the target gate differs only by simulation noise
    gen = NOPoly.x(0, 3)
    seq = GateSeq((Gate.x(0, 3, 0.2),), 1)
    err, phase = verify_numeric(seq, gen, 0.2, FockContext(cutoff=24, subspace=5))
    assert err < 1e-12
    assert abs(phase) < 1e-12


def test_numeric_error_converges_with_cutoff():
    s = 0.1
    tg = TargetGate(((0, 1, Basis.MOMENTUM), (1, 2, Basis.POSITION)), s)
    seq, _ = compile(tg, balanced=True)
    gen = NOPoly.monomial([(0, 0, 1), (1, 2, 0)], 1.0)
    errs = []
    for cutoff in (16, 24, 32):
        err, _ = verify_numeric(seq, gen, s, FockContext(cutoff=cutoff, subspace=5))
        errs.append(err)
    assert errs[2] < errs[1] < errs[0]
    assert errs[2] < 5e-3


def test_numeric_detects_wrong_circuit():
    gen = NOPoly.x(0, 2)
    seq = GateSeq((Gate.x(0, 2, 0.25),), 1)
    err, _ = verify_numeric(seq, gen, 0.35, FockContext(cutoff=24, subspace=5))
    assert err > 1e-2


def test_numeric_reports_global_phase():
    # e^{is(H + c)} equals e^{isc} e^{isH}: pure phase offset, tiny error
    s, c = 0.4, 0.7
    gen = NOPoly.x(0, 2)
    shifted = gen + NOPoly.constant(c)
    seq = GateSeq((Gate.exp_poly(shifted, s),), 1)
    err, phase = verify_numeric(seq, gen, s, FockContext(cutoff=24, subspace=5))
    assert err < 1e-10
    assert abs(phase - s * c) < 1e-10


def test_numeric_momentum_generator_matches_fourier_rotation():
    # e^{isP^3} must equal F e^{isX^3} F^{-1}
    s = 0.15
    p3 = NOPoly.p(0, 3)
    seq = GateSeq((Gate.fourier(0), Gate.x(0, 3, s), Gate.fourier(0, -1)), 1)
    err, phase = verify_numeric(seq, p3, s, FockContext(cutoff=30, subspace=5))
    assert err < 1e-10
    assert abs(phase) < 1e-10


def test_numeric_mixed_basis_generator_fallback():
    # generators mixing X and P on one mode take the dense-exponential path
    gen = NOPoly.x(0, 2) + NOPoly.p(0, 2)
    seq = GateSeq((Gate.exp_poly(gen, 0.3),), 1)
    err, _ = verify_numeric(seq, gen, 0.3, FockContext(cutoff=24, subspace=5))
    assert err < 1e-8


# pinned: a change to the numeric engine that moves these verdicts fails here
@pytest.mark.parametrize("tg,err", [
    (TargetGate.position({0: 4}, 0.05), 0.9593015780464558),
    (TargetGate.position({0: 1, 1: 1, 2: 1}, 0.02), 0.3164205571041106),
    (TargetGate(((0, 1, Basis.MOMENTUM), (1, 2, Basis.POSITION)), 0.1),
     0.5847913375934876),
], ids=["X0^4", "X0X1X2", "P0X1^2"])
def test_numeric_error_pinned_at_cutoff_24(tg, err):
    seq, _ = compile(tg)
    got, _ = verify_numeric(seq, tg.generator(), tg.strength,
                            FockContext(cutoff=24, subspace=5))
    assert abs(got - err) < 1e-9


def _dense_gate(g, cutoff, n_modes):
    """Dense matrix of one gate on n_modes modes, built on the same padded
    position grid as the engine but as one Kronecker product per gate."""
    n = np.arange(cutoff)
    f = np.exp(1j * np.pi / 2 * (n + 0.5))  # the Fourier gate, diagonal
    if g.kind == FOURIER:
        diag = np.ones(1)
        for m in range(n_modes):
            diag = np.kron(diag, f ** g.power if m == g.mode
                           else np.ones(cutoff))
        return np.diag(diag)
    lam, v = _position_basis(cutoff + INTERNAL_PAD)
    proj = v[:cutoff, :]
    gmodes = g.generator.modes()
    momentum = {m for key in g.generator.terms for m, _, b in key if b}
    left = np.ones((1, 1))
    for m in range(n_modes):
        factor = np.eye(cutoff) if m not in gmodes else (
            f[:, None] * proj if m in momentum else proj)
        left = np.kron(left, factor)
    sizes = [len(lam) if m in gmodes else cutoff for m in range(n_modes)]
    phase = np.zeros(sizes)
    for key, coeff in g.generator.terms.items():
        term = np.array(coeff.real)
        for m, a, b in key:
            shape = [1] * n_modes
            shape[m] = len(lam)
            term = term * (lam ** (a + b)).reshape(shape)
        phase = phase + term
    return (left * np.exp(1j * g.strength * phase.reshape(-1))) @ left.conj().T


def _block_err_phase(u, v, cutoff, subspace):
    """verify_numeric's (err, phase) for dense 3-mode matrices u (circuit)
    and v (target), on the block where every mode is below subspace."""
    idx = [(a * cutoff + b) * cutoff + c for a, b, c in
           itertools.product(range(subspace), repeat=3)]
    a_blk, b_blk = u[np.ix_(idx, idx)], v[np.ix_(idx, idx)]
    phase = np.angle(np.trace(b_blk.conj().T @ a_blk))
    return np.linalg.norm(a_blk - np.exp(1j * phase) * b_blk, 2), phase


@pytest.mark.parametrize("cutoff,subspace,matrix_order", [(6, 1, False),
                                                          (6, 2, True)])
def test_numeric_matches_dense_kronecker_product(cutoff, subspace,
                                                 matrix_order):
    # the three-mode gates take grid order at d=1 and matrix order at d=2
    grid = cutoff + INTERNAL_PAD
    eng = _NumericEngine([0, 1, 2], cutoff)
    assert eng._matrix_order((subspace ** 3, grid, grid, cutoff),
                             3) == matrix_order
    x0x1x2 = NOPoly.monomial([(0, 1, 0), (1, 1, 0), (2, 1, 0)])
    mono = lambda *f: NOPoly.monomial(list(f))
    # unequal powers and momentum modes make the per-gate matrices and
    # phase grids asymmetric, so a swapped axis or transpose shows
    gates = (Gate.xx(0, 1, 0.3), Gate.fourier(1), Gate.xx(0, 2, -0.2),
             Gate.x(2, 3, 0.15), Gate.xx(1, 2, 0.25), Gate.fourier(0, -1),
             Gate.xx(2, 0, 0.35), Gate.exp_poly(NOPoly.p(1, 2), 0.2),
             Gate.exp_poly(mono((0, 0, 1), (2, 1, 0)), -0.3),
             Gate.exp_poly(mono((0, 1, 0), (1, 1, 0), (2, 2, 0)), 0.1),
             Gate.fourier(2),
             Gate.exp_poly(mono((0, 1, 0), (1, 0, 1), (2, 1, 0)), 0.12),
             Gate.exp_poly(NOPoly.p(2, 3), 0.1),
             Gate.exp_poly(mono((1, 2, 0), (2, 0, 1)), -0.15),
             Gate.x(0, 2, -0.4), Gate.fourier(1, -1))
    seq = GateSeq(gates, 3)
    ctx = FockContext(cutoff=cutoff, subspace=subspace)
    err, phase = verify_numeric(seq, x0x1x2, 0.2, ctx)

    u = np.eye(cutoff ** 3)
    for g in gates:  # gates[0] is the leftmost factor
        u = u @ _dense_gate(g, cutoff, 3)
    want = _dense_gate(Gate.exp_poly(x0x1x2, 0.2), cutoff, 3)
    want_err, want_phase = _block_err_phase(u, want, cutoff, subspace)
    assert err > 1e-3  # the circuit is not the target: a real comparison
    assert abs(err - want_err) < 1e-12
    assert abs(phase - want_phase) < 1e-12


def test_numeric_mixed_basis_on_two_modes_matches_dense():
    # generators mixing X and P on a mode take the dense path on every mode
    # they touch; util builds the same exponentials on the full space
    cutoff, subspace = 6, 2
    gates = (Gate.exp_poly(NOPoly.monomial([(0, 1, 1), (2, 1, 0)]), 0.3),
             Gate.fourier(1),
             Gate.exp_poly(NOPoly.x(1, 2) + NOPoly.p(1, 2), -0.2),
             Gate.exp_poly(NOPoly.monomial([(1, 0, 1), (2, 1, 1)]), 0.25))
    gen = NOPoly.monomial([(0, 1, 0), (2, 1, 1)])
    err, phase = verify_numeric(GateSeq(gates, 3), gen, 0.2,
                                FockContext(cutoff=cutoff, subspace=subspace))
    u = seq_matrix(GateSeq(gates, 3), cutoff, 3)
    want = gate_matrix(Gate.exp_poly(gen, 0.2), 3, cutoff)
    want_err, want_phase = _block_err_phase(u, want, cutoff, subspace)
    assert err > 1e-3
    assert abs(err - want_err) < 1e-12
    assert abs(phase - want_phase) < 1e-12


def test_position_basis_is_cached_and_read_only():
    lam, v = _position_basis(30)
    assert _position_basis(30)[1] is v
    for arr in (lam, v):
        with pytest.raises(ValueError):
            arr[0] = 0.0
