"""The two verifiers: exact Heisenberg comparison and truncated-Fock check."""

import numpy as np
import pytest

from cvexact.algebra import Basis, NOPoly
from cvexact.circuit import Gate, GateSeq
from cvexact.decompose import TargetGate, compile
from cvexact.verify import (DimensionTooLarge, FockContext, fock_matrices,
                            heisenberg_action, verify_numeric, verify_symbolic)


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


def test_dimension_guard():
    seq = GateSeq(tuple(Gate.x(m, 1, 0.1) for m in range(5)), 5)
    gen = NOPoly.monomial([(m, 1, 0) for m in range(5)], 1.0)
    with pytest.raises(DimensionTooLarge):
        verify_numeric(seq, gen, 0.1, FockContext(cutoff=24, subspace=2))


def test_heisenberg_action_identity_sequence():
    seq = GateSeq((Gate.x(0, 2, 0.5), Gate.x(0, 2, -0.5)), 1)
    b = NOPoly.p(0)
    assert (heisenberg_action(seq, b) - b).is_zero()


def test_symbolic_accepts_correct_and_rejects_wrong():
    tg = TargetGate.position({0: 4}, 0.3)
    seq, _ = compile(tg)
    assert verify_symbolic(seq, tg.generator(), tg.strength) < 1e-9
    # same circuit against a slightly different strength must fail loudly
    assert verify_symbolic(seq, tg.generator(), tg.strength * 1.01) > 1e-4


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
