"""The two verifiers: exact Heisenberg comparison and truncated-Fock check."""

import itertools
import math
import signal
import threading

import numpy as np
import pytest

from cvexact import circuit, verify
from cvexact.algebra import Basis, NOPoly, max_coeff_diff
from cvexact.circuit import EXPPOLY, FOURIER, Gate, GateSeq
from cvexact.cli import parse_spec
from cvexact.decompose import TargetGate, compile
from cvexact.verify import (INTERNAL_PAD, MAX_FULL_DIM, MAX_STATE_ENTRIES,
                            DimensionTooLarge, FockContext, _NumericEngine,
                            _position_basis, _verified_modes, fock_matrices,
                            heisenberg_action, verify_numeric, verify_symbolic)

from test_decompose import ROUTE_PINS
from util import (declared_modes, gate_matrix, heisenberg_action_per_gate,
                  heisenberg_fold, seq_matrix, with_strength)


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


@pytest.mark.parametrize("cutoff", [-3, 0, 1, 2])
def test_fock_context_refuses_a_cutoff_below_3_by_name(cutoff):
    # no subspace d >= 1 has d <= D/3 there: the cutoff is what is wrong
    with pytest.raises(ValueError, match=f"cutoff {cutoff} is below 3"):
        FockContext(cutoff=cutoff, subspace=1)


def test_fock_context_at_cutoff_3_keeps_the_subspace_message():
    FockContext(cutoff=3, subspace=1)
    with pytest.raises(ValueError, match=r"subspace must satisfy d <= D/3"):
        FockContext(cutoff=3, subspace=5)


@pytest.mark.parametrize("cutoff,subspace,tolerance", [
    (24, 0, 1e-5), (24, -1, 1e-5), (24, 5, float("nan")),
    (24, 5, float("inf")), (24, 5, 0.0), (24, 5, -1e-5),
    # not an int: numpy would refuse the shapes deep inside verify_numeric
    (24.0, 5, 1e-5), (24, 5.0, 1e-5), (24, True, 1e-5)],
    ids=["0-1e-05", "-1-1e-05", "5-nan", "5-inf", "5-0.0", "5--1e-05",
         "cutoff-float", "subspace-float", "subspace-bool"])
def test_fock_context_rejects_vacuous_checks(cutoff, subspace, tolerance):
    with pytest.raises(ValueError):
        FockContext(cutoff=cutoff, subspace=subspace, tolerance=tolerance)


def test_dimension_guard():
    seq = GateSeq(tuple(Gate.x(m, 1, 0.1) for m in range(5)), 5)
    gen = NOPoly.monomial([(m, 1, 0) for m in range(5)], 1.0)
    with pytest.raises(DimensionTooLarge):
        verify_numeric(seq, gen, 0.1, FockContext(cutoff=24, subspace=2))


def test_state_guard_refuses_before_allocating(monkeypatch):
    # (19³, 58, 58, 58) would be 21 GB; Dⁿ = 195,112 passes MAX_FULL_DIM
    seq = GateSeq((Gate.xx(0, 1, 0.1), Gate.xx(1, 2, 0.1)), 3)
    gen = NOPoly.monomial([(m, 1, 0) for m in range(3)])

    def no_allocation(*args, **kwargs):
        raise AssertionError("np.zeros called")

    monkeypatch.setattr(np, "zeros", no_allocation)
    with pytest.raises(DimensionTooLarge, match="over the bound"):
        verify_numeric(seq, gen, 0.1, FockContext(cutoff=58, subspace=19))
    assert 58 ** 3 <= MAX_FULL_DIM
    assert 19 ** 3 * 58 ** 3 > MAX_STATE_ENTRIES


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


_SHARED_EXP = Gate.exp_poly(_mono((0, 2, 0), (1, 0, 1)), 0.2)

# records that recur: twins that are distinct objects, strengths 0.0 and
# -0.0, F and F† on one mode, xx and x2 on the same modes at two strengths
# of one sign, and an exppoly gate repeated as the same object and as an
# equal copy
RECURRING = GateSeq((
    Gate.x(0, 2, 0.3), Gate.fourier(0), Gate.xx(0, 1, 0.25),
    Gate.x(1, 3, 0.0), _SHARED_EXP, Gate.fourier(0, -1), Gate.x(0, 2, 0.3),
    Gate.fourier(1), Gate.x(1, 3, -0.0), Gate.xx(0, 1, 0.4), _SHARED_EXP,
    Gate.fourier(0), Gate.x(0, 2, 0.5), Gate.fourier(1, -1),
    Gate.exp_poly(_mono((0, 2, 0), (1, 0, 1)), 0.2), Gate.xx(0, 1, 0.25),
    Gate.fourier(0, -1), Gate.x(1, 3, 0.0)), 2)

FIXED_CIRCUITS = {"hand-built": HAND_BUILT, "recurring": RECURRING}


def _term_reprs(images):
    return {m: [repr(list(b.terms.items())) for b in pair]
            for m, pair in images.items()}


@pytest.mark.parametrize("body",
                         [b for b, *_ in ROUTE_PINS] + [*FIXED_CIRCUITS],
                         ids=[b.translate({ord(c): None for c in "[] "})
                              for b, *_ in ROUTE_PINS] + [*FIXED_CIRCUITS])
def test_heisenberg_action_matches_per_operator_fold(body):
    # the composed map against each operator folded through every gate on
    # its own, on circuits of up to 1,681 gates; and, with images shared by
    # record, bit for bit against images built at every position of a gate:
    # every term, its order and the sign of each zero part the same
    if body in FIXED_CIRCUITS:
        seq = FIXED_CIRCUITS[body]
    else:
        seq = compile(parse_spec(f"t=0.3 {body}"))[0]
    modes = declared_modes(seq)
    images = heisenberg_action(seq, modes)
    assert list(images) == modes
    assert (_term_reprs(images)
            == _term_reprs(heisenberg_action_per_gate(seq, modes)))
    for m in modes:
        for b, got in zip((NOPoly.x(m), NOPoly.p(m)), images[m]):
            assert max_coeff_diff(got, heisenberg_fold(seq, b)) < 1e-12


def test_each_distinct_record_is_conjugated_once_per_mode(monkeypatch):
    # X⁸'s 6,169 gates repeat a few hundred records: one call per record,
    # mode and generator, where building at every position takes one per
    # gate, mode and generator
    seq, _ = compile(parse_spec("t=0.3 X[0]^8"))
    assert all(g.kind != EXPPOLY for g in seq.gates)
    calls, conjugate = [], verify.heisenberg_conjugate

    def counted(g, b):
        calls.append((g.kind, g.modes, repr(g.strength), g.power, repr(b)))
        return conjugate(g, b)

    monkeypatch.setattr(verify, "heisenberg_conjugate", counted)
    heisenberg_action(seq, declared_modes(seq))
    distinct = {(g.kind, g.modes, repr(g.strength), g.power, m)
                for g in seq.gates for m in g.modes}
    assert len(calls) == len(set(calls)) == 2 * len(distinct)
    assert 10 * len(calls) < 2 * sum(len(g.modes) for g in seq.gates)


def test_an_exppoly_gate_sums_two_series_per_generator(monkeypatch):
    # each conjugation builds the images of one mode: the 4-mode target's
    # 8 generators take 16 series, where images of all 4 modes per
    # generator would take 64; the compiled circuit takes none
    calls, series = [], circuit.adjoint_series

    def counted(a, b):
        calls.append(b)
        return series(a, b)

    monkeypatch.setattr(circuit, "adjoint_series", counted)
    tg = parse_spec("t=0.4 X[0] X[1] X[2] X[3]")
    seq, _ = compile(tg)
    assert verify_symbolic(seq, tg.generator(), tg.strength) < 1e-9
    assert len(calls) == 16


def test_symbolic_accepts_correct_and_rejects_wrong():
    # P₀X₁³'s route runs through nested Fourier conjugations
    for tg in (TargetGate.position({0: 4}, 0.3),
               TargetGate(((0, 1, Basis.MOMENTUM), (1, 3, Basis.POSITION)), 0.3)):
        seq, _ = compile(tg)
        assert verify_symbolic(seq, tg.generator(), tg.strength) < 1e-9
        # same circuit against a slightly different strength must fail loudly
        assert verify_symbolic(seq, tg.generator(), tg.strength * 1.01) > 1e-4


def test_gate_of_infinite_strength_is_never_accepted():
    # each non-Fourier gate in turn given strength inf through its raw
    # record; NaN terms pruned as zero once read 0.0 at six positions
    tg = TargetGate.position({0: 4}, 0.7)
    seq, _ = compile(tg)
    for i, g in enumerate(seq.gates):
        if g.kind != FOURIER:
            residual = verify_symbolic(with_strength(seq, i, math.inf),
                                       tg.generator(), tg.strength)
            assert not math.isfinite(residual), (i, g.kind, residual)


def test_target_modes_the_circuit_lacks_are_verified():
    # an empty circuit on mode 0 is not e^{iX₃²}
    gen, empty = NOPoly.x(3, 2), GateSeq((), 1)
    assert _verified_modes(empty, gen) == [3]
    assert _verified_modes(GateSeq((), 2, (5,)), gen * NOPoly.x(0)) == [0, 3]
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


def test_constant_generator_is_a_global_phase():
    # e^{isc} on no mode: the symbolic check cannot see it, the numeric
    # one reads it as the phase offset −s·c of the empty circuit
    s, c = 0.3, 0.5
    seq, gen = GateSeq((), 1), NOPoly.constant(c)
    err, phase = verify_numeric(seq, gen, s, FockContext(cutoff=12, subspace=4))
    assert err < 1e-12
    assert abs(phase + s * c) < 1e-12
    assert verify_symbolic(seq, gen, s) == 0.0


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


def test_mixed_basis_generator_too_large_for_a_dense_exponential():
    # X₀P₀X₁X₂ at cutoff 18: an 18³ = 5,832-dimensional dense matrix
    gen = NOPoly.monomial([(0, 1, 1), (1, 1, 0), (2, 1, 0)])
    with pytest.raises(DimensionTooLarge, match="mixed-basis generator"):
        verify_numeric(GateSeq((), 3), gen, 0.1, FockContext(cutoff=18, subspace=1))


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
    """verify_numeric's (err, phase) for dense many-mode matrices u
    (circuit) and v (target), on the block where every mode is below
    subspace."""
    n_modes = round(np.log(len(u)) / np.log(cutoff))
    idx = [np.ravel_multi_index(t, (cutoff,) * n_modes) for t in
           itertools.product(range(subspace), repeat=n_modes)]
    a_blk, b_blk = u[np.ix_(idx, idx)], v[np.ix_(idx, idx)]
    phase = np.angle(np.trace(b_blk.conj().T @ a_blk))
    return np.linalg.norm(a_blk - np.exp(1j * phase) * b_blk, 2), phase


def _dense_err_phase(gates, n_modes, gen, strength, cutoff, subspace):
    """The dense oracle's (err, phase) for gates (leftmost first) against
    e^{i*strength*gen}, one Kronecker product per gate."""
    u = np.eye(cutoff ** n_modes)
    for g in gates:
        u = u @ _dense_gate(g, cutoff, n_modes)
    want = _dense_gate(Gate.exp_poly(gen, strength), cutoff, n_modes)
    return _block_err_phase(u, want, cutoff, subspace)


_X0X1X2 = ((0, 1, 0), (1, 1, 0), (2, 1, 0))


def _three_mode_gates():
    mono = lambda *f: NOPoly.monomial(list(f))
    # unequal powers and momentum modes make the per-gate matrices and
    # phase grids asymmetric, so a swapped axis or transpose shows
    return (Gate.xx(0, 1, 0.3), Gate.fourier(1), Gate.xx(0, 2, -0.2),
            Gate.x(2, 3, 0.15), Gate.xx(1, 2, 0.25), Gate.fourier(0, -1),
            Gate.xx(2, 0, 0.35), Gate.exp_poly(NOPoly.p(1, 2), 0.2),
            Gate.exp_poly(mono((0, 0, 1), (2, 1, 0)), -0.3),
            Gate.exp_poly(mono((0, 1, 0), (1, 1, 0), (2, 2, 0)), 0.1),
            Gate.fourier(2),
            Gate.exp_poly(mono((0, 1, 0), (1, 0, 1), (2, 1, 0)), 0.12),
            Gate.exp_poly(NOPoly.p(2, 3), 0.1),
            Gate.exp_poly(mono((1, 2, 0), (2, 0, 1)), -0.15),
            Gate.x(0, 2, -0.4), Gate.fourier(1, -1))


@pytest.mark.parametrize("cutoff,subspace,matrix_order,target", [
    pytest.param(6, 1, False, _X0X1X2, id="6-1-False"),
    pytest.param(6, 2, True, _X0X1X2, id="6-2-True"),
    # a momentum factor: the target is applied by Fourier conjugation
    pytest.param(6, 2, True, ((0, 1, 0), (1, 0, 1), (2, 2, 0)),
                 id="6-2-True-X0P1X2^2"),
])
def test_numeric_matches_dense_kronecker_product(cutoff, subspace,
                                                 matrix_order, target):
    # the three-mode gates take grid order at d=1 and matrix order at d=2
    grid = cutoff + INTERNAL_PAD
    eng = _NumericEngine([0, 1, 2], cutoff)
    assert eng._matrix_order((subspace ** 3, grid, grid, cutoff),
                             3) == matrix_order
    gen = NOPoly.monomial(list(target))
    gates = _three_mode_gates()
    seq = GateSeq(gates, 3)
    ctx = FockContext(cutoff=cutoff, subspace=subspace)
    err, phase = verify_numeric(seq, gen, 0.2, ctx)
    want_err, want_phase = _dense_err_phase(gates, 3, gen, 0.2, cutoff,
                                            subspace)
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


def _fusion_circuit(n_modes):
    """Runs of single-mode gates on the grid axis (mode 0) and on the stack
    axis (mode 1) of xx(0, 1): Fourier gates alone, a pending diagonal, and
    Fourier and x gates mixed, a pending matrix; the first run applied
    ends in a momentum exponential and the last is left for the final
    flush. On three modes, mode 2 takes an xx gate and a run of its own."""
    gates = (
        Gate.fourier(1), Gate.x(1, 3, 0.2), Gate.fourier(1, -1),
        Gate.xx(0, 1, 0.3),
        Gate.fourier(0), Gate.fourier(0),
        Gate.fourier(1, -1), Gate.x(1, 2, -0.4), Gate.fourier(1),
        Gate.x(1, 1, 0.5),
        Gate.xx(0, 1, -0.25),
        Gate.x(0, 3, 0.15), Gate.fourier(0, -1), Gate.x(0, 2, 0.3),
        Gate.fourier(1), Gate.fourier(1), Gate.fourier(1, -1),
        Gate.xx(0, 1, 0.2),
        Gate.fourier(0), Gate.exp_poly(NOPoly.p(0, 2), 0.1))
    if n_modes == 3:
        gates = (Gate.fourier(2), Gate.x(2, 3, -0.1), Gate.xx(1, 2, 0.15),
                 Gate.x(2, 2, 0.35), Gate.fourier(2, -1)) + gates
    return gates


@pytest.mark.parametrize("n_modes,cutoff,subspace,fused,matrix_order", [
    pytest.param(3, 6, 2, True, True, id="matrix-order"),
    pytest.param(2, 9, 2, True, False, id="grid-order"),
    pytest.param(2, 6, 1, False, False, id="unfused"),
])
def test_fused_runs_match_dense_kronecker_product(n_modes, cutoff, subspace,
                                                  fused, matrix_order):
    # the engine fuses when the state has more entries than a D×D matrix;
    # xx gates take the order _matrix_order picks once mode 0 is on the grid
    cols, grid = subspace ** n_modes, cutoff + INTERNAL_PAD
    assert (cols * cutoff ** n_modes > cutoff ** 2) == fused
    eng = _NumericEngine(list(range(n_modes)), cutoff)
    shape = (cols, grid) + (cutoff,) * (n_modes - 1)
    assert eng._matrix_order(shape, 2) == matrix_order
    gates = _fusion_circuit(n_modes)
    gen = NOPoly.monomial([(m, 1 + m % 2, 0) for m in range(n_modes)])
    err, phase = verify_numeric(GateSeq(gates, n_modes), gen, 0.2,
                                FockContext(cutoff=cutoff, subspace=subspace))
    want_err, want_phase = _dense_err_phase(gates, n_modes, gen, 0.2,
                                            cutoff, subspace)
    assert err > 1e-3  # the circuit is not the target: a real comparison
    assert abs(err - want_err) < 1e-12
    assert abs(phase - want_phase) < 1e-12


@pytest.mark.parametrize("target", [
    pytest.param(((0, 3, 0),), id="X0^3"),
    pytest.param(((0, 1, 0), (1, 1, 0)), id="X0X1"),
])
def test_fused_target_is_applied_before_the_blocks_are_read(target):
    # a single-mode target joins the pending factors like any x3 gate; left
    # pending, the reference would be the bare subspace columns
    cutoff, subspace = 6, 2
    gates = (Gate.fourier(0), Gate.x(0, 3, 0.3), Gate.xx(0, 1, 0.2),
             Gate.fourier(1), Gate.x(1, 2, -0.3))
    gen = NOPoly.monomial(list(target))
    err, phase = verify_numeric(GateSeq(gates, 2), gen, 0.25,
                                FockContext(cutoff=cutoff, subspace=subspace))
    want_err, want_phase = _dense_err_phase(gates, 2, gen, 0.25, cutoff,
                                            subspace)
    assert abs(err - want_err) < 1e-12
    assert abs(phase - want_phase) < 1e-12


def test_position_basis_is_cached_and_read_only():
    lam, v = _position_basis(30)
    assert _position_basis(30)[1] is v
    for arr in (lam, v):
        with pytest.raises(ValueError):
            arr[0] = 0.0


def _split_everywhere(monkeypatch, cpus):
    """Make the engine see cpus CPUs and split every state of two or more
    columns; return the slab count of each split made and the set of
    threads that multiplied a slab."""
    monkeypatch.setattr(verify.os, "sched_getaffinity",
                        lambda pid: set(range(cpus)))
    monkeypatch.setattr(verify, "SPLIT_MIN_ENTRIES", 1)
    slabs, threads = [], set()
    split, product = _NumericEngine._split, _NumericEngine._apply_axis

    def spy_split(*args):
        slabs.append(args[-1])
        return split(*args)

    def spy_product(*args):
        threads.add(threading.get_ident())
        return product(*args)

    monkeypatch.setattr(_NumericEngine, "_split", spy_split)
    monkeypatch.setattr(_NumericEngine, "_apply_axis", spy_product)
    return slabs, threads


def _numeric_case(case):
    """(seq, generator, strength, ctx) of one input to the split tests."""
    if case.startswith("3-mode"):
        d = int(case[-1])
        return (GateSeq(_three_mode_gates(), 3),
                NOPoly.monomial(list(_X0X1X2)), 0.2, FockContext(6, d))
    tg = parse_spec(case)
    return compile(tg)[0], tg.generator(), tg.strength, FockContext(24, 5)


@pytest.mark.parametrize("case", [
    "3-mode d=2", "3-mode d=1",  # one column: no split
    "t=0.05 X[0]^4", "t=0.02 X[0] X[1] X[2]", "t=0.05 X[0]^2 X[1]^2",
    "t=0.1 P[0] X[1]^2"])
def test_splitting_over_the_columns_leaves_results_unchanged(monkeypatch,
                                                             case):
    # 3 slabs on a 2-core machine are uneven and share the cores. The
    # tolerance was fixed before any run: 1e-12, for a BLAS kernel that
    # sums in another order on a slab; with OpenBLAS 0.3.31 on a 2-core
    # Xeon every pair reads bit for bit the same
    seq, gen, strength, ctx = _numeric_case(case)
    got = {}
    for cpus in (1, 2, 3):
        with monkeypatch.context() as mp:
            slabs, _ = _split_everywhere(mp, cpus)
            got[cpus] = verify_numeric(seq, gen, strength, ctx)
        split = cpus > 1 and ctx.subspace > 1
        assert set(slabs) == ({cpus} if split else set())
    for cpus in (2, 3):
        assert abs(got[cpus][0] - got[1][0]) <= 1e-12
        assert abs(got[cpus][1] - got[1][1]) <= 1e-12


def _assert_no_thread_outlives(before):
    left = [t for t in threading.enumerate() if t not in before]
    for t in left:
        t.join(timeout=10)  # bounded: a leak fails here, never hangs
    assert left == []
    assert threading.active_count() == len(before)


def test_no_thread_outlives_a_numeric_check(monkeypatch):
    slabs, threads = _split_everywhere(monkeypatch, 3)
    before = threading.enumerate()
    verify_numeric(*_numeric_case("3-mode d=2"))
    assert slabs and len(threads) > 1
    _assert_no_thread_outlives(before)


def test_an_exception_in_a_worker_slab_reaches_the_caller(monkeypatch):
    _, threads = _split_everywhere(monkeypatch, 3)
    product, main = _NumericEngine._apply_axis, threading.get_ident()

    def failing(*args):
        if threading.get_ident() != main:
            threads.add(threading.get_ident())
            raise ArithmeticError("worker slab")
        return product(*args)

    monkeypatch.setattr(_NumericEngine, "_apply_axis", failing)
    before = threading.enumerate()
    with pytest.raises(ArithmeticError, match="worker slab"):
        verify_numeric(*_numeric_case("3-mode d=2"))
    assert len(threads) > 1
    _assert_no_thread_outlives(before)


class _Abandoned(BaseException):
    pass


def test_a_call_abandoned_by_an_alarm_leaves_no_thread(monkeypatch):
    # the benchmark's per-call time limit raises from a SIGALRM handler in
    # the caller, wherever it is, as this test does
    slabs, threads = _split_everywhere(monkeypatch, 3)
    args = _numeric_case("t=0.05 X[0]^2 X[1]^2")  # seconds at D=24

    def abandon(signum, frame):
        raise _Abandoned

    before = threading.enumerate()
    previous = signal.signal(signal.SIGALRM, abandon)
    signal.setitimer(signal.ITIMER_REAL, 0.3)
    try:
        with pytest.raises(_Abandoned):
            verify_numeric(*args)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert slabs and len(threads) > 1
    _assert_no_thread_outlives(before)
