"""Circuit post-processing: peephole optimization, counting, serialization."""

import json
import math

import numpy as np
import pytest

from cvexact.algebra import Basis, NOPoly
from cvexact.baseline import commutator_approx
from cvexact import circuit_tools
from cvexact.circuit import EXPPOLY, Gate, GateSeq
from cvexact.circuit_tools import (SchemaViolation, _load_serialized_text,
                                   _map_records, _record_key,
                                   count_gates, deserialize, optimize,
                                   serialize, serialize_json)
from cvexact.cli import parse_spec
from cvexact.decompose import TargetGate, _Compiler, compile
from cvexact.verify import verify_symbolic

from test_decompose import ROUTE_PINS, _OneLevel
from test_verify import HAND_BUILT
from util import (deserialize_per_record, inverse_per_gate,
                  optimize_stack_per_pair, reuse_ancillas_per_gate)


def test_fourier_pair_cancellation():
    seq = GateSeq((Gate.fourier(0), Gate.fourier(0, -1), Gate.x(0, 2, 0.5)), 1)
    opt = optimize(seq)
    assert len(opt.gates) == 1


def test_same_generator_merge_and_zero_drop():
    seq = GateSeq((Gate.x(0, 3, 0.4), Gate.x(0, 3, -0.4),
                   Gate.x(0, 1, 0.2), Gate.x(0, 1, 0.3)), 1)
    opt = optimize(seq)
    # cubic pair cancels entirely, linear pair merges to one gate
    assert len(opt.gates) == 1
    assert abs(opt.gates[0].strength - 0.5) < 1e-12


def test_optimize_idempotent():
    seq, _ = compile(TargetGate.position({0: 4}, 0.3))
    again = optimize(seq)
    assert len(again.gates) == len(seq.gates)


def test_optimize_preserves_heisenberg_action():
    rng = np.random.default_rng(3)
    cases = [TargetGate.position({0: 4}, 0.7),
             TargetGate.position({0: 1, 1: 1, 2: 1}, -0.4),
             TargetGate.position({0: 2, 1: 2}, 0.25)]
    for tg in cases:
        seq, _ = compile(tg)
        res = verify_symbolic(seq, tg.generator(), tg.strength)
        assert res < 1e-9


def test_optimize_keeps_ancilla_labels_and_drops_unused_declarations():
    # the compiler reuses labels itself; optimize moves no gate to another
    # mode, an exppoly generator included, and declares only ancillas in use
    seq = GateSeq((Gate.exp_poly(NOPoly.monomial([(0, 0, 1), (5, 4, 0)]), 0.3),
                   Gate.x(5, 2, 0.1)), 1, (3, 5, 2))
    opt = optimize(seq)
    assert opt.ancilla_modes == (5,)
    assert all(g is h for g, h in zip(opt.gates, seq.gates, strict=True))


def test_declared_ancillas_no_gate_uses_are_dropped():
    seq = GateSeq((Gate.x(0, 2, 0.5), Gate.fourier(0)), 1, (1, 2))
    opt = optimize(seq)
    assert opt.ancilla_modes == ()
    assert opt.gates == seq.gates


def test_count_convention_excludes_fourier():
    seq = GateSeq((Gate.fourier(0), Gate.x(0, 3, 1.0), Gate.fourier(0, -1)), 1)
    assert count_gates(seq) == 1
    assert len(seq.gates) == 3


def test_ancilla_reuse_packs_disjoint_live_ranges():
    # two sequential single-mode compilations can share ancilla registers
    seq, rep = compile(TargetGate.position({0: 6}, 0.2))
    # the report's ancilla count is the declared one: the peak nesting
    assert rep.n_ancillas == len(seq.ancilla_modes)
    assert rep.n_ancillas == 2


def test_serialize_round_trip():
    seq, _ = compile(TargetGate.position({0: 1, 1: 3}, 0.15))
    doc = serialize(seq)
    assert doc["version"] == 1
    back = deserialize(doc)
    assert len(back.gates) == len(seq.gates)
    for g, h in zip(back.gates, seq.gates):
        assert g.kind == h.kind
        if g.kind != "fourier":
            assert g.strength == h.strength
            assert g.generator.terms == h.generator.terms


def test_serialize_json_string_round_trip():
    seq, _ = compile(TargetGate.position({0: 4}, 0.4))
    text = serialize_json(seq)
    doc = json.loads(text)
    back = deserialize(text)
    assert len(back.gates) == len(seq.gates) == len(doc["gates"])


def test_serialized_gates_are_in_application_order():
    # the JSON lists gates in the order they act on a state, which is the
    # reverse of the operator-product order used internally
    seq = GateSeq((Gate.x(0, 2, 0.5), Gate.x(0, 1, 0.25)), 1)
    doc = serialize(seq)
    assert doc["gates"][0]["kind"] == "x1"
    assert doc["gates"][1]["kind"] == "x2"


def test_deserialize_rejects_bad_documents():
    with pytest.raises(SchemaViolation):
        deserialize({"version": 99, "gates": []})
    with pytest.raises(SchemaViolation):
        deserialize({"version": 1, "n_target_modes": 1, "ancilla_modes": [],
                     "gates": [{"kind": "x9", "mode": 0, "strength": 1.0}]})
    with pytest.raises(SchemaViolation):
        deserialize({"version": 1, "modes": 1, "ancillas": [], "gates": 5})
    with pytest.raises(SchemaViolation):
        deserialize(_doc(("x1", [2], 1.0, False)))
    # declarations that make no sense: a negative mode count, and ancilla
    # labels that are negative, repeated or below the mode count
    x2 = {"kind": "x2", "modes": [-1], "strength": 1.0, "dagger": False}
    for modes, ancillas, gates in [(-3, [-1, -1], [x2]), (-3, [], []),
                                   (0, [-1], []), (2, [3, 3], []),
                                   (2, [1], [])]:
        with pytest.raises(SchemaViolation):
            deserialize({"version": 1, "modes": modes, "ancillas": ancillas,
                         "gates": gates})
    # nothing is coerced: a bool is no number, a float no integer
    good = {"version": 1, "modes": 2, "ancillas": [2], "gates": []}
    for key, value in [("version", True), ("version", 1.0), ("modes", 1.9),
                       ("modes", True), ("ancillas", [2.5]),
                       ("ancillas", [True])]:
        for doc in ({**good, key: value}, json.dumps({**good, key: value})):
            with pytest.raises(SchemaViolation):
                deserialize(doc)
    assert deserialize(good).ancilla_modes == (2,)


@pytest.mark.parametrize("seq", [
    GateSeq((Gate.x(0, 4, 0.3),), 1),
    GateSeq((Gate.x(0, 2, math.inf),), 1),
    GateSeq((Gate.fourier(0), Gate.xx(0, 1, -math.inf)), 2),
    GateSeq((Gate.x(0, 1, math.nan),), 1),
    GateSeq((), True),
    GateSeq((), 1, (1.5,)),
    GateSeq((), 1, (2.0,)),
    GateSeq((Gate.x(1.0, 2, 0.1),), 2),
], ids=["exppoly", "inf-strength", "minus-inf-strength", "nan-strength",
        "bool-mode-count", "fractional-ancilla", "float-ancilla",
        "float-gate-mode"])
def test_serialize_refuses_what_deserialize_would_refuse(seq):
    # every file serialize writes loads again
    with pytest.raises(SchemaViolation):
        serialize(seq)
    with pytest.raises(SchemaViolation):
        serialize_json(seq)


@pytest.mark.parametrize("kind", ["x4", "exppoly"])
def test_deserialize_refuses_kinds_outside_the_saved_set(kind):
    with pytest.raises(SchemaViolation, match="unknown gate kind"):
        deserialize(_doc((kind, [0], 0.5, False)))


def _fields(seq):
    return ([(g.kind, g.modes, g.power, g.strength)
             for g in seq.gates], seq.n_target_modes, seq.ancilla_modes)


def test_saved_gate_records_hold_only_the_gate():
    seq, _ = compile(parse_spec("t=0.3 P[0] X[1]^3"))
    records = json.loads(serialize_json(seq))["gates"]
    assert {"fourier", "x3", "xx"} <= {rec["kind"] for rec in records}
    assert all(rec.keys() == {"kind", "modes", "strength", "dagger"}
               for rec in records)


def test_records_with_provenance_still_load():
    # files written before gates lost their provenance strings
    seq, _ = compile(parse_spec("t=-1.7 X[0] X[1]^3"))
    doc = serialize(seq)
    for rec in doc["gates"]:
        rec["provenance"] = "shift"
    assert _fields(deserialize(json.dumps(doc, indent=2))) == _fields(seq)


def test_saved_route_circuits_load_gate_for_gate():
    for body, *_ in ROUTE_PINS:
        seq, _ = compile(parse_spec(f"t=0.3 {body}"))
        text = serialize_json(seq)
        assert "\n" not in text
        assert _fields(deserialize(text)) == _fields(seq), body


def test_indented_document_still_loads():
    seq, _ = compile(TargetGate.position({0: 1, 1: 3}, -1.7))
    back = deserialize(json.dumps(serialize(seq), indent=2))
    assert _fields(back) == _fields(seq)


def _doc(*records):
    return {"version": 1, "modes": 2, "ancillas": [], "gates": [
        {"kind": k, "modes": m, "strength": s, "dagger": d}
        for k, m, s, d in records]}


@pytest.mark.parametrize("record", [
    ("xx", [0], 1.0, False),
    ("xx", [1, 1], 1.0, False),
    ("xx", [0, 1, 1], 1.0, False),
    ("fourier", [], 0.0, False),
    ("fourier", [0, 1], 0.0, True),
    ("x2", [0, 1], 1.0, False),
    ("x3", [], 1.0, False),
    ("x1", [0], "nan", False),
    ("x2", [0], float("inf"), False),
    ("xx", [0, 1], "-inf", False),
    ("x3", [0], 1.0, True),
    ("xx", [0, 1], 1.0, True),
    (["x1"], [0], 1.0, False),
    ("fourier", [0], 0.0, "false"),
    ("fourier", [0], 0.0, 1),
    ("x1", [0.7], 1.0, False),
    ("x1", [True], 1.0, False),
    ("x1", [0], True, False),
    ("x1", [0], "1e-1", False),
    ("x1", [0], 10 ** 400, False),
], ids=["xx-one-mode", "xx-same-mode", "xx-three-modes", "fourier-no-mode",
        "fourier-two-modes", "x2-two-modes", "x3-no-mode", "nan-strength",
        "inf-strength", "minus-inf-strength", "dagger-x3", "dagger-xx",
        "kind-not-a-string", "dagger-string", "dagger-int", "float-mode",
        "bool-mode", "bool-strength", "string-strength",
        "strength-beyond-float"])
def test_deserialize_rejects_malformed_gate_records(record):
    with pytest.raises(SchemaViolation):
        deserialize(_doc(record))
    with pytest.raises(SchemaViolation):
        deserialize(json.dumps(_doc(("x1", [0], 0.5, False), record)))


# ---------------------------------------------------------- record tables ---
# a compile run makes one Gate object per record (_Compiler._gate), and
# deserialize loads one per record; optimize, _Compiler._inverse,
# serialize_json and heisenberg_action build what an object gives once and
# share it wherever the object recurs


@pytest.mark.parametrize("twin,bad", [
    (("x1", [1], 1.0, False), ("x1", [True], 1.0, False)),
    (("x1", [1], 1.0, False), ("x1", [1.0], 1.0, False)),
    (("x1", [0], 1.0, False), ("x1", [0], True, False)),
    (("fourier", [0], 0.0, False), ("fourier", [0], 0.0, 0)),
], ids=["bool-mode", "float-mode", "bool-strength", "int-dagger"])
def test_record_after_its_hash_equal_valid_twin_is_refused(twin, bad):
    # True == 1 == 1.0 and False == 0 hash alike: the types of every record
    # are checked, not only those of the first record of each key
    assert len(deserialize(_doc(twin, twin)).gates) == 2
    with pytest.raises(SchemaViolation):
        deserialize(_doc(twin, bad))
    with pytest.raises(SchemaViolation):
        deserialize(json.dumps(_doc(twin, bad)))


def test_signed_zero_and_int_strengths_load_as_written():
    doc = _doc(("x2", [0], 0.0, False), ("x2", [0], -0.0, False),
               ("x1", [1], 1, False), ("x1", [1], 1.0, False))
    for loaded in (deserialize(doc), deserialize(json.dumps(doc))):
        zero, minus_zero = (g.strength for g in loaded.gates[:-3:-1])
        assert math.copysign(1.0, zero) == 1.0
        assert math.copysign(1.0, minus_zero) == -1.0
        assert [type(g.strength) for g in loaded.gates[:2]] == [float, float]
        assert [g.strength for g in loaded.gates[:2]] == [1.0, 1.0]


def _records(gates):
    """Each gate's record, with the sign of its strength and its generator."""
    return [(g.kind, g.modes, g.power, g.strength,
             math.copysign(1.0, g.strength), g.poly) for g in gates]


def _raw(body, balanced=False):
    """The unoptimized circuit of t=0.3 body and the compiler that made it."""
    target = parse_spec(f"t=0.3 {body}")
    n = max(target.modes()) + 1
    comp = _Compiler(n, balanced)
    _, gates = comp.run(target)
    return comp, GateSeq(tuple(gates), n, tuple(comp.ancillas))


@pytest.mark.parametrize("body", [b for b, *_ in ROUTE_PINS])
def test_record_tables_match_the_per_gate_references(body):
    comp, raw = _raw(body)
    # the table the run filled serves this inverse too
    assert (_records(comp._inverse(list(raw.gates)))
            == _records(inverse_per_gate(raw.gates)))
    seq = optimize(raw)
    _scoped_as_packing_would_pack(seq)
    assert serialize_json(seq) == json.dumps(serialize(seq))
    loaded = deserialize(serialize_json(seq))
    assert len({id(g) for g in loaded.gates}) == len(set(_records(seq.gates)))


def test_exppoly_gates_and_signed_zeros_keep_their_own_records():
    # equal kind, modes and strength; the generator tells the two apart
    a = Gate.exp_poly(NOPoly.monomial([(0, 0, 1), (5, 4, 0)]), 0.3)
    b = Gate.exp_poly(NOPoly.monomial([(0, 1, 0), (5, 4, 0)]), 0.3)
    gates = (a, b, a, Gate.x(5, 2, 0.0), Gate.x(5, 2, -0.0), Gate.fourier(5))
    assert (_records(_Compiler(1)._inverse(list(gates)))
            == _records(inverse_per_gate(gates)))


def _scoped_as_packing_would_pack(seq):
    """Check that the interval packing optimize once ran after the stack
    loop (util.reuse_ancillas_per_gate) finds no fewer ancillas than the
    compiler's scope left, and that seq holds one Gate object per record."""
    assert (len(reuse_ancillas_per_gate(seq).ancilla_modes)
            >= len(seq.ancilla_modes))
    assert len({id(g) for g in seq.gates}) == len(set(_records(seq.gates)))


# the compile-large bodies and their ancillas at t = 0.3: the peak nesting
# of the identities that take one
LARGE_ANCILLAS = {"X[0]^9": 6, "X[0]^12": 5,
                  "X[0] X[1] X[2] X[3] X[4] X[5]": 2,
                  "X[0]^2 X[1] X[2] X[3]": 3, "X[0]^3 P[1] P[2] P[3]": 5,
                  "P[0] P[1] X[2]^3": 6}


@pytest.mark.parametrize("body", LARGE_ANCILLAS)
def test_large_circuits_take_the_ancillas_of_their_peak_nesting(body):
    seq, rep = compile(parse_spec(f"t=0.3 {body}"))
    assert rep.n_ancillas == len(seq.ancilla_modes) == LARGE_ANCILLAS[body]
    _scoped_as_packing_would_pack(seq)


def _one_object_per_record(gates):
    """Check that no two distinct objects among gates share a record."""
    first = {}
    for g in gates:
        key = _record_key(g.kind, g.modes, g.strength, g.power)
        assert key is not None, g  # compiled gates are universal
        assert first.setdefault(key, g) is g, g


@pytest.mark.parametrize("balanced", [False, True],
                         ids=["default", "balanced"])
@pytest.mark.parametrize("body", [b for b, *_ in ROUTE_PINS])
def test_a_run_emits_one_object_per_record(body, balanced):
    _, raw = _raw(body, balanced)
    _one_object_per_record(raw.gates)


def test_commutator_approx_holds_one_object_per_record():
    # four runs of one compiler, the group repeated K² times
    p0x1 = NOPoly.monomial([(0, 0, 1), (1, 2, 0)])
    seq = commutator_approx(NOPoly.x(0, 4), p0x1, 0.2, 2)
    assert len(seq.gates) > len({id(g) for g in seq.gates}) > 20
    _one_object_per_record(seq.gates)


@pytest.mark.parametrize("body", ["P[0] X[1]^2", "X[0]^2 P[1] P[2]"])
def test_two_compiles_share_no_gate_object(body):
    runs = [_raw(body)[1], _raw(body)[1]]
    assert runs[0] == runs[1]
    assert not {id(g) for g in runs[0]} & {id(g) for g in runs[1]}
    seqs = [compile(parse_spec(f"t=0.3 {body}"))[0] for _ in range(2)]
    assert not {id(g) for g in seqs[0]} & {id(g) for g in seqs[1]}


def test_gate_keeps_signed_zero_strengths_apart():
    # 0.0 == -0.0 and they hash alike; their inverses differ in sign
    comp = _Compiler(1)
    zero = comp._gate(Gate.x(0, 2, 0.0))
    minus_zero = comp._gate(Gate.x(0, 2, -0.0))
    assert zero is not minus_zero
    assert comp._gate(Gate.x(0, 2, 0.0)) is zero
    assert comp._gate(Gate.x(0, 2, -0.0)) is minus_zero
    assert math.copysign(1.0, minus_zero.strength) == -1.0


def test_gate_returns_an_exppoly_gate_as_it_is():
    # an exppoly gate has no record key: its generator is part of its record
    comp = _Compiler(1)
    gates = [Gate.exp_poly(NOPoly.p(0, 2), 0.3),
             Gate.exp_poly(NOPoly.p(0, 2), 0.3),
             Gate.exp_poly(NOPoly.x(0, 4), 0.3)]
    assert all(comp._gate(g) is g for g in gates)


def test_inverse_of_fresh_exppoly_gates_after_their_ids_are_reused():
    # each _sub call returns a new ideal exppoly gate, dropped once it is
    # inverted; a later gate may get the id of a dropped one, and must
    # still get its own inverse
    comp = _OneLevel(2)
    X, P = Basis.POSITION, Basis.MOMENTUM
    for k in range(1, 60):
        s = 0.1 * k
        factors = ((0, k % 3 + 1, P), (1, 2, X))
        inv, = comp._inverse(comp._sub(s, *factors))
        assert inv.kind == EXPPOLY
        assert inv.strength == -s
        assert inv.poly == TargetGate(factors, s).generator()


def test_a_callers_table_shares_results_across_calls():
    # a fresh object of an equal record gets a build of its own
    a, b, c = Gate.x(0, 2, 0.5), Gate.fourier(1), Gate.x(0, 2, 0.5)
    built, table = [], {}

    def build(g):
        built.append(g)
        return object()

    first = _map_records(build, [a, b, a], table)
    second = _map_records(build, iter([b, a, c, b]), table)
    assert [id(g) for g in built] == [id(a), id(b), id(c)]
    assert first[0] is first[2] is second[1]
    assert first[1] is second[0] is second[3]
    assert second[2] is not first[0]
    # each entry holds its object, so its id names no other while it lives
    assert len(table) == 3
    assert all(table[id(g)][0] is g for g in (a, b, c))


def test_a_run_inverts_each_gate_object_once_across_calls(monkeypatch):
    comp, raw = _raw("X[0]^8")
    calls, inverse = [], Gate.inverse

    def counted(g):
        calls.append(g)
        return inverse(g)

    monkeypatch.setattr(Gate, "inverse", counted)
    first = comp._inverse(list(raw.gates))
    assert len(calls) <= len({id(g) for g in raw.gates}) < len(raw.gates)
    before = len(calls)
    second = comp._inverse(list(raw.gates))
    assert len(calls) == before
    assert all(x is y for x, y in zip(first, second))


def test_inverse_of_a_compiled_circuit_holds_one_object_per_record():
    seq, _ = compile(parse_spec("t=0.3 X[0]^8"))
    inv = seq.inverse()
    assert len(inv.gates) == 6169
    assert len({id(g) for g in inv.gates}) == 155
    assert _records(inv.gates) == _records(inverse_per_gate(seq.gates))
    assert (inv.n_target_modes, inv.ancilla_modes) == (
        seq.n_target_modes, seq.ancilla_modes)


def test_gates_made_on_the_fly_are_not_confused_by_a_reused_id():
    # a generator drops each gate after its position unless the call keeps
    # it, and the next gate may then get the id of the dead one; a build
    # that allocates nothing leaves its memory free for that
    strengths = [0.1 * k for k in range(1, 50)]
    out = _map_records(lambda g: g.strength,
                       (Gate.x(0, 2, s) for s in strengths))
    assert out == strengths


# -------------------------------------------------------- optimize loop ---
# optimize tests each case of its stack loop inline; util keeps the loop
# that tried every adjacent pair with _merge_pair

_NEAR_ONE = 1.0 + 2e-13  # an exppoly generator within 1e-12 of a unit one

OPTIMIZE_CASES = GateSeq((
    Gate.fourier(0), Gate.fourier(0, -1),            # F·F† cancels
    Gate.fourier(1), Gate.fourier(1),                # F·F stays
    Gate.fourier(0), Gate.fourier(1, -1),            # two modes: no cancel
    Gate.fourier(1, -1), Gate.fourier(1),            # F†·F cancels
    Gate.x(0, 2, 0.0), Gate.x(1, 3, -0.0),           # zero strengths drop
    Gate.xx(0, 1, 1e-15), Gate.exp_poly(NOPoly.p(1, 2), -1e-15),
    Gate.x(1, 1, 0.3), Gate.x(1, 3, 0.4), Gate.x(1, 3, -0.4),  # sum 0.0
    Gate.x(1, 1, 0.1),                               # merges below it
    Gate.x(0, 2, 0.25), Gate.x(0, 2, 0.5), Gate.x(0, 2, 0.125),
    Gate.xx(0, 2, 0.1), Gate.xx(0, 2, 0.2), Gate.xx(1, 2, 0.3),
    Gate.x(2, 2, 0.1), Gate.x(2, 3, 0.1), Gate.x(2, 3, -0.1 + 1e-15),
    # exppoly generators equal under the coefficient rule merge, and the
    # merged gate keeps the generator of the gate on top
    Gate.exp_poly(NOPoly.p(1, 2), 0.2),
    Gate.exp_poly(NOPoly.p(1, 2, _NEAR_ONE), 0.3),
    Gate.exp_poly(NOPoly.x(2, 2, _NEAR_ONE), 0.1), Gate.x(2, 2, 0.25),
    Gate.x(2, 2, 0.5), Gate.exp_poly(NOPoly.x(2, 2, _NEAR_ONE), -0.5),
    Gate.exp_poly(NOPoly.p(2, 3), 0.4), Gate.exp_poly(NOPoly.p(2, 3), -0.4),
    Gate.x(0, 1, math.nan), Gate.x(0, 1, 0.5),       # NaN is kept
    Gate.fourier(2)), 3)


def _bits(gates):
    """Each gate's record with the bits of its strength, so NaN == NaN."""
    return [(g.kind, g.modes, g.power, g.strength.hex(), g.poly)
            for g in gates]


def _same_stack(got: list[Gate], want: list[Gate], inputs) -> None:
    """got and want agree gate for gate: the same input object, or a
    merged gate of the same record and the same strength bits."""
    assert len(got) == len(want)
    given = {id(g) for g in inputs}
    for a, b in zip(got, want):
        if id(b) in given:
            assert a is b
        else:
            assert id(a) not in given
            assert _bits([a]) == _bits([b])


@pytest.mark.parametrize("name", [b for b, *_ in ROUTE_PINS]
                         + ["hand-built", "optimize-cases"])
def test_optimize_loop_matches_the_pairwise_loop(name):
    if name == "hand-built":
        seq = HAND_BUILT
    elif name == "optimize-cases":
        seq = OPTIMIZE_CASES
    else:
        seq = _raw(name)[1]
    want = optimize_stack_per_pair(seq.gates)
    _same_stack(list(optimize(seq).gates), want, seq.gates)


def test_optimize_cases_cover_every_rule():
    out = optimize_stack_per_pair(OPTIMIZE_CASES.gates)
    assert len(out) < len(OPTIMIZE_CASES.gates) - 10
    assert [g.kind for g in out].count("fourier") == 5
    # each merged exppoly gate keeps the generator of the gate on top
    assert ([g.poly for g in out if g.kind == EXPPOLY]
            == [NOPoly.p(1, 2), NOPoly.x(2, 2, _NEAR_ONE)])
    assert any(math.isnan(g.strength) for g in out)


@pytest.mark.parametrize("seq", [
    GateSeq((), 1),
    GateSeq((Gate.fourier(0), Gate.x(0, 2, -0.0), Gate.x(0, 2, 0.0),
             Gate.fourier(0, -1), Gate.xx(0, 2, 0.5), Gate.fourier(0)), 1, (2,)),
], ids=["empty", "signed-zero-and-both-fourier"])
def test_serialize_json_writes_the_bytes_of_json_dumps(seq):
    text = serialize_json(seq)
    assert text == json.dumps(serialize(seq))
    assert _records(deserialize(text).gates) == _records(seq.gates)


# ----------------------------------------------------------- text path ---
# deserialize splits text in serialize_json's layout at its records and
# parses each distinct record text once; every other text goes through
# json.loads whole, as deserialize_per_record does


def _same_load(doc):
    """The GateSeq deserialize gives for doc, after checking that the
    per-record reference gives the same records, modes and number of
    distinct Gate objects; None after checking that both refuse doc with
    the same message."""
    try:
        want = deserialize_per_record(doc)
    except SchemaViolation as exc:
        with pytest.raises(SchemaViolation) as got:
            deserialize(doc)
        assert str(got.value) == str(exc)
        return None
    got = deserialize(doc)
    assert _records(got.gates) == _records(want.gates)
    assert got.n_target_modes == want.n_target_modes
    assert got.ancilla_modes == want.ancilla_modes
    assert (len({id(g) for g in got.gates})
            == len({id(g) for g in want.gates}))
    return got


# the six circuits of the compile-large benchmark workload
LARGE_BODIES = list(LARGE_ANCILLAS)


@pytest.mark.parametrize("body", [b for b, *_ in ROUTE_PINS] + LARGE_BODIES)
def test_saved_circuits_load_as_the_per_record_loader_loads_them(body):
    seq, _ = compile(parse_spec(f"t=0.3 {body}"))
    text = serialize_json(seq)
    for doc in (text, text.encode()):
        assert _records(_same_load(doc).gates) == _records(seq.gates)


def _text(*records, header='{"version": 1, "modes": 2, "ancillas": []'):
    """A document in serialize_json's layout with the given record texts."""
    return f'{header}, "gates": [{", ".join(records)}]}}'


_X1 = '{"kind": "x1", "modes": [1], "strength": 0.5, "dagger": false}'


def _with_provenance():
    doc = json.loads(_text(_X1, _X1))
    doc["gates"][0]["provenance"] = 'a}, {b'
    doc["gates"][1]["provenance"] = ', "gates": ['
    return json.dumps(doc)


_DEEP = ('{"kind": "x1", "modes": ' + "[" * 100_000 + "]" * 100_000
         + ', "strength": 0.5, "dagger": false}')


# (doc, loads, split): split when the text path serves doc, which is then
# only in serialize_json's layout; the 0.5/5e-1 twins load as one Gate, as
# the reference shares records by key
@pytest.mark.parametrize("doc,loads,split", [
    (_with_provenance(), True, False),
    (_text(_X1, header='{"version": 1, "gates": 5, "modes": 2, '
                       '"ancillas": []'), True, False),
    (_text(_X1, header='{"version": 1, "gates": [], "modes": 2, '
                       '"ancillas": []'), True, False),
    ('{, "gates": []}', False, False),
    (_text(), True, True),
    (_text(_X1) + "\n", True, False),
    (json.dumps(json.loads(_text(_X1, _X1)), indent=2), True, False),
    (_text(_X1, _X1.replace("0.5", "5e-1")), True, True),
    (_text(_X1, _X1.replace("[1]", "[true]")), False, False),
    (_text(_X1, _DEEP), False, False),
    (_text(_X1, _X1.replace('"x1"', '"x4"')), False, False),
    (_text(_X1, header='{"version": 1, "modes": 1, "ancillas": []'),
     False, False),
    (_text(_X1, header='{"version": 2, "modes": 2, "ancillas": []'),
     False, False),
    (_text(_X1, '{"kind": "x1"} , {"modes": [0]}'), False, False),
    (_text(_X1, _X1)[:-3] + "}}", False, False),
    ("\ufeff" + _text(_X1), False, False),
    (b"\xef\xbb\xbf" + _text(_X1).encode(), True, True),
    (_text(_X1, _X1).encode("utf-16"), True, True),
    (_text(_X1).encode("utf-32-le"), True, True),
    (_text(_X1).encode("utf-16")[:-1], False, False),
], ids=["provenance-holding-separators", "header-gates-number",
        "header-gates-list", "empty-header", "no-gates", "trailing-newline",
        "indented", "same-number-spelt-twice", "bool-mode-twin",
        "record-nested-too-deep", "unknown-kind", "undeclared-mode",
        "version-2", "split-record", "unclosed-array", "str-bom",
        "utf8-bom-bytes", "utf16-bytes", "utf32-bytes", "truncated-utf16"])
def test_awkward_texts_load_as_the_per_record_loader_loads_them(doc, loads,
                                                                split):
    assert (_same_load(doc) is not None) == loads
    assert (_load_serialized_text(doc) is not None) == split


def test_records_near_the_nesting_limit_load_as_the_reference_loads_them():
    # a record piece parses two levels shallower than it stands in the whole
    # text, so a record that only just fails to parse in the whole text
    # parses on its own; it must still be refused
    def doc(depth):
        nested = "[" * depth + "]" * depth
        return _text(_X1, _X1.replace("false}", f'false, "p": {nested}}}'))

    def refused(depth):
        try:
            deserialize_per_record(doc(depth))
        except SchemaViolation:
            return True
        return False

    lo, hi = 1, 64
    while not refused(hi):
        lo, hi = hi, hi * 2
    # loads at lo, refused at hi: bisect to the first refusal
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if refused(mid) else (mid, hi)
    for depth in range(hi - 3, hi + 3):
        _same_load(doc(depth))


def test_each_distinct_record_text_is_parsed_once(monkeypatch):
    seq, _ = compile(parse_spec("t=0.3 X[0]^9"))
    text = serialize_json(seq)
    distinct = {json.dumps(rec) for rec in serialize(seq)["gates"]}
    assert len(distinct) * 10 < len(seq.gates)
    calls = []
    loads = json.loads

    def counting_loads(s, *args, **kwargs):
        calls.append(s)
        return loads(s, *args, **kwargs)

    monkeypatch.setattr(circuit_tools.json, "loads", counting_loads)
    assert _records(deserialize(text).gates) == _records(seq.gates)
    # one parse of the header, then one per distinct record text
    assert len(calls) == 1 + len(distinct)
    assert set(calls[1:]) == distinct


def test_compiled_sequences_contain_only_universal_gates():
    for tg in (TargetGate.position({0: 4}, 1.0),
               TargetGate.position({0: 1, 1: 1, 2: 1, 3: 1}, 0.5)):
        seq, _ = compile(tg)
        assert all(g.kind != EXPPOLY for g in seq.gates)
