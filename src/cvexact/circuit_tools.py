"""Peephole optimization, gate counting, and circuit serialization.

Counting follows the convention that Fourier transforms are free: a
Fourier-conjugated primitive such as e^{itP³} stored as F·e^{itX³}·F†
contributes one non-Fourier gate.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field, replace

from .circuit import (EXPPOLY, FOURIER, X_POWER, XX, Gate, GateSeq,
                      _map_records)

# |strength| below this is the identity gate: the compiler emits nothing for
# it and optimize drops it. The verifiers apply every gate as written.
ZERO_STRENGTH = 1e-14


class SchemaViolation(Exception):
    """Malformed circuit document."""


@dataclass
class DecompReport:
    n_gates_total: int = 0
    n_gates_nonfourier: int = 0
    n_gates_preopt: int = 0
    n_ancillas: int = 0
    recursion_trace: list[tuple[str, int]] = field(default_factory=list)
    route: str = ""


def count_gates(seq: GateSeq) -> int:
    """The number of non-Fourier gates of seq."""
    return sum(1 for g in seq.gates if g.kind != FOURIER)


def optimize(seq: GateSeq) -> GateSeq:
    """Cancel adjacent inverses, merge equal generators and drop
    zero-strength gates; the result declares only the ancillas its gates
    use. Circuit-equivalent output.

    One pass with the output as a stack: each gate merges with or cancels
    the gate on top, so a cancellation exposes the gate below it at once.
    A merge keeps the generator of the top gate, so no two adjacent output
    gates can merge and a second pass would change nothing. The loop tests
    the Fourier, zero-strength and equal-universal-generator cases itself;
    only a pair with an exppoly gate compares generators.

    Every gate of the input stands in the output as the same object, and
    each merge makes one new Gate. A compiled circuit holds one object per
    record (decompose._Compiler); its optimized circuit does too wherever
    no two merges give one record.
    """
    out: list[Gate] = []
    push, pop = out.append, out.pop
    for g in seq.gates:
        top = out[-1] if out else None
        kind = g.kind
        if kind == FOURIER:
            # F·F† and F†·F on one mode cancel; nothing merges with a Fourier
            if (top is not None and top.kind == FOURIER
                    and top.modes == g.modes and top.power == -g.power):
                pop()
            else:
                push(g)
            continue
        if abs(g.strength) < ZERO_STRENGTH:  # NaN is kept
            continue
        if top is None or top.kind == FOURIER:
            push(g)
        elif kind == top.kind != EXPPOLY:
            if g.modes == top.modes:
                _merge_into(out, top, g)
            else:
                push(g)
        elif (kind == EXPPOLY or top.kind == EXPPOLY) and top.same_generator(g):
            _merge_into(out, top, g)
        else:
            push(g)
    return _reuse_ancillas(seq, out)


def _merge_into(out: list[Gate], top: Gate, g: Gate) -> None:
    """Replace top, the last gate of out, by top·g, two gates of one
    generator: the sum of their strengths on top's generator, or nothing
    when the sum is below ZERO_STRENGTH."""
    s = top.strength + g.strength
    if abs(s) < ZERO_STRENGTH:
        out.pop()
    else:
        out[-1] = replace(top, strength=s)


def _reuse_ancillas(seq: GateSeq, gates: list[Gate]) -> GateSeq:
    """The GateSeq of gates, the optimized gates of seq, declaring only the
    ancillas of seq that they use, in seq's order.

    The compiler already reuses ancilla labels (decompose._Compiler._emit),
    so no label is moved here. The name is the one perfbench/tracing.py
    times.
    """
    used = {m for g in gates for m in g.modes}
    return GateSeq(tuple(gates), seq.n_target_modes,
                   tuple(a for a in seq.ancilla_modes if a in used))


def _record_key(kind: str, modes: tuple, strength, power):
    """The key of one gate record, for a table that holds one Gate or one
    result per record. power is a gate's Fourier power or a saved record's
    dagger flag.

    The sign of strength is part of the key: 0.0 and -0.0 are equal and
    hash alike, but their inverses and reprs differ. None for an exppoly
    gate, whose generator is part of its record. Equal keys say nothing of
    types, as True == 1 == 1.0: a loader checks the types of every record.
    """
    if kind == EXPPOLY:
        return None
    return kind, modes, strength, power, math.copysign(1.0, strength)


# -- serialization ---------------------------------------------------------

def _gate_record(g: Gate) -> dict:
    if g.kind == EXPPOLY:
        raise SchemaViolation("only universal gates are serializable")
    if not all(map(_integer, g.modes)):  # deserialize refuses 1.0 and True
        raise SchemaViolation(f"gate modes {g.modes} are not integers")
    if not math.isfinite(g.strength):  # JSON has none; deserialize refuses it
        raise SchemaViolation(f"strength {g.strength} is not finite")
    return {"kind": g.kind, "modes": list(g.modes), "strength": g.strength,
            "dagger": g.power == -1}


def _header(seq: GateSeq) -> dict:
    if not (_integer(seq.n_target_modes)
            and all(map(_integer, seq.ancilla_modes))):
        raise SchemaViolation(f"mode count {seq.n_target_modes!r} or ancillas "
                              f"{seq.ancilla_modes} are not integers")
    return {"version": 2, "modes": seq.n_target_modes,
            "ancillas": list(seq.ancilla_modes)}


def serialize(seq: GateSeq) -> dict:
    """Circuit document, version 2: records holds the record of each
    distinct Gate object once, and gates the circuit in application order
    (first applied first) as indices into records."""
    header = _header(seq)
    records: list[dict] = []

    def index(g: Gate) -> int:
        records.append(_gate_record(g))
        return len(records) - 1

    gates = _map_records(index, reversed(seq.gates))
    return {**header, "records": records, "gates": gates}


def serialize_json(seq: GateSeq) -> str:
    """The circuit document as one line of compact JSON.

    Strengths are written as the shortest decimal that reads back to the
    same float, so deserialize(serialize_json(seq)) is exact.
    """
    return json.dumps(serialize(seq))


def _integer(v) -> bool:
    """True for a JSON integer: an int that is not a bool."""
    return isinstance(v, int) and not isinstance(v, bool)


def _finite_number(v) -> bool:
    """True for a finite int or float that is not a bool."""
    return (isinstance(v, float) and math.isfinite(v)
            or _integer(v) and abs(v) <= sys.float_info.max)


def deserialize(doc: dict | str | bytes) -> GateSeq:
    """The GateSeq of a circuit document of version 1 or 2, or of its JSON
    text.

    Version 2 is what serialize writes. Version 1, which earlier versions
    wrote, lists one record per gate in gates, in application order; it
    loads as before. Nothing is coerced. The version must be the integer 1
    or 2, the mode count, each ancilla and each gate mode an integer, a
    strength a finite int or float, dagger a JSON boolean and kind a
    string; a bool is none of the numbers. In version 2 each gate is an
    integer index into records. Raises SchemaViolation for a document that
    breaks any of this, and for a gate record with the wrong number of
    modes for its kind, the same mode twice in an xx record, a mode the
    document does not declare, or dagger set on a non-Fourier record, and
    for text that is not JSON: nesting too deep to parse, bytes that do
    not decode, or a str that starts with a byte order mark. Bytes are
    decoded as json.loads decodes them, so UTF-8 (with or without a BOM),
    UTF-16 and UTF-32 bytes load. Every record is checked, used or not.
    Other keys of a record, such as the "provenance" that older files
    carry, are ignored. Each distinct record's Gate is built once and
    stands at every position of it.
    """
    if isinstance(doc, (str, bytes)):
        try:
            doc = json.loads(doc)
        except (json.JSONDecodeError, UnicodeDecodeError,
                RecursionError) as exc:
            raise SchemaViolation(f"invalid JSON: {exc}") from exc
    n, ancillas, records, indices = _read_header(doc)
    table: dict = {}
    gates = [_load_record(rec, table) for rec in records]
    if indices is not None:
        gates = _look_up(gates, indices)
    return _gate_seq(gates, n, ancillas)


def _read_header(doc) -> tuple:
    """The mode count, ancillas, gate records and gate indices of a
    circuit document whose header is checked. The indices are None in
    version 1, whose records are its gates."""
    version = doc.get("version") if isinstance(doc, dict) else None
    if not _integer(version) or version not in (1, 2):
        raise SchemaViolation("expected a circuit document of version 1 or 2")
    n, ancillas, gates = doc.get("modes"), doc.get("ancillas"), doc.get("gates")
    records = gates if version == 1 else doc.get("records")
    if not (_integer(n) and isinstance(ancillas, list)
            and all(map(_integer, ancillas)) and isinstance(gates, list)
            and isinstance(records, list)):
        raise SchemaViolation("bad document structure: modes must be an "
                              "integer, ancillas a list of integers and "
                              + ("gates a list" if version == 1 else
                                 "records and gates lists"))
    return n, ancillas, records, None if version == 1 else gates


def _look_up(gates: list, indices: list) -> list:
    """The gates at indices, each a JSON integer in range(len(gates))."""
    # one type test per distinct type, not per index
    if not (all(t is not bool and issubclass(t, int)
                for t in set(map(type, indices)))
            and (not indices or min(indices) >= 0
                 and max(indices) < len(gates))):
        raise SchemaViolation(f"gates must be integers in range({len(gates)})"
                              ", each an index into records")
    return list(map(gates.__getitem__, indices))


def _load_record(rec, table: dict) -> Gate:
    """The Gate of one saved record, shared through table with every
    record of the same key before it; SchemaViolation for a bad record.

    Every record's types are checked, as equal keys say nothing of them.
    """
    if not (isinstance(rec, dict) and isinstance(rec.get("kind"), str)
            and isinstance(rec.get("modes"), list)
            and all(map(_integer, rec["modes"]))
            and _finite_number(rec.get("strength"))
            and isinstance(rec.get("dagger"), bool)):
        raise SchemaViolation(
            f"bad gate record {rec!r}: kind must be a string, modes a "
            "list of integers, strength a finite number and dagger a "
            "boolean")
    # keyed only once its types are checked: [1] and [true] hash alike
    key = _record_key(rec["kind"], tuple(rec["modes"]), rec["strength"],
                      rec["dagger"])
    gate = table.get(key)
    if gate is None:
        # key None (kind exppoly) is refused here and never stored
        gate = table[key] = _record_gate(rec)
    return gate


def _gate_seq(gates: list, n: int, ancillas: list) -> GateSeq:
    """The GateSeq of gate records in file order (first applied first)."""
    try:
        return GateSeq(tuple(reversed(gates)), n, tuple(ancillas))
    except ValueError as exc:
        raise SchemaViolation(str(exc)) from exc


def _record_gate(rec: dict) -> Gate:
    """The Gate of one record whose types _load_record has checked;
    SchemaViolation if it is no gate of the saved set."""
    kind, modes = rec["kind"], tuple(rec["modes"])
    if kind not in X_POWER and kind not in (FOURIER, XX):
        raise SchemaViolation(f"unknown gate kind {kind!r}")
    if len(modes) != (2 if kind == XX else 1) or len(set(modes)) != len(modes):
        raise SchemaViolation(f"wrong modes for a {kind} gate: {rec!r}")
    if kind == FOURIER:
        return Gate(FOURIER, modes, 0.0, -1 if rec["dagger"] else 1)
    if rec["dagger"]:
        raise SchemaViolation(f"dagger is set on a {kind} gate: {rec!r}")
    return Gate(kind, tuple(sorted(modes)) if kind == XX else modes,
                float(rec["strength"]))
