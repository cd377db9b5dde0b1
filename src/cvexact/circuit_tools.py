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

from .circuit import EXPPOLY, FOURIER, X_POWER, XX, Gate, GateSeq

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


def _map_records(build, gates) -> list:
    """[build(g) for g in gates], with build called once per distinct Gate
    object and its result shared at every position of that object.

    A table local to this call maps id(g) to its result. An id names its
    object only while the object lives, so the call keeps every object it
    has an entry for until it returns; gates may be any iterable.
    """
    by_id: dict[int, object] = {}
    alive = []  # the objects by_id names, so no id is reused in this call
    out = []
    push = out.append
    for g in gates:
        got = by_id.get(id(g))
        if got is None:
            got = by_id[id(g)] = build(g)
            alive.append(g)
        push(got)
    return out


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
    return {"version": 1, "modes": seq.n_target_modes,
            "ancillas": list(seq.ancilla_modes)}


def serialize(seq: GateSeq) -> dict:
    """Circuit document; gate order is application order (first applied first)."""
    return {**_header(seq),
            "gates": [_gate_record(g) for g in reversed(seq.gates)]}


def serialize_json(seq: GateSeq) -> str:
    """The circuit document as one line of compact JSON, byte for byte
    json.dumps(serialize(seq)).

    Strengths are written as the shortest decimal that reads back to the
    same float, so deserialize(serialize_json(seq)) is exact. The file has
    no indentation: the C encoder writes it several times faster than the
    indented form, which deserialize still reads. Each distinct Gate object
    is encoded once and its text joined in at every position; a circuit from
    optimize or deserialize holds one object per record.
    """
    # an exppoly gate has no record: _gate_record refuses it
    records = _map_records(lambda g: json.dumps(_gate_record(g)),
                           reversed(seq.gates))
    head = json.dumps(_header(seq))
    return f'{head[:-1]}, "gates": [{", ".join(records)}]}}'


def _integer(v) -> bool:
    """True for a JSON integer: an int that is not a bool."""
    return isinstance(v, int) and not isinstance(v, bool)


def _finite_number(v) -> bool:
    """True for a finite int or float that is not a bool."""
    return (isinstance(v, float) and math.isfinite(v)
            or _integer(v) and abs(v) <= sys.float_info.max)


def deserialize(doc: dict | str | bytes) -> GateSeq:
    """The GateSeq of a version-1 circuit document or its JSON text.

    Nothing is coerced. The version must be the integer 1, the mode count,
    each ancilla and each gate mode an integer, a strength a finite int or
    float, dagger a JSON boolean and kind a string; a bool is none of the
    numbers. Raises SchemaViolation for a document that breaks any of this,
    and for a gate record with the wrong number of modes for its kind, the
    same mode twice in an xx record, a mode the document does not declare,
    or dagger set on a non-Fourier record, and for text that is not JSON:
    nesting too deep to parse, bytes that do not decode, or a str that
    starts with a byte order mark. Bytes are decoded as json.loads decodes
    them, so UTF-8 (with or without a BOM), UTF-16 and UTF-32 bytes load.
    Other keys of a record, such as the "provenance" that older files
    carry, are ignored.

    Text in the layout serialize_json writes, with exactly its header and
    record keys, is split at its gate records instead of parsed whole: its
    cost is one split plus one parse and check per distinct record text.
    Every other input (a dict, indented text, records with other keys,
    trailing whitespace, or any text that fails a check) loads as before,
    through json.loads of the whole text, with the same result or error
    message; there every record's types are checked. Either way each
    distinct record's Gate is built once and stands at every position of it.
    """
    if isinstance(doc, (str, bytes)):
        seq = _load_serialized_text(doc)
        if seq is not None:
            return seq
        try:
            doc = json.loads(doc)
        except (json.JSONDecodeError, UnicodeDecodeError,
                RecursionError) as exc:
            raise SchemaViolation(f"invalid JSON: {exc}") from exc
    n, ancillas, records = _read_header(doc)
    table: dict = {}
    return _gate_seq([_load_record(rec, table) for rec in records],
                     n, ancillas)


_GATES_OPEN = ', "gates": ['
# the keys serialize_json writes, which alone take the text path
_HEADER_KEYS = frozenset(_header(GateSeq((), 0)))
_RECORD_KEYS = frozenset(_gate_record(Gate.fourier(0)))


def _load_serialized_text(doc: str | bytes) -> GateSeq | None:
    """deserialize of text in serialize_json's layout, or None for any
    other text and for any text that fails a check.

    The header is the text up to the first ', "gates": [', closed with
    "}"; the text must end in "]}", and the gate array between is split
    on "}, {". When the header and every record piece parse as one object
    each, the whole text is exactly that object with "gates" last, so
    json.loads would give the same document. A piece parses two levels
    shallower than it stands in the whole text, so only the keys
    serialize_json writes are accepted: a record that holds nothing else
    and passes the checks is too shallow to reach the nesting limit.
    """
    # every failure falls back to json.loads of the whole text, which gives
    # its own result or error message
    try:
        text = doc if isinstance(doc, str) else doc.decode(
            json.detect_encoding(doc), "surrogatepass")
        cut = text.find(_GATES_OPEN)
        if cut < 0 or not text.endswith("]}"):
            return None
        body = text[cut + len(_GATES_OPEN):-2]
        if body and not (body.startswith("{") and body.endswith("}")):
            return None
        head = json.loads(text[:cut] + "}")  # an object: it ends in "}"
        if head.keys() != _HEADER_KEYS:
            return None
        head["gates"] = body[1:-1].split("}, {") if body else []
        n, ancillas, pieces = _read_header(head)
        by_text = dict.fromkeys(pieces)  # each distinct record text once
        table: dict = {}
        for piece in by_text:
            rec = json.loads("{" + piece + "}")
            if rec.keys() != _RECORD_KEYS:
                return None
            by_text[piece] = _load_record(rec, table)
        return _gate_seq(list(map(by_text.__getitem__, pieces)), n, ancillas)
    except (ValueError, RecursionError, SchemaViolation):
        return None


def _read_header(doc) -> tuple:
    """The mode count, ancillas and gate records of a circuit document
    whose header is checked."""
    if not isinstance(doc, dict) or not _integer(doc.get("version")) \
            or doc["version"] != 1:
        raise SchemaViolation("expected a version-1 circuit document")
    n, ancillas, records = doc.get("modes"), doc.get("ancillas"), doc.get("gates")
    if not (_integer(n) and isinstance(ancillas, list)
            and all(map(_integer, ancillas)) and isinstance(records, list)):
        raise SchemaViolation("bad document structure: modes must be an "
                              "integer, ancillas a list of integers and "
                              "gates a list")
    return n, ancillas, records


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
