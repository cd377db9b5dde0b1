"""Peephole optimization, gate counting, and circuit serialization.

Counting follows the convention that Fourier transforms are free: a
Fourier-conjugated primitive such as e^{itP³} stored as F·e^{itX³}·F†
contributes one non-Fourier gate.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace

from .algebra import NOPoly
from .circuit import EXPPOLY, FOURIER, X_POWER, XX, ZERO_STRENGTH, Gate, GateSeq


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


def count_gates(seq: GateSeq, exclude_fourier: bool) -> int:
    if exclude_fourier:
        return sum(1 for g in seq.gates if g.kind != FOURIER)
    return len(seq.gates)


def optimize(seq: GateSeq) -> GateSeq:
    """Cancel adjacent inverses, merge equal generators, drop zero-strength
    gates, then compact ancilla registers. Circuit-equivalent output.

    One pass with the output as a stack: each gate merges with or cancels
    the gate on top, so a cancellation exposes the gate below it at once.
    A merge keeps the generator of the top gate, so no two adjacent output
    gates can merge and a second pass would change nothing.
    """
    out: list[Gate] = []
    for g in seq.gates:
        if _is_identity(g):
            continue
        merged = _merge_pair(out[-1], g) if out else None
        if merged is None:
            out.append(g)
        else:
            out[-1:] = merged
    return _reuse_ancillas(replace(seq, gates=tuple(out)))


def _is_identity(g: Gate) -> bool:
    return g.kind != FOURIER and abs(g.strength) < ZERO_STRENGTH


def _merge_pair(g: Gate, h: Gate):
    """None: no rule. []: both cancel. [gate]: merged replacement."""
    if g.kind == FOURIER and h.kind == FOURIER:
        if g.mode == h.mode and g.power == -h.power:
            return []
        return None
    if g.same_generator(h):
        s = g.strength + h.strength
        if abs(s) < ZERO_STRENGTH:
            return []
        return [replace(g, strength=s)]
    return None


def _reuse_ancillas(seq: GateSeq) -> GateSeq:
    """Pack ancillas with disjoint live ranges into shared registers."""
    if not seq.ancilla_modes:
        return seq
    n = seq.n_target_modes
    first: dict[int, int] = {}
    last: dict[int, int] = {}
    for idx, g in enumerate(seq.gates):
        for m in g.modes:
            if m >= n:
                first.setdefault(m, idx)
                last[m] = idx
    # assign each used ancilla (by first use) to the first free register
    regs: list[int] = []  # index -> last gate index occupying it
    mapping: dict[int, int] = {}
    for m in sorted(first, key=lambda m: (first[m], m)):
        lo, hi = first[m], last[m]
        for r, busy_until in enumerate(regs):
            if busy_until < lo:
                regs[r] = hi
                mapping[m] = n + r
                break
        else:
            mapping[m] = n + len(regs)
            regs.append(hi)
    if not mapping:
        return replace(seq, ancilla_modes=())
    gates = tuple(_remap_gate(g, mapping) for g in seq.gates)
    return GateSeq(gates, n, tuple(n + r for r in range(len(regs))))


def _remap_gate(g: Gate, mapping: dict[int, int]) -> Gate:
    if g.kind == EXPPOLY:
        terms = {}
        for key, coeff in g.poly.terms.items():
            new_key = tuple(sorted((mapping.get(m, m), a, b) for m, a, b in key))
            terms[new_key] = coeff
        return Gate.exp_poly(NOPoly(terms), g.strength, g.provenance)
    modes = tuple([mapping.get(m, m) for m in g.modes])
    if modes == g.modes:
        return g
    if g.kind == XX:
        modes = tuple(sorted(modes))
    return Gate(g.kind, modes, g.strength, g.power, g.provenance)


# -- serialization ---------------------------------------------------------

def _gate_record(g: Gate) -> dict:
    if g.kind == EXPPOLY:
        raise SchemaViolation("only universal gates are serializable")
    return {"kind": g.kind, "modes": list(g.modes), "strength": g.strength,
            "dagger": g.power == -1, "provenance": g.provenance}


def serialize(seq: GateSeq) -> dict:
    """Circuit document; gate order is application order (first applied first)."""
    return {
        "version": 1,
        "modes": seq.n_target_modes,
        "ancillas": list(seq.ancilla_modes),
        "gates": [_gate_record(g) for g in reversed(seq.gates)],
    }


def serialize_json(seq: GateSeq) -> str:
    """The circuit document as one line of compact JSON.

    Strengths are written as the shortest decimal that reads back to the
    same float, so deserialize(serialize_json(seq)) is exact. The file has
    no indentation: the C encoder writes it several times faster than the
    indented form, which deserialize still reads.
    """
    return json.dumps(serialize(seq))


def deserialize(doc: dict | str) -> GateSeq:
    """The GateSeq of a version-1 circuit document or its JSON text.

    Raises SchemaViolation for malformed input, including a gate record
    with the wrong number of modes for its kind, the same mode twice in an
    xx record, a mode the document does not declare, a strength that is
    not finite, or dagger set on a non-Fourier record.
    """
    if isinstance(doc, str):
        try:
            doc = json.loads(doc)
        except json.JSONDecodeError as exc:
            raise SchemaViolation(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("version") != 1:
        raise SchemaViolation("expected a version-1 circuit document")
    try:
        n = int(doc["modes"])
        ancillas = tuple(int(a) for a in doc["ancillas"])
        records = list(doc["gates"])
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaViolation(f"bad document structure: {exc}") from exc
    gates = []
    for rec in records:
        try:
            kind = str(rec["kind"])
            modes = tuple([int(m) for m in rec["modes"]])
            strength = float(rec["strength"])
            dagger = bool(rec["dagger"])
            prov = rec.get("provenance", "")
        except (KeyError, TypeError, ValueError) as exc:
            raise SchemaViolation(f"bad gate record {rec!r}: {exc}") from exc
        if kind not in X_POWER and kind not in (FOURIER, XX):
            raise SchemaViolation(f"unknown gate kind {kind!r}")
        if len(modes) != (2 if kind == XX else 1) or len(set(modes)) != len(modes):
            raise SchemaViolation(f"wrong modes for a {kind} gate: {rec!r}")
        if not math.isfinite(strength):
            raise SchemaViolation(f"strength is not finite: {rec!r}")
        if kind == FOURIER:
            gates.append(Gate(FOURIER, modes, 0.0, -1 if dagger else 1, prov))
        elif dagger:
            raise SchemaViolation(f"dagger is set on a {kind} gate: {rec!r}")
        else:
            gates.append(Gate(kind, tuple(sorted(modes)) if kind == XX else modes,
                              strength, 1, prov))
    try:
        return GateSeq(tuple(reversed(gates)), n, ancillas)
    except ValueError as exc:
        raise SchemaViolation(str(exc)) from exc
