"""Independent oracles used only by the tests.

The dense-matrix helpers are built directly from ladder matrices and
eigendecompositions, on purpose not reusing the package's own numeric
verifier, so that symbolic results can be cross-checked against
straightforward linear algebra. The symbolic references (the Fourier rule
by products and the per-operator Heisenberg fold) use only poly_mul and
adjoint_series, not the package's substitution maps.
heisenberg_action_per_gate is the composed fold with each gate's images
built at every position of the gate, the reference for the table of images
per distinct record in verify.heisenberg_action. multinomial_expand
is the exact rational reference for the Pascal coefficients, and
poly_mul_by_loops the plain reference for the merged product.
inverse_per_gate builds one new Gate per position, the reference for the
record table of _Compiler._inverse. reuse_ancillas_per_gate is the
interval packing optimize once ran after its stack loop, the reference
that the compiler's ancilla scope leaves no more ancillas than it would.
optimize_stack_per_pair is optimize's
stack loop as it was written with _is_identity and _merge_pair, the
reference for the loop that tests each case inline. deserialize_per_record parses the whole
text with json.loads and checks every record in turn, the reference for
deserialize's split of serialize_json's layout.
"""

import itertools
import json
import math
from dataclasses import replace
from fractions import Fraction
from math import factorial

import numpy as np

from cvexact.algebra import (NOPoly, TermKey, adjoint_series, poly_mul,
                             substitute)
from cvexact.circuit import (EXPPOLY, FOURIER, XX, Gate, GateSeq,
                             heisenberg_conjugate)
from cvexact.circuit_tools import (ZERO_STRENGTH, SchemaViolation,
                                   _finite_number, _integer, _record_gate,
                                   _record_key)


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


def declared_modes(seq):
    """The target modes of seq, then its ancillas."""
    return list(range(seq.n_target_modes)) + list(seq.ancilla_modes)


def seq_matrix(seq, cutoff, n_modes=None):
    """Dense unitary of a gate sequence (gates[0] applied last)."""
    if n_modes is None:
        n_modes = max(declared_modes(seq), default=0) + 1
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


def heisenberg_action_per_gate(seq, modes):
    """verify.heisenberg_action with g† X_m g and g† P_m g built anew at
    every position of g: each gate replaces the images of its modes with
    its own images evaluated on the images so far."""
    generators = {m: (NOPoly.x(m), NOPoly.p(m))
                  for m in [*{m for g in seq.gates for m in g.modes}, *modes]}
    images = dict(generators)
    for g in reversed(seq.gates):
        images.update({m: tuple(substitute(heisenberg_conjugate(g, b), images)
                                for b in generators[m])
                       for m in g.modes})
    return {m: images[m] for m in modes}


def negate_last_exp(seq):
    """seq with the strength of its last non-Fourier gate negated."""
    i = max(i for i, g in enumerate(seq.gates) if g.kind != FOURIER)
    return replace(seq, gates=(seq.gates[:i] + (seq.gates[i].inverse(),)
                               + seq.gates[i + 1:]))


def with_strength(seq, i, strength):
    """seq with gate i replaced by the same record at another strength."""
    return replace(seq, gates=(seq.gates[:i]
                               + (replace(seq.gates[i], strength=strength),)
                               + seq.gates[i + 1:]))


def multinomial_expand(subset, N):
    """(sum_{i in subset} x_i)^N as {exponent tuple: Fraction} over the
    modes present in subset."""
    out = {}
    for combo in itertools.combinations_with_replacement(sorted(subset), N):
        counts = {}
        for i in combo:
            counts[i] = counts.get(i, 0) + 1
        coeff = Fraction(factorial(N))
        for v in counts.values():
            coeff /= factorial(v)
        key = tuple(sorted(counts.items()))
        out[key] = out.get(key, Fraction(0)) + coeff
    return out


def _mul_single_mode(a: int, b: int, c: int, d: int):
    """Normal-order (X^a P^b)(X^c P^d) for one mode.

    Yields (coefficient, x_exp, p_exp) using
    P^b X^c = sum_k (-i/2)^k k! C(b,k) C(c,k) X^(c-k) P^(b-k).
    """
    for k in range(min(b, c) + 1):
        coeff = ((-0.5j) ** k) * math.factorial(k) * math.comb(b, k) * math.comb(c, k)
        yield coeff, a + c - k, b + d - k


def poly_mul_by_loops(a: NOPoly, b: NOPoly) -> NOPoly:
    """Normal-ordered product a*b, one mode and one k at a time: the
    reference algebra.poly_mul must match coefficient for coefficient."""
    out: dict[TermKey, complex] = {}
    b_terms = [({m: (x, p) for m, x, p in kb}, cb) for kb, cb in b.terms.items()]
    for ka, ca in a.terms.items():
        da = {m: (x, p) for m, x, p in ka}
        for db, cb in b_terms:
            # per-mode reordering; modes only in one factor pass through
            partial: list[tuple[complex, list[tuple[int, int, int]]]] = [(ca * cb, [])]
            for m in sorted(set(da) | set(db)):
                ax, ap = da.get(m, (0, 0))
                bx, bp = db.get(m, (0, 0))
                expanded = []
                for coeff, factors in partial:
                    for corr, xe, pe in _mul_single_mode(ax, ap, bx, bp):
                        if xe or pe:
                            expanded.append((coeff * corr, factors + [(m, xe, pe)]))
                        else:
                            expanded.append((coeff * corr, factors))
                partial = expanded
            for coeff, factors in partial:
                key = tuple(factors)
                out[key] = out.get(key, 0.0) + coeff
    return NOPoly(out)


def optimize_stack_per_pair(gates) -> list[Gate]:
    """optimize's stack loop, each adjacent pair tried by _merge_pair."""
    out: list[Gate] = []
    for g in gates:
        if _is_identity(g):
            continue
        merged = _merge_pair(out[-1], g) if out else None
        if merged is None:
            out.append(g)
        else:
            out[-1:] = merged
    return out


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


def inverse_per_gate(gates):
    """The inverse of a gate list, one g.inverse() per position."""
    return [g.inverse() for g in reversed(gates)]


def reuse_ancillas_per_gate(seq: GateSeq) -> GateSeq:
    """Ancilla packing with one remapped Gate per position."""
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
    regs: list[int] = []
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
    gates = tuple(_remap_gate_per_gate(g, mapping) for g in seq.gates)
    return GateSeq(gates, n, tuple(n + r for r in range(len(regs))))


def _remap_gate_per_gate(g: Gate, mapping: dict[int, int]) -> Gate:
    if g.kind == EXPPOLY:
        terms = {}
        for key, coeff in g.poly.terms.items():
            new_key = tuple(sorted((mapping.get(m, m), a, b) for m, a, b in key))
            terms[new_key] = coeff
        return Gate.exp_poly(NOPoly(terms), g.strength)
    modes = tuple([mapping.get(m, m) for m in g.modes])
    if modes == g.modes:
        return g
    if g.kind == XX:
        modes = tuple(sorted(modes))
    return Gate(g.kind, modes, g.strength, g.power)


def deserialize_per_record(doc):
    """deserialize by json.loads of the whole text and a check of every
    record in turn, each distinct record's Gate shared by key."""
    if isinstance(doc, (str, bytes)):
        try:
            doc = json.loads(doc)
        except (json.JSONDecodeError, UnicodeDecodeError,
                RecursionError) as exc:
            raise SchemaViolation(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict) or not _integer(doc.get("version")) \
            or doc["version"] != 1:
        raise SchemaViolation("expected a version-1 circuit document")
    n, ancillas, records = doc.get("modes"), doc.get("ancillas"), doc.get("gates")
    if not (_integer(n) and isinstance(ancillas, list)
            and all(map(_integer, ancillas)) and isinstance(records, list)):
        raise SchemaViolation("bad document structure: modes must be an "
                              "integer, ancillas a list of integers and "
                              "gates a list")
    table: dict = {}
    gates = []
    for rec in records:
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
        gates.append(gate)
    try:
        return GateSeq(tuple(reversed(gates)), n, tuple(ancillas))
    except ValueError as exc:
        raise SchemaViolation(str(exc)) from exc
