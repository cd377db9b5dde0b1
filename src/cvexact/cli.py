"""Command-line front end.

Subcommands: compile a target gate, compare against the commutator-baseline
estimate, compile a named application preset, or re-verify a saved circuit.
Target gates are written as a strength assignment followed by quadrature
factors, e.g. `t=0.1 X[0] X[1] X[2]^2` or `t=1 P[0] X[1]^2`.

Every command runs the same stages: the parse stage checks all inputs (spec,
preset, numeric and epsilon flags, saved circuit) before any compile or
verify call, `compile` alone judges eligibility, and `_verify` makes the
symbolic and numeric checks. `main` maps the outcome to an exit code:
0 success, 2 bad input (parse error, unknown preset, bad flag, unreadable
circuit, --out in a missing directory or not writable), 3 ineligible target,
4 verification failure above threshold.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from decimal import Decimal

from .algebra import Basis
from .baseline import estimate_commutator_count
from .circuit_tools import SchemaViolation, deserialize, serialize_json
from .decompose import Ineligible, TargetGate, compile
from .verify import (DimensionTooLarge, FockContext, verify_numeric,
                     verify_symbolic)

# compile, verify_symbolic and verify_numeric are looked up in this module's
# globals at each call, so a caller that replaces them as attributes of this
# module (to time a call or hold it to a time limit) sees every call the CLI
# makes. Never bind them early, e.g. as default arguments.

EXIT_PARSE = 2
EXIT_INELIGIBLE = 3
EXIT_VERIFY = 4

SYMBOLIC_THRESHOLD = 1e-9


class SpecError(Exception):
    pass


class CircuitWriteError(Exception):
    """The circuit could not be written to --out."""


_FACTOR_RE = re.compile(r"([XP])\[(\d+)\](?:\^(\d+))?$")


def parse_spec(text: str) -> TargetGate:
    """Parse `t=<float> X[i](^n) P[j](^n) ...` into a TargetGate.

    The grammar is checked here; what TargetGate requires of the values
    (at least one factor, finite strength, positive powers, distinct modes)
    is checked by TargetGate and reported as a SpecError.
    """
    tokens = text.split()
    if not tokens or not tokens[0].startswith("t="):
        raise SpecError("spec must start with a strength assignment t=<float>")
    try:
        strength = float(tokens[0][2:])
    except ValueError as exc:
        raise SpecError(f"bad strength {tokens[0][2:]!r}") from exc
    exps = []
    for tok in tokens[1:]:
        m = _FACTOR_RE.match(tok)
        if not m:
            raise SpecError(f"bad factor {tok!r}; expected X[i]^n or P[i]^n")
        basis = Basis.POSITION if m.group(1) == "X" else Basis.MOMENTUM
        power = int(m.group(3)) if m.group(3) else 1
        exps.append((int(m.group(2)), power, basis))
    try:
        return TargetGate(tuple(exps), strength)
    except ValueError as exc:
        raise SpecError(str(exc)) from exc


def format_spec(target: TargetGate) -> str:
    parts = [f"t={target.strength!r}"]
    for mode, power, basis in target.exponents:
        sym = "X" if basis is Basis.POSITION else "P"
        parts.append(f"{sym}[{mode}]" + (f"^{power}" if power > 1 else ""))
    return " ".join(parts)


PRESETS = {
    "bose-hubbard-dipole": "X[0]^2 X[1]^2",
    "bose-hubbard-tunneling": "X[0] X[1]^3",
    "cross-kerr": "X[0]^2 X[1]^2",
    "pca-rotation": "X[0] X[1] X[2]",
    "matrix-inversion": "P[0] P[1] X[2] X[3]",
    "pde-cubic": "X[0] X[1] X[2]",
}


def preset_spec(name: str, strength: float) -> str:
    if name.startswith("montecarlo:"):
        try:
            n = int(name.split(":", 1)[1])
        except ValueError:
            raise SpecError(f"bad preset {name!r}")
        if n < 1:
            raise SpecError("montecarlo power must be positive")
        body = f"X[0]^{n} P[1] P[2] P[3]" if n > 1 else "X[0] P[1] P[2] P[3]"
    elif name in PRESETS:
        body = PRESETS[name]
    else:
        raise SpecError(f"unknown preset {name!r}")
    return f"t={strength!r} {body}"


def _residual_lines(residual_sym, residual_num, phase):
    lines = []
    if residual_sym is not None:
        lines.append(f"symbolic residual:   {residual_sym:.3e}")
    if residual_num is not None:
        lines.append(f"numeric error:       {residual_num:.3e}")
        lines.append(f"phase offset:        {phase:.3e}")
    return lines


def _report_lines(report, residual_sym, residual_num, phase):
    return [
        f"route:               {report.route}",
        f"gates (non-Fourier): {report.n_gates_nonfourier}",
        f"gates (total):       {report.n_gates_total}",
        f"gates (pre-opt):     {report.n_gates_preopt}",
        f"ancilla modes:       {report.n_ancillas}",
        f"recursion steps:     {len(report.recursion_trace)}"
        + (f" (max depth {max(d for _, d in report.recursion_trace)})"
           if report.recursion_trace else ""),
    ] + _residual_lines(residual_sym, residual_num, phase)


def _report_json(report, residual_sym, residual_num, phase):
    doc = {
        "route": report.route,
        "n_gates_nonfourier": report.n_gates_nonfourier,
        "n_gates_total": report.n_gates_total,
        "n_gates_preopt": report.n_gates_preopt,
        "n_ancillas": report.n_ancillas,
        "recursion_trace": [list(e) for e in report.recursion_trace],
        "residual_symbolic": _json_number(residual_sym),
        "residual_numeric": _json_number(residual_num),
        "phase_offset": _json_number(phase),
    }
    return json.dumps(doc, indent=2, allow_nan=False)


def _json_number(v: float | None):
    """v, or a non-finite v as its name, "NaN", "Infinity" or "-Infinity",
    which float() reads back: JSON has no such numbers."""
    return v if v is None or math.isfinite(v) else json.dumps(v)


def _verify(seq, target: TargetGate, ctx: FockContext | None):
    """(status, symbolic residual, numeric error, phase offset) of seq.

    The numeric check runs only with a ctx, and is skipped with a note when
    its space is too large. A NaN residual counts as a failure.
    """
    residual_sym = verify_symbolic(seq, target.generator(), target.strength)
    failed = not residual_sym <= SYMBOLIC_THRESHOLD
    residual_num = phase = None
    if ctx is not None:
        try:
            residual_num, phase = verify_numeric(
                seq, target.generator(), target.strength, ctx)
        except DimensionTooLarge as exc:
            print(f"numeric check skipped: {exc}", file=sys.stderr)
        else:
            failed |= not residual_num <= ctx.tolerance
    return (EXIT_VERIFY if failed else 0), residual_sym, residual_num, phase


def _save(path, seq) -> None:
    if path:
        # serialized first: a SchemaViolation leaves an existing file as it was
        text = serialize_json(seq)
        try:
            with open(path, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise CircuitWriteError(exc) from exc


def cmd_compile(args) -> int:
    """compile and preset: the exact circuit, its report and its checks."""
    target = args.target
    seq, report = compile(target, balanced=(args.param_split == "balanced"))
    # saved before the check: a circuit that fails it is still written, and
    # a write error ends the command before any verify call
    _save(args.out, seq)
    status, *residuals = ((0, None, None, None) if args.no_verify
                          else _verify(seq, target, args.ctx))
    if args.format == "json":
        print(_report_json(report, *residuals))
    else:
        print(f"target:              {format_spec(target)}")
        for line in _report_lines(report, *residuals):
            print(line)
    return status


def cmd_compare(args) -> int:
    target = args.target
    _, report = compile(target)
    exact = report.n_gates_nonfourier
    estimate, model = args.estimate
    try:
        ratio = f"{estimate / max(exact, 1):.3g}"
    except OverflowError:  # past the largest float: divide in decimal
        ratio = f"{Decimal(estimate) / max(exact, 1):.3g}"
    print(f"target:              {format_spec(target)}")
    print(f"exact compilation:   {exact} non-Fourier gates")
    print(f"baseline estimate:   {estimate} gates at precision {args.epsilon:g}")
    print(f"ratio:               {ratio}")
    print(f"model:               {model}")
    return 0


def cmd_verify(args) -> int:
    status, *residuals = _verify(args.seq, args.target, args.ctx)
    for line in _residual_lines(*residuals):
        print(line)
    return status


def _parse(args) -> None:
    """The parse stage: check every input before any compile or verify call.

    Sets args.target, args.ctx (a FockContext, or None without
    --numeric-cutoff), for compare args.estimate (the baseline count and
    its model) and for verify args.seq. Raises SpecError or ValueError for
    a bad spec, preset or flag (an --out whose directory does not exist
    among them, and an epsilon whose repeat count no float holds), OSError
    or SchemaViolation for a circuit file that cannot be loaded.
    """
    spec = (preset_spec(args.name, args.strength) if args.command == "preset"
            else args.spec)
    args.target = parse_spec(spec)
    args.ctx = None
    if getattr(args, "numeric_cutoff", 0):
        args.ctx = FockContext(args.numeric_cutoff, args.subspace, args.tolerance)
    epsilon = getattr(args, "epsilon", 1.0)
    if not (math.isfinite(epsilon) and epsilon > 0):
        raise SpecError("--epsilon must be finite and positive")
    if args.command == "compare":
        args.estimate = estimate_commutator_count(args.target, epsilon)
    out = getattr(args, "out", None)
    if out and not os.path.isdir(os.path.dirname(out) or "."):
        raise SpecError(f"--out directory {os.path.dirname(out)!r} does not exist")
    if args.command == "verify":
        with open(args.circuit, "rb") as fh:
            args.seq = deserialize(fh.read())


def _add_numeric(p):
    p.add_argument("--numeric-cutoff", type=int, default=0, metavar="D",
                   help="run the truncated-Fock check at this cutoff")
    p.add_argument("--subspace", type=int, default=5, metavar="d",
                   help="comparison subspace levels per mode")
    p.add_argument("--tolerance", type=float, default=1e-5,
                   help="numeric error threshold")


def _add_common(p):
    p.add_argument("--out", help="write circuit JSON to this path")
    p.add_argument("--no-verify", action="store_true",
                   help="skip verification")
    _add_numeric(p)
    p.add_argument("--param-split", choices=["default", "balanced"],
                   default="default",
                   help="strength-split policy for the identity parameters")
    p.add_argument("--format", choices=["text", "json"], default="text")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="cvexact",
        description="exact compiler for quadrature-monomial gates")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compile", help="compile a target gate")
    p.add_argument("spec", help='e.g. "t=0.1 X[0] X[1] X[2]^2"')
    _add_common(p)
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("compare", help="exact count vs baseline estimate")
    p.add_argument("spec")
    p.add_argument("--epsilon", type=float, default=1e-3)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("preset", help="compile a named application kernel")
    p.add_argument("name", help="|".join(list(PRESETS) + ["montecarlo:<n>"]))
    p.add_argument("--strength", "-t", type=float, default=1.0)
    _add_common(p)
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("verify", help="re-verify a saved circuit")
    p.add_argument("circuit", help="circuit JSON path")
    p.add_argument("spec")
    _add_numeric(p)
    p.set_defaults(func=cmd_verify)

    return ap


def main(argv=None) -> int:
    """Run one command; every error-to-exit mapping is made here."""
    args = build_parser().parse_args(argv)
    try:
        _parse(args)
    except (SpecError, ValueError) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (OSError, SchemaViolation) as exc:
        print(f"cannot load circuit: {exc}", file=sys.stderr)
        return EXIT_PARSE
    try:
        status = args.func(args)
    except Ineligible as exc:
        print(f"ineligible: {exc}", file=sys.stderr)
        return EXIT_INELIGIBLE
    except CircuitWriteError as exc:
        print(f"cannot write circuit: {exc}", file=sys.stderr)
        return EXIT_PARSE
    if status == EXIT_VERIFY:
        print("verification failed: residual above threshold", file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main())
