"""The benchmark's traced hooks still exist in the package.

perfbench/tracing.py patches named functions and methods of cvexact (for
example circuit_tools._reuse_ancillas, circuit.heisenberg_conjugate and
verify._NumericEngine.apply_gate). A change under src/ that deletes or
renames one of them breaks `perfbench/run.py --trace 1`; this test makes
the test suite see it: the tracer installs in-process, records a compile,
and uninstalls with every patched attribute back as it was. A symbolic
compile under the tracer must also give every per-layer metric the
benchmark's own self-check asks of the symbolic workload, so a change that
verifies without the traced calls fails here too.
"""

import importlib.util
from pathlib import Path

from cvexact import cli, decompose, verify
from cvexact.cli import parse_spec

_spec = importlib.util.spec_from_file_location(
    "tracing", Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py")
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)


def _attributes():
    """Every attribute the tracer may patch, keyed by (owner, name)."""
    owners = tracing.MODULES + [verify._NumericEngine]
    return {(owner.__name__, attr): value
            for owner in owners for attr, value in vars(owner).items()}


def test_tracer_installs_records_and_restores_every_hook():
    before = _attributes()
    tr = tracing.Tracer()
    try:
        tr.install()  # raises on a traced name the package no longer has
        patched = [(owner, attr) for owner, attr, _ in tr._patched]
        assert patched
        assert all(getattr(owner, attr) is not before[(owner.__name__, attr)]
                   for owner, attr in patched)
        # looked up on the module, so the traced wrapper is called
        decompose.compile(parse_spec("t=0.3 X[0]^4"))
        assert tr.totals()["decompose.compile"][0] == 1
        assert tr.counters["decompose.recursion_steps"] > 0
    finally:
        tr.uninstall()
    after = _attributes()
    assert after.keys() == before.keys()
    assert [k for k in before if after[k] is not before[k]] == []


def test_a_traced_symbolic_compile_passes_the_self_check(capsys):
    tr = tracing.Tracer()
    tr.install()
    try:
        code = cli.main(["compile", "t=0.3 P[0] X[1]^3", "--format", "json"])
    finally:
        tr.uninstall()
    capsys.readouterr()
    assert code == 0
    assert tracing.self_check("symbolic", tracing.layer_metrics(tr, 1)) == []
