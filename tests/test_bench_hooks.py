"""The benchmark's traced hooks still exist in the package.

perfbench/tracing.py patches named functions and methods of cvexact (for
example circuit_tools._reuse_ancillas, circuit.heisenberg_conjugate and
verify._NumericEngine.apply_gate). A change under src/ that deletes or
renames one of them breaks `perfbench/run.py --trace 1`; this test makes
the test suite see it: the tracer installs in-process, records a compile,
and uninstalls with every patched attribute back as it was. A symbolic
compile, a numeric one, an unverified compile saved and loaded back,
and a baseline circuit checked numerically, under the tracer must also
give every per-layer metric the benchmark's own self-check asks of the
symbolic, the numeric, the compile-large and the baseline workload, so a
change that verifies, optimizes or serializes without the traced calls,
or applies gates where the tracer cannot see them, fails here too.
"""

import importlib.util
from pathlib import Path

import pytest

from cvexact import baseline, circuit_tools, cli, decompose, verify
from cvexact.algebra import NOPoly, commutator
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


@pytest.mark.parametrize("workload,args,exit_code", [
    ("symbolic", ["t=0.3 P[0] X[1]^3"], 0),
    # the D=24 error is above tolerance, hence exit 4
    ("numeric", ["t=0.05 X[0]^4", "--numeric-cutoff", "24"], 4),
], ids=["symbolic", "numeric"])
def test_a_traced_compile_passes_the_self_check(capsys, workload, args,
                                                exit_code):
    tr = tracing.Tracer()
    tr.install()
    try:
        code = cli.main(["compile", *args, "--format", "json"])
    finally:
        tr.uninstall()
    capsys.readouterr()
    assert code == exit_code
    assert tracing.self_check(workload, tracing.layer_metrics(tr, 1)) == []


def test_a_traced_baseline_check_passes_the_self_check():
    # what the baseline workload does with each K, at criterion 6's settings
    a, b = NOPoly.x(0, 3), NOPoly.p(0, 2)
    tr = tracing.Tracer()
    tr.install()
    try:
        seq = baseline.commutator_approx(a, b, 0.01, 5)
        verify.verify_numeric(seq, commutator(a, b).scale(-1j), 0.01,
                              verify.FockContext(cutoff=40, subspace=8))
    finally:
        tr.uninstall()
    assert tracing.self_check("baseline", tracing.layer_metrics(tr, 1)) == []


def test_a_traced_compile_saved_and_loaded_passes_the_self_check(capsys,
                                                                 tmp_path):
    # what the compile-large workload does with each of its targets
    out = tmp_path / "circuit.json"
    tr = tracing.Tracer()
    tr.install()
    try:
        code = cli.main(["compile", "t=0.3 X[0] X[1] X[2]", "--no-verify",
                         "--format", "json", "--out", str(out)])
        circuit_tools.deserialize(out.read_text())
    finally:
        tr.uninstall()
    capsys.readouterr()
    assert code == 0
    metrics = tracing.layer_metrics(tr, 1)
    assert tracing.self_check("compile-large", metrics) == []
