"""Command-line interface: spec grammar, presets, exit codes, artifacts."""

import json
import math

import pytest

from cvexact import cli
from cvexact.algebra import Basis
from cvexact.circuit import Gate, GateSeq
from cvexact.circuit_tools import SchemaViolation
from cvexact.cli import (EXIT_INELIGIBLE, EXIT_PARSE, EXIT_VERIFY, SpecError,
                         format_spec, main, parse_spec, preset_spec)
from cvexact.decompose import TargetGate, compile

from util import with_strength


def test_parse_spec_basic():
    tg = parse_spec("t=0.1 X[0] X[1] X[2]^2")
    assert tg.strength == 0.1
    assert tg.exponents == ((0, 1, Basis.POSITION), (1, 1, Basis.POSITION),
                            (2, 2, Basis.POSITION))


def test_parse_spec_momentum_factor():
    tg = parse_spec("t=1 P[0] X[1]^2")
    assert tg.exponents[0] == (0, 1, Basis.MOMENTUM)


@pytest.mark.parametrize("bad", [
    "X[0]",                # missing strength
    "t=abc X[0]",          # bad float
    "t=1 Y[0]",            # unknown quadrature
    "t=1 X[0] X[0]^2",     # repeated mode
    "t=1",                 # no factors
    "t=1 X[0]^0",          # zero exponent
    "t=nan X[0]",          # strengths that are not finite
    "t=inf X[0]",
    "t=-inf X[0]",
])
def test_parse_spec_rejects(bad):
    with pytest.raises(SpecError):
        parse_spec(bad)


def test_format_parse_round_trip():
    specs = ["t=0.1 X[0] X[1] X[2]^2", "t=-2.5 P[0] X[1]^3", "t=1 X[4]^6"]
    for s in specs:
        tg = parse_spec(s)
        assert parse_spec(format_spec(tg)) == tg
    for s in ["t=0.3 X[0]^4", "t=-2.5 P[0] X[1]^3"]:
        assert format_spec(parse_spec(s)) == s


def test_preset_montecarlo():
    assert preset_spec("montecarlo:3", 0.5) == "t=0.5 X[0]^3 P[1] P[2] P[3]"
    assert preset_spec("montecarlo:1", 1.0).endswith("X[0] P[1] P[2] P[3]")
    with pytest.raises(SpecError):
        preset_spec("montecarlo:zero", 1.0)
    with pytest.raises(SpecError):
        preset_spec("no-such-kernel", 1.0)


def test_preset_strength_is_exact():
    assert parse_spec(preset_spec("cross-kerr", 0.123456789)).strength \
        == 0.123456789


def test_compile_success_exit_zero(capsys):
    rc = main(["compile", "t=0.5 X[0]^4"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "gates (non-Fourier): 29" in out


def test_compile_parse_error_exit(capsys):
    assert main(["compile", "t=oops X[0]"]) == EXIT_PARSE
    assert "parse error" in capsys.readouterr().err


def test_non_finite_strength_exit(capsys):
    assert main(["compile", "t=nan X[0]^4"]) == EXIT_PARSE
    err = capsys.readouterr().err
    assert err.startswith("parse error:") and err.count("\n") == 1


def test_compile_ineligible_exit(capsys):
    assert main(["compile", "t=1 X[0]^5"]) == EXIT_INELIGIBLE
    assert "ineligible" in capsys.readouterr().err


@pytest.mark.parametrize("spec", ["t=1e300 X[0]^4", "t=1e150 X[0]^8",
                                  "t=1e308 X[0]^4"])
def test_strength_that_overflows_the_identities_is_ineligible(spec, tmp_path,
                                                              capsys):
    # the first two overflowed in al ** 3, the last wrote Infinity to --out
    out = tmp_path / "circuit.json"
    assert main(["compile", spec, "--out", str(out)]) == EXIT_INELIGIBLE
    strength = repr(parse_spec(spec).strength)
    err = capsys.readouterr().err
    assert err.startswith(f"ineligible: strength {strength} ")
    assert err.count("\n") == 1
    assert not out.exists()


def test_huge_strength_with_finite_gates_fails_verification(capsys):
    # every gate strength is finite (the largest 4.1e299), the images are not
    assert main(["compile", "t=1e200 X[0]^4"]) == EXIT_VERIFY
    assert "verification failed" in capsys.readouterr().err


def test_gate_of_infinite_strength_fails_verification(capsys, monkeypatch):
    seq, report = compile(parse_spec("t=0.7 X[0]^4"))
    broken = with_strength(seq, 0, math.inf)
    monkeypatch.setattr(cli, "compile", lambda *a, **k: (broken, report))
    assert main(["compile", "t=0.7 X[0]^4"]) == EXIT_VERIFY
    out, err = capsys.readouterr()
    assert "symbolic residual:   inf" in out
    assert err == "verification failed: residual above threshold\n"


def test_json_format_reports_counts(capsys):
    rc = main(["compile", "t=1 X[0] X[1] X[2]", "--format", "json"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["n_gates_nonfourier"] == 17
    assert doc["residual_symbolic"] < 1e-9


def _refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_json_format_is_strict_json_for_a_nan_residual(capsys):
    assert main(["compile", "t=1e200 X[0]^4", "--format", "json"]) == EXIT_VERIFY
    doc = json.loads(capsys.readouterr().out, parse_constant=_refuse_constant)
    assert doc["residual_symbolic"] == "NaN"
    assert math.isnan(float(doc["residual_symbolic"]))
    assert doc["residual_numeric"] is None and doc["phase_offset"] is None


@pytest.mark.parametrize("residual,phase,names", [
    (math.inf, -math.inf, ["Infinity", "Infinity", "-Infinity"]),
    (math.nan, math.nan, ["NaN", "NaN", "NaN"])], ids=["inf", "nan"])
def test_json_format_names_every_non_finite_number(residual, phase, names,
                                                   capsys, monkeypatch):
    monkeypatch.setattr(cli, "verify_symbolic", lambda *a: residual)
    monkeypatch.setattr(cli, "verify_numeric", lambda *a: (residual, phase))
    assert main(["compile", "t=0.3 X[0]^3", "--format", "json",
                 "--numeric-cutoff", "24"]) == EXIT_VERIFY
    doc = json.loads(capsys.readouterr().out, parse_constant=_refuse_constant)
    got = [doc[k] for k in ("residual_symbolic", "residual_numeric",
                            "phase_offset")]
    assert got == names
    # float() reads each name back
    assert [float(v) for v in got][2] == phase or math.isnan(phase)


def test_artifact_round_trip(tmp_path, capsys):
    path = tmp_path / "circuit.json"
    assert main(["compile", "t=0.3 X[0]^4", "--out", str(path)]) == 0
    capsys.readouterr()
    rc = main(["verify", str(path), "t=0.3 X[0]^4"])
    assert rc == 0
    assert "symbolic residual" in capsys.readouterr().out


def test_save_refusing_a_circuit_leaves_the_file_as_it_was(tmp_path):
    path = tmp_path / "circuit.json"
    path.write_text("earlier circuit")
    seq = GateSeq((Gate.x(0, 4, 0.3),), 1)  # an exppoly gate has no record
    with pytest.raises(SchemaViolation):
        cli._save(str(path), seq)
    assert path.read_text() == "earlier circuit"


def test_verify_detects_wrong_target(tmp_path, capsys):
    path = tmp_path / "circuit.json"
    assert main(["compile", "t=0.3 X[0]^4", "--out", str(path)]) == 0
    capsys.readouterr()
    assert main(["verify", str(path), "t=0.4 X[0]^4"]) == EXIT_VERIFY
    assert main(["verify", str(tmp_path / "missing.json"),
                 "t=0.3 X[0]^4"]) == EXIT_PARSE


@pytest.mark.parametrize("circuit,flags", [
    ("t=0 X[0]^2", []),                          # empty circuit
    ("t=1 X[0]^2", ["--numeric-cutoff", "15"]),
], ids=["symbolic", "numeric"])
def test_verify_checks_target_modes_the_circuit_lacks(circuit, flags, tmp_path,
                                                      capsys):
    path = tmp_path / "circuit.json"
    assert main(["compile", circuit, "--out", str(path)]) == 0
    capsys.readouterr()
    assert main(["verify", str(path), "t=1 X[3]^2"] + flags) == EXIT_VERIFY
    out = capsys.readouterr().out
    assert ("numeric error" in out) == bool(flags)


def test_declared_modes_no_gate_touches_are_not_checked(tmp_path, capsys):
    # X[3]² declares modes 0-2 as well; counted, they would push the numeric
    # space past its bound
    assert main(["compile", "t=0.3 X[3]^2", "--numeric-cutoff", "24"]) == 0
    captured = capsys.readouterr()
    assert "numeric error:       0.000e+00" in captured.out
    assert "skipped" not in captured.err
    # a billion declared modes and no gates is still e^{0.3iX₀²} checked on
    # mode 0 alone, and fails at once
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({"version": 1, "modes": 10 ** 9,
                                "ancillas": [], "gates": []}))
    assert main(["verify", str(path), "t=0.3 X[0]^2",
                 "--numeric-cutoff", "24"]) == EXIT_VERIFY
    assert "numeric error" in capsys.readouterr().out


def test_numeric_state_too_large_is_skipped(capsys):
    # 58³ is under MAX_FULL_DIM, but 19³ columns of it would be 21 GB
    assert main(["compile", "t=0.1 X[0] X[1] X[2]", "--numeric-cutoff", "58",
                 "--subspace", "19"]) == 0
    captured = capsys.readouterr()
    assert "numeric check skipped" in captured.err
    assert "numeric error" not in captured.out


def test_verify_rejects_malformed_circuit(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"version": 99, "gates": []}))
    assert main(["verify", str(path), "t=1 X[0]^4"]) == EXIT_PARSE
    assert "cannot load circuit" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["x4", "exppoly"])
def test_verify_rejects_gate_kinds_outside_the_saved_set(kind, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"version": 1, "modes": 1, "ancillas": [],
                                "gates": [{"kind": kind, "modes": [0],
                                           "strength": 0.5, "dagger": False}]}))
    assert main(["verify", str(path), "t=0.5 X[0]^4"]) == EXIT_PARSE
    err = capsys.readouterr().err
    assert err.startswith("cannot load circuit:") and "unknown gate kind" in err


def test_verify_rejects_gate_record_with_too_few_modes(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"version": 1, "modes": 2, "ancillas": [],
                                "gates": [{"kind": "xx", "modes": [0],
                                           "strength": 1.0, "dagger": False}]}))
    assert main(["verify", str(path), "t=1 X[0] X[1]"]) == EXIT_PARSE
    assert "cannot load circuit" in capsys.readouterr().err


_X1 = {"kind": "x1", "modes": [0], "strength": 0.5, "dagger": False}
_F = {"kind": "fourier", "modes": [0], "strength": 0.0, "dagger": False}


@pytest.mark.parametrize("change", [
    {"version": True}, {"version": 1.0}, {"modes": 2.9}, {"modes": True},
    {"ancillas": [2.5]}, {"gates": [{**_F, "dagger": "false"}]},
    {"gates": [{**_F, "dagger": 1}]}, {"gates": [{**_X1, "modes": [0.7]}]},
    {"gates": [{**_X1, "modes": [True]}]},
    {"gates": [{**_X1, "strength": True}]},
    {"gates": [{**_X1, "strength": "1e-1"}]},
], ids=["version-true", "version-float", "modes-float", "modes-true",
        "ancilla-float", "dagger-string", "dagger-int", "gate-mode-float",
        "gate-mode-true", "strength-true", "strength-string"])
def test_verify_rejects_fields_of_the_wrong_type(change, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"version": 1, "modes": 2, "ancillas": [],
                                "gates": [_X1], **change}))
    assert main(["verify", str(path), "t=0.5 X[0]"]) == EXIT_PARSE
    assert "cannot load circuit:" in capsys.readouterr().err


@pytest.mark.parametrize("data", [
    b'{"version": 1, "modes": 1, "ancillas": [], "gates": [], "x": "caf\xe9"}',
    b"[" * 200_000,
], ids=["not-utf8", "nested-too-deep"])
def test_verify_rejects_unreadable_circuit_files(data, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_bytes(data)
    assert main(["verify", str(path), "t=0.5 X[0]"]) == EXIT_PARSE
    assert capsys.readouterr().err.startswith("cannot load circuit:")


def test_compare_prints_ratio(capsys):
    rc = main(["compare", "t=1 X[0]^4", "--epsilon", "1e-3"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "exact compilation:   29" in out
    assert "ratio:" in out


@pytest.mark.parametrize("epsilon", ["0", "-1", "nan", "inf"])
def test_bad_epsilon_exits_before_compile(epsilon, capsys, monkeypatch):
    monkeypatch.setattr(cli, "compile", None)   # any call would raise
    assert main(["compare", "t=1 X[0]^4", "--epsilon", epsilon]) == EXIT_PARSE
    err = capsys.readouterr().err
    assert err.startswith("parse error:") and err.count("\n") == 1


def test_preset_compiles(capsys):
    rc = main(["preset", "pca-rotation", "-t", "0.2"])
    assert rc == 0
    assert "gates (non-Fourier): 17" in capsys.readouterr().out


def test_preset_montecarlo_power_zero_exits_before_compile(capsys, monkeypatch):
    monkeypatch.setattr(cli, "compile", None)   # any call would raise
    assert main(["preset", "montecarlo:0"]) == EXIT_PARSE
    assert "montecarlo power must be positive" in capsys.readouterr().err


def test_nan_residual_fails_verification(capsys, monkeypatch):
    monkeypatch.setattr(cli, "verify_symbolic", lambda *a: float("nan"))
    assert main(["compile", "t=0.3 X[0]^4"]) == EXIT_VERIFY
    assert "verification failed" in capsys.readouterr().err


def test_numeric_check_over_threshold_fails(capsys):
    # honest truncation error at this cutoff exceeds the default tolerance
    rc = main(["compile", "t=0.05 X[0]^4", "--numeric-cutoff", "24"])
    assert rc == EXIT_VERIFY
    assert "verification failed" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [
    ["--numeric-cutoff", "24", "--subspace", "0"],      # empty comparison
    ["--numeric-cutoff", "24", "--subspace", "-1"],
    ["--numeric-cutoff", "24", "--tolerance", "nan"],   # never fails
    ["--numeric-cutoff", "10"],                         # subspace 5 > 10/3
])
@pytest.mark.parametrize("command", ["compile", "verify"])
def test_bad_numeric_flags_exit_before_any_work(command, flags, tmp_path,
                                                capsys, monkeypatch):
    path = tmp_path / "circuit.json"
    assert main(["compile", "t=0.3 X[0]^4", "--no-verify",
                 "--out", str(path)]) == 0
    capsys.readouterr()
    monkeypatch.setattr(cli, "compile", None)   # any call would raise
    monkeypatch.setattr(cli, "verify_symbolic", None)
    head = ["verify", str(path)] if command == "verify" else ["compile"]
    assert main(head + ["t=0.3 X[0]^4"] + flags) == EXIT_PARSE
    err = capsys.readouterr().err
    assert err.startswith("parse error:") and err.count("\n") == 1


@pytest.mark.parametrize("cutoff,message", [
    ("-3", "cutoff -3 is below 3"),
    ("2", "cutoff 2 is below 3"),
    ("3", "subspace must satisfy d <= D/3"),   # subspace 5 > 3/3
])
def test_numeric_cutoff_message_names_what_is_wrong(cutoff, message, capsys):
    assert main(["compile", "t=0.1 X[0]^2", "--numeric-cutoff", cutoff]) \
        == EXIT_PARSE
    err = capsys.readouterr().err
    assert err.startswith("parse error:") and message in err


@pytest.mark.parametrize("argv", [
    ["compile", "t=0.3 X[0]^4"],
    ["preset", "cross-kerr", "-t", "0.5"],
], ids=["compile", "preset"])
def test_out_in_missing_directory_exits_before_compile(argv, tmp_path, capsys,
                                                      monkeypatch):
    monkeypatch.setattr(cli, "compile", None)   # any call would raise
    out = tmp_path / "missing" / "c.json"
    assert main(argv + ["--out", str(out)]) == EXIT_PARSE
    err = capsys.readouterr().err
    assert err.startswith("parse error:") and err.count("\n") == 1
    assert "missing" in err
    assert not out.parent.exists()


def test_unwritable_out_exits_with_one_line(tmp_path, capsys):
    # the directory exists, but the path names a directory, not a file
    assert main(["compile", "t=0.3 X[0]^4", "--out", str(tmp_path)]) == EXIT_PARSE
    err = capsys.readouterr().err
    assert err.startswith("cannot write circuit:") and err.count("\n") == 1


def test_write_error_ends_compile_before_verification(tmp_path, capsys,
                                                       monkeypatch):
    # a check that would fail is never reached: one line, exit 2
    calls = []
    monkeypatch.setattr(cli, "verify_symbolic",
                        lambda *a: calls.append(a) or float("nan"))
    assert main(["compile", "t=0.3 X[0]^4", "--out", str(tmp_path)]) == EXIT_PARSE
    captured = capsys.readouterr()
    assert captured.err.startswith("cannot write circuit:")
    assert captured.err.count("\n") == 1
    assert not calls and captured.out == ""


def test_output_errors_are_not_write_errors(monkeypatch):
    # only writing --out maps to "cannot write circuit"; a broken stdout
    # is not caught
    def broken(*args, **kwargs):
        raise BrokenPipeError("stdout closed")
    monkeypatch.setattr("builtins.print", broken)
    with pytest.raises(BrokenPipeError):
        main(["compile", "t=0.3 X[0]^4", "--no-verify"])


def test_commands_without_out_skip_the_directory_check(tmp_path, monkeypatch,
                                                       capsys):
    gone = tmp_path / "gone"
    gone.mkdir()
    monkeypatch.chdir(gone)
    gone.rmdir()
    assert main(["compile", "t=0.3 X[0]^4"]) == 0
    assert main(["compare", "t=0.3 X[0]^4"]) == 0


def test_commands_call_compile_and_verifiers_through_the_module(tmp_path,
                                                                capsys,
                                                                monkeypatch):
    # a benchmark times these calls and holds them to a time limit by
    # replacing the module attributes; the CLI must look them up per call
    calls = []
    for name in ("compile", "verify_symbolic", "verify_numeric"):
        fn = getattr(cli, name)

        def counted(*a, _fn=fn, _name=name, **kw):
            calls.append(_name)
            return _fn(*a, **kw)

        monkeypatch.setattr(cli, name, counted)
    path = tmp_path / "circuit.json"
    main(["compile", "t=0.3 X[0] X[1]", "--numeric-cutoff", "6",
          "--subspace", "2", "--out", str(path)])
    assert calls == ["compile", "verify_symbolic", "verify_numeric"]
    calls.clear()
    assert main(["preset", "pca-rotation", "-t", "0.2"]) == 0
    assert calls == ["compile", "verify_symbolic"]
    calls.clear()
    assert main(["compare", "t=1 X[0]^4"]) == 0
    assert calls == ["compile"]
    calls.clear()
    main(["verify", str(path), "t=0.3 X[0] X[1]", "--numeric-cutoff", "6",
          "--subspace", "2"])
    assert calls == ["verify_symbolic", "verify_numeric"]
