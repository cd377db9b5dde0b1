"""Print a digest of the circuits the compiler emits, one line per compile.

    PYTHONPATH=src python3 tools/route_digest.py [--out FILE]

Each line covers one (body, strength, parameter split) of BODIES x
STRENGTHS x SPLITS: the route, the non-Fourier, total and pre-optimisation
gate counts, the ancilla modes, the recursion trace (its length and a
sha256 of its entries) and a sha256 over every gate's kind, modes, power
and the exact repr of its strength. Two trees whose digests are equal emit
the same circuits on these targets, gate for gate and bit for bit;
tests/test_route_digest.py holds the expected digest.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from cvexact.cli import parse_spec, preset_spec  # noqa: E402
from cvexact.decompose import compile  # noqa: E402

# the route pins of tests/test_decompose.py, then larger routes
BODIES = (
    "X[0]^3", "X[0] X[1]", "P[0] X[1]", "X[0]^4", "X[0] X[1] X[2]",
    "P[0] P[1] P[2]", "X[0]^2 X[1] X[2]", "P[0] X[1]^2", "P[0] X[1]^3",
    "X[0]^2 P[1] P[2]", "X[0]^2 X[1]^2", "X[0] X[1]^3", "X[0] P[1]^2",
    "P[0]^2 P[1]^2",
    "X[0]^6", "X[0]^8", "X[0]^2 X[1] X[2] X[3]", "montecarlo:3",
    "P[0] X[1]^4", "P[0] X[1]^5", "X[0]^9",
    "X[0]^12", "X[0] X[1] X[2] X[3] X[4] X[5]",
)
# 1e-13 puts the strengths of nested identities below ZERO_STRENGTH, so
# those identities emit nothing
STRENGTHS = (0.3, -1.7, 1e-13)
SPLITS = ("default", "balanced")


def _sha(items) -> str:
    return hashlib.sha256(repr(list(items)).encode()).hexdigest()[:16]


def digest_line(body: str, t: float, split: str) -> str:
    spec = (preset_spec(body, t) if body.startswith("montecarlo:")
            else f"t={t!r} {body}")
    seq, rep = compile(parse_spec(spec), balanced=split == "balanced")
    gates = _sha([(seq.n_target_modes, seq.ancilla_modes)]
                 + [(g.kind, g.modes, g.power, repr(g.strength))
                    for g in seq.gates])
    return (f"{body} | t={t!r} | {split} | {rep.route} | "
            f"nonfourier={rep.n_gates_nonfourier} total={rep.n_gates_total} "
            f"preopt={rep.n_gates_preopt} | ancillas={rep.n_ancillas} | "
            f"trace={len(rep.recursion_trace)}:{_sha(rep.recursion_trace)} | "
            f"gates={gates}")


def digest() -> list[str]:
    return [digest_line(body, t, split)
            for body in BODIES for t in STRENGTHS for split in SPLITS]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", help="write the digest here instead of stdout")
    args = ap.parse_args(argv)
    text = "".join(line + "\n" for line in digest())
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
