"""The compiler emits the same circuits as when tests/data/route_digest.txt
was recorded: same route, counts, ancillas and recursion trace, and the
same gates bit for bit (tools/route_digest.py)."""

import importlib.util
from pathlib import Path

import pytest

from test_decompose import ROUTE_PINS

_ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location(
    "route_digest", _ROOT / "tools" / "route_digest.py")
route_digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(route_digest)

EXPECTED = (_ROOT / "tests" / "data" / "route_digest.txt").read_text().splitlines()
# the fields of a digest line after its (body, t, split) key
FIELDS = ("route", "counts", "ancillas", "trace", "gates")


def _rows(lines):
    """{(body, t, split): {field: text}} of digest lines."""
    rows = {}
    for line in lines:
        body, t, split, *rest = line.split(" | ")
        rows[body, t, split] = dict(zip(FIELDS, rest))
    return rows


def _moved(expected, got):
    """One line per row that differs: its key and each differing field,
    recorded -> now; a row on one side only shows None on the other."""
    want, have = _rows(expected), _rows(got)
    out = []
    for key in {**want, **have}:
        a, b = want.get(key, {}), have.get(key, {})
        diff = [f"{f}: {a.get(f)} -> {b.get(f)}"
                for f in FIELDS if a.get(f) != b.get(f)]
        if diff:
            out.append(f"{key}: " + "; ".join(diff))
    return "\n".join(out)


def test_digest_covers_the_route_pins():
    assert {b for b, *_ in ROUTE_PINS} <= set(route_digest.BODIES)
    assert len(EXPECTED) == (len(route_digest.BODIES) * len(route_digest.STRENGTHS)
                             * len(route_digest.SPLITS))


@pytest.mark.parametrize("body", route_digest.BODIES)
def test_circuits_match_the_recorded_digest(body):
    got = [route_digest.digest_line(body, t, split)
           for t in route_digest.STRENGTHS for split in route_digest.SPLITS]
    expected = [line for line in EXPECTED if line.split(" | ")[0] == body]
    assert got == expected, "rows that moved:\n" + _moved(expected, got)
