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


def test_digest_covers_the_route_pins():
    assert {b for b, *_ in ROUTE_PINS} <= set(route_digest.BODIES)
    assert len(EXPECTED) == (len(route_digest.BODIES) * len(route_digest.STRENGTHS)
                             * len(route_digest.SPLITS))


@pytest.mark.parametrize("body", route_digest.BODIES)
def test_circuits_match_the_recorded_digest(body):
    got = [route_digest.digest_line(body, t, split)
           for t in route_digest.STRENGTHS for split in route_digest.SPLITS]
    assert got == [line for line in EXPECTED if line.split(" | ")[0] == body]
