"""The demo scripts, the callers of the top-level ``hsnet`` names: each runs
to exit 0 and prints the same bytes as before."""

import hashlib
from pathlib import Path

import pytest

from conftest import run_child

DEMOS = Path(__file__).resolve().parent.parent / "demos"

# SHA-256 of each script's stdout, taken before the game kernel read its
# matrices into integers.
STDOUT_SHA256 = {
    "design_tradeoffs.py": "1618ba2c1693a9d850a4a1838c07d66aaa96a17ca9c0f015526b4d697ff4ec42",
    "exhaustive_verification.py": "b391e935b173b349308ddae4d4d25be344db6310fb33326f3c9bf3665a4f50b4",
    "solve_fixed_graphs.py": "7c7028059f25d54591a7099871588f57cf9e01a98928431536bb762eeb341921",
}


def test_every_demo_is_pinned():
    assert sorted(p.name for p in DEMOS.glob("*.py")) == sorted(STDOUT_SHA256)


@pytest.mark.parametrize("script", sorted(STDOUT_SHA256))
def test_demo_output_pinned(script):
    proc = run_child([str(DEMOS / script)], timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == STDOUT_SHA256[script]
