"""Golden outputs: sha256 digests of exact CLI output bytes.

These pin the canonical bases and the structure constants byte for byte,
so any refactor of the prolongation or of the bracket computation must
reproduce them exactly.  Regenerating a digest is an intended change of
output and needs an entry in CHANGES.md that says why.
"""

import contextlib
import hashlib
import io
import json
import pathlib

import pytest

from crprolong.cli import main

GOLDEN = {
    "prolong --check-jacobi --structure --json --catalog heisenberg":
        "8463056276262c9bb9ce84621fa3789c05c5ec9b9921fd131e59f9e34d6cc7a6",
    "prolong --check-jacobi --structure --json --catalog codim4":
        "ffb6ed4db06a0a9cbd4aaf5e011841fff684ba0935854548cdf7359701f0f1dd",
    "prolong --check-jacobi --structure --json --catalog codim5":
        "e51810e61da30dbc39b34f86f96eaee2bb7f0aa2d96860ecb917b7355f645be0",
    "report --json --catalog codim5":
        "cf019eb5e31d6092f70e5f38ba3e263541bee30855128fea47bdf030b3cb35a9",
}

REFERENCES = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "references.json"


@pytest.mark.parametrize("argv", sorted(GOLDEN))
def test_golden_digest(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv.split()) == 0
    assert hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest() == GOLDEN[argv]


def test_golden_agrees_with_benchmark_pins():
    """Digests pinned in both places are pins of the same bytes."""
    pinned = json.loads(REFERENCES.read_text(encoding="utf-8"))["digests"]
    shared = GOLDEN.keys() & pinned.keys()
    assert shared
    assert {key: GOLDEN[key] for key in shared} == {key: pinned[key] for key in shared}
