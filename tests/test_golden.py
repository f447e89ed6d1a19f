"""`mkpolys compute --format json` output is pinned byte for byte.

golden_compute.json maps each case's arguments to the SHA-256 of what
`mkpolys compute` printed for them, together with its exit code, before the
integer Laurent kernel replaced the Fraction-tuple one.  A change to the
arithmetic that alters any coefficient, its canonical form or its printed
form fails here.

    PYTHONPATH=src python3 tests/test_golden.py

prints the table for the code in the checkout, in the file's format.
"""

import contextlib
import hashlib
import io
import json
import os

import pytest

from mkpolys import cli

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "golden_compute.json")

CASES = (
    ["--family", "AI1", "--level", "0", "--bound", "8"],
    ["--family", "AIVm", "--m", "2", "--sigma", "1/2", "--bound", "6"],
) + tuple(
    ["--family", fam, "--n", "2", "--level", str(level), "--bound", "4"]
    for fam in ("AIIIb", "CI", "DI") for level in (-1, 0, 1, 2)
) + (
    ["--family", "EVII", "--level", "0", "--bound", "2"],
)


def case_id(args):
    return " ".join(args)


def compute(args):
    """Exit code and SHA-256 of the stdout of `mkpolys compute ARGS --format json`."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["compute"] + list(args) + ["--format", "json"])
    return {"exit": code, "sha256": hashlib.sha256(buf.getvalue().encode()).hexdigest()}


def load():
    with open(GOLDEN) as fh:
        return json.load(fh)


def test_every_case_is_pinned():
    assert sorted(load()) == sorted(case_id(a) for a in CASES)


@pytest.mark.parametrize("args", CASES, ids=case_id)
def test_compute_output_is_byte_identical(args):
    assert compute(args) == load()[case_id(args)]


if __name__ == "__main__":
    print(json.dumps({case_id(a): compute(a) for a in CASES}, indent=2))
