"""`mkpolys compute --format json` output and the truncated-series
results are pinned byte for byte.

golden_compute.json maps each case's arguments to the SHA-256 of what
`mkpolys compute` printed for them, together with its exit code, before the
integer Laurent kernel replaced the Fraction-tuple one; the EVII bound-4
case, which pins rank-3 output at bound 4, was added later, from the
engine before the operator divided its inputs as one batch.  A change to
the arithmetic that alters any coefficient, its canonical form or its
printed form fails here.

golden_verify.json is what `mkpolys verify all --format json` printed
once the orthogonality, bar, eigenvalue, connection and soundness rows
became the registry's family table times those suites: each row's id,
claim, verdict and shown text, so a change to the registry cannot drop,
rename or reword a row unnoticed.  A change that does so on purpose
regenerates it, and says which rows it renamed or added, with

    PYTHONPATH=src python3 -m mkpolys.cli verify all --format json > tests/golden_verify.json

golden_series.json does the same for the series ring, from digests made
before the integer series kernel replaced the Fraction one: per case, the
SHA-256 of str() of every `build_polynomial_gs` series with its precision,
and of the `verify_orthogonality` rows as JSON, both at M = 40.

    PYTHONPATH=src python3 tests/test_golden.py

prints both tables for the code in the checkout, in the files' format.
"""

import contextlib
import hashlib
import io
import json
import os
from fractions import Fraction

import pytest

from mkpolys import (
    build_family,
    build_polynomial_gs,
    cli,
    satake_catalog,
    verify_orthogonality,
)

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "golden_compute.json")
GOLDEN_SERIES = os.path.join(HERE, "golden_series.json")
GOLDEN_VERIFY = os.path.join(HERE, "golden_verify.json")

CASES = (
    ["--family", "AI1", "--level", "0", "--bound", "8"],
    ["--family", "AIVm", "--m", "2", "--sigma", "1/2", "--bound", "6"],
) + tuple(
    ["--family", fam, "--n", "2", "--level", str(level), "--bound", "4"]
    for fam in ("AIIIb", "CI", "DI") for level in (-1, 0, 1, 2)
) + (
    ["--family", "EVII", "--level", "0", "--bound", "2"],
    ["--family", "EVII", "--level", "0", "--bound", "4"],
)


# (family, n, m, sigma, level, bound) for the series digests
SERIES_CASES = tuple(("AI1", 1, 0, "0", level, 10) for level in (0, 1, 2)) + (
    ("AIVm", 1, 2, "1/2", 1, 8),
    ("AIIIb", 2, 0, "0", 0, 6),
)
SERIES_M = 40


def case_id(args):
    return " ".join(args)


def series_case_id(case):
    return "%s n=%d m=%d sigma=%s l=%d bound %d" % case


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def series(case):
    """Digests of the Gram-oracle series of every weight up to the bound
    and of the orthogonality rows of the operator-exact family."""
    family, n, m, sigma, level, bound = case
    entry = satake_catalog(family, n, m)
    sigma = Fraction(sigma)
    fam = build_family(entry, level, bound, sigma)
    lines = []
    for lam in sorted(fam, key=lambda w: (sum(w), w)):
        gs = build_polynomial_gs(entry, level, lam, SERIES_M, sigma)
        for mu, ser in sorted(gs.items()):
            lines.append("%s %s %d %s" % (list(lam), list(mu), ser.precision, ser))
    report = verify_orthogonality(fam, entry, level, SERIES_M, sigma)
    return {"gs": sha256("\n".join(lines)),
            "orthogonality": sha256(json.dumps(report["pairs"]))}


def run_cli(args):
    """Exit code and stdout of `mkpolys ARGS`."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(args))
    return code, buf.getvalue()


def compute(args):
    """Exit code and SHA-256 of the stdout of `mkpolys compute ARGS --format json`."""
    code, out = run_cli(["compute"] + list(args) + ["--format", "json"])
    return {"exit": code, "sha256": sha256(out)}


def load(path=GOLDEN):
    with open(path) as fh:
        return json.load(fh)


def test_every_case_is_pinned():
    assert sorted(load()) == sorted(case_id(a) for a in CASES)


@pytest.mark.parametrize("args", CASES, ids=case_id)
def test_compute_output_is_byte_identical(args):
    assert compute(args) == load()[case_id(args)]


def test_every_series_case_is_pinned():
    assert sorted(load(GOLDEN_SERIES)) == sorted(series_case_id(c) for c in SERIES_CASES)


@pytest.mark.parametrize("case", SERIES_CASES, ids=series_case_id)
def test_series_results_are_byte_identical(case):
    assert series(case) == load(GOLDEN_SERIES)[series_case_id(case)]


def test_verify_rows_are_byte_identical():
    code, out = run_cli(["verify", "all", "--format", "json"])
    with open(GOLDEN_VERIFY) as fh:
        assert out == fh.read()
    assert code == 0


if __name__ == "__main__":
    print(json.dumps({case_id(a): compute(a) for a in CASES}, indent=2))
    print(json.dumps({series_case_id(c): series(c) for c in SERIES_CASES}, indent=2))
