import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

BASE = [sys.executable, "-m", "mkpolys.cli"]
SRC = str(Path(__file__).resolve().parent.parent / "src")


def run(*args):
    return subprocess.run(BASE + list(args), capture_output=True, text=True)


def test_catalog_dump_and_filter():
    out = run("catalog")
    assert out.returncode == 0
    rows = json.loads(out.stdout)
    assert len(rows) == 10
    reduced = json.loads(run("catalog", "--reduced", "true").stdout)
    assert {r["family"] for r in reduced}.isdisjoint({"AIIIa", "DIIIb", "EIII"})
    # round trip through json
    assert json.loads(out.stdout) == rows


def test_compute_deterministic_and_contains_unit_row():
    a = run("compute", "--family", "AI1", "--level", "0", "--bound", "4")
    b = run("compute", "--family", "AI1", "--level", "0", "--bound", "4")
    assert a.returncode == 0
    assert a.stdout == b.stdout
    rows = [json.loads(line) for line in a.stdout.splitlines()]
    first = rows[0]
    assert first["lambda"] == [0]
    assert first["coeffs"] == [{"mu": [0], "c": "1"}]


def test_compute_levels_differ():
    a = run("compute", "--family", "AI1", "--level", "0", "--bound", "4")
    b = run("compute", "--family", "AI1", "--level", "1", "--bound", "4")
    assert a.stdout != b.stdout


def test_compute_lambda_selector_and_csv():
    out = run("compute", "--family", "AI1", "--bound", "4", "--lambda", "2",
              "--format", "csv")
    assert out.returncode == 0
    assert out.stdout.splitlines()[0] == "lambda,mu,coefficient"
    bad = run("compute", "--family", "AI1", "--bound", "4", "--lambda", "100")
    assert bad.returncode == 2


@pytest.mark.parametrize("family", [
    ("--family", "AIIIb", "--n", "2", "--level", "1"),
    ("--family", "AIIIa", "--n", "2", "--m", "2", "--sigma", "1/2", "--level", "1")],
    ids=["AIIIb", "AIIIa"])
def test_compute_lambda_prints_the_line_of_the_full_run(family):
    # --lambda builds only the weights below lambda, with the same output
    full = run("compute", *family, "--bound", "4").stdout.splitlines()
    assert len(full) == 4
    for line in full:
        lam = ",".join(map(str, json.loads(line)["lambda"]))
        out = run("compute", *family, "--bound", "4", "--lambda", lam)
        assert out.returncode == 0 and out.stdout == line + "\n"


def test_compute_open_family_fails_cleanly():
    out = run("compute", "--family", "EIII", "--n", "2")
    assert out.returncode == 1
    assert "open" in out.stderr


def test_compute_out_of_memory_is_one_error_line(monkeypatch, capsys):
    # a build that runs out of memory (CI n=5 under a 1 GB cap does, in
    # building the operator's pieces) exits 1 with one error line, not a
    # traceback
    from mkpolys import cli

    def out_of_memory(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli, "build_polynomial", out_of_memory)
    assert cli.main(["compute", "--family", "CI", "--n", "2", "--bound", "2"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == "error: out of memory\n"


def test_usage_error_is_exit_two():
    assert run("verify", "nonsense").returncode == 2
    assert run().returncode == 2


def test_unknown_suite_is_exit_two_with_every_suite_named(capsys):
    from mkpolys import checks, cli
    assert cli.main(["verify", "nonsense"]) == 2
    err = capsys.readouterr().err
    assert "nonsense" in err and all(s in err for s in checks.SUITES + ("all",))


def test_import_loads_no_dataclasses_and_no_check_registry():
    """`import mkpolys.cli` loads neither dataclasses (with inspect) nor
    the check registry, which only `verify` reads, and the registry loads
    no dataclasses either.  -S keeps what site-packages import out of
    sys.modules."""
    probe = ("import sys\n"
             "import mkpolys.cli\n"
             "print(sorted({'dataclasses', 'inspect', 'mkpolys.checks'} & set(sys.modules)))\n"
             "import mkpolys.checks\n"
             "print('dataclasses' in sys.modules)\n")
    out = subprocess.run([sys.executable, "-S", "-c", probe], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": SRC})
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == ["[]", "False"]


@pytest.mark.parametrize("args,message", [
    (("compute", "--family", "AI1", "--lambda", "x"), "--lambda"),
    (("compute", "--family", "AI1", "--lambda", "5"), "--lambda"),
    (("compute", "--family", "AIVm", "--m", "2", "--sigma", "1/0"), "--sigma"),
    (("compute", "--family", "AI1", "--bound", "-3"), "--bound"),
    (("compute", "--family", "AI1", "--n", "3"), "rank 1"),
    (("verify", "bar", "--precision", "-1"), "--precision"),
    (("compute", "--family", "XYZ"), "--family"),
    (("compute", "--family", "AI1", "--m", "7"), "--m"),
    (("compute", "--family", "CI", "--n", "2", "--sigma", "1/2"), "--sigma"),
    (("compute", "--family", "AIVm"), "AIVm needs aux m >= 2"),
    (("compute", "--family", "BI", "--m", "2"), "BI needs ambient rank >= 3"),
    (("compute", "--family", "CI", "--n", "1"), "CI needs rank >= 2"),
    (("compute", "--family", "AI1", "--lambda", "2,2"), "has 2 coordinates"),
    (("compute", "--family", "AIIIb", "--n", "2", "--lambda", "2,4"), "not dominant"),
    (("compute", "--family", "AI1", "--bound", "4", "--lambda", "6"), "above --bound 4"),
    (("compute", "--family", "AIVm", "--m", "2", "--sigma", "3/7"),
     "--sigma 3/7: parameter exponent not integral"),
    (("compute", "--family", "BI", "--m", "0"), "--m"),
    (("compute", "--family", "DI", "--m", "0"), "--m"),
], ids=["lambda-not-int", "lambda-odd", "sigma-zero-denominator",
        "negative-bound", "rank-mismatch", "negative-precision",
        "unknown-family", "m-without-auxiliary-size", "sigma-on-reduced-family",
        "aux-size-missing", "aux-size-too-small", "rank-too-small",
        "lambda-coordinate-count", "lambda-not-dominant", "lambda-above-bound",
        "sigma-rejected-by-recipe", "aux-size-zero-BI", "aux-size-zero-DI"])
def test_bad_input_is_exit_two_with_a_message(args, message):
    out = run(*args)
    assert out.returncode == 2
    assert out.stdout == ""
    assert message in out.stderr and "Traceback" not in out.stderr


def test_fixed_rank_families_need_no_rank():
    out = run("compute", "--family", "DI", "--bound", "2")
    assert out.returncode == 0
    assert json.loads(out.stdout.splitlines()[-1])["lambda"] == [2, 0]


def test_verify_weight_shift_suite():
    out = run("verify", "weight-shift", "--format", "json")
    assert out.returncode == 0
    checks = json.loads(out.stdout)
    assert checks and all(c["pass"] for c in checks)
    ids = [c["id"] for c in checks]
    assert ids == sorted(ids)


def test_a_raising_case_is_a_fail_row_beside_the_others(monkeypatch, capsys):
    from mkpolys import checks, cli

    catalog = checks.satake_catalog

    def broken(tag, *args):
        if tag == "CI":
            raise ValueError("injected fault")
        return catalog(tag, *args)

    monkeypatch.setattr(checks, "satake_catalog", broken)
    code = cli.main(["verify", "weight-shift", "--format", "json"])
    rows = json.loads(capsys.readouterr().out)
    assert code == 1
    failed = [r for r in rows if not r["pass"]]
    assert [r["id"] for r in failed] == ["weight-shift reduced CI n=2 l=%d" % l
                                         for l in range(4)]
    assert all(r["error"] == "injected fault" for r in failed)
    assert len(rows) - len(failed) == 52 and all("error" not in r for r in rows if r["pass"])
