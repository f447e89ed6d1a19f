"""Acceptance suite: one test per row of `mkpolys verify all`, taken from
the check registry in mkpolys.checks, at series precision 40 (identities
hold exactly or mod v^41; there are no numeric tolerances).
"""

import pytest

from mkpolys.checks import cases

M = 40

CASES = cases()


@pytest.mark.parametrize("check,case", CASES, ids=[case[0] for _, case in CASES])
def test_check(check, case):
    row = check.row(case, M)
    assert row["pass"], row


@pytest.mark.parametrize("tag,n,level,failing", [
    ("AIIIb", 2, 1, ["bar AIIIb n=2 l=1", "orthogonality AIIIb n=2 l=1",
                     "soundness AIIIb n=2 l=1", "spectrum AIIIb n=2 l=1"]),
    ("CI", 2, 1, ["bar CI n=2 l=1", "orthogonality CI n=2 l=1", "soundness CI n=2 l=1",
                  "spectrum CI n=2 l=1"]),
], ids=["AIIIb", "CI"])
def test_a_failing_self_check_fails_exactly_the_rows_reading_its_family(
        monkeypatch, tag, n, level, failing):
    # a wrong off-diagonal operator entry at one level makes the triangular
    # solve wrong, which only the eigen self-check can see
    from mkpolys import checks, mkengine
    from mkpolys.roots import dominant_weights_upto
    from mkpolys.scalars import SC_ONE
    from mkpolys.weights import KLabel

    target = KLabel.from_entry(checks.satake_catalog(tag, n), level)
    real = mkengine.operator_action
    bases = []                  # the basis of each faulty operator built

    def faulty(label, rs, basis):
        matrix = real(label, rs, basis)
        if label == target and rs.n == n:
            bases.append(tuple(basis))
            key = ((0, 0), (2, 0))
            matrix[key] = matrix.get(key, SC_ONE) + SC_ONE
        return matrix

    monkeypatch.setattr(mkengine, "operator_action", faulty)
    def reached(key):
        """Whether the fault reaches the memo's family (tag, n, m, sigma, l)."""
        tag, rank, m, sigma, l = key
        return rank == n and KLabel.from_entry(checks.satake_catalog(tag, rank, m), l, sigma) == target

    # the rows must build under the fault: every family it reaches leaves
    # the memo, and the others are reused
    monkeypatch.setattr(checks, "_FAMILIES",
                        {key: fam for key, fam in checks._FAMILIES.items() if not reached(key)})
    rows = [check.row(case, M) for check, case in CASES]
    failed = {r["id"]: r for r in rows if not r["pass"]}
    assert sorted(failed) == failing
    assert all(r["error"].startswith("eigenfunction check failed") for r in failed.values())
    assert all("error" not in r for r in rows if r["pass"])
    # the failed family is built once, at its table bound, not once per
    # row that reads it
    (bound,) = [f.bound for f in checks.TABLE if (f.tag, f.n) == (tag, n)]
    assert bases == [tuple(dominant_weights_upto(n, bound))]


def test_the_rows_are_the_table_times_the_suites(monkeypatch):
    """No two rows share an id, every table family is read by a row, and
    every one has the weights that the orthogonality and bar rows ask for."""
    from mkpolys import checks

    ids = [case[0] for _, case in CASES]
    assert len(set(ids)) == len(ids)
    for f in checks.TABLE:
        for l in f.levels:
            assert len(checks.family(f.tag, f.n, f.m, f.sigma, l)) >= checks.MIN_WEIGHTS, (f, l)
    # each row stops at the first family it reads, which is recorded
    reads = set()

    def record(*key):
        reads.add(key)
        raise ValueError("read")

    monkeypatch.setattr(checks, "family", record)
    for check, case in CASES:
        check.row(case, M)
    assert reads == {(f.tag, f.n, f.m, f.sigma, l) for f in checks.TABLE for l in f.levels}


def test_a_family_outside_the_table_is_a_fail_row_naming_it():
    from mkpolys import checks

    with pytest.raises(ValueError, match="CI n=2 m=0 sigma=0 l=3 is not a family of the table"):
        checks.family("CI", 2, 0, checks.S0, 3)
    (bar,) = [c for c in checks.CHECKS if c.suite == "bar"]
    row = bar.row(("bar CI n=2 l=3", ("CI", 2, 0, checks.S0, 3)), M)
    assert row["pass"] is False
    assert row["error"] == "CI n=2 m=0 sigma=0 l=3 is not a family of the table"
