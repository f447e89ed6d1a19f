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
    ("AIIIb", 2, 1, ["bar AIIIb l=1", "orthogonality AIIIb n=2 l=1", "soundness AIIIb l=1"]),
    ("CI", 2, 1, ["eigenvalue identity CI n=2", "soundness CI l=1"]),
], ids=["AIIIb", "CI"])
def test_a_failing_self_check_fails_exactly_the_rows_reading_its_family(
        monkeypatch, tag, n, level, failing):
    # a wrong off-diagonal operator entry at one level makes the triangular
    # solve wrong, which only the eigen self-check can see
    from mkpolys import checks, mkengine
    from mkpolys.scalars import SC_ONE
    from mkpolys.weights import KLabel

    target = KLabel.from_entry(checks.satake_catalog(tag, n), level)
    real = mkengine.operator_action
    bases = []                  # the basis of each faulty operator built

    def faulty(label, rs, basis):
        matrix = real(label, rs, basis)
        if label == target:
            bases.append(tuple(basis))
            key = ((0, 0), (2, 0))
            matrix[key] = matrix.get(key, SC_ONE) + SC_ONE
        return matrix

    monkeypatch.setattr(mkengine, "operator_action", faulty)
    # the rows must build under the fault, on an empty memo of families
    monkeypatch.setattr(checks, "_FAMILIES", {})
    rows = [check.row(case, M) for check, case in CASES]
    failed = {r["id"]: r for r in rows if not r["pass"]}
    assert sorted(failed) == failing
    assert all(r["error"].startswith("eigenfunction check failed") for r in failed.values())
    assert all("error" not in r for r in rows if r["pass"])
    # the failed family is built once per key (bound 6 and bound 4), not
    # once per row that reads it
    assert len(bases) == len(set(bases)) == 2
