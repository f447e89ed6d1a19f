import itertools
import json
import math
from fractions import Fraction

import pytest

from mkpolys.roots import (
    ambient_data,
    build_root_system,
    catalog_entries,
    catalog_json,
    dominance_leq,
    dominant_weights_below,
    is_dominant,
    satake_catalog,
    weyl_group,
    weyl_orbit,
    weyl_sum,
)


def test_rank_one_system():
    rs = build_root_system(1)
    assert sorted(rs.R1) == [(-2,), (2,)]
    assert rs.R2 == []


def test_rank_two_medium_orbit():
    rs = build_root_system(2)
    assert sorted(rs.R2) == [(-2, -2), (-2, 2), (2, -2), (2, 2)]
    assert len(rs.R2) == 4


def test_rank_three_counts_by_enumeration():
    rs = build_root_system(3)
    # independent enumeration of the three orbits
    short = {tuple(s * 2 if j == i else 0 for j in range(3))
             for i in range(3) for s in (1, -1)}
    assert set(rs.R1) == short
    medium = set()
    for i in range(3):
        for j in range(3):
            if i < j:
                for si in (1, -1):
                    for sj in (1, -1):
                        w = [0, 0, 0]
                        w[i], w[j] = 2 * si, 2 * sj
                        medium.add(tuple(w))
    assert set(rs.R2) == medium
    assert len(rs.R1) + len(rs.R2) == 6 + 12


def test_zero_rank_rejected():
    with pytest.raises(ValueError, match="empty rank"):
        build_root_system(0)


def test_every_root_has_its_negative():
    rs = build_root_system(3)
    for orbit in (rs.R1, rs.R2):
        for a in orbit:
            assert tuple(-c for c in a) in orbit


def test_orbit_examples():
    assert weyl_orbit((2, 0), 2) == {(2, 0), (-2, 0), (0, 2), (0, -2)}
    assert weyl_orbit((0, 0, 0), 3) == {(0, 0, 0)}
    assert len(weyl_orbit((2, 2), 2)) == 4


def test_orbit_size_divides_group_order():
    for n in (1, 2, 3):
        order = 2 ** n * math.factorial(n)
        for lam in itertools.product(range(0, 5, 2), repeat=n):
            lam = tuple(sorted(lam, reverse=True))
            assert order % len(weyl_orbit(lam, n)) == 0


def test_orbit_has_unique_dominant_element():
    for n in (1, 2, 3):
        for lam in itertools.product(range(0, 5, 2), repeat=n):
            lam = tuple(sorted(lam, reverse=True))
            orb = weyl_orbit(lam, n)
            doms = [w for w in orb if is_dominant(w)]
            assert doms == [lam]
            assert tuple(sorted(map(abs, next(iter(orb))), reverse=True)) == lam


def _brute_leq(mu, lam):
    """lam - mu in the nonneg span of eps_i - eps_{i+1} and eps_n."""
    n = len(mu)
    delta = [a - b for a, b in zip(lam, mu)]
    run = 0
    for d in delta:
        run += d
        if run < 0 or run % 2:
            return False
    return True


def test_dominance_examples():
    assert dominance_leq((2, 2), (4, 0))
    assert dominance_leq((2, 2), (2, 2))
    assert not dominance_leq((4, 0), (2, 2))


def test_dominance_rank_mismatch():
    with pytest.raises(ValueError, match="rank mismatch"):
        dominance_leq((2,), (2, 0))


def test_dominance_is_a_partial_order():
    for n in (1, 2, 3):
        doms = [tuple(sorted(t, reverse=True))
                for t in itertools.product(range(0, 7, 2), repeat=n)
                if sum(t) <= 6]
        doms = sorted(set(doms))
        for a in doms:
            assert dominance_leq(a, a)
            for b in doms:
                assert dominance_leq(a, b) == _brute_leq(a, b)
                if dominance_leq(a, b) and dominance_leq(b, a):
                    assert a == b
                for c in doms:
                    if dominance_leq(a, b) and dominance_leq(b, c):
                        assert dominance_leq(a, c)


def test_dominant_weights_below():
    assert dominant_weights_below((0, 0)) == [(0, 0)]
    assert dominant_weights_below((2,)) == [(0,), (2,)]
    below = dominant_weights_below((4, 0))
    assert (2, 2) in below and (0, 0) in below and (4, 0) in below
    # ascending in (sum, lex), and complete against a brute scan
    assert below == sorted(below, key=lambda w: (sum(w), w))
    brute = [mu for mu in
             (tuple(sorted(t, reverse=True)) for t in itertools.product(range(0, 6, 2), repeat=2))
             if _brute_leq(mu, (4, 0))]
    assert set(below) == set(brute)


@pytest.mark.parametrize("lam", [(3,), (4, 1), (3, 3)])
def test_dominant_weights_below_rejects_odd_coordinates(lam):
    with pytest.raises(ValueError, match="even"):
        dominant_weights_below(lam)


def test_catalog_recipes():
    e = satake_catalog("AIIIa", 2, 2)
    assert e.recipe(0, Fraction(0)) == (Fraction(1, 2), Fraction(1, 2), 1, 0, 1)
    assert e.recipe(-2, sigma=Fraction(0))[3] == 2
    # l<0 shifts the fourth slot by |l|
    assert e.recipe(-2, sigma=Fraction(1, 2)) == (
        Fraction(1, 2), Fraction(1), Fraction(1), Fraction(3, 2), Fraction(1))
    r = satake_catalog("CI", 2).recipe(1)
    assert r == (1, 0, 0, 1, Fraction(1, 2))
    assert satake_catalog("AI1", 1).recipe(3) == (1, 0, 0, 3, 0)


def test_catalog_open_families():
    for tag in ("DIIIb", "EIII"):
        entry = satake_catalog(tag, 2)
        assert not entry.reduced
        with pytest.raises(ValueError, match="identification open in source"):
            entry.recipe(0)


def test_catalog_unknown_tag():
    with pytest.raises(ValueError, match="unknown family"):
        satake_catalog("XYZ")


def test_catalog_dump():
    rows = json.loads(catalog_json())
    assert len(rows) == 10
    families = {r["family"] for r in rows}
    assert families == {"AIIIa", "AIIIb", "BI", "CI", "DI", "DIIIb",
                        "EIII", "EVII", "AI1", "AIVm"}
    reduced = json.loads(catalog_json(reduced=True))
    assert {r["family"] for r in reduced} == {"AIIIb", "BI", "CI", "DI", "EVII", "AI1"}
    # round trip
    assert catalog_json() == json.dumps(json.loads(catalog_json()), indent=2, sort_keys=True)


def test_non_reduced_flags():
    flags = {e.family: e.reduced for e in catalog_entries()}
    assert not flags["AIIIa"] and not flags["DIIIb"] and not flags["EIII"]


def test_long_orbit_sum_invariant():
    for n in (1, 2, 3):
        rs = build_root_system(n)
        total = [sum(col) for col in zip(*rs.R1p)]
        assert total == [2] * n


def test_ambient_data_errors():
    with pytest.raises(ValueError, match="ambient data not cataloged"):
        ambient_data("CI", 3)


@pytest.mark.parametrize("mu,x,scale", [
    ((1,), (Fraction(3, 2),), 4),
    ((1, 0), (Fraction(3, 2), Fraction(1, 2)), 4),
    ((Fraction(1, 2), Fraction(1, 2), 0), (5, 3, 1), 2),
    ((2, 1, 1), (0, 0, 0), Fraction(1, 3)),
])
def test_weyl_sum_counts_every_signed_permutation_and_is_symmetric(mu, x, scale):
    n = len(mu)
    s = weyl_sum(mu, x, scale)
    assert sum(s.values()) == 2 ** n * math.factorial(n)
    assert s == {-e: c for e, c in s.items()}
    assert all(type(e) is int for e in s)


def test_weyl_sum_refuses_a_non_integral_exponent():
    with pytest.raises(ValueError, match="non-integral"):
        weyl_sum((1, 0), (Fraction(1, 2), 0), 1)


def test_weyl_group_order():
    assert len(weyl_group(2)) == 8
    assert len(weyl_group(3)) == 48
