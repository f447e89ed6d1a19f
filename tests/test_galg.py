import random

import pytest

from mkpolys.galg import (
    GAElem,
    from_m_basis,
    ga_divexact,
    m_basis,
    orbit_sum,
)
from mkpolys.roots import dominant_weights_upto, weyl_apply, weyl_group, weyl_orbit
from mkpolys.scalars import SC_ONE, Scalar


def mono(rank, w, c=1):
    return GAElem.monomial(rank, w, Scalar.of(c))


def w_image(w, f):
    """The Weyl group element w applied to the weights of f."""
    return GAElem(f.rank, {weyl_apply(w, x): c for x, c in f.terms.items()})


def rand_elem(rng, rank, nterms=4, span=2):
    out = GAElem(rank)
    for _ in range(nterms):
        w = tuple(rng.randint(-span, span) for _ in range(rank))
        c = Scalar.of(rng.randint(-3, 3)) * Scalar.v_pow(rng.randint(-2, 2))
        out = out + GAElem.monomial(rank, w, c)
    return out


def test_group_law_and_unit():
    a = mono(2, (2, 0))
    b = mono(2, (0, 2))
    assert a * b == mono(2, (2, 2))
    f = rand_elem(random.Random(0), 2)
    assert f * GAElem.unit(2) == f


def test_binomial_square():
    e = mono(1, (2,)) + mono(1, (-2,))
    sq = e * e
    assert sq == mono(1, (4,)) + mono(1, (0,), 2) + mono(1, (-4,))


def test_rank_mismatch():
    with pytest.raises(ValueError, match="rank mismatch"):
        mono(1, (2,)) * mono(2, (2, 0))


def test_bar_negates_weights():
    f = mono(2, (2, -2), Scalar.v_pow(3)) + mono(2, (0, 0), 5)
    assert f.bar() == mono(2, (-2, 2), Scalar.v_pow(3)) + mono(2, (0, 0), 5)
    assert f.bar().bar() == f
    m = orbit_sum((2, 2), 2)
    assert m.bar() == m  # -1 lies in the group


def test_bar_multiplicative():
    rng = random.Random(5)
    f, g = rand_elem(rng, 2), rand_elem(rng, 2)
    assert (f * g).bar() == f.bar() * g.bar()


def test_orbit_sum_examples():
    assert orbit_sum((0, 0), 2) == GAElem.unit(2)
    m = orbit_sum((2, 0), 2)
    assert set(m.terms) == weyl_orbit((2, 0), 2)
    assert all(c == SC_ONE for c in m.terms.values())
    assert len(orbit_sum((2, 2), 2).terms) == 4
    with pytest.raises(ValueError):
        orbit_sum((0, 2), 2)


def test_translate():
    # e^0 is fixed; a unit pairing scales by one base step
    f = mono(1, (0,))
    assert f.translate((2,), 4) == f
    g = mono(1, (2,))
    assert g.translate((2,), 4) == mono(1, (2,), Scalar.v_pow(4))
    with pytest.raises(ValueError, match="non-integral"):
        mono(1, (1,)).translate((1,), 1)


def test_translate_multiplicative():
    rng = random.Random(9)
    for _ in range(10):
        f, g = rand_elem(rng, 2, span=1), rand_elem(rng, 2, span=1)
        mu = (2, 0)
        lhs = (f * g).translate(mu, 4)
        rhs = f.translate(mu, 4) * g.translate(mu, 4)
        assert lhs == rhs


def test_constant_term():
    assert mono(2, (2, 0)).coeff((0, 0)) == Scalar.of(0)
    f = mono(2, (0, 0), 5) + mono(2, (2, 0))
    assert f.coeff((0, 0)) == Scalar.of(5)


def test_constant_term_weyl_invariant():
    rng = random.Random(2)
    for _ in range(5):
        f = rand_elem(rng, 2)
        ct = f.coeff((0, 0))
        for w in weyl_group(2):
            assert w_image(w, f).coeff((0, 0)) == ct


def test_ct_pairing_symmetry():
    rng = random.Random(4)
    f, g = rand_elem(rng, 2), rand_elem(rng, 2)
    assert (f * g.bar()).coeff((0, 0)) == (g * f.bar()).coeff((0, 0))


def test_orbit_sum_pairing_counts_orbit():
    for lam in ((2, 0), (2, 2), (4, 2)):
        m = orbit_sum(lam, 2)
        assert (m * m.bar()).coeff((0, 0)) == Scalar.of(len(m.terms))


def test_m_basis_round_trip():
    rng = random.Random(8)
    coeffs = {(4, 0): Scalar.v_pow(2), (2, 2): Scalar.of(-3), (0, 0): SC_ONE}
    f = from_m_basis(coeffs, 2)
    assert m_basis(f) == coeffs
    # random invariant element: noise summed over the Weyl group
    noise = rand_elem(rng, 2)
    g = GAElem(2)
    for w in weyl_group(2):
        g = g + w_image(w, noise)
    assert from_m_basis(m_basis(g), 2) == g


def test_m_basis_rejects_non_invariant():
    with pytest.raises(ValueError, match="not Weyl invariant"):
        m_basis(mono(2, (2, 0)))


def _broken_orbits(n):
    """Two non-invariant elements of rank n: a sum of two orbit sums with
    one orbit element missing, and the same sum with every element present
    but one coefficient changed; each at a dominant and at another weight."""
    mus = dominant_weights_upto(n, 4)[-2:]
    f = orbit_sum(mus[0], n) + orbit_sum(mus[1], n).scale(Scalar.v_pow(2))
    for w in (mus[1], min(f.terms)):
        missing, unequal = GAElem(n, f.terms), GAElem(n, f.terms)
        del missing.terms[w]
        unequal.terms[w] = unequal.terms[w] * Scalar.of(2)
        yield missing
        yield unequal


@pytest.mark.parametrize("n", [1, 2, 3], ids=["rank 1", "rank 2", "rank 3"])
def test_m_basis_rejects_every_broken_orbit(n):
    broken = list(_broken_orbits(n))
    assert len(broken) == 4
    for bad in broken:
        with pytest.raises(ValueError, match="not Weyl invariant"):
            m_basis(bad)
    mus = dominant_weights_upto(n, 4)[-2:]
    assert m_basis(orbit_sum(mus[0], n) + orbit_sum(mus[1], n).scale(Scalar.v_pow(2))) == {
        mus[0]: SC_ONE, mus[1]: Scalar.v_pow(2)}


def int_elem(rank, terms):
    """A group-algebra element with int coefficients (v evaluated)."""
    out = GAElem(rank)
    out.terms = {w: c for w, c in terms.items() if c}
    return out


def atom_elem(rank, atom, B):
    """The binomial 1 - s*v^c*e^w of atom (s, c, w), with v = 2^B."""
    s, c, w = atom
    return int_elem(rank, {(0,) * rank: 1, w: -s << (c * B)})


def test_divexact():
    # a product of atoms, divided one atom at a time in either order
    f = int_elem(1, {(2,): 1, (0,): 3})
    g, h = (1, 2, (-2,)), (-1, 0, (4,))
    for B in (8, 16, 40):
        prod = f * atom_elem(1, g, B) * atom_elem(1, h, B)
        assert ga_divexact(ga_divexact(prod, [g], B), [h], B) == f
        assert ga_divexact(ga_divexact(prod, [h], B), [g], B) == f
        # 1 + 2e^2 is no multiple of 1 + e^2
        with pytest.raises(ValueError, match="not divisible"):
            ga_divexact(int_elem(1, {(0,): 1, (2,): 2}), [(-1, 0, (2,))], B)
        # a line holds the atoms of e^w and e^-w only
        with pytest.raises(ValueError, match="one line"):
            ga_divexact(prod, [g, h], B)
        k = (1, 1, (2,))
        assert ga_divexact(prod * atom_elem(1, k, B), [g, k], B) == f * atom_elem(1, h, B)


def test_divexact_rank_two_round_trip():
    rng = random.Random(12)
    for B in (8, 24):
        for _ in range(5):
            f = int_elem(2, {(rng.randint(-2, 2), rng.randint(-2, 2)): rng.randint(-99, 99)
                             for _ in range(4)})
            atoms = [(rng.choice((-1, 1)), rng.randint(0, 2),
                      (rng.choice((-2, 0, 2)), rng.choice((-2, 2)))) for _ in range(3)]
            prod = f
            for a in atoms:
                prod = prod * atom_elem(2, a, B)
            for a in atoms:
                prod = ga_divexact(prod, [a], B)
            assert prod == f


def test_divexact_rank_two_non_divisible_stops_at_once():
    # 1 / (1 - v e^(0,2)) is an infinite series: the one chain ends with a
    # nonzero value
    g = (1, 1, (0, 2))
    for B in (8, 16):
        with pytest.raises(ValueError, match="not divisible"):
            ga_divexact(int_elem(2, {(0, 0): 1}), [g], B)
        # a remainder that only shows up at the end of a longer chain
        h = int_elem(2, {(0, 0): 1, (2, 2): 3}) * atom_elem(2, g, B) + int_elem(2, {(0, 0): 1})
        with pytest.raises(ValueError, match="not divisible"):
            ga_divexact(h, [g], B)
