"""Pochhammer product machinery, checked against a small independent
expander that multiplies factor by factor over (weight, order) pairs."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mkpolys.galg import GAElem
from mkpolys.roots import build_root_system, satake_catalog
from mkpolys.scalars import Scalar, TruncSeries
from mkpolys.weights import (
    InnerProductEngine,
    KLabel,
    PochProduct,
    expand,
    half_density,
    koornwinder_weight,
    poch_to_gaelem,
    ratio_atoms,
    shift_factor,
    shifted_weight,
)

AI1 = satake_catalog("AI1", 1)
AIV2 = satake_catalog("AIVm", 1, 2)
RS1 = build_root_system(1)


def binom(rank, w, sign, vexp):
    """1 - sign * v^vexp * e^w"""
    return GAElem.unit(rank) + GAElem.monomial(rank, w, Scalar.monomial(-sign, vexp))


# --- independent expansion oracle -----------------------------------------

def oracle_expand(symbols, M, rank, base):
    """Multiply out (sign, v_exp, weight, length, mult) symbols in base
    v^base (length None for infinity) from 1, factor by factor over
    {(weight, order): Fraction}, exactly and over the whole support: every
    factor has nonnegative valuation, so dropping the orders past M is the
    only truncation."""
    acc = {((0,) * rank, 0): Fraction(1)}

    def mul_binom(acc, sign, c, w):
        out = dict(acc)
        for (wt, o), val in acc.items():
            if o + c <= M:
                key = (tuple(a + b for a, b in zip(wt, w)), o + c)
                out[key] = out.get(key, Fraction(0)) - sign * val
        return {k: v for k, v in out.items() if v}

    def div_binom(acc, sign, c, w):
        # multiply by the geometric series of sign*v^c*e^w
        out = {}
        for (wt, o), val in acc.items():
            for m in range((M - o) // c + 1):
                key = (tuple(a + m * b for a, b in zip(wt, w)), o + m * c)
                out[key] = out.get(key, Fraction(0)) + (sign ** m) * val
        return {k: v for k, v in out.items() if v}

    for sign, vexp, w, length, mult in symbols:
        stop = vexp + length * base if length is not None else M + 1
        for c in range(vexp, stop, base):
            for _ in range(abs(mult)):
                if mult > 0:
                    acc = mul_binom(acc, sign, c, w)
                else:
                    assert c > 0
                    acc = div_binom(acc, sign, c, w)
    return acc


# --- structure -------------------------------------------------------------

def test_koornwinder_weight_structure():
    k = KLabel.from_entry(AI1, 0)
    W = koornwinder_weight(k, RS1)
    per_alpha = [m for (_, _, w), m in W.factors.items() if w == (2,)]
    numer = [m for (_, _, w), m in W.factors.items() if w == (4,)]
    assert numer == [1]
    assert per_alpha == [-1] * 4


def test_koornwinder_weight_sign_of_k2_symbol():
    # a zero offset in the second slot puts a negative argument at v^0
    k = KLabel.from_entry(AI1, 0)
    W = koornwinder_weight(k, RS1)
    assert W.base == 4 and (-1, 0, (2,)) in W.factors


def test_klabel_integrality_guard():
    with pytest.raises(ValueError, match="not integral"):
        KLabel.make([Fraction(1, 8), 0, 0, 0, 0], base_exp=4)


def test_shift_factor_level_zero_is_empty():
    assert shift_factor(AI1, 0, RS1) == PochProduct(1, AI1.base_exp())
    assert shift_factor(AIV2, 0, RS1) == PochProduct(1, AIV2.base_exp())


def test_shift_factor_reduced_rank_one_l2():
    p = poch_to_gaelem(shift_factor(AI1, 2, RS1))
    expect = (binom(1, (2,), -1, 2) * binom(1, (2,), -1, 6)
              * binom(1, (-2,), -1, 2) * binom(1, (-2,), -1, 6))
    assert p == expect  # (1+qe)(1+q^3 e) on both signs, q = v^2


def test_shift_factor_aiiia_l1():
    p = poch_to_gaelem(shift_factor(AIV2, 1, RS1, sigma=Fraction(0)))
    expect = binom(1, (2,), -1, 2) * binom(1, (-2,), -1, 2)
    assert p == expect  # (1+qe^a) over both long roots
    pm = poch_to_gaelem(shift_factor(AIV2, -1, RS1, sigma=Fraction(1, 2)))
    expect_m = binom(1, (2,), -1, 0) * binom(1, (-2,), -1, 0)
    assert pm == expect_m  # sigma flips sign for l < 0: -q^{-2s+1} = -q^0


def test_shifted_weight_identities_are_exact():
    k0 = KLabel.from_entry(AI1, 0)
    for l in (0, 1, 2, 3):
        assert shifted_weight(k0, AI1, l, RS1) == koornwinder_weight(
            KLabel.from_entry(AI1, l), RS1)
    ka = KLabel.from_entry(AIV2, 0, Fraction(1, 2))
    for l in (-2, -1, 1, 2):
        assert shifted_weight(ka, AIV2, l, RS1, Fraction(1, 2)) == koornwinder_weight(
            KLabel.from_entry(AIV2, l, Fraction(1, 2)), RS1)


def test_half_density_squares_to_weight():
    for entry, sig in ((AI1, 0), (AIV2, 0), (satake_catalog("AIIIb", 2), 0)):
        rs = build_root_system(entry.n)
        k = KLabel.from_entry(entry, 0, Fraction(sig))
        D = half_density(k, rs)
        assert D * D.bar() == koornwinder_weight(k, rs)


def test_half_density_structure_rank_one():
    k = KLabel.from_entry(AI1, 0)
    D = half_density(k, RS1)
    assert all(w in ((2,), (4,)) for _, _, w in D.factors)  # positive side only


# --- ratio collapse --------------------------------------------------------

def test_poch_ratio_examples():
    # atoms (sign, v_exp, weight) stand for binomials 1 - sign v^v_exp e^weight
    b = 4
    a_inf = PochProduct(1, b, [((1, 2, (2,), None), 1)])
    assert ratio_atoms(a_inf, a_inf) == ([], [])

    aq_inf = PochProduct(1, b, [((1, 2 + b, (2,), None), 1)])
    assert ratio_atoms(a_inf, aq_inf) == ([(1, 2, (2,))], [])  # (1-a)

    aq2 = PochProduct(1, b, [((1, 2 + 2 * b, (2,), None), 1)])
    assert ratio_atoms(aq2, a_inf) == ([], [(1, 2, (2,)), (1, 2 + b, (2,))])


def test_poch_ratio_non_collapsing_raises():
    b = 4
    x = PochProduct(1, b, [((1, 2, (2,), None), 1)])
    y = PochProduct(1, b, [((1, 3, (2,), None), 1)])  # off-residue
    with pytest.raises(ValueError, match="ratio not rational"):
        ratio_atoms(x, y)


# --- expansion -------------------------------------------------------------

def test_expand_trivial_cases():
    assert expand(PochProduct(1, 4), 6, ([-2], [2])) == {(0,): [1, 0, 0, 0, 0, 0, 0]}
    # single binomial at order zero
    P = PochProduct(1, 4, [((-1, 0, (2,), 1), 1)])  # 1 + e^w
    assert expand(P, 4, ([-2], [2])) == {(0,): [1, 0, 0, 0, 0], (2,): [1, 0, 0, 0, 0]}


def test_expand_matches_oracle_on_weight():
    M, wmax = 10, 6
    k = KLabel.from_entry(AIV2, 0)
    W = koornwinder_weight(k, RS1)
    got = expand(W, M, ([-wmax], [wmax]))
    # feed the oracle the irreducible collapsed form (after splitting)
    from mkpolys.weights import _split_rescue
    num, den, tails = _split_rescue(W).collapsed()
    syms = [(s, c, w, 1, 1) for s, c, w in num] + [(s, c, w, 1, -1) for s, c, w in den]
    syms += [(s, c, w, None, m) for (s, c, w), m in tails]
    want = oracle_expand(syms, M, 1, W.base)
    for w in range(-wmax, wmax + 1, 2):
        coeffs = got.get((w,), [0] * (M + 1))
        for o in range(M + 1):
            assert coeffs[o] == want.get(((w,), o), Fraction(0)), (w, o)


directions = st.tuples(st.integers(-2, 2), st.integers(-2, 2)).filter(any)


@st.composite
def rank_two_products(draw):
    """(symbols, base, M, window): finite and infinite numerator and
    denominator symbols under one base, along nonzero directions whose
    first coordinate may be zero or negative, and a window that may cut
    the chains."""
    base = draw(st.integers(1, 3))
    symbols = []
    for _ in range(draw(st.integers(1, 4))):
        mult = draw(st.sampled_from((1, 2, -1, -2)))
        symbols.append((draw(st.sampled_from((1, -1))),
                        draw(st.integers(0 if mult > 0 else 1, 3)), draw(directions),
                        draw(st.one_of(st.none(), st.integers(1, 3))), mult))
    lo = [draw(st.integers(-4, 2)) for _ in range(2)]
    hi = [a + draw(st.integers(0, 4)) for a in lo]
    return symbols, base, draw(st.integers(0, 6)), (lo, hi)


def rank_two_product(symbols, base):
    return PochProduct(2, base, [((s, c, w, L), m) for s, c, w, L, m in symbols])


@settings(max_examples=60, deadline=None)
@given(rank_two_products())
def test_a_product_is_rebuilt_from_its_collapsed_form(case):
    symbols, base, _, _ = case
    P = rank_two_product(symbols, base)
    num, den, tails = P.collapsed()
    rebuilt = PochProduct(2, base, [((s, c, w, 1), 1) for s, c, w in num]
                          + [((s, c, w, 1), -1) for s, c, w in den]
                          + [((s, c, w, None), m) for (s, c, w), m in tails])
    assert rebuilt == P


@settings(max_examples=20, deadline=None)
@given(rank_two_products())
def test_a_length_zero_symbol_is_the_empty_product(case):
    symbols, base, _, _ = case
    empty = rank_two_product([(s, c, w, 0, m) for s, c, w, _, m in symbols], base)
    assert empty == PochProduct(2, base) and not empty.factors


@settings(max_examples=20, deadline=None)
@given(rank_two_products())
def test_products_under_two_bases_or_ranks_do_not_multiply(case):
    symbols, base, _, _ = case
    P = rank_two_product(symbols, base)
    for other in (rank_two_product(symbols, base % 3 + 1), PochProduct(1, base)):
        with pytest.raises(ValueError, match="rank or base mismatch"):
            P * other


# splitting the (4,0) symbol adds to the (2,0) one, which itself splits
# over the tail at (1,0); the product must stay what it was
@example(([(1, 0, (4, 0), None, 1), (1, 0, (2, 0), None, 1),
           (1, 1, (2, 0), None, -1), (1, 1, (1, 0), None, -1)], 4, 6, ([-4, -2], [4, 2])))
@settings(max_examples=60, deadline=None)
@given(rank_two_products())
def test_expand_matches_oracle_at_rank_two(case):
    symbols, base, M, (lo, hi) = case
    got = expand(rank_two_product(symbols, base), M, (lo, hi))
    want = oracle_expand(symbols, M, 2, base)
    assert all(lo[i] <= wt[i] <= hi[i] for wt in got for i in (0, 1))
    for wt in itertools.product(range(lo[0], hi[0] + 1), range(lo[1], hi[1] + 1)):
        assert got.get(wt, [0] * (M + 1)) == [want.get((wt, o), 0) for o in range(M + 1)], wt


def test_expand_constant_term_order_zero():
    # at order zero only the two valuation-zero binomials act: (1-e)(1-1/e)
    k = KLabel.from_entry(AIV2, 0)
    W = koornwinder_weight(k, RS1)
    assert expand(W, 6, None)[(0,)][0] == 2


def test_expand_product_multiplicativity():
    # the product expansion over a window equals the convolution of the
    # factor expansions taken over a window enlarged by the partner's span
    rng = random.Random(13)
    for _ in range(5):
        s1 = (rng.choice((1, -1)), rng.randint(1, 3), (2,), rng.randint(1, 2))
        s2 = (rng.choice((1, -1)), rng.randint(1, 3), (-2,), None)
        P = PochProduct(1, 4, [(s1, 1)])
        Q = PochProduct(1, 4, [(s2, -1)])
        M, inner, outer = 8, 4, 36
        zero = [0] * (M + 1)
        pq = expand(P * Q, M, ([-inner], [inner]))
        p = expand(P, M, ([-outer], [outer]))
        q = expand(Q, M, ([-outer], [outer]))
        for w in range(-inner, inner + 1, 2):
            acc = [Fraction(0)] * (M + 1)
            for w1, row in p.items():
                prod = TruncSeries(row, M) * TruncSeries(q.get((w - w1[0],), zero), M)
                acc = [a + b for a, b in zip(acc, prod.coeffs)]
            assert acc == pq.get((w,), zero)


def test_expand_numerator_of_negative_valuation():
    # 1 - v^-2 e^2 has a pole at v = 0
    atom = [((1, -2, (2,), 1), 1)]
    with pytest.raises(ValueError, match="pole at origin"):
        expand(PochProduct(1, 4, atom), 4, ([-2], [2]))


def test_expand_rejects_a_negative_precision():
    with pytest.raises(ValueError, match="negative precision"):
        expand(PochProduct(1, 4), -1)
    assert expand(PochProduct(1, 4), 0) == {(0,): [1]}


def test_expand_rejects_divergent_denominator():
    P = PochProduct(1, 4, [((1, 0, (2,), None), -1)])
    with pytest.raises(ValueError, match="cannot expand"):
        expand(P, 4, ([-4], [4]))


@pytest.mark.parametrize("mult,length", [(1, 1), (-1, 2), (-1, None)])
def test_expand_rejects_a_symbol_of_weight_zero(mult, length):
    # a symbol (v e^0; v^4)_L is a scalar factor, not an atom of the expansion
    P = PochProduct(2, 4, [((1, 1, (0, 0), length), mult), ((1, 0, (2, 0), 1), 1)])
    with pytest.raises(ValueError, match="cannot expand: a symbol of weight zero"):
        expand(P, 4, ([-2, -2], [2, 2]))


def test_poch_to_gaelem_rejects_infinite():
    k = KLabel.from_entry(AIV2, 0)  # half-integer label stays infinite
    with pytest.raises(ValueError, match="not a finite Laurent"):
        poch_to_gaelem(koornwinder_weight(k, RS1))


# --- inner products ---------------------------------------------------------

def test_level_one_pairing_of_units():
    from mkpolys.mkengine import gram_matrix
    from mkpolys.scalars import TruncSeries
    unit = ((0,), (0,))
    G0 = gram_matrix(AI1, 0, [(0,)], 12)
    G1 = gram_matrix(AI1, 1, [(0,)], 12)
    # exact ratio ct(W_1)/ct(W_0) = 1 - v^2 + v^4
    assert G1[unit] == TruncSeries([1, 0, -1, 0, 1], 12) * G0[unit]
    assert not G0[unit].is_zero()


def test_inner_product_symmetry():
    from mkpolys.galg import orbit_sum
    k = KLabel.from_entry(AIV2, 0)
    eng = InnerProductEngine(koornwinder_weight(k, RS1), 20, ([-6], [6]))
    f, g = orbit_sum((2,), 1), orbit_sum((4,), 1)
    assert eng.ct_pair(f, g) == eng.ct_pair(g, f)
    assert not eng.ct_pair(f, g).is_zero()
