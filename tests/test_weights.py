"""Pochhammer product machinery, checked against a small independent
expander that multiplies factor by factor over (weight, order) pairs."""

import random
from fractions import Fraction

import pytest

from mkpolys.galg import GAElem
from mkpolys.roots import build_root_system, satake_catalog
from mkpolys.scalars import Scalar
from mkpolys.weights import (
    InnerProductEngine,
    KLabel,
    PochProduct,
    PochSymbol,
    atom_gaelem,
    expand,
    half_density,
    koornwinder_weight,
    poch_one,
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

def oracle_expand(symbols, M, wmax):
    """Multiply out (sign, v_exp, weight(int), base, length, mult) symbols
    over a 1-d lattice, tracking dict[(weight, order)] exactly."""
    acc = {(0, 0): Fraction(1)}

    def mul_binom(acc, sign, c, w):
        out = dict(acc)
        for (wt, o), val in acc.items():
            key = (wt + w, o + c)
            if key[1] <= M and abs(key[0]) <= wmax + 4 * len(symbols):
                out[key] = out.get(key, Fraction(0)) - sign * val
        return {k: v for k, v in out.items() if v}

    def div_binom(acc, sign, c, w):
        # multiply by the geometric series of sign*v^c*e^w
        out = {}
        for (wt, o), val in acc.items():
            m = 0
            while o + m * c <= M:
                key = (wt + m * w, o + m * c)
                if abs(key[0]) <= wmax + 4 * len(symbols):
                    out[key] = out.get(key, Fraction(0)) + (sign ** m) * val
                m += 1
        return {k: v for k, v in out.items() if v}

    for sign, vexp, w, base, length, mult in symbols:
        js = range(length) if length is not None else range(0, max(M // base + 1, 1))
        for j in js:
            c = vexp + j * base
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
    per_alpha = [s for s in W.symbols() if s[2] == (2,)]
    numer = [s for s in W.symbols() if s[2] == (4,)]
    assert len(numer) == 1 and numer[0][4] == 1
    assert len(per_alpha) == 4 and all(m == -1 for *_, m in per_alpha)


def test_koornwinder_weight_sign_of_k2_symbol():
    # a zero offset in the second slot puts a negative argument at v^0
    k = KLabel.from_entry(AI1, 0)
    W = koornwinder_weight(k, RS1)
    assert (-1, 0, (2,), 4) in W.factors


def test_klabel_integrality_guard():
    with pytest.raises(ValueError, match="not integral"):
        KLabel.make([Fraction(1, 8), 0, 0, 0, 0], base_exp=4, D=2)


def test_shift_factor_level_zero_is_empty():
    assert shift_factor(AI1, 0, RS1).is_one()
    assert shift_factor(AIV2, 0, RS1).is_one()


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
    assert all(s[2] in ((2,), (4,)) for s in D.symbols())  # positive side only


# --- ratio collapse --------------------------------------------------------

def test_poch_ratio_examples():
    # atoms (sign, v_exp, weight) stand for binomials 1 - sign v^v_exp e^weight
    b = 4
    a_inf = PochProduct(1, [(PochSymbol(1, 2, (2,), b), 1)])
    assert ratio_atoms(a_inf, a_inf) == (GAElem.unit(1), [], [])

    aq_inf = PochProduct(1, [(PochSymbol(1, 2 + b, (2,), b), 1)])
    assert ratio_atoms(a_inf, aq_inf) == (GAElem.unit(1), [(1, 2, (2,))], [])  # (1-a)

    aq2 = PochProduct(1, [(PochSymbol(1, 2 + 2 * b, (2,), b), 1)])
    pre, num, den = ratio_atoms(aq2, a_inf)
    assert pre == GAElem.unit(1) and num == []
    assert den == [(1, 2, (2,)), (1, 2 + b, (2,))]
    assert atom_gaelem(den[0], 1) * atom_gaelem(den[1], 1) == (
        binom(1, (2,), 1, 2) * binom(1, (2,), 1, 2 + b))


def test_poch_ratio_non_collapsing_raises():
    b = 4
    x = PochProduct(1, [(PochSymbol(1, 2, (2,), b), 1)])
    y = PochProduct(1, [(PochSymbol(1, 3, (2,), b), 1)])  # off-residue
    with pytest.raises(ValueError, match="ratio not rational"):
        ratio_atoms(x, y)


# --- expansion -------------------------------------------------------------

def test_expand_trivial_cases():
    one = expand(poch_one(1), 6, ([-2], [2]))
    assert one.coeff((0,)).coeffs[0] == 1
    assert list(one.terms) == [(0,)]
    # single binomial at order zero
    P = PochProduct(1, [(PochSymbol(-1, 0, (2,), 4, 1), 1)])  # 1 + e^w
    se = expand(P, 4, ([-2], [2]))
    assert se.coeff((2,)).coeffs[0] == 1
    assert se.coeff((0,)).coeffs[0] == 1


def test_expand_matches_oracle_on_weight():
    M, wmax = 10, 6
    k = KLabel.from_entry(AIV2, 0)
    W = koornwinder_weight(k, RS1)
    got = expand(W, M, ([-wmax], [wmax]))
    # feed the oracle the irreducible collapsed form (after splitting)
    from mkpolys.weights import _split_rescue
    fin, inf = _split_rescue(W).collapsed()
    syms = [(s.sign, s.v_exp, s.weight[0], s.base_exp, s.length, m) for s, m in fin]
    syms += [(s.sign, s.v_exp, s.weight[0], s.base_exp, None, m) for s, m in inf]
    want = oracle_expand(syms, M, wmax)
    for w in range(-wmax, wmax + 1, 2):
        coeffs = got.coeff((w,)).coeffs
        for o in range(M + 1):
            assert coeffs[o] == want.get((w, o), Fraction(0)), (w, o)


def test_expand_constant_term_order_zero():
    # at order zero only the two valuation-zero binomials act: (1-e)(1-1/e)
    k = KLabel.from_entry(AIV2, 0)
    W = koornwinder_weight(k, RS1)
    ct = expand(W, 6, None).coeff((0,))
    assert ct.coeffs[0] == 2


def test_expand_product_multiplicativity():
    # the product expansion over a window equals the convolution of the
    # factor expansions taken over a window enlarged by the partner's span
    rng = random.Random(13)
    for _ in range(5):
        s1 = PochSymbol(rng.choice((1, -1)), rng.randint(1, 3), (2,), 4, rng.randint(1, 2))
        s2 = PochSymbol(rng.choice((1, -1)), rng.randint(1, 3), (-2,), 4, None)
        P = PochProduct(1, [(s1, 1)])
        Q = PochProduct(1, [(s2, -1)])
        M, inner, outer = 8, 4, 36
        pq = expand(P * Q, M, ([-inner], [inner]))
        p = expand(P, M, ([-outer], [outer]))
        q = expand(Q, M, ([-outer], [outer]))
        for w in range(-inner, inner + 1, 2):
            acc = [Fraction(0)] * (M + 1)
            for w1 in p.terms:
                w2 = (w - w1[0],)
                prod = p.coeff(w1) * q.coeff(w2)
                acc = [a + b for a, b in zip(acc, prod.coeffs)]
            assert acc == pq.coeff((w,)).coeffs


def test_expand_rejects_divergent_denominator():
    P = PochProduct(1, [(PochSymbol(1, 0, (2,), 4), -1)])
    with pytest.raises(ValueError, match="cannot expand"):
        expand(P, 4, ([-4], [4]))


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


def test_serialization():
    import json
    p = shift_factor(AI1, 1, RS1)
    blob = json.loads(p.to_json())
    assert blob["rank"] == 1
    assert all(row["length"] == "inf" for row in blob["symbols"])
