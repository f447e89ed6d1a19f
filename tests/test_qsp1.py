from fractions import Fraction

import pytest

from mkpolys import checks, qsp1
from mkpolys.checks import CHECKS
from mkpolys.galg import GAElem
from mkpolys.qsp1 import (
    ai1_b_matrix,
    aiiia_parameter,
    aiv_blocks,
    build_rank1,
    chain_res,
    fundamental_res,
    mat_add,
    mat_mul,
    mat_scale,
    matrix_coeff_res,
    q_int,
    q_pow,
    solve_spherical,
    transpose,
)
from mkpolys.roots import build_root_system, satake_catalog
from mkpolys.scalars import SC_ONE, Scalar
from mkpolys.weights import poch_to_gaelem, shift_factor

RS1 = build_root_system(1)
q = lambda k: q_pow(k)


def col(M, j):
    return [M[i][j] for i in range(len(M))]


def test_generator_table_two_dim():
    m = build_rank1("AI1")
    c, s = Scalar.of(Fraction(2, 7)), Scalar.of(3)
    B = ai1_b_matrix(m, c, s)
    assert col(B, 0) == [s * q(-1), SC_ONE]            # B w1 = w2 + s/q w1
    assert col(B, 1) == [c * q(1), s * q(1)]           # B w2 = cq w1 + sq w2
    rB = transpose(ai1_b_matrix(m, c, s))
    assert col(rB, 0) == [s * q(-1), c * q(1)]         # cq w2 + s/q w1
    assert col(rB, 1) == [SC_ONE, s * q(1)]            # w1 + sq w2


def test_canonical_parameter_swaps_basis_vectors():
    m = build_rank1("AI1")
    B = ai1_b_matrix(m, q(-1), Scalar.of(0))
    assert col(B, 0) == [Scalar.of(0), SC_ONE]
    assert col(B, 1) == [SC_ONE, Scalar.of(0)]


def test_aiv_generator_case_split():
    for n in (2, 3):
        m = build_rank1("AIV", n)
        T1 = m.ops["T1"]
        Tn = m.ops["Tn"]
        sign = SC_ONE if n % 2 == 0 else -SC_ONE
        coef = sign * q(-n + 2)
        for j in range(n + 1):
            expect1 = [Scalar.of(0)] * (n + 1)
            if j == n:                      # w_{n+1} -> w_2
                expect1[1] = SC_ONE
            assert col(T1, j) == expect1
            expectn = [Scalar.of(0)] * (n + 1)
            if j == n - 1:                  # w_n -> (-1)^n q^{2-n} w_1
                expectn[0] = coef
            assert col(Tn, j) == expectn


def test_transposed_generators_match_their_formulas():
    # the left vector solves the transposes of the generator constraints;
    # the transposed generators written out, as a reference
    o = build_rank1("AI1").ops
    c, s = Scalar.of(Fraction(2, 7)), Scalar.of(3)
    rho = mat_add(mat_add(o["E1"], mat_scale(mat_mul(o["K1inv"], o["F1"]), c)),
                  mat_scale(o["K1inv"], s))
    assert transpose(ai1_b_matrix(build_rank1("AI1"), c, s)) == rho
    d1, dn = Scalar.of(Fraction(3, 2)), q(2) * Scalar.of(5)
    for n in (2, 3, 4):
        m = build_rank1("AIV", n)
        o = m.ops
        rho1 = mat_add(o["E1"], mat_scale(mat_mul(o["K1inv"], transpose(o["T1"])), d1))
        rhon = mat_add(o["E%d" % n],
                       mat_scale(mat_mul(o["K%dinv" % n], transpose(o["Tn"])), dn))
        B1, Bn = aiv_blocks(m, d1, dn)[:2]
        assert transpose(B1) == rho1 and transpose(Bn) == rhon
        for i in range(1, n + 1):
            assert o["F%d" % i] == transpose(o["E%d" % i])


def test_build_rank1_rejects_zero_parameter():
    with pytest.raises(ValueError, match="nonzero"):
        build_rank1("AIV", 2, (Scalar.of(0), SC_ONE))


def test_two_dim_spherical_vectors():
    m = build_rank1("AI1")
    p0 = solve_spherical(m, 0)
    assert p0.right_vector == [SC_ONE, SC_ONE]        # w1 + w2
    assert p0.left_vector == [q(-1), SC_ONE]          # proportional to w1 + q w2
    p1 = solve_spherical(m, 1)
    assert p1.right_vector == [q(-1), SC_ONE]
    p2 = solve_spherical(m, 2)
    assert p2.left_vector == [q(-3), SC_ONE]
    assert p1.character_data["t"] == q_int(1)


def test_vector_module_spherical_vectors():
    # both solved vectors sit on the extreme basis vectors; the generator
    # actions force this even though the display in the source swaps one
    # index (see the decisions ledger)
    for n in (2, 3, 4):
        c1, cn = Scalar.of(Fraction(3, 2)), q(2) * Scalar.of(5)
        m = build_rank1("AIV", n, (c1, cn))
        for l in (0, 1, 2):
            p = solve_spherical(m, l)
            v, f = p.right_vector, p.left_vector
            assert v[0] == c1 * q(-l) and v[-1] == -SC_ONE
            assert all(not v[j] for j in range(1, n))
            sign = SC_ONE if n % 2 == 0 else -SC_ONE
            assert f[0] == SC_ONE and f[-1] == -sign * q(l + 1) * cn
            assert all(not f[j] for j in range(1, n))


def test_single_level_restrictions():
    m = build_rank1("AI1")
    for l in (0, 1, 2):
        r = matrix_coeff_res(solve_spherical(m, l), m)
        expect = GAElem.monomial(1, (1,)) + GAElem.monomial(1, (-1,), q(2 * l + 1))
        assert r == expect


def test_aiv_single_level_matches_binomial():
    n = 2
    sigma = Fraction(1, 2)
    m = build_rank1("AIV", n, (SC_ONE, aiiia_parameter(sigma, n)))
    r = matrix_coeff_res(solve_spherical(m, 1), m)
    coef = aiiia_parameter(sigma, n) * q(3)   # (-1)^n c1^{-1} c_n q^{2l+1}
    expect = GAElem.monomial(1, (1,)) + GAElem.monomial(1, (-1,), coef)
    assert r == expect


def test_chain_equals_closed_form():
    m = build_rank1("AI1")
    for l in range(5):
        assert chain_res(m, l) == fundamental_res("AI1", 1, l)
    n = 3
    mod = build_rank1("AIV", n, (SC_ONE, aiiia_parameter(Fraction(1, 2), n)))
    for l in (-2, -1, 0, 1, 2):
        assert chain_res(mod, l) == fundamental_res("AIV", n, l, Fraction(1, 2))


def test_level_product_squares_to_shift_factor():
    entry = satake_catalog("AI1", 1)
    m = build_rank1("AI1")
    for l in (1, 3):
        f = chain_res(m, l)
        assert f * f.bar() == poch_to_gaelem(shift_factor(entry, l, RS1))
    entry2 = satake_catalog("AIVm", 1, 2)
    mod = build_rank1("AIV", 2, (SC_ONE, aiiia_parameter(Fraction(0), 2)))
    for l in (-2, 2):
        f = chain_res(mod, l)
        assert f * f.bar() == poch_to_gaelem(shift_factor(entry2, l, RS1))


def test_negative_and_positive_levels_pair_equal_for_two_dim():
    m = build_rank1("AI1")
    for l in (1, 2, 3):
        fp = chain_res(m, l)
        fm = chain_res(m, -l)
        assert fp * fp.bar() == fm * fm.bar()


def test_fundamental_res_trivial_level():
    assert fundamental_res("AI1", 1, 0) == GAElem.unit(1)
    assert fundamental_res("AIV", 2, 0) == GAElem.unit(1)


def test_fundamental_res_rejects_sizes_without_a_module():
    for family, n in (("AIV", 1), ("AI1", 2), ("BI", 1)):
        with pytest.raises(ValueError, match="no rank-one family"):
            fundamental_res(family, n, 2)


def test_fundamental_res_leading_coefficient():
    f = fundamental_res("AIV", 2, 3, Fraction(1, 2))
    w, c = f.leading()
    assert w == (3,) and c == SC_ONE


def test_aiiia_parameter_values():
    assert aiiia_parameter(0, 2) == SC_ONE
    assert aiiia_parameter(Fraction(1, 2), 2) == q(1)
    assert aiiia_parameter(1, 3) == -q(2)
    with pytest.raises(ValueError):
        aiiia_parameter(0, 1)


def test_solve_rejects_noncanonical_two_dim_parameter():
    m = build_rank1("AI1", c_params=(Scalar.of(7),))
    with pytest.raises(ValueError, match="canonical parameter"):
        solve_spherical(m, 1)


@pytest.mark.parametrize("fault", ["double", "zero"])
def test_solved_vector_checks_survive_optimization(monkeypatch, fault):
    # the closed-form checks of solve_spherical are ValueErrors, not
    # asserts: a corrupted kernel vector fails the rank1 row with an error
    solve = qsp1.nullspace

    def corrupted(rows):
        basis = solve(rows)
        first = basis[0][0] * Scalar.of(2) if fault == "double" else Scalar.of(0)
        return [[first] + basis[0][1:]] + basis[1:]

    monkeypatch.setattr(qsp1, "nullspace", corrupted)
    m = build_rank1("AIV", 2, (SC_ONE, aiiia_parameter(Fraction(0), 2)))
    with pytest.raises(ValueError):
        solve_spherical(m, 1)
    check = next(c for c in CHECKS if c.suite == "rank1" and "AIV" in c.cases[0][0])
    checks.rank1_module.cache_clear()  # the row must solve under the fault, not reuse a chain
    row = check.row(check.cases[0], 8)
    assert row["pass"] is False and row["error"]


def test_rank1_rows_solve_each_shift_once(monkeypatch):
    """The rank1 rows share one module per parameter set, so their chains
    solve each shift of each module, and of each flipped AIV module, once:
    AI1 shifts 0..3, and 3 + 3 shifts for each of the four AIV modules.
    The AI1 rows' show solves its shift once more, for display."""
    chains, shown = [], []
    solve = qsp1.solve_spherical

    def counted(calls):
        def run(module, l):
            calls.append((id(module), l))
            return solve(module, l)
        return run

    monkeypatch.setattr(qsp1, "solve_spherical", counted(chains))
    monkeypatch.setattr(checks, "solve_spherical", counted(shown))
    checks.rank1_module.cache_clear()
    rows = [c.row(case, 8) for c in CHECKS if c.suite == "rank1" for case in c.cases]
    assert len(rows) == 16 and all(r["pass"] for r in rows)
    assert len(chains) == len(set(chains)) == 4 + 4 * (3 + 3)
    assert len(shown) == 4 and set(shown) <= set(chains)


@pytest.mark.parametrize("family,n,c_params", [
    ("AIV", 2, (SC_ONE,)), ("AIV", 3, (SC_ONE, SC_ONE, SC_ONE)),
    ("AI1", 2, None), ("AI1", 1, (SC_ONE, SC_ONE))],
    ids=["AIV one parameter", "AIV three parameters", "AI1 n=2", "AI1 two parameters"])
def test_build_rank1_rejects_what_it_would_ignore(family, n, c_params):
    with pytest.raises(ValueError):
        build_rank1(family, n, c_params)


def test_chain_solves_each_shift_once_per_module(monkeypatch):
    calls = []
    solve = qsp1.solve_spherical

    def counted(module, l):
        calls.append((id(module), l))
        return solve(module, l)

    monkeypatch.setattr(qsp1, "solve_spherical", counted)
    m = build_rank1("AI1")
    for l in (8, 3, 1, 5, -6):
        assert chain_res(m, l) == fundamental_res("AI1", 1, l)
    assert sorted(calls) == [(id(m), j) for j in range(8)]
    for n in (2, 3):
        for sigma in (Fraction(0), Fraction(1, 2)):
            mod = build_rank1("AIV", n, (SC_ONE, aiiia_parameter(sigma, n)))
            calls.clear()
            for l in (3, -6, 1, 6, -2, 5, -4, 2, -1, 4, -5, -3, 6, -6):
                assert chain_res(mod, l) == fundamental_res("AIV", n, l, sigma)
            # max |l| solves per direction; l < 0 solves on the flipped module
            assert sorted(calls) == sorted((id(x), j) for x in (mod, mod.flipped)
                                           for j in range(6))
