"""Property tests of the exact algebra: Q(v) field laws, the bar
involution, group-algebra ring laws and exact division by binomial atoms
(on evaluated-int coefficients, with the evaluation at v = 2^B that the
operator runs on, against a Scalar oracle), products of binomial atoms on
that evaluation against one GAElem product at a time, with sympy as an
independent oracle for Scalar arithmetic and the polynomial gcd, and the
uniqueness of the canonical form that equality and hashing rely on; and
the truncated series ring: its integer form, its ring laws, exact
division against a Fraction reference, and expansion against sympy; the
kernels on inputs whose nonzero slots sit on a strided v-exponent grid,
against dense loops, sympy and the Fraction reference; and,
against test-local copies of the loops they replaced, the array read of
Kronecker digits and the forward-elimination solve of the Gram oracle."""

import random
from fractions import Fraction
from math import gcd

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from mkpolys import mkengine
from mkpolys.galg import BOX, GAElem, columns, ga_divexact, pack
from mkpolys.roots import build_root_system, dominant_weights_upto, satake_catalog
from mkpolys.scalars import (
    SC_ONE,
    SC_ZERO,
    Scalar,
    TruncSeries,
    byte_width,
    int_reslot,
    p_from_int,
    p_gcd,
    p_make,
    p_mul,
    p_to_int,
    scalar_to_series,
)
from mkpolys.weights import (
    KLabel,
    PochProduct,
    _split_rescue,
    binomial_product,
    half_density,
    poch_to_gaelem,
    shift_factor,
    shifted_weight,
    split_atoms,
)

SETTINGS = settings(max_examples=40, deadline=None)

coeffs = st.fractions(min_value=-4, max_value=4, max_denominator=3)
polys = st.lists(coeffs, max_size=4).map(p_make)
nonzero_polys = polys.filter(bool)
scalars = st.builds(Scalar, polys, nonzero_polys)
laurent = st.builds(lambda c, k: Scalar.of(c) * Scalar.v_pow(k),
                    st.integers(-3, 3), st.integers(-2, 2))


def gaelems(rank=2):
    weight = st.tuples(*[st.integers(-2, 2)] * rank)
    return st.dictionaries(weight, laurent, max_size=3).map(
        lambda terms: GAElem(rank, terms))


V = sympy.Symbol("v")


def to_sympy(x: Scalar):
    num = sum(sympy.Integer(c) * V ** i for i, c in enumerate(x.n))
    den = sum(sympy.Integer(c) * V ** i for i, c in enumerate(x.d))
    return V ** x.e * num / den


def same(x: Scalar, expr) -> bool:
    return sympy.cancel(to_sympy(x) - expr) == 0


@SETTINGS
@given(scalars, scalars, scalars)
def test_field_laws(x, y, z):
    assert x + y == y + x and x * y == y * x
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + SC_ZERO == x and x * SC_ONE == x
    assert x + (-x) == SC_ZERO
    if x:
        assert x * x.inverse() == SC_ONE


@SETTINGS
@given(scalars, scalars)
def test_bar_is_an_involutive_automorphism(x, y):
    assert x.bar().bar() == x
    assert (x + y).bar() == x.bar() + y.bar()
    assert (x * y).bar() == x.bar() * y.bar()


@SETTINGS
@given(st.one_of(st.integers(), st.fractions()))
def test_a_rational_scalar_hashes_as_the_number_it_equals(x):
    s = Scalar.of(x)
    assert hash(s) == hash(x)
    assert s in {x} and x in {s}
    assert hash(Scalar([x * 3], [3])) == hash(x)


@SETTINGS
@given(scalars, scalars)
def test_arithmetic_agrees_with_sympy(x, y):
    sx, sy = to_sympy(x), to_sympy(y)
    assert same(x + y, sx + sy)
    assert same(x - y, sx - sy)
    assert same(x * y, sx * sy)
    if y:
        assert same(x / y, sx / sy)
    assert same(x.bar(), sx.subs(V, 1 / V))


@SETTINGS
@given(gaelems(), gaelems(), gaelems())
def test_group_algebra_ring_laws(f, g, h):
    assert f * g == g * f
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h
    assert f * GAElem.unit(2) == f
    assert f + (-f) == GAElem(2)
    assert (f * g).bar() == f.bar() * g.bar()


# -- exact division by binomial atoms, on evaluated-int coefficients -------

ranks = st.integers(1, 3)


def int_elem(rank, terms):
    """A group-algebra element with int coefficients (v evaluated)."""
    out = GAElem(rank)
    out.terms = {w: c for w, c in terms.items() if c}
    return out


def divexact(f, line, B):
    """ga_divexact on f with its weights packed, the quotient's weights
    read back by columns."""
    q = ga_divexact(int_elem(f.rank, {pack(w): c for w, c in f.terms.items()}), line, B)
    return int_elem(f.rank, dict(zip(zip(*columns(q.terms, f.rank)), q.terms.values())))


def atoms_of_rank(rank):
    """Atoms (s, c, w): s = +-1, c >= 0 (c = 0 included), w nonzero."""
    weight = st.tuples(*[st.integers(-2, 2)] * rank).filter(any)
    return st.tuples(st.sampled_from((-1, 1)), st.integers(0, 3), weight)


def int_atom(rank, atom, B):
    """The binomial 1 - s*v^c*e^w of atom (s, c, w), with v = 2^B."""
    s, c, w = atom
    return int_elem(rank, {(0,) * rank: 1, w: -s << (c * B)})


@st.composite
def binomial_cases(draw):
    """(f, atom, B) at rank 1-3: f with int coefficients, an atom of
    atoms_of_rank(rank) and a width B of one to four bytes."""
    rank = draw(ranks)
    weight = st.tuples(*[st.integers(-2, 2)] * rank)
    f = int_elem(rank, draw(st.dictionaries(weight, st.integers(-2 ** 40, 2 ** 40), max_size=4)))
    return f, draw(atoms_of_rank(rank)), 8 * draw(st.integers(1, 4))


@SETTINGS
@given(binomial_cases())
def test_divexact_inverts_multiplication(case):
    f, a, B = case
    assert divexact(f * int_atom(f.rank, a, B), [a], B) == f


@SETTINGS
@given(binomial_cases(), st.data())
def test_divexact_rejects_a_non_multiple(case, data):
    """f*g plus one more term is no multiple of g: a monomial is never
    divisible by a binomial."""
    f, a, B = case
    w = data.draw(st.tuples(*[st.integers(-4, 4)] * f.rank))
    with pytest.raises(ValueError, match="not divisible"):
        divexact(f * int_atom(f.rank, a, B) + int_elem(f.rank, {w: 1}), [a], B)


@SETTINGS
@given(st.data())
def test_divexact_of_a_binomial_product_one_atom_at_a_time(data):
    """Divide a product of several binomials by each factor in turn."""
    f, a, B = data.draw(binomial_cases())
    line = [a] + data.draw(st.lists(atoms_of_rank(f.rank), max_size=2))
    prod = f
    for a in line:
        prod = prod * int_atom(f.rank, a, B)
    for a in data.draw(st.permutations(line)):
        prod = divexact(prod, [a], B)
    assert prod == f


def chains(terms, w):
    """terms split into chains along w (nonzero): x0 -> {j: terms[x0 + j*w]},
    with the base x0 of each chain fixed by its first nonzero coordinate
    along w."""
    i = next(k for k, x in enumerate(w) if x)
    out = {}
    for x, c in terms.items():
        j = x[i] // w[i]
        out.setdefault(tuple(a - j * b for a, b in zip(x, w)), {})[j] = c
    return out


def divide_by_binomial(f, atom):
    """f / (1 - s*v^c*e^w) for one atom (s, c, w) and f with Scalar
    coefficients, the reference for the line division of
    galg.ga_divexact: one chains pass along w per atom, the recurrence
    q[j] = f[j] + s*v^c * q[j - 1] ascending, and 'not divisible' when the
    value at the chain's last term is nonzero."""
    s, c, w = atom
    u, quo = Scalar.monomial(s, c), {}
    for base, cs in chains(f.terms, w).items():
        j0, j1 = min(cs), max(cs)
        q = SC_ZERO
        for j in range(j0, j1):
            q = cs.get(j, SC_ZERO) + u * q
            if q:
                quo[tuple(a + j * b for a, b in zip(base, w))] = q
        if cs[j1] + u * q:
            raise ValueError("not divisible")
    out = GAElem(f.rank)
    out.terms = quo
    return out


@st.composite
def line_cases(draw):
    """(f, line) at rank 1-3: atoms (s, c, +-w) of one line, both signs
    of w mixed, c = 0 included; f, with integer Laurent coefficients, a
    multiple of some of them, by chance of none or all, plus an optional
    monomial, so that the quotients run out at any atom or at none."""
    rank = draw(ranks)
    weight = st.tuples(*[st.integers(-2, 2)] * rank)
    w = draw(weight.filter(any))
    elem = st.dictionaries(weight, laurent, max_size=4).map(lambda t: GAElem(rank, t))
    line = draw(st.lists(st.tuples(st.sampled_from((-1, 1)), st.integers(0, 3),
                                   st.sampled_from((w, tuple(-a for a in w)))),
                         min_size=1, max_size=4))
    f = draw(elem)
    for a in draw(st.lists(st.sampled_from(line), max_size=len(line))):
        f = f * atom_binomial(a, rank)
    return f + draw(elem.filter(lambda e: len(e.terms) <= 1)), line


@SETTINGS
@given(line_cases(), st.sampled_from((32, 48, 64)))
def test_line_division_is_division_binomial_by_binomial(case, B):
    """Each prefix of the line gives the oracle's quotient, atom by atom,
    read back from v = 2^B, until the oracle raises at an atom; the prefix
    ending there raises 'not divisible'.  Every coefficient that the
    division makes on these inputs is far below 2^(B-1), so the zero
    tests and the read-back are those of Z[v]."""
    check_line_division(*case, B)


@SETTINGS
@given(line_cases(), st.sampled_from((32, 48, 64)), st.data())
def test_line_division_at_the_edge_of_the_packing_box(case, B, data):
    """The same, with f translated so that its weights reach the edge of
    the box that pack takes in every coordinate, on a side drawn per
    coordinate: the radix rule's case of largest K."""
    f, line = case
    if f.terms:
        ws = list(f.terms)
        t = [BOX - 1 - max(x) if data.draw(st.booleans()) else 1 - BOX - min(x)
             for x in zip(*ws)]
        f = GAElem(f.rank, {tuple(map(sum, zip(w, t))): c for w, c in f.terms.items()})
    check_line_division(f, line, B)


def check_line_division(f, line, B):
    """ga_divexact on f's values at v = 2^B against divide_by_binomial,
    one prefix of the line at a time."""
    e = min((c.e for c in f.terms.values()), default=0)
    fz = int_elem(f.rank, {w: p_to_int(c.n, B) << ((c.e - e) * B) for w, c in f.terms.items()})
    want = f
    for t in range(1, len(line) + 1):
        try:
            want = divide_by_binomial(want, line[t - 1])
        except ValueError:
            with pytest.raises(ValueError, match="not divisible"):
                divexact(fz, line[:t], B)
            break
        q = divexact(fz, line[:t], B)
        assert GAElem(f.rank, {w: Scalar.laurent(e, p_from_int(z, B))
                               for w, z in q.terms.items()}) == want


@SETTINGS
@given(st.integers(1, 2 ** 70), st.data())
def test_evaluation_round_trips_at_the_proven_bound(bound, data):
    """Laurent polynomials whose coefficients reach the bound read back
    from v = 2^B for the width that bound gives, and a list of them, of
    mixed lengths, moves to any wider width and back exactly."""
    B = byte_width(2 * bound)
    cs = st.lists(st.sampled_from((bound, -bound, 0, 1, -1)) | st.integers(-bound, bound),
                  min_size=1, max_size=8)
    xs = [Scalar.laurent(data.draw(st.integers(-5, 5)), c)
          for c in data.draw(st.lists(cs, min_size=1, max_size=5))]
    zs = [p_to_int(x.n, B) for x in xs]
    for x, z in zip(xs, zs):
        assert Scalar.laurent(x.e, p_from_int(z, B)) == x
    wider = B + 8 * data.draw(st.integers(0, 3))
    assert int_reslot(zs, B, wider) == [p_to_int(x.n, wider) for x in xs]
    assert int_reslot(int_reslot(zs, B, wider), wider, B) == zs



def slice_digits(z: int, B: int) -> list:
    """The balanced base-2^B digits of z read one bytes slice at a time:
    the loop the array read of p_from_int replaced."""
    if not z:
        return []
    k = B // 8
    n = z.bit_length() // B + 2
    bias = int.from_bytes((bytes(k - 1) + b"\x80") * n, "little")
    raw = (z + bias).to_bytes(n * k, "little")
    half = 1 << (B - 1)
    return [int.from_bytes(raw[i:i + k], "little") - half for i in range(0, n * k, k)]


# slots of 1, 2, 4 and 8 bytes are read by an array, the others by slices
DIGIT_WIDTHS = range(8, 73, 8)


@pytest.mark.parametrize("B", DIGIT_WIDTHS)
@SETTINGS
@given(st.data())
def test_digit_reader_agrees_with_the_slice_loop(B, data):
    """The same digits, the same length and the same trailing zeros, for
    any int and for digits at both ends of the balanced range."""
    half = 1 << (B - 1)
    z = data.draw(st.integers(-(1 << (4 * B)), 1 << (4 * B)))
    assert p_from_int(z, B) == slice_digits(z, B)
    digit = st.integers(-half, half - 1) | st.sampled_from((-half, half - 1, 0))
    cs = data.draw(st.lists(digit, max_size=8))
    z = p_to_int(cs, B)
    assert p_from_int(z, B) == slice_digits(z, B)
    assert p_make(p_from_int(z, B)) == p_make(cs)


@pytest.mark.parametrize("B", DIGIT_WIDTHS)
def test_digit_reader_at_the_ends_of_the_range(B):
    half = 1 << (B - 1)
    cases = ([-half], [half - 1], [-half] * 5, [half - 1] * 5, [-half, half - 1] * 3,
             [0, 0, 0, -half], [0, 0, 0, half - 1], [half - 1, 0, 0, 0], [-half, 0, 0, 0, 0],
             [1, 0, 0, 0, -1], [0] * 6 + [1])
    for cs in cases:
        z = p_to_int(cs, B)
        digits = p_from_int(z, B)
        assert digits == slice_digits(z, B)
        assert digits[len(cs):] == [0] * (len(digits) - len(cs))
        assert p_make(digits) == p_make(cs)

# -- binomial atoms, and their products on the integer kernel ---------------

def atom_binomial(atom, rank):
    s, c, w = atom
    return GAElem.unit(rank) + GAElem.monomial(rank, w, Scalar.monomial(-s, c))


def binomial_oracle(pre, atoms):
    """pre times the binomials 1 - s*v^c*e^w, one GAElem product at a time."""
    for a in atoms:
        pre = pre * atom_binomial(a, pre.rank)
    return pre


def finite_product(rank, atoms, b):
    """The atoms as a PochProduct of length-one symbols (x; v^b)_1."""
    return PochProduct(rank, b, [((s, c, w, 1), 1) for s, c, w in atoms])


@SETTINGS
@given(st.lists(st.tuples(st.sampled_from((-1, 1)), st.integers(-4, 4),
                          st.tuples(st.integers(-2, 2), st.integers(-2, 2)).filter(any)),
                max_size=4))
def test_split_atoms_leaves_a_monomial_and_nonnegative_powers(atoms):
    divisors, (sign, C, W) = split_atoms(atoms, 2)
    assert all(c >= 0 for _, c, _ in divisors)
    lhs = binomial_oracle(GAElem.unit(2), atoms)
    rhs = binomial_oracle(GAElem.monomial(2, W, Scalar.of(sign) * Scalar.v_pow(C)), divisors)
    assert lhs == rhs


@st.composite
def atom_products(draw):
    """(weight W, atoms, base) at rank 1-2; zero weights and negative
    powers of v included."""
    rank = draw(st.integers(1, 2))
    weight = st.tuples(*[st.integers(-2, 2)] * rank)
    atoms = draw(st.lists(st.tuples(st.sampled_from((-1, 1)), st.integers(-4, 4), weight),
                          max_size=6))
    return draw(weight), atoms, draw(st.integers(1, 4))


@SETTINGS
@given(atom_products())
def test_poch_to_gaelem_multiplies_atoms_like_the_oracle(case):
    W, atoms, b = case
    rank = len(W)
    unit = GAElem.unit(rank)
    assert poch_to_gaelem(finite_product(rank, atoms, b)) == binomial_oracle(unit, atoms)
    assert binomial_product(W, atoms) == binomial_oracle(GAElem.monomial(rank, W), atoms)


def test_poch_to_gaelem_slot_width_holds_large_binomial_coefficients():
    # (1 - v e^2)^20 has the coefficient -C(20, 10) = -184756, beyond 16 bits
    atoms = [(1, 1, (2,))] * 20
    got = poch_to_gaelem(finite_product(1, atoms, 1))
    assert got.terms[(20,)] == Scalar.monomial(184756, 10)
    assert got == binomial_oracle(GAElem.unit(1), atoms)


@pytest.mark.parametrize("tag,n,m,sigma", [
    ("AI1", 1, 0, 0), ("AIVm", 1, 2, Fraction(1, 2)), ("AIVm", 1, 3, 0),
    ("AIIIb", 2, 0, 0), ("CI", 2, 0, 0), ("AIIIa", 2, 2, Fraction(1, 2)),
    ("BI", 2, 3, 0), ("DI", 2, 4, 0), ("EVII", 3, 0, 0)])
def test_shift_factors_multiply_like_the_oracle(tag, n, m, sigma):
    # each shift factor multiplies like the oracle, and one split pass is
    # final: splitting its own output again changes nothing, on the shift
    # factor, the shifted weight and the half density
    entry, rs = satake_catalog(tag, n, m), build_root_system(n)
    k0 = KLabel.from_entry(entry, 0, sigma)
    for l in range(-3, 4):
        S = shift_factor(entry, l, rs, sigma)
        num, den, tails = _split_rescue(S).collapsed()
        assert not den and not tails and len(num) == abs(l) * len(rs.R1)
        assert poch_to_gaelem(S) == binomial_oracle(GAElem.unit(n), num)
        for X in (S, shifted_weight(k0, entry, l, rs, sigma), half_density(k0, rs)):
            once = _split_rescue(X)
            assert _split_rescue(once) == once


# -- the canonical integer form ---------------------------------------------

def fields(x: Scalar):
    return (x.e, x.n, x.d), hash(x)


int_polys = st.lists(st.integers(-4, 4), max_size=5).map(p_make)
monomials = st.builds(lambda c, k: (0,) * k + (c,),
                      st.integers(-3, 3).filter(bool), st.integers(0, 2))


@SETTINGS
@given(scalars, scalars.filter(bool))
def test_every_path_reaches_the_same_fields(a, b):
    """Tuple equality and hashing are sound only because every route to
    a value ends in the same canonical fields."""
    assert fields(a * b / b) == fields(a)
    assert fields((a + b) - b) == fields(a)
    assert fields(a.bar().bar()) == fields(a)


@SETTINGS
@given(scalars, nonzero_polys, monomials)
def test_unreduced_inputs_reach_the_same_fields(a, k, m):
    """Scalar(num, den) with a common factor, a common power of v and a
    common rational constant in num and den."""
    num = (0,) * max(a.e, 0) + a.n
    den = (0,) * max(-a.e, 0) + a.d
    common = p_mul(k, m)
    assert fields(Scalar(p_mul(num, common), p_mul(den, common))) == fields(a)
    assert fields(Scalar(num, den)) == fields(a)


laurent_polys = st.dictionaries(st.integers(-3, 3), coeffs, max_size=4).map(
    lambda terms: sum((Scalar.of(c) * Scalar.v_pow(k) for k, c in terms.items()), SC_ZERO))


@SETTINGS
@given(laurent_polys, laurent_polys)
def test_laurent_arithmetic_agrees_with_sympy(x, y):
    assert len(x.d) == 1 and len(y.d) == 1
    sx, sy = to_sympy(x), to_sympy(y)
    assert same(x + y, sx + sy)
    assert same(x - y, sx - sy)
    assert same(x * y, sx * sy)
    assert same(x.bar(), sx.subs(V, 1 / V))
    if y:
        assert same(x / y, sx / sy)


def sympy_gcd(f, g):
    """sympy's gcd of integer coefficient tuples, primitive with a positive
    leading coefficient; () when both are zero."""
    theirs = sympy.Poly(sympy.gcd(sympy.Poly(f[::-1] or [0], V), sympy.Poly(g[::-1] or [0], V)), V)
    if theirs.is_zero:
        return ()
    _, prim = theirs.primitive()
    expect = tuple(int(x) for x in prim.all_coeffs()[::-1])
    return expect if expect[-1] > 0 else tuple(-x for x in expect)


@SETTINGS
@given(int_polys, int_polys, int_polys)
def test_gcd_agrees_with_sympy(a, b, c):
    """p_gcd(a*c, b*c) is sympy's gcd up to sign and content: primitive,
    with a positive leading coefficient."""
    f, g = p_mul(a, c), p_mul(b, c)
    assert p_gcd(f, g)[0] == sympy_gcd(f, g)


@st.composite
def engine_polys(draw, max_degree):
    """Integer polynomials of degree up to max_degree, all of whose
    coefficients are small or all large, with a nonzero leading one."""
    m = draw(st.sampled_from([4, 2 ** 40]))
    d = draw(st.integers(0, max_degree))
    cs = draw(st.lists(st.integers(-m, m), min_size=d, max_size=d))
    return tuple(cs) + (draw(st.integers(-m, m).filter(bool)),)


@SETTINGS
@given(engine_polys(60), engine_polys(90), engine_polys(90))
def test_gcd_cofactors_multiply_back_at_engine_sizes(c, a, b):
    """p_gcd(f, g) is (h, f/h, g/h): h times each cofactor gives back its
    input exactly, and h is sympy's gcd, at the sizes Scalar arithmetic
    meets (common factors up to degree 60, products up to degree 150)."""
    f, g = p_mul(a, c), p_mul(b, c)
    h, cf, cg = p_gcd(f, g)
    assert p_mul(h, cf) == f and p_mul(h, cg) == g
    assert h == sympy_gcd(f, g)


def test_gcd_widens_past_a_spurious_first_width():
    """Coprime a, b whose values at the first slot width 2^k share a
    spurious integer factor: the digits of gcd(a(2^k), b(2^k)) are a
    nonconstant G, which cannot divide both (their gcd is 1), so the
    first certificate fails and p_gcd must widen to find the gcd 1."""
    rng = random.Random(0)
    for _ in range(10000):
        a, b = (tuple([1] + [rng.randint(-3, 3) for _ in range(rng.randint(1, 5))] + [1])
                for _ in "ab")
        k = byte_width(2 * min(max(map(abs, a)), max(map(abs, b))) + 2)
        xa, xb = p_to_int(a, k), p_to_int(b, k)
        G = p_make(p_from_int(gcd(xa, xb), k))
        if len(G) > 1 and sympy_gcd(a, b) == (1,):
            break
    else:
        pytest.fail("no coprime pair with a spurious factor at the first width")
    content = gcd(*G)
    G = tuple(c // content for c in G)
    cofactors = [p_make(p_from_int(x // p_to_int(G, k), k)) for x in (xa, xb)]
    assert [p_mul(G, q) for q in cofactors] != [a, b]
    assert p_gcd(a, b) == ((1,), a, b)


# -- the truncated series ring ----------------------------------------------

SM = 8
series = st.lists(coeffs, max_size=SM + 1).map(lambda cs: TruncSeries(cs, SM))
# leading coefficients of divisors, the non-units among them taking the
# fraction-free path of TruncSeries.divide
leads = st.sampled_from([1, -1, 2, -3, 6, Fraction(3, 2), Fraction(-2, 3)])
divisors = st.builds(lambda t, cs, s: TruncSeries([0] * s + [t] + cs, SM),
                     leads, st.lists(coeffs, max_size=SM), st.integers(0, 3))


def times_v(a: TruncSeries, k: int) -> TruncSeries:
    """a * v^k, k >= 0, at a's precision."""
    return TruncSeries([0] * k + a.coeffs, a.precision)


def canonical(a: TruncSeries) -> bool:
    return (len(a.num) == a.precision + 1 and a.den > 0
            and gcd(a.den, *a.num) == 1
            and all(type(c) is int for c in a.num) and type(a.den) is int)


def fraction_divide(a: TruncSeries, b: TruncSeries):
    """Series division on Fraction coefficients, the loop TruncSeries.divide
    replaced: (coefficients, precision)."""
    M = min(a.precision, b.precision)
    s = b.valuation()
    num, den = a.coeffs[s: M + 1], b.coeffs[s: M + 1]
    out = [Fraction(0)] * (M - s + 1)
    for k in range(M - s + 1):
        acc = num[k]
        for i in range(k):
            acc -= out[i] * den[k - i]
        out[k] = acc / den[0]
    return out, M - s


@SETTINGS
@given(series, series, divisors)
def test_series_operations_keep_the_canonical_form(a, b, d):
    results = [a, b, d, a + b, a - b, -a, a * b, a * 3, a * Fraction(-2, 9),
               times_v(a, 2), TruncSeries.zero(SM), TruncSeries.one(SM)]
    results.append((times_v(a, 3) + times_v(d, 3)).divide(d))
    assert all(canonical(x) for x in results)
    assert TruncSeries.zero(SM).den == 1


@SETTINGS
@given(series, series, series)
def test_series_ring_laws(a, b, c):
    zero, one = TruncSeries.zero(SM), TruncSeries.one(SM)
    assert a + b == b + a and a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + zero == a and a * one == a
    assert a - b == a + (-b) and a - a == zero
    # a product is known at least as far as its factors; the valuations
    # can carry it further (test_series_product_precision_follows_valuations)
    ab = a * b
    assert ab.precision >= SM
    assert ab.coeffs[:SM + 1] == [sum(a.coeffs[i] * b.coeffs[k - i] for i in range(k + 1))
                                  for k in range(SM + 1)]


@st.composite
def valued_series(draw):
    """A series at a drawn precision p in 0..SM, zero or v^s times a drawn
    lead and zero-heavy coefficients for s in 0..p, and an extension of it
    to precision 3 SM that agrees with it mod v^(p+1)."""
    p = draw(st.integers(0, SM))
    rest = st.lists(st.just(0) | coeffs, max_size=p)
    cs = draw(st.just([]) | st.builds(lambda s, t, cs: [0] * s + [t] + cs,
                                      st.integers(0, p), leads, rest))
    a = TruncSeries(cs, p)
    tail = draw(st.lists(st.just(0) | coeffs, max_size=3 * SM - p))
    return a, TruncSeries(a.coeffs + tail, 3 * SM)


@SETTINGS
@given(valued_series(), valued_series())
def test_series_product_precision_follows_valuations(a, b):
    """A product is known mod v^(M+1), M = min(p_a + v_b, p_b + v_a), a
    zero counting at valuation p + 1: its coefficients through M are the
    convolution of the known ones, and every extension of the factors
    past their precisions has the same product through M."""
    (a, a_ext), (b, b_ext) = a, b

    def order(x):
        return x.precision + 1 if x.is_zero() else x.valuation()

    def known(x, k):
        return x.coeffs[k] if k <= x.precision else 0

    ab = a * b
    M = min(a.precision + order(b), b.precision + order(a))
    assert ab.precision == M
    assert ab.coeffs == [sum(known(a, i) * known(b, k - i) for i in range(k + 1))
                         for k in range(M + 1)]
    assert (a_ext * b_ext).coeffs[:M + 1] == ab.coeffs


@SETTINGS
@given(series, divisors)
def test_division_inverts_multiplication(a, b):
    s = b.valuation()
    q = (a * b).divide(b)
    assert q.precision == SM - s
    assert q == a


@SETTINGS
@given(series, divisors)
def test_division_agrees_with_the_fraction_loop(a, b):
    a = times_v(a, b.valuation())
    q = a.divide(b)
    assert (q.coeffs, q.precision) == fraction_divide(a, b)


@SETTINGS
@given(scalars.filter(lambda x: x.e >= 0))
def test_scalar_to_series_agrees_with_sympy(x):
    M = 6
    got = scalar_to_series(x, M)
    expr = sympy.expand(sympy.series(to_sympy(x), V, 0, M + 1).removeO())
    want = [expr.coeff(V, k) for k in range(M + 1)]
    assert got.precision == M
    assert got.coeffs == [Fraction(int(c.p), int(c.q)) for c in want]


# -- the kernels on the v-exponent grid of a catalog family -----------------
#
# A family's parameters are powers of v^base_exp, so its Q(v) values are
# polynomials in v^g for a stride g > 1 (v^2 for AI1, v^4 for AIVm at
# base_exp 4) and most of their slots are zero: the kernels skip zero
# coefficients, and these draws put the zeros where the families do.

GRID_SLOTS = 48
strides = st.sampled_from((1, 2, 4))
grid_ints = st.integers(-9, 9) | st.integers(-2 ** 70, 2 ** 70)


@st.composite
def on_grid(draw, values, slots=GRID_SLOTS):
    """A list of at most slots coefficients, zero off the multiples of a
    stride g in {1, 2, 4} past an offset, with zero slots (possibly) at
    either end."""
    g, lo = draw(strides), draw(st.integers(0, 3))
    cs = [0] * draw(st.integers(0, slots))
    for i in range(lo, len(cs), g):
        cs[i] = draw(values)
    return cs


def dense_mul(a, b):
    """The product by a double loop over every slot."""
    if not a or not b:
        return ()
    cs = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            cs[i + j] += x * y
    return tuple(cs)


def dense_horner(a, B):
    """a(2^B) by Horner's rule over every slot."""
    z = 0
    for c in reversed(a):
        z = (z << B) + c
    return z


@SETTINGS
@given(on_grid(grid_ints), on_grid(grid_ints))
def test_grid_product_is_the_dense_product(a, b):
    a, b = p_make(a), p_make(b)
    assert p_mul(a, b) == dense_mul(a, b) == p_mul(b, a)


@SETTINGS
@given(on_grid(grid_ints), st.sampled_from((8, 16, 40, 64, 152)))
def test_grid_evaluation_is_dense_horner_and_reads_back(a, B):
    assert p_to_int(a, B) == dense_horner(a, B)
    assert p_to_int((), B) == 0
    W = byte_width(2 * max(map(abs, a), default=0) + 2)
    assert p_make(p_from_int(p_to_int(a, W), W)) == p_make(a)


@SETTINGS
@given(st.integers(-6, 6), on_grid(grid_ints), st.integers(-6, 6), on_grid(grid_ints),
       st.data())
def test_grid_laurent_sums_agree_with_sympy(e, a, f, b, data):
    """Sums of Laurent polynomials on the grid, and sums in which a drawn
    share of the terms (all of them included) cancels."""
    x, y = Scalar.laurent(e, a), Scalar.laurent(f, b)
    sx, sy = to_sympy(x), to_sympy(y)
    assert same(x + y, sx + sy) and same(x - y, sx - sy)
    keep = data.draw(st.lists(st.booleans(), min_size=len(a), max_size=len(a)))
    part = Scalar.laurent(e, [0 if k else -c for k, c in zip(keep, a)])
    rest = Scalar.laurent(e, [c if k else 0 for k, c in zip(keep, a)])
    assert fields(x + part) == fields(rest) and same(x + part, to_sympy(rest))
    assert fields(x - x) == fields(SC_ZERO) == fields(x + Scalar.laurent(e, [-c for c in a]))


GM = 40
grid_leads = st.sampled_from([1, -1, 2, -3, 6, Fraction(3, 2)])


@st.composite
def grid_divisors(draw):
    """A divisor v^s (t + ...) with t a drawn leading coefficient, s in
    0..3 and its other coefficients on the grid."""
    s, t = draw(st.integers(0, 3)), draw(grid_leads)
    rest = draw(on_grid(coeffs, GM))
    return TruncSeries([0] * s + [t] + rest[1:], GM)


grid_series = on_grid(coeffs, GM + 1).map(lambda cs: TruncSeries(cs, GM))


@SETTINGS
@given(grid_series, grid_divisors())
def test_grid_division_is_the_fraction_loop_and_inverts_multiplication(a, b):
    s = b.valuation()
    q = (a * b).divide(b)
    assert q.precision == GM - s and q == a
    a = times_v(a, s)
    q = a.divide(b)
    assert (q.coeffs, q.precision) == fraction_divide(a, b)


# -- the Gram oracle's series solve -----------------------------------------

def gauss_jordan(rows, rhs):
    """Gauss-Jordan elimination over truncated series, eliminating above
    and below each pivot: the solve the forward elimination of
    _series_solve replaced, with the same pivot rule."""
    k = len(rows)
    rows = [list(r) for r in rows]
    rhs = list(rhs)
    for col in range(k):
        piv, pval = None, None
        for i in range(col, k):
            val = rows[i][col].valuation()
            if val is not None and (pval is None or val < pval):
                piv, pval = i, val
        if piv is None:
            raise ValueError("precision exhausted")
        rows[col], rows[piv] = rows[piv], rows[col]
        rhs[col], rhs[piv] = rhs[piv], rhs[col]
        for i in range(k):
            if i != col:
                f = rows[i][col].divide(rows[col][col])
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[col])]
                rhs[i] = rhs[i] - f * rhs[col]
    return [rhs[i].divide(rows[i][i]) for i in range(k)]


def solved(solve, rows, rhs):
    """solve(rows, rhs), or None when its precision runs out."""
    try:
        return solve(rows, rhs)
    except ValueError as err:
        assert "precision exhausted" in str(err)
        return None


def residual_vanishes(rows, rhs, xs) -> bool:
    """rows * xs - rhs is zero to the precision its arithmetic certifies."""
    return all(sum((a * x for a, x in zip(r, xs)), -b).is_zero() for r, b in zip(rows, rhs))


@pytest.mark.parametrize("tag,n,l,bound", [
    ("AI1", 1, 0, 8), ("AI1", 1, 1, 8), ("AI1", 1, 2, 8), ("AIIIb", 2, 1, 4)])
def test_series_solve_matches_gauss_jordan_on_gram_systems(tag, n, l, bound, monkeypatch):
    """Every Gram system of the family, as build_polynomial_gs forms it,
    has the same solution series as under Gauss-Jordan, field for field."""
    solve, systems = mkengine._series_solve, []

    def record(rows, rhs):
        systems.append((rows, rhs))
        return solve(rows, rhs)

    monkeypatch.setattr(mkengine, "_series_solve", record)
    entry = satake_catalog(tag, n)
    for lam in dominant_weights_upto(n, bound):
        mkengine.build_polynomial_gs(entry, l, lam)
    assert len(systems) == len(dominant_weights_upto(n, bound))
    for rows, rhs in systems:
        got, want = solve(rows, rhs), gauss_jordan(rows, rhs)
        assert [(x.num, x.den, x.precision) for x in got] == \
            [(x.num, x.den, x.precision) for x in want]


@st.composite
def series_systems(draw):
    """At most 4 equations, each entry zero or v^s times a unit for s in
    0..2; the right side is either drawn or the product with a drawn
    series solution."""
    k = draw(st.integers(1, 4))
    entry = st.just(TruncSeries.zero(SM)) | st.builds(
        lambda t, cs, s: TruncSeries([0] * s + [t] + cs, SM),
        leads, st.lists(coeffs, max_size=SM), st.integers(0, 2))
    rows = [[draw(entry) for _ in range(k)] for _ in range(k)]
    if draw(st.booleans()):
        xs = [draw(series) for _ in range(k)]
        rhs = [sum((a * x for a, x in zip(r, xs)), TruncSeries.zero(SM)) for r in rows]
    else:
        rhs = [draw(series) for _ in range(k)]
    return rows, rhs


@SETTINGS
@given(series_systems())
def test_series_solve_agrees_with_gauss_jordan(system):
    """Where Gauss-Jordan solves, the forward solve gives the same series
    mod v^(p+1), p the lower of the two precisions; where the forward solve
    runs out of precision, so does Gauss-Jordan.  Gauss-Jordan alone also
    runs out when an entry above a pivot has lower valuation than the
    pivot; there the forward solution is checked by substitution."""
    rows, rhs = system
    got, want = solved(mkengine._series_solve, rows, rhs), solved(gauss_jordan, rows, rhs)
    if got is None:
        assert want is None
        return
    assert residual_vanishes(rows, rhs, got)
    if want is not None:
        for x, y in zip(got, want):
            p = max(min(x.precision, y.precision) + 1, 0)
            assert x.coeffs[:p] == y.coeffs[:p]


def test_series_solve_divides_no_entry_above_a_pivot():
    # the column-1 pivot is v, and Gauss-Jordan would divide the 1 above it
    one, zero, v = TruncSeries.one(SM), TruncSeries.zero(SM), TruncSeries([0, 1], SM)
    rows = [[one, one, zero], [zero, zero, one], [v, zero, zero]]
    rhs = [one + one, one, v]
    assert solved(gauss_jordan, rows, rhs) is None
    xs = mkengine._series_solve(rows, rhs)
    assert residual_vanishes(rows, rhs, xs)
    assert [x.coeffs[:x.precision + 1] for x in xs] == [[1] + [0] * x.precision for x in xs]


def test_series_solve_keeps_the_precision_of_a_zero_entry():
    # the zero below the pivot is known only mod v^(SM-2), and its update
    # lowers its row's precision; Gauss-Jordan, which also eliminates the
    # entry above the pivot, knows x[0] one order further, so the two are
    # compared to their common precision
    one, v = TruncSeries.one(SM), TruncSeries([0, 1], SM)
    rows = [[v, one], [TruncSeries.zero(SM - 3), one]]
    rhs = [v, TruncSeries.zero(SM)]
    got, want = mkengine._series_solve(rows, rhs), gauss_jordan(rows, rhs)
    assert [x.precision for x in got] == [SM - 5, SM - 4]
    assert [x.precision for x in want] == [SM - 4, SM - 4]
    assert all(x == y for x, y in zip(got, want))


def test_back_substitution_keeps_the_precision_of_zero_entries():
    """A zero entry known mod v^(p+1) times any power series is zero mod
    v^(p+1), whatever that series' precision.  Under a product rule that
    ignored valuations, back substitution lost two orders per row on this
    system and ended dividing past its precision, where Gauss-Jordan
    solves."""
    def v(k):
        return TruncSeries([0] * k + [1], SM)

    zero = TruncSeries.zero(SM)
    rows = [[v(0), zero, zero, zero], [zero, zero, zero, v(1)],
            [zero, zero, v(2), zero], [zero, v(2), zero, zero]]
    got, want = mkengine._series_solve(rows, [zero] * 4), gauss_jordan(rows, [zero] * 4)
    assert all(x.is_zero() for x in got + want)
    assert all(x.precision >= y.precision for x, y in zip(got, want))
    # a zero divided past its precision is no series at all
    with pytest.raises(ValueError, match="precision exhausted"):
        TruncSeries.zero(1).divide(v(2))
