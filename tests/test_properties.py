"""Property tests of the exact algebra: Q(v) field laws, the bar
involution, group-algebra ring laws and exact division, with sympy as an
independent oracle for Scalar arithmetic and the polynomial gcd, and the
uniqueness of the canonical form that equality and hashing rely on."""

import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from mkpolys.galg import GAElem, ga_divexact
from mkpolys.scalars import SC_ONE, SC_ZERO, Scalar, p_from_terms, p_gcd, p_mul

SETTINGS = settings(max_examples=40, deadline=None)

coeffs = st.fractions(min_value=-4, max_value=4, max_denominator=3)
polys = st.lists(coeffs, max_size=4).map(lambda cs: p_from_terms(enumerate(cs)))
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


@SETTINGS
@given(gaelems(), gaelems().filter(lambda g: not g.is_zero()))
def test_divexact_inverts_multiplication(f, g):
    assert ga_divexact(f * g, g) == f


# -- the canonical integer form ---------------------------------------------

def fields(x: Scalar):
    return (x.e, x.n, x.d), hash(x)


int_polys = st.lists(st.integers(-4, 4), max_size=5).map(lambda cs: p_from_terms(enumerate(cs)))
monomials = st.builds(lambda c, k: p_from_terms([(k, c)]),
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


@SETTINGS
@given(int_polys, int_polys, int_polys)
def test_gcd_agrees_with_sympy(a, b, c):
    """p_gcd(a*c, b*c) is sympy's gcd up to sign and content: primitive,
    with a positive leading coefficient."""
    f, g = p_mul(a, c), p_mul(b, c)
    ours = p_gcd(f, g)
    theirs = sympy.Poly(sympy.gcd(sympy.Poly(f[::-1] or [0], V), sympy.Poly(g[::-1] or [0], V)), V)
    if theirs.is_zero:
        assert ours == ()
        return
    _, prim = theirs.primitive()
    expect = tuple(int(x) for x in prim.all_coeffs()[::-1])
    if expect[-1] < 0:
        expect = tuple(-x for x in expect)
    assert ours == expect
