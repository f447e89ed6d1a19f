"""Property tests of the exact algebra: Q(v) field laws, the bar
involution, group-algebra ring laws and exact division, with sympy as an
independent oracle for Scalar arithmetic."""

import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from mkpolys.galg import GAElem, ga_divexact
from mkpolys.scalars import SC_ONE, SC_ZERO, Scalar, p_from_terms

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
    num = sum(sympy.Rational(c.numerator, c.denominator) * V ** i for i, c in enumerate(x.num))
    den = sum(sympy.Rational(c.numerator, c.denominator) * V ** i for i, c in enumerate(x.den))
    return num / den


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
