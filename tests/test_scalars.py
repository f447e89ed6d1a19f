import random
from fractions import Fraction

import pytest

from mkpolys.scalars import (
    P_ONE,
    P_ZERO,
    Scalar,
    TruncSeries,
    p_gcd,
    p_make,
    p_mul,
    scalar_to_series,
)


def poly(pairs):
    """The integer polynomial sum(c * v^e) of (e, c) pairs."""
    cs = [0] * (max(e for e, _ in pairs) + 1)
    for e, c in pairs:
        cs[e] += c
    return p_make(cs)


def V(k):
    return Scalar.v_pow(k)


def C(x):
    return Scalar.of(x)


def test_normalize_gcd_cancellation():
    s = Scalar(poly([(2, 1), (0, -1)]), poly([(1, 1), (0, -1)]))
    assert s == C(1) + V(1)           # (v^2-1)/(v-1) = v+1
    assert (s.e, s.n, s.d) == (0, (1, 1), P_ONE)


def test_normalize_zero_and_constant_denominator():
    z = Scalar(P_ZERO, poly([(3, 1)]))
    assert (z.e, z.n, z.d) == (0, P_ZERO, P_ONE)
    h = Scalar(poly([(1, 2)]), poly([(0, 4)]))
    assert h == C(Fraction(1, 2)) * V(1)
    assert (h.e, h.n, h.d) == (1, (1,), (2,))


def test_normalize_zero_denominator_raises():
    with pytest.raises(ZeroDivisionError):
        Scalar(P_ONE, P_ZERO)


def test_normalize_idempotent_on_randoms():
    rng = random.Random(7)
    for _ in range(100):
        num = poly([(e, rng.randint(-4, 4)) for e in range(rng.randint(1, 7))])
        den = poly([(e, rng.randint(-4, 4)) for e in range(rng.randint(1, 7))])
        if not den:
            den = P_ONE
        s = Scalar(num, den)
        t = Scalar((0,) * max(s.e, 0) + s.n, (0,) * max(-s.e, 0) + s.d)
        assert (s.e, s.n, s.d) == (t.e, t.n, t.d)


def test_bar_examples():
    assert (V(1) + V(-1)).bar() == V(1) + V(-1)
    assert V(2).bar() == V(-2)
    w = (C(1) + V(1)) / (C(1) - V(1))
    assert w.bar() == (V(1) + C(1)) / (V(1) - C(1))


def test_bar_is_an_involutive_homomorphism():
    rng = random.Random(3)
    def rand():
        num = poly([(e, rng.randint(-3, 3)) for e in range(4)])
        return Scalar(num if num else P_ONE, poly([(0, 1), (2, rng.randint(0, 2))]))
    for _ in range(30):
        x, y = rand(), rand()
        assert x.bar().bar() == x
        assert (x * y).bar() == x.bar() * y.bar()
        assert (x + y).bar() == x.bar() + y.bar()


def test_of_refuses_float():
    with pytest.raises(TypeError, match="float"):
        Scalar.of(0.1)
    assert Scalar.of(Fraction(1, 10)) * C(10) == C(1)


def test_scalar_refuses_float():
    with pytest.raises(TypeError, match="float"):
        Scalar([0.1])
    with pytest.raises(TypeError, match="float"):
        Scalar([1], [1, 0.5])
    assert Scalar([Fraction(1, 10)], [1, 2]) * Scalar([10]) == Scalar([1], [1, 2])


def test_series_refuses_float():
    with pytest.raises(TypeError, match="float"):
        TruncSeries([0.1], 3)
    with pytest.raises(TypeError, match="float"):
        TruncSeries([1, 0, 2.0], 3)
    assert TruncSeries([Fraction(1, 10), 2], 3).coeffs == [Fraction(1, 10), 2, 0, 0]


def test_series_examples():
    g = C(1) / (C(1) - V(1))
    assert scalar_to_series(g, 3).coeffs == [1, 1, 1, 1]
    assert scalar_to_series(V(2), 1).coeffs == [0, 0]
    # (1+v)/(1-v^2) reduces to 1/(1-v); its cousin 1/(1-v^2) alternates
    f = (C(1) + V(1)) / (C(1) - V(2))
    assert scalar_to_series(f, 4).coeffs == [1, 1, 1, 1, 1]
    f2 = C(1) / (C(1) - V(2))
    assert scalar_to_series(f2, 4).coeffs == [1, 0, 1, 0, 1]


def test_series_pole_raises():
    with pytest.raises(ValueError, match="pole at origin"):
        scalar_to_series(V(-1), 4)


def test_series_multiplicativity():
    rng = random.Random(11)
    for _ in range(20):
        x = Scalar(poly([(e, rng.randint(-3, 3)) for e in range(3)]) or P_ONE,
                   poly([(0, 1), (1, rng.randint(-2, 2)), (3, rng.randint(-2, 2))]))
        y = Scalar(poly([(e, rng.randint(-3, 3)) for e in range(3)]) or P_ONE,
                   poly([(0, 2), (2, rng.randint(-2, 2))]))
        M = 12
        assert scalar_to_series(x * y, M) == scalar_to_series(x, M) * scalar_to_series(y, M)


def test_series_division_and_precision():
    a = TruncSeries([0, 0, 1, 1], 6)
    b = TruncSeries([0, 1], 6)
    q = a.divide(b)
    assert q.precision == 5 and q.coeffs[:3] == [0, 1, 1]
    with pytest.raises(ValueError, match="precision exhausted"):
        b.divide(a)
    with pytest.raises(ValueError, match="precision exhausted"):
        b.divide(TruncSeries.zero(6))


def test_gcd_agrees_with_product_structure():
    a = poly([(0, -1), (2, 1)])          # v^2-1
    b = poly([(0, 1), (1, 2), (2, 1)])   # (v+1)^2
    g = p_gcd(p_mul(a, b), p_mul(a, a))[0]
    # common factor (v^2-1)(v+1)
    expect = Scalar(p_mul(a, poly([(0, 1), (1, 1)])))
    assert Scalar(g) == expect or Scalar(g) == expect * C(-1)


def test_sqrt():
    x = V(3) + V(-3) + C(2)
    t = x * x
    r = t.sqrt()
    assert r is not None and r * r == t
    assert (V(1) + C(1)).sqrt() is None


def test_str_format():
    s = (C(2) * V(3) - V(1) + C(1)) / (V(2) + C(1))
    assert str(s) == "(2*v^3 - v + 1)/(v^2 + 1)"
    assert str(V(-2)) == "1/(v^2)"
