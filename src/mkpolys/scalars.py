"""Exact arithmetic in Q(v) for a formal variable v = q^(1/D).

Every coefficient in this package is a Scalar: a reduced fraction of
univariate polynomials over Q in v, with monic denominator.  The bar
involution is the Q-algebra map v -> 1/v.  TruncSeries is the oracle ring
Q[[v]] / (v^(M+1)) used by the constant-term machinery.

Polynomials are stored as tuples of Fractions, ascending degree, with no
trailing zeros.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt

Poly = tuple

_F0 = Fraction(0)
_F1 = Fraction(1)
P_ZERO: Poly = ()
P_ONE: Poly = (_F1,)

DEFAULT_PRECISION = 40


def p_make(coeffs) -> Poly:
    """Trim trailing zeros; coefficients must already be Fractions."""
    cs = list(coeffs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def p_from_terms(pairs) -> Poly:
    """Build a polynomial from (exponent, coefficient) pairs."""
    pairs = list(pairs)
    if not pairs:
        return P_ZERO
    deg = max(e for e, _ in pairs)
    cs = [_F0] * (deg + 1)
    for e, c in pairs:
        cs[e] += Fraction(c)
    return p_make(cs)


def p_deg(a: Poly) -> int:
    return len(a) - 1


def p_add(a: Poly, b: Poly) -> Poly:
    if len(a) < len(b):
        a, b = b, a
    cs = list(a)
    for i, c in enumerate(b):
        cs[i] += c
    return p_make(cs)


def p_neg(a: Poly) -> Poly:
    return tuple(-c for c in a)


def p_sub(a: Poly, b: Poly) -> Poly:
    return p_add(a, p_neg(b))


def p_mul(a: Poly, b: Poly) -> Poly:
    if not a or not b:
        return P_ZERO
    cs = [_F0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                if cb:
                    cs[i + j] += ca * cb
    return p_make(cs)


def p_scale(a: Poly, c) -> Poly:
    c = Fraction(c)
    if not c:
        return P_ZERO
    return tuple(x * c for x in a)


def p_divmod(a: Poly, b: Poly):
    if not b:
        raise ZeroDivisionError("division by zero")
    q = [_F0] * max(len(a) - len(b) + 1, 0)
    r = list(a)
    lb = b[-1]
    while len(r) >= len(b) and r:
        if r[-1] == 0:
            r.pop()
            continue
        k = len(r) - len(b)
        t = r[-1] / lb
        q[k] = t
        for i, cb in enumerate(b):
            r[k + i] -= t * cb
        r.pop()
    return p_make(q), p_make(r)


def p_shift(a: Poly, k: int) -> Poly:
    """Multiply by v^k (k >= 0)."""
    if not a:
        return P_ZERO
    return (_F0,) * k + a


def p_reversed(a: Poly, m: int) -> Poly:
    """v^m * a(1/v); requires m >= deg(a)."""
    cs = [_F0] * (m + 1)
    for i, c in enumerate(a):
        cs[m - i] = c
    return p_make(cs)


def _to_int(a: Poly):
    from math import gcd
    lcm = 1
    for c in a:
        d = c.denominator
        lcm = lcm * d // gcd(lcm, d)
    return [int(c * lcm) for c in a]


def _int_prim(a):
    from math import gcd
    g = 0
    for c in a:
        g = gcd(g, abs(c))
    if g <= 1:
        return list(a)
    return [c // g for c in a]


def _prem(A, B):
    """Pseudo-remainder of A by B over Z (ascending coefficient lists)."""
    dA, dB = len(A) - 1, len(B) - 1
    if dA < dB:
        return list(A)
    lb = B[-1]
    R = list(A)
    n = dA - dB + 1
    while R and len(R) - 1 >= dB:
        e = len(R) - 1 - dB
        top = R[-1]
        R = [lb * c for c in R]
        for i, cb in enumerate(B):
            R[e + i] -= top * cb
        while R and R[-1] == 0:
            R.pop()
        n -= 1
    if n > 0:
        s = lb ** n
        R = [s * c for c in R]
    return R


def p_monic(a: Poly) -> Poly:
    if not a or a[-1] == 1:
        return a
    lc = a[-1]
    return tuple(c / lc for c in a)


def p_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd via the primitive subresultant remainder sequence."""
    if not a:
        return p_monic(b)
    if not b:
        return p_monic(a)
    A = _int_prim(_to_int(a))
    B = _int_prim(_to_int(b))
    if len(A) < len(B):
        A, B = B, A
    g = h = 1
    while True:
        delta = len(A) - len(B)
        R = _prem(A, B)
        if not R:
            break
        if len(R) == 1:
            return P_ONE
        A, B = B, [c // (g * h ** delta) for c in R]
        g = A[-1]
        if delta > 0:
            h = g ** delta // h ** (delta - 1)
    return p_monic(p_make([Fraction(c) for c in _int_prim(B)]))


def _frac_sqrt(c: Fraction):
    if c < 0:
        return None
    n, d = c.numerator, c.denominator
    rn, rd = isqrt(n), isqrt(d)
    if rn * rn != n or rd * rd != d:
        return None
    return Fraction(rn, rd)


def p_sqrt(a: Poly):
    """Exact square root of a polynomial, or None."""
    if not a:
        return P_ZERO
    d = p_deg(a)
    if d % 2:
        return None
    lead = _frac_sqrt(a[-1])
    if lead is None:
        return None
    m = d // 2
    s = [_F0] * (m + 1)
    s[m] = lead
    for idx in range(m - 1, -1, -1):
        acc = a[idx + m] if idx + m < len(a) else _F0
        for i in range(idx + 1, m):
            j = idx + m - i
            if idx < j <= m and i <= m:
                acc -= s[i] * s[j]
        s[idx] = acc / (2 * lead)
    cand = p_make(s)
    if p_mul(cand, cand) == a:
        return cand
    if p_mul(p_neg(cand), p_neg(cand)) == a:
        return cand
    return None


def p_str(a: Poly) -> str:
    if not a:
        return "0"
    parts = []
    for e in range(len(a) - 1, -1, -1):
        c = a[e]
        if not c:
            continue
        if e == 0:
            term = str(c)
        else:
            base = "v" if e == 1 else "v^%d" % e
            if c == 1:
                term = base
            elif c == -1:
                term = "-" + base
            else:
                term = "%s*%s" % (c, base)
        parts.append(term)
    out = parts[0]
    for t in parts[1:]:
        out += " - " + t[1:] if t.startswith("-") else " + " + t
    return out


class Scalar:
    """A reduced fraction of polynomials in v; denominator monic."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=P_ONE, _canonical=False):
        if _canonical:
            self.num = num
            self.den = den
            return
        num = num if isinstance(num, tuple) else p_make(num)
        den = den if isinstance(den, tuple) else p_make(den)
        if not den:
            raise ZeroDivisionError("division by zero")
        if not num:
            self.num, self.den = P_ZERO, P_ONE
            return
        if den != P_ONE:
            # strip the common power of v first; most denominators in the
            # operator pipeline are monomials and never need a full gcd
            nv = 0
            while num[nv] == 0:
                nv += 1
            dv = 0
            while den[dv] == 0:
                dv += 1
            s = nv if nv < dv else dv
            if s:
                num = num[s:]
                den = den[s:]
            if len(den) > 1:
                g = p_gcd(num, den)
                if g != P_ONE:
                    num, _ = p_divmod(num, g)
                    den, _ = p_divmod(den, g)
            if den[-1] != 1:
                lc = den[-1]
                num = tuple(c / lc for c in num)
                den = tuple(c / lc for c in den)
        self.num = num
        self.den = den

    @staticmethod
    def of(x) -> "Scalar":
        """A Scalar from a Scalar or an exact number; a float is refused,
        since its binary value is rarely the number that was meant."""
        if isinstance(x, Scalar):
            return x
        if isinstance(x, float):
            raise TypeError("Scalar.of needs an exact number, got float %r" % x)
        return Scalar(p_make([Fraction(x)]))

    @staticmethod
    def v_pow(k: int) -> "Scalar":
        """v^k for any integer k."""
        if k >= 0:
            return Scalar(p_shift(P_ONE, k), P_ONE, _canonical=True)
        return Scalar(P_ONE, p_shift(P_ONE, -k), _canonical=True)

    @staticmethod
    def monomial(coeff, k: int) -> "Scalar":
        """coeff * v^k."""
        return Scalar.of(coeff) * Scalar.v_pow(k)

    def __bool__(self):
        return bool(self.num)

    def is_one(self) -> bool:
        return self.num == P_ONE and self.den == P_ONE

    def __eq__(self, other):
        if not isinstance(other, Scalar):
            other = Scalar.of(other)
        return p_mul(self.num, other.den) == p_mul(other.num, self.den)

    def __hash__(self):
        return hash((self.num, self.den))

    def __add__(self, other):
        other = Scalar.of(other)
        if self.den == P_ONE and other.den == P_ONE:
            return Scalar(p_add(self.num, other.num), P_ONE, _canonical=True)
        return Scalar(
            p_add(p_mul(self.num, other.den), p_mul(other.num, self.den)),
            p_mul(self.den, other.den),
        )

    __radd__ = __add__

    def __neg__(self):
        return Scalar(p_neg(self.num), self.den, _canonical=True)

    def __sub__(self, other):
        return self + (-Scalar.of(other))

    def __mul__(self, other):
        other = Scalar.of(other)
        if self.den == P_ONE and other.den == P_ONE:
            return Scalar(p_mul(self.num, other.num), P_ONE, _canonical=True)
        return Scalar(p_mul(self.num, other.num), p_mul(self.den, other.den))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = Scalar.of(other)
        return Scalar(p_mul(self.num, other.den), p_mul(self.den, other.num))

    def __pow__(self, k: int):
        if k < 0:
            return (Scalar(P_ONE) / self) ** (-k)
        out = Scalar(P_ONE)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def inverse(self) -> "Scalar":
        return Scalar(self.den, self.num)

    def bar(self) -> "Scalar":
        """The involution v -> 1/v."""
        m = max(p_deg(self.num), p_deg(self.den))
        return Scalar(p_reversed(self.num, m), p_reversed(self.den, m))

    def sqrt(self):
        """Exact square root in Q(v), or None."""
        for cand_num in (self.num, p_neg(self.num)):
            rn = p_sqrt(cand_num)
            rd = p_sqrt(self.den)
            if rn is not None and rd is not None:
                s = Scalar(rn, rd)
                if s * s == self:
                    return s
        return None

    def __str__(self):
        # display with integer coefficients: clear denominators jointly
        from math import gcd
        lcm = 1
        for c in self.num + self.den:
            lcm = lcm * c.denominator // gcd(lcm, c.denominator)
        num = tuple(c * lcm for c in self.num)
        den = tuple(c * lcm for c in self.den)
        if den == P_ONE:
            return p_str(num)
        ns, ds = p_str(num), p_str(den)
        if len(num) > 1:
            ns = "(%s)" % ns
        if len(den) > 1 or den[0] < 0:
            ds = "(%s)" % ds
        return "%s/%s" % (ns, ds)

    def __repr__(self):
        return "Scalar(%s)" % self


SC_ZERO = Scalar(P_ZERO)
SC_ONE = Scalar(P_ONE)


class TruncSeries:
    """Truncated power series in v, exact modulo v^(M+1)."""

    __slots__ = ("coeffs", "precision")

    def __init__(self, coeffs, precision):
        cs = [Fraction(c) for c in coeffs][: precision + 1]
        cs += [_F0] * (precision + 1 - len(cs))
        self.coeffs = cs
        self.precision = precision

    @staticmethod
    def zero(M):
        return TruncSeries([], M)

    @staticmethod
    def one(M):
        return TruncSeries([_F1], M)

    def is_zero(self):
        return all(c == 0 for c in self.coeffs)

    def valuation(self):
        for i, c in enumerate(self.coeffs):
            if c:
                return i
        return None

    def __eq__(self, other):
        if not isinstance(other, TruncSeries):
            return NotImplemented
        M = min(self.precision, other.precision)
        return self.coeffs[: M + 1] == other.coeffs[: M + 1]

    def __add__(self, other):
        M = min(self.precision, other.precision)
        return TruncSeries(
            [a + b for a, b in zip(self.coeffs, other.coeffs)], M
        )

    def __neg__(self):
        return TruncSeries([-c for c in self.coeffs], self.precision)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return TruncSeries([c * other for c in self.coeffs], self.precision)
        M = min(self.precision, other.precision)
        cs = [_F0] * (M + 1)
        for i, a in enumerate(self.coeffs[: M + 1]):
            if a:
                for j, b in enumerate(other.coeffs[: M + 1 - i]):
                    if b:
                        cs[i + j] += a * b
        return TruncSeries(cs, M)

    __rmul__ = __mul__

    def shift(self, k: int):
        """Multiply by v^k (k >= 0), keeping the precision."""
        return TruncSeries([_F0] * k + self.coeffs, self.precision)

    def divide(self, other: "TruncSeries") -> "TruncSeries":
        """Series division; lowers precision by the divisor's valuation."""
        M = min(self.precision, other.precision)
        s = other.valuation()
        if s is None:
            raise ValueError("precision exhausted")
        if s > 0:
            v = self.valuation()
            if v is None:
                return TruncSeries.zero(M - s)
            if v < s:
                raise ValueError("precision exhausted")
        M2 = M - s
        num = self.coeffs[s : M + 1]
        den = other.coeffs[s : M + 1]
        out = [_F0] * (M2 + 1)
        for k in range(M2 + 1):
            acc = num[k]
            for i in range(k):
                acc -= out[i] * den[k - i]
            out[k] = acc / den[0]
        return TruncSeries(out, M2)

    def __str__(self):
        return p_str(p_make(self.coeffs)) + " + O(v^%d)" % (self.precision + 1)

    __repr__ = __str__


def scalar_to_series(x: Scalar, M: int = DEFAULT_PRECISION) -> TruncSeries:
    """Expand a Scalar at v = 0; the denominator must not vanish there."""
    if not x.den or x.den[0] == 0:
        raise ValueError("pole at origin")
    return TruncSeries(x.num, M).divide(TruncSeries(x.den, M))
