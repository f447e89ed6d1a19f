"""Exact arithmetic in Q(v) for a formal variable v = q^(1/2).

Every coefficient in this package is a Scalar, stored in one canonical
integer form

    v^e * N(v) / D(v)

where N and D are tuples of Python ints in ascending degree, without
trailing zeros, such that

  * N and D have nonzero constant terms (the valuation at v = 0 is e);
  * N and D are coprime in Q[v];
  * D has a positive leading coefficient;
  * the integer content of N and D jointly is 1.

Zero is e = 0, N = (), D = (1,).  Every nonzero element of Q(v) has
exactly one such form, so equality and hashing compare the fields.  A
Laurent polynomial with integer coefficients has D = (1,); on those,
+, - and * are integer-polynomial operations with an exponent shift and
need no gcd.  The bar involution v -> 1/v reverses N and D.  Only an
operation on a true rational function (D not constant) reaches p_gcd.

Integer polynomials also travel as one int, their value at v = 2^B
(Kronecker substitution, Harvey, JSC 2009), the kernel that weights and
qdiff share.  On it, p_gcd is the heuristic gcd GCDHEU: one integer gcd,
the gcd and both cofactors read back from digits and certified by exact
products; reductions take the cofactors and divide nothing.  Digits of
1, 2, 4 or 8 bytes are read back through the slots of a signed array,
all of an int's digits in one C-level pass, and int_reslot moves an
int's digits to slots of another width.

TruncSeries is the oracle ring Q[[v]] / (v^(M+1)) used by the
constant-term machinery, in the same kind of integer form: a list num of
M + 1 Python ints over one integer denominator den > 0, with
gcd(den, *num) = 1.  The zero series has den = 1.  Sums bring both sides
over a common denominator with one gcd, products are integer
convolutions truncated at M, and division is fraction-free (powers of
the divisor's leading coefficient stand in for its inverse); each ends in
one gcd pass that restores content 1, which a denominator of 1 skips.
The read-only coeffs property gives the coefficients as Fractions.
"""

from __future__ import annotations

import sys
from array import array
from fractions import Fraction
from math import gcd, isqrt

Poly = tuple

P_ZERO: Poly = ()
P_ONE: Poly = (1,)

DEFAULT_PRECISION = 40


def p_make(coeffs) -> Poly:
    """Trim trailing zeros."""
    cs = list(coeffs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def p_neg(a: Poly) -> Poly:
    return tuple(-c for c in a)


def p_mul(a: Poly, b: Poly) -> Poly:
    """Product of trimmed polynomials over an integral domain (so the
    product needs no trimming)."""
    if not a or not b:
        return P_ZERO
    if len(a) < len(b):
        a, b = b, a
    if len(b) == 1:
        c = b[0]
        return tuple(c * x for x in a)
    cs = [0] * (len(a) + len(b) - 1)
    for i, cb in enumerate(b):
        if cb:
            for j, ca in enumerate(a, i):
                cs[j] += ca * cb
    return tuple(cs)


def p_divexact(a: Poly, b: Poly) -> Poly:
    """a / b over Z; raises ValueError unless b divides a in Z[v]."""
    lb = b[-1]
    r = list(a)
    q = [0] * (len(a) - len(b) + 1)
    for k in range(len(q) - 1, -1, -1):
        c, m = divmod(r[k + len(b) - 1], lb)
        if m:
            raise ValueError("not divisible")
        if c:
            q[k] = c
            for i, cb in enumerate(b, k):
                r[i] -= c * cb
    if any(r):
        raise ValueError("not divisible")
    return tuple(q)


def byte_width(bound: int) -> int:
    """The least multiple of 8 that is at least bound's bit length: a slot
    width B with |c| < 2^(B-1) for every |c| <= bound / 2."""
    return -(-bound.bit_length() // 8) * 8


def p_to_int(a, B: int) -> int:
    """a(2^B): the integer polynomial a as one int (Kronecker substitution)."""
    z = 0
    for c in reversed(a):
        z = (z << B) + c
    return z


# the signed array typecode of each item size in bytes
_SIGNED_CODES = {array(code).itemsize: code for code in "bhilq"}


def _bias(m: int, k: int, n: int) -> int:
    """2^(8m-1) in each of n slots of k bytes: added to an int whose
    balanced base-2^(8k) digits lie below 2^(8m-1) in absolute value, it
    makes every digit nonnegative and below 2^(8m)."""
    return int.from_bytes((bytes(m - 1) + b"\x80" + bytes(k - m)) * n, "little")


def p_from_int(z: int, B: int) -> list:
    """The integer polynomial a with a(2^B) = z whose coefficients c satisfy
    -2^(B-1) <= c < 2^(B-1): the balanced base-2^B digits of z, for B a
    multiple of 8, possibly with trailing zeros.

    Adding 2^(B-1) in every slot makes each digit nonnegative, so no slot
    borrows from the next; flipping each slot's top bit back (the same
    bias, by xor) leaves every slot holding its digit in two's complement.
    Slots of 1, 2, 4 or 8 bytes are then read by one signed array, the
    others one slice at a time."""
    if not z:
        return []
    k = B // 8
    n = z.bit_length() // B + 2
    bias = _bias(k, k, n)
    raw = ((z + bias) ^ bias).to_bytes(n * k, "little")
    code = _SIGNED_CODES.get(k)
    if code is None:
        return [int.from_bytes(raw[i:i + k], "little", signed=True) for i in range(0, n * k, k)]
    slots = array(code, raw)
    if sys.byteorder == "big":
        slots.byteswap()
    return slots.tolist()


def int_reslot(z: int, B0: int, B: int) -> int:
    """a(2^B) from z = a(2^B0), for B0 and B multiples of 8 and an integer
    polynomial a with coefficients below 2^(min(B0, B) - 1) in absolute
    value: the biased digits are moved bytewise to the new slots."""
    k0, k, m = B0 // 8, B // 8, min(B0, B) // 8
    n = z.bit_length() // B0 + 2
    raw = (z + _bias(m, k0, n)).to_bytes(n * k0, "little")
    out = bytearray(n * k)
    for j in range(m):
        out[j::k] = raw[j::k0]
    return int.from_bytes(out, "little") - _bias(m, k, n)


def _content(a):
    """The content of a nonzero a, with the sign of its leading coefficient."""
    g = gcd(*a)
    return -g if a[-1] < 0 else g


def _certify(g, q, a, norm, k) -> bool:
    """g * q == a as polynomials, for a of infinity norm norm, given
    g(2^k) * q(2^k) == a(2^k).  At a width W that holds every coefficient
    of both sides below 2^(W-1) in absolute value (|g|_1 * |q|_inf bounds
    those of g * q), their difference has coefficients below 2^W, and
    evaluation at 2^W is injective on such polynomials: one integer
    product at W decides, and the given one at k does when W <= k."""
    W = byte_width(2 * max(sum(map(abs, g)) * max(map(abs, q), default=0), norm))
    return W <= k or p_to_int(g, W) * p_to_int(q, W) == p_to_int(a, W)


def p_gcd(a: Poly, b: Poly):
    """(g, a / g, b / g) for integer polynomials a and b, with g their
    gcd, primitive with a positive leading coefficient (g = 0 when both
    are zero), by the heuristic gcd GCDHEU (Char, Geddes and Gonnet,
    J. Symbolic Comput. 7, 1989) on the Kronecker kernel.

    Let A, B be the primitive parts of a, b and xi = 2^k, k a multiple of
    8, with xi >= 2 min(|A|_inf, |B|_inf) + 2.  G is the primitive part of
    the polynomial whose balanced base-xi digits are gcd(A(xi), B(xi)).
    The theorem: if G divides A and B, then G is their gcd.  The cofactor
    candidates are the digits of A(xi) / G(xi) and B(xi) / G(xi), and
    G * A' = A, G * B' = B, which hold at xi, are certified as
    polynomials (_certify); a failed certificate doubles k.

    Termination: with g the gcd, A = g A0 and B = g B0, gcd(A(xi), B(xi))
    is g(xi) times gamma = gcd(A0(xi), B0(xi)), and gamma divides the
    resultant res(A0, B0), which is nonzero (A0, B0 are coprime) and free
    of xi, since res = S A0 + T B0 with S, T in Z[v].  Once xi / 2
    exceeds the coefficients of gamma * g and of the cofactors, the digits
    are gamma * g and the certificates hold, so a finite width succeeds."""
    if not a or not b:
        c = _content(a or b) if a or b else 1
        return tuple(x // c for x in a or b), (c,) if a else P_ZERO, (c,) if b else P_ZERO
    ca, cb = _content(a), _content(b)
    A, B = [c // ca for c in a], [c // cb for c in b]
    na, nb = max(map(abs, A)), max(map(abs, B))
    k = byte_width(2 * min(na, nb) + 2)
    while True:
        xa, xb = p_to_int(A, k), p_to_int(B, k)
        h = gcd(xa, xb)
        G = p_make(p_from_int(h, k))
        if len(G) == 1:
            return P_ONE, a, b
        cg = _content(G)
        G, xg = tuple(c // cg for c in G), h // cg
        A1, B1 = p_make(p_from_int(xa // xg, k)), p_make(p_from_int(xb // xg, k))
        if _certify(G, A1, A, na, k) and _certify(G, B1, B, nb, k):
            return G, tuple(ca * c for c in A1), tuple(cb * c for c in B1)
        k *= 2


def p_sqrt(a: Poly):
    """The integer polynomial with positive leading coefficient whose
    square is a, or None."""
    if not a:
        return P_ZERO
    d = len(a) - 1
    if d % 2:
        return None
    lead = isqrt(a[-1]) if a[-1] > 0 else 0
    if lead * lead != a[-1]:
        return None
    m = d // 2
    s = [0] * (m + 1)
    s[m] = lead
    for idx in range(m - 1, -1, -1):
        acc = a[idx + m]
        for i in range(idx + 1, m):
            acc -= s[i] * s[idx + m - i]
        s[idx], r = divmod(acc, 2 * lead)
        if r:
            return None
    cand = tuple(s)
    return cand if p_mul(cand, cand) == a else None


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


def _strip(e, cs):
    """(e', tuple) with v^e' * tuple = v^e * cs and no zero at either end;
    (0, ()) for zero."""
    hi = len(cs)
    while hi and not cs[hi - 1]:
        hi -= 1
    if not hi:
        return 0, P_ZERO
    lo = 0
    while not cs[lo]:
        lo += 1
    return e + lo, tuple(cs[lo:hi])


def _laurent_add(ea, a, eb, b):
    """v^ea * a + v^eb * b, stripped as by _strip."""
    if ea > eb:
        ea, a, eb, b = eb, b, ea, a
    k = eb - ea
    cs = list(a)
    if len(cs) < k + len(b):
        cs.extend([0] * (k + len(b) - len(cs)))
    for i, c in enumerate(b, k):
        cs[i] += c
    return _strip(ea, cs)


def _split(a, b):
    """(g, a / g, b / g) for g = gcd(a, b); constant polynomials share no
    factor worth a gcd."""
    if len(a) > 1 and len(b) > 1:
        return p_gcd(a, b)
    return P_ONE, a, b


_new_object = object.__new__


def _new(e, n, d):
    x = _new_object(Scalar)
    x.e = e
    x.n = n
    x.d = d
    return x


def _normal(e, n, d):
    """The Scalar v^e * n/d for coprime n, d with nonzero constant terms:
    fixes the joint content and the sign of D's leading coefficient."""
    if d == P_ONE:
        return _new(e, n, d)
    c = gcd(*n, *d)
    if d[-1] < 0:
        c = -c
    if c != 1:
        n = tuple(x // c for x in n)
        d = tuple(x // c for x in d)
    return _new(e, n, d)


def _reduce(e, n, d):
    """The Scalar v^e * n/d for n, d with nonzero constant terms."""
    _, n, d = _split(n, d)
    return _normal(e, n, d)


class Scalar:
    """v^e * N(v)/D(v) in the canonical integer form of the module
    docstring; build one with Scalar(num, den), Scalar.of, v_pow or
    monomial."""

    __slots__ = ("e", "n", "d")

    def __init__(self, num, den=P_ONE):
        """num / den for coefficient sequences (ascending degree) of exact
        rationals, in any form: unreduced, with powers of v, non-integral;
        a float is refused, as by Scalar.of."""
        num, den = list(num), list(den)
        for c in num + den:
            if isinstance(c, float):
                raise TypeError("Scalar needs exact numbers, got float %r" % c)
        num = [Fraction(c) for c in num]
        den = [Fraction(c) for c in den]
        lcm = 1
        for c in num + den:
            lcm = lcm * c.denominator // gcd(lcm, c.denominator)
        ed, d = _strip(0, [int(c * lcm) for c in den])
        if not d:
            raise ZeroDivisionError("division by zero")
        en, n = _strip(0, [int(c * lcm) for c in num])
        if not n:
            self.e, self.n, self.d = 0, P_ZERO, P_ONE
            return
        x = _reduce(en - ed, n, d)
        self.e, self.n, self.d = x.e, x.n, x.d

    @staticmethod
    def of(x) -> "Scalar":
        """A Scalar from a Scalar or an exact number; a float is refused,
        since its binary value is rarely the number that was meant."""
        if isinstance(x, Scalar):
            return x
        if isinstance(x, float):
            raise TypeError("Scalar.of needs an exact number, got float %r" % x)
        x = Fraction(x)
        if not x:
            return SC_ZERO
        return _new(0, (x.numerator,), (x.denominator,))

    @staticmethod
    def v_pow(k: int) -> "Scalar":
        """v^k for any integer k."""
        return _new(k, P_ONE, P_ONE)

    @staticmethod
    def laurent(e: int, cs) -> "Scalar":
        """v^e * sum(cs[i] * v^i) for a sequence cs of ints."""
        e, n = _strip(e, cs)
        return _new(e, n, P_ONE)

    @staticmethod
    def monomial(coeff, k: int) -> "Scalar":
        """coeff * v^k."""
        return Scalar.of(coeff) * Scalar.v_pow(k)

    def __bool__(self):
        return bool(self.n)

    def __eq__(self, other):
        if not isinstance(other, Scalar):
            other = Scalar.of(other)
        return self.e == other.e and self.n == other.n and self.d == other.d

    def __hash__(self):
        return hash((self.e, self.n, self.d))

    def __add__(self, other):
        """Henrici's sum (Knuth, TAOCP 2, 4.5.1): for g = gcd(b, d),
        b = g b' and d = g d', a/b + c/d is t / (b' d' g) with
        t = a d' + c b', and only a factor of g can cancel from it."""
        other = Scalar.of(other)
        if not other.n:
            return self
        if not self.n:
            return other
        b, d = self.d, other.d
        if b == d:
            e, t = _laurent_add(self.e, self.n, other.e, other.n)
            if not t:
                return SC_ZERO
            if b == P_ONE:
                return _new(e, t, P_ONE)
            return _reduce(e, t, b)
        g, b, d = _split(b, d)
        e, t = _laurent_add(self.e, p_mul(self.n, d), other.e, p_mul(other.n, b))
        if not t:
            return SC_ZERO
        _, t, g = _split(t, g)
        return _normal(e, t, p_mul(p_mul(b, d), g))

    __radd__ = __add__

    def __neg__(self):
        return _new(self.e, p_neg(self.n), self.d)

    def __sub__(self, other):
        return self + (-Scalar.of(other))

    def __mul__(self, other):
        other = Scalar.of(other)
        if not self.n or not other.n:
            return SC_ZERO
        e = self.e + other.e
        if self.d == P_ONE and other.d == P_ONE:
            return _new(e, p_mul(self.n, other.n), P_ONE)
        _, n1, d2 = _split(self.n, other.d)
        _, n2, d1 = _split(other.n, self.d)
        return _normal(e, p_mul(n1, n2), p_mul(d1, d2))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self * Scalar.of(other).inverse()

    def inverse(self) -> "Scalar":
        if not self.n:
            raise ZeroDivisionError("division by zero")
        if self.n[-1] < 0:
            return _new(-self.e, p_neg(self.d), p_neg(self.n))
        return _new(-self.e, self.d, self.n)

    def bar(self) -> "Scalar":
        """The involution v -> 1/v."""
        n, d = self.n, self.d
        if not n:
            return self
        e = len(d) - len(n) - self.e
        if d[0] < 0:
            return _new(e, p_neg(n[::-1]), p_neg(d[::-1]))
        return _new(e, n[::-1], d[::-1])

    def sqrt(self):
        """Exact square root in Q(v), or None.  Of the two roots, the one
        whose ratio of leading coefficients is positive."""
        if self.e % 2:
            return None
        rn = p_sqrt(self.n)
        rd = p_sqrt(self.d)
        if rn is None or rd is None:
            return None
        return _new(self.e // 2, rn, rd)

    def __str__(self):
        # N and D are jointly primitive with D's leading coefficient
        # positive, so they print as stored: integer coefficients only
        e = self.e
        num = (0,) * e + self.n if e > 0 else self.n
        den = (0,) * -e + self.d if e < 0 else self.d
        if den == P_ONE:
            return p_str(num)
        ns, ds = p_str(num), p_str(den)
        if len(num) > 1:
            ns = "(%s)" % ns
        if len(den) > 1:
            ds = "(%s)" % ds
        return "%s/%s" % (ns, ds)

    def __repr__(self):
        return "Scalar(%s)" % self


SC_ZERO = _new(0, P_ZERO, P_ONE)
SC_ONE = _new(0, P_ONE, P_ONE)


class TruncSeries:
    """Truncated power series in v, exact modulo v^(M+1), in the integer
    form of the module docstring: num / den with den > 0 and content 1."""

    __slots__ = ("num", "den", "precision")

    def __init__(self, coeffs, precision):
        """The series of the exact rationals coeffs (ascending degree),
        truncated or padded to precision + 1 terms; a float is refused,
        as by Scalar.of."""
        cs = []
        for c in list(coeffs)[: precision + 1]:
            if isinstance(c, float):
                raise TypeError("TruncSeries needs exact numbers, got float %r" % c)
            cs.append(Fraction(c))
        lcm = 1
        for c in cs:
            lcm = lcm * c.denominator // gcd(lcm, c.denominator)
        num = [c.numerator * (lcm // c.denominator) for c in cs]
        num += [0] * (precision + 1 - len(num))
        self.num, self.den, self.precision = num, lcm, precision

    @property
    def coeffs(self):
        """The coefficients as exact rationals (a fresh list)."""
        den = self.den
        return [Fraction(c, den) for c in self.num]

    @staticmethod
    def zero(M):
        return _series([0] * (M + 1), 1, M)

    @staticmethod
    def one(M):
        return _series([1] + [0] * M, 1, M)

    def is_zero(self):
        return not any(self.num)

    def valuation(self):
        for i, c in enumerate(self.num):
            if c:
                return i
        return None

    def __eq__(self, other):
        if not isinstance(other, TruncSeries):
            return NotImplemented
        M = min(self.precision, other.precision)
        a, b = self.num[: M + 1], other.num[: M + 1]
        da, db = self.den, other.den
        if da == db:
            return a == b
        return all(x * db == y * da for x, y in zip(a, b))

    def _combine(self, other, sign):
        """self + sign * other over the common denominator."""
        M = min(self.precision, other.precision)
        a, b = self.num, other.num
        da, db = self.den, other.den
        if da == db:
            if sign > 0:
                cs = [x + y for x, y in zip(a[: M + 1], b)]
            else:
                cs = [x - y for x, y in zip(a[: M + 1], b)]
            return _canon(cs, da, M)
        g = gcd(da, db)
        fa, fb = db // g, sign * (da // g)
        cs = [x * fa + y * fb for x, y in zip(a[: M + 1], b)]
        return _canon(cs, da // g * db, M)

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def __neg__(self):
        return _series([-c for c in self.num], self.den, self.precision)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Fraction(other)
            return _canon([c * other.numerator for c in self.num],
                          self.den * other.denominator, self.precision)
        M = min(self.precision, other.precision)
        bs = [(j, y) for j, y in enumerate(other.num[: M + 1]) if y]
        cs = [0] * (M + 1)
        for i, x in enumerate(self.num[: M + 1]):
            if x:
                for j, y in bs:
                    if i + j > M:
                        break
                    cs[i + j] += x * y
        return _canon(cs, self.den * other.den, M)

    __rmul__ = __mul__

    def divide(self, other: "TruncSeries") -> "TruncSeries":
        """Series division; lowers precision by the divisor's valuation.

        With A, B the numerators past the valuation s, B divided by its
        content, and t = B[0], the quotient A/B has coefficients
        q_k / t^(k+1) for the integers
        q_k = t^k A_k - sum_i q_i B_(k-i) t^(k-1-i), the sum running over
        the i with k - i <= deg B; for |t| = 1 the powers of t are signs."""
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
        A = self.num[s : M + 1]
        B = other.num[s : M + 1]
        deg = len(B) - 1
        while not B[deg]:
            deg -= 1
        # a / b = (A / da) / (B / db) = (A / B) * db / da
        c = gcd(*B[: deg + 1])
        if c != 1:
            B = [x // c for x in B[: deg + 1]]
        da, db = self.den * c, other.den
        t = B[0]
        tp = [1] * (M2 + 2)
        for k in range(1, M2 + 2):
            tp[k] = tp[k - 1] * t
        q = [0] * (M2 + 1)
        for k in range(M2 + 1):
            acc = tp[k] * A[k]
            for i in range(max(0, k - deg), k):
                acc -= q[i] * B[k - i] * tp[k - 1 - i]
            q[k] = acc
        # q_k / t^(k+1) over the one denominator t^(M2+1)
        den = tp[M2 + 1] * da
        cs = [x * tp[M2 - k] * db for k, x in enumerate(q)]
        if den < 0:
            den = -den
            cs = [-x for x in cs]
        return _canon(cs, den, M2)

    def __str__(self):
        return p_str(p_make(self.coeffs)) + " + O(v^%d)" % (self.precision + 1)

    __repr__ = __str__


def _series(num, den, M):
    """The TruncSeries num / den of precision M for a list num of M + 1
    ints and den > 0 already in the canonical form."""
    x = _new_object(TruncSeries)
    x.num = num
    x.den = den
    x.precision = M
    return x


def _canon(num, den, M):
    """The TruncSeries num / den for a list num of M + 1 ints and den > 0:
    divides out the joint content."""
    if den != 1:
        g = gcd(den, *num)
        if g != 1:
            num = [c // g for c in num]
            den //= g
    return _series(num, den, M)


def scalar_to_series(x: Scalar, M: int = DEFAULT_PRECISION) -> TruncSeries:
    """Expand a Scalar at v = 0; it must have no pole there (e >= 0).
    A Laurent polynomial (D = 1) needs no division."""
    if x.e < 0:
        raise ValueError("pole at origin")
    num = ([0] * x.e + list(x.n))[: M + 1]
    num += [0] * (M + 1 - len(num))
    if x.d == P_ONE:
        return _series(num, 1, M)
    den = list(x.d[: M + 1])
    den += [0] * (M + 1 - len(den))
    return _series(num, 1, M).divide(_series(den, 1, M))
