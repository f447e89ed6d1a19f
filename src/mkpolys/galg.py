"""Sparse elements of the group algebra of the doubled weight lattice.

A GAElem is a finite map weight -> Scalar; its involution bar negates
weights.  Exact division by the binomial atoms 1 - s*v^c*e^(+-w) of one
line +-w, the backbone of the q-difference operator, runs on elements
whose coefficients are ints (v evaluated at 2^B): a chain recurrence of
shifts and additions that divides nothing, run on each chain of the line
for every atom in turn.
"""

from __future__ import annotations

from collections import Counter
from math import factorial, prod
from operator import add, sub

from .roots import (
    Weight,
    dot4,
    is_dominant,
    weyl_group,  # noqa: F401 -- the perfbench tests read galg.weyl_group
    weyl_orbit,
    wneg,
    wsum,
)
from .scalars import SC_ONE, SC_ZERO, Scalar


class GAElem:
    __slots__ = ("rank", "terms")

    def __init__(self, rank: int, terms=None):
        """terms: a dict {weight: coefficient}; zero coefficients are dropped."""
        self.rank = rank
        self.terms = {}
        for w, c in (terms or {}).items():
            c = Scalar.of(c)
            if c:
                self.terms[w] = c

    @staticmethod
    def unit(rank: int) -> "GAElem":
        return GAElem(rank, {(0,) * rank: SC_ONE})

    @staticmethod
    def monomial(rank: int, w: Weight, c=SC_ONE) -> "GAElem":
        return GAElem(rank, {tuple(w): Scalar.of(c)})

    def __eq__(self, other):
        return (
            isinstance(other, GAElem)
            and self.rank == other.rank
            and self.terms == other.terms
        )

    def __add__(self, other):
        self._check(other)
        t = dict(self.terms)
        for w, c in other.terms.items():
            acc = t.get(w)
            s = c if acc is None else acc + c
            if s:
                t[w] = s
            elif w in t:
                del t[w]
        out = GAElem(self.rank)
        out.terms = t
        return out

    def __neg__(self):
        out = GAElem(self.rank)
        out.terms = {w: -c for w, c in self.terms.items()}
        return out

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (Scalar, int)):
            return self.scale(other)
        self._check(other)
        a, b = self.terms, other.terms
        if len(a) < len(b):
            a, b = b, a
        t = {}
        for w1, c1 in a.items():
            for w2, c2 in b.items():
                w = wsum(w1, w2)
                c = c1 * c2
                acc = t.get(w)
                s = c if acc is None else acc + c
                if s:
                    t[w] = s
                elif w in t:
                    del t[w]
        out = GAElem(self.rank)
        out.terms = t
        return out

    __rmul__ = __mul__

    def scale(self, c) -> "GAElem":
        c = Scalar.of(c)
        out = GAElem(self.rank)
        if c:
            out.terms = {w: x * c for w, x in self.terms.items()}
        return out

    def _check(self, other):
        if self.rank != other.rank:
            raise ValueError("rank mismatch")

    def coeff(self, w: Weight) -> Scalar:
        return self.terms.get(tuple(w), SC_ZERO)

    def bar(self) -> "GAElem":
        """Negate all weights, keep coefficients."""
        out = GAElem(self.rank)
        out.terms = {wneg(w): c for w, c in self.terms.items()}
        return out

    def translate(self, mu: Weight, scale: int) -> "GAElem":
        """Scale each e^w by v^(scale * (mu, w)); exponents must be integral."""
        out = GAElem(self.rank)
        t = {}
        for w, c in self.terms.items():
            e = scale * dot4(mu, w)
            if e.denominator != 1:
                raise ValueError("non-integral translation exponent")
            t[w] = c * Scalar.v_pow(int(e))
        out.terms = t
        return out

    def leading(self):
        """(weight, coeff) maximal in the (coordinate sum, lex) extension."""
        w = max(self.terms, key=lambda t: (sum(t), t))
        return w, self.terms[w]

    def __repr__(self):
        if not self.terms:
            return "GA(0)"
        bits = []
        for w, c in sorted(self.terms.items(), key=lambda t: (sum(t[0]), t[0])):
            bits.append("(%s)*e%s" % (c, list(w)))
        return "GA(" + " + ".join(bits) + ")"


def orbit_sum(lam: Weight, n: int) -> GAElem:
    """Sum of e^(w lam) over the distinct orbit elements."""
    if not is_dominant(lam):
        raise ValueError("weights must be dominant")
    return GAElem(n, {w: SC_ONE for w in weyl_orbit(lam, n)})


def m_basis(f: GAElem) -> dict:
    """Coordinates of an invariant element in the orbit-sum basis: its
    dominant terms, once require_invariant has passed."""
    require_invariant(f.terms, "element")
    return {w: c for w, c in f.terms.items() if is_dominant(w)}


def require_invariant(terms: dict, name: str):
    """ValueError naming the element {weight: nonzero coefficient} unless
    it is Weyl invariant, in O(terms): per dominant weight d, the terms in
    its orbit whose coefficient is the one at d must number the orbit's
    size, n! / prod(mult!) * 2^(nonzero entries)."""
    count = Counter()
    for w, c in terms.items():
        d = tuple(sorted(map(abs, w), reverse=True))
        count[d] += c == terms.get(d, 0)
    for d, k in count.items():
        size = factorial(len(d)) // prod(map(factorial, Counter(d).values())) << sum(map(bool, d))
        if k != size:
            raise ValueError("%s is not Weyl invariant on the orbit of %s" % (name, d))


def from_m_basis(coeffs: dict, n: int) -> GAElem:
    """sum_lam c_lam * m_lam over a map {dominant weight: coefficient};
    distinct dominant weights have disjoint orbits, so no terms add up."""
    out = GAElem(n)
    for lam, c in coeffs.items():
        c = Scalar.of(c)
        if c:
            out.terms.update(dict.fromkeys(orbit_sum(lam, n).terms, c))
    return out


def chains(terms: dict, w: Weight) -> dict:
    """terms split into chains along w (nonzero): x0 -> {j: terms[x0 + j*w]},
    with the base x0 of each chain fixed by its first nonzero coordinate
    along w."""
    i = next(k for k, x in enumerate(w) if x)
    out = {}
    for x, c in terms.items():
        j = x[i] // w[i]
        out.setdefault(tuple(a - j * b for a, b in zip(x, w)), {})[j] = c
    return out


def ga_divexact(f: GAElem, line, B: int) -> GAElem:
    """f, with int coefficients, divided by each binomial 1 - s*v^c*e^(+-w)
    of the atoms (s, c, +-w) of line in turn, with v evaluated at 2^B, all
    on one line +-w (w nonzero, c >= 0); raises 'not divisible' at the
    first atom that leaves a quotient that is no Laurent polynomial.

    One chain x0 + j*w of f's support is divided on its own, as a dense
    list from its first term j0 to its last j1, by the recurrence
    q[j] = f[j] + s * (q[j - 1] << c*B), j ascending from j0, for an atom
    along +w, and q[j] = f[j] + s * (q[j + 1] << c*B), j descending from
    j1, along -w; the quotient is again a chain of the line, divided by
    the next atom.  A quotient by an atom along +w has q[j] = 0 past the
    last term j1 of its dividend (before the first, along -w), so the
    value the recurrence leaves at that end is zero exactly when the atom
    divides: a nonzero value there is the proof of non-divisibility.  Each
    value is the one that dividing the whole of f by each atom in turn
    makes on that chain, so the line raises exactly when that sequence
    would.
    """
    w = line[0][2]
    if any(x != w and x != wneg(w) for _, _, x in line):
        raise ValueError("divisors are not on one line")
    quo = {}
    for base, cs in chains(f.terms, w).items():
        j0 = min(cs)
        row = [cs.get(j, 0) for j in range(j0, max(cs) + 1)]
        for s, c, x in line:
            # along -w the chain runs backward: reverse it and back
            src = row if x == w else row[::-1]
            # s = +-1 adds or subtracts: a product by s would cost a pass
            bits, op = c * B, add if s > 0 else sub
            q, out = 0, []
            for z in src[:-1]:
                q = op(z, q << bits)
                out.append(q)
            if op(src[-1], q << bits):
                raise ValueError("not divisible")
            if x != w:
                out.reverse()
                j0 += 1
            # the quotient's chain runs from its first to its last term
            while out and not out[-1]:
                out.pop()
            k = 0
            while k < len(out) and not out[k]:
                k += 1
            row, j0 = out[k:], j0 + k
            if not row:
                break
        for j, z in enumerate(row, j0):
            if z:
                quo[tuple(a + j * b for a, b in zip(base, w))] = z
    out = GAElem(f.rank)
    out.terms = quo
    return out
