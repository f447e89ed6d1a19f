"""Formal q-Pochhammer products: the Koornwinder weight, the level-shift
factor, shifted weights, the positive-root half density, exact ratio
collapse, and bi-truncated expansion feeding the constant-term pairing.

A product holds infinite symbols (s * v^c * e^w ; v^base)_inf under one
base, keyed (s, c, w), with integer multiplicities.  A finite symbol
(x;B)_L enters as the exact pair (x;B)_inf / (x B^L;B)_inf, which makes
cancellation between a weight and its level-shift factor an identity of
multisets.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from operator import add, le, sub

from .galg import GAElem, chains
from .roots import RootSystem, SatakeEntry, Weight, dot4, wneg, wsum
from .scalars import (DEFAULT_PRECISION, Scalar, TruncSeries, _series, byte_width, p_from_int,
                      scalar_to_series)


class KLabel(namedtuple("KLabel", "k1 k2 k3 k4 k5 base_exp")):
    """Koornwinder parameters (k1..k5), Fractions, with the base
    q_i^2 = v^base_exp."""

    __slots__ = ()

    @staticmethod
    def make(ks, base_exp):
        ks = [Fraction(k) for k in ks]
        lab = KLabel(ks[0], ks[1], ks[2], ks[3], ks[4], base_exp)
        lab.r1_args()  # validates integrality
        return lab

    @staticmethod
    def from_entry(entry: SatakeEntry, l: int = 0, sigma=Fraction(0)):
        return KLabel.make(entry.recipe(l, sigma), entry.base_exp())

    def _vexp(self, k: Fraction) -> int:
        e = k * self.base_exp
        if e.denominator != 1:
            raise ValueError("parameter exponent not integral")
        return int(e)

    def r1_args(self):
        """(sign, v_exp) of the four length-one denominators on the short class."""
        half = Fraction(1, 2)
        return [
            (1, self._vexp(self.k1)),
            (-1, self._vexp(self.k2)),
            (1, self._vexp(self.k3 + half)),
            (-1, self._vexp(self.k4 + half)),
        ]

    def r2_arg(self) -> int:
        return self._vexp(self.k5)

    def ks(self):
        return (self.k1, self.k2, self.k3, self.k4, self.k5)


class PochProduct:
    """A product of infinite symbols under one base: factors maps (s, c, w)
    to its multiplicity.  symbols are ((s, c, w, L), mult) pairs, L None
    for an infinite symbol or the length of a finite one."""

    __slots__ = ("rank", "base", "factors")

    def __init__(self, rank: int, base: int, symbols=()):
        self.rank = rank
        self.base = base
        self.factors = {}
        for (s, c, w, L), m in symbols:
            self._add((s, c, w), m)
            if L is not None:
                self._add((s, c + L * base, w), -m)

    def _add(self, k, mult: int):
        m = self.factors.get(k, 0) + mult
        if m:
            self.factors[k] = m
        elif k in self.factors:
            del self.factors[k]

    def _like(self, factors) -> "PochProduct":
        out = PochProduct(self.rank, self.base)
        out.factors = factors
        return out

    def __mul__(self, other: "PochProduct") -> "PochProduct":
        if (self.rank, self.base) != (other.rank, other.base):
            raise ValueError("rank or base mismatch")
        out = self._like(dict(self.factors))
        for k, m in other.factors.items():
            out._add(k, m)
        return out

    def reciprocal(self) -> "PochProduct":
        return self._like({k: -m for k, m in self.factors.items()})

    def __eq__(self, other):
        return (
            isinstance(other, PochProduct)
            and (self.rank, self.base) == (other.rank, other.base)
            and self.factors == other.factors
        )

    def bar(self) -> "PochProduct":
        return self._like({(s, c, wneg(w)): m for (s, c, w), m in self.factors.items()})

    def translate(self, mu: Weight, scale: int) -> "PochProduct":
        """Image under e^w -> v^(scale*(mu,w)) e^w, applied symbol-wise."""
        out = {}
        for (s, c, w), m in self.factors.items():
            e = scale * dot4(mu, w)
            if e.denominator != 1:
                raise ValueError("non-integral translation exponent")
            out[s, c + int(e), w] = m
        return self._like(out)

    def collapsed(self):
        """Rewrite as binomial atoms plus irreducible infinite tails.

        Returns (numerator atoms, denominator atoms, tails): an atom
        (s, c, w) is one binomial 1 - s*v^c*e^w, listed once per unit of
        multiplicity, and a tail ((s, c, w), mult) is
        (s v^c e^w; v^base)_inf^mult.
        """
        b = self.base
        groups = {}
        for (s, c, w), m in self.factors.items():
            groups.setdefault((s, w, c % b), []).append((c, m))
        num, den, tails = [], [], []
        for (s, w, _), lst in sorted(groups.items()):
            lst.sort()
            run = 0
            for (c, m), (stop, _) in zip(lst, lst[1:]):
                run += m
                (num if run > 0 else den).extend(
                    (s, cc, w) for cc in range(c, stop, b) for _ in range(abs(run)))
            run += lst[-1][1]
            if run:
                tails.append(((s, lst[-1][0], w), run))
        return num, den, tails

    def __repr__(self):
        bits = []
        for (s, c, w), m in sorted(self.factors.items()):
            arg = "%sv^%d e%s" % ("-" if s < 0 else "", c, list(w))
            bits.append("(%s; v^%d)_inf^%d" % (arg, self.base, m))
        return " ".join(bits) if bits else "1"


def _weight_product(k: KLabel, n: int, R1, R2) -> PochProduct:
    """Per root a of R1, the factor (e^{2a};B)_inf over the four
    length-one denominators; per root b of R2, the pair
    (e^b;B)_inf / (B^{k5} e^b;B)_inf."""
    r1 = k.r1_args()
    syms = []
    for alpha in R1:
        two = tuple(2 * x for x in alpha)
        syms.append(((1, 0, two, None), 1))
        for sign, c in r1:
            syms.append(((sign, c, alpha, None), -1))
    t = k.r2_arg()
    for beta in R2:
        syms.append(((1, 0, beta, None), 1))
        syms.append(((1, t, beta, None), -1))
    return PochProduct(n, k.base_exp, syms)


def koornwinder_weight(k: KLabel, rs: RootSystem) -> PochProduct:
    """The five-parameter weight over the short class R1 and the medium
    class R2."""
    return _weight_product(k, rs.n, rs.R1, rs.R2)


def half_density(k: KLabel, rs: RootSystem) -> PochProduct:
    """The positive-root half of the weight; the weight equals this times
    its own bar image (checked, not assumed)."""
    return _weight_product(k, rs.n, rs.R1p, rs.R2p)


def shift_factor(entry: SatakeEntry, l: int, rs: RootSystem,
                 sigma=Fraction(0)) -> PochProduct:
    """The level-l factor: a finite Pochhammer per long restricted root.

    Reduced families get (-B^(1/2) e^a; B)_|l|.  The non-reduced AIII_a
    family gets (-B^(sigma+1/2) e^a; B)_l for l > 0 and
    (-B^(-sigma+1/2) e^a; B)_|l| for l < 0, the parameter ratio of the
    two coideal generators having been eliminated in favor of sigma.
    """
    if not isinstance(entry, SatakeEntry):
        raise ValueError("non-Hermitian entry")
    b = entry.base_exp()
    if b % 2:
        raise ValueError("odd base exponent")
    L = abs(l)
    if L == 0:
        return PochProduct(rs.n, b)
    sigma = Fraction(sigma)
    if entry.reduced:
        off = Fraction(1, 2)
    elif l > 0:
        off = sigma + Fraction(1, 2)
    else:
        off = -sigma + Fraction(1, 2)
    c = off * b
    if c.denominator != 1:
        raise ValueError("parameter exponent not integral")
    # R1 is the long restricted class in these coordinates
    return PochProduct(rs.n, b, [((-1, int(c), alpha, L), 1) for alpha in rs.R1])


def shifted_weight(k: KLabel, entry: SatakeEntry, l: int,
                   rs: RootSystem, sigma=Fraction(0)) -> PochProduct:
    """The level-l orthogonality weight: shift factor times base weight,
    in cancellation-normal form."""
    return shift_factor(entry, l, rs, sigma) * koornwinder_weight(k, rs)


# ---------------------------------------------------------------------------
# Binomial atoms: the finite, exact form of a collapsed product, multiplied
# out on ints by the Kronecker kernel of scalars (an integer polynomial a
# as one int a(2^B), B whole bytes).
# ---------------------------------------------------------------------------

def split_atoms(atoms, rank: int):
    """(divisors, (sign, C, W)) with prod(atoms) = sign * v^C * e^W *
    prod(divisors), every divisor (s, c, w) having c >= 0: an atom
    1 - s*v^c*e^w with c < 0 is -s*v^c*e^w * (1 - s*v^-c*e^-w)."""
    sign, C, W = 1, 0, (0,) * rank
    divisors = []
    for s, c, w in atoms:
        if c < 0:
            sign, C, W = -s * sign, C + c, wsum(W, w)
            c, w = -c, wneg(w)
        divisors.append((s, c, w))
    return divisors, (sign, C, W)


def atom_product(W: Weight, atoms, B: int):
    """e^W times the binomials 1 - s*v^c*e^w of atoms, multiplied out with
    v evaluated at 2^B, as (e0, {weight: z}) for the Laurent polynomial
    v^e0 * sum z(v) e^weight."""
    e, terms = 0, {W: 1}
    for s, c, w in atoms:
        # 1 - s v^c e^w, as v^c (v^-c - s e^w) when c < 0
        one, mono = (-c * B, 0) if c < 0 else (0, c * B)
        e += min(c, 0)
        out = {x: z << one for x, z in terms.items()}
        for x, z in terms.items():
            y = wsum(x, w)
            t = out.get(y, 0) - s * (z << mono)
            if t:
                out[y] = t
            else:
                del out[y]
        terms = out
    return e, terms


def l1_norm(x: Scalar) -> int:
    """The sum of the absolute values of x's numerator coefficients: the
    l1 norm of x when x is an integer Laurent polynomial."""
    return sum(map(abs, x.n))


def binomial_product(W: Weight, atoms) -> GAElem:
    """e^W times the binomials 1 - s*v^c*e^w of atoms, exactly.  The l1
    norm is submultiplicative and binomials have norm 2, so the slot width
    holds every coefficient of every partial product: 2^len(atoms)."""
    B = byte_width(2 << len(atoms))
    e, terms = atom_product(W, atoms, B)
    return GAElem(len(W), {w: Scalar.laurent(e, p_from_int(z, B)) for w, z in terms.items()})


def ratio_atoms(numer: PochProduct, denom: PochProduct):
    """Collapse numer/denom into (numerator atoms, denominator atoms);
    raises 'ratio not rational' if an infinite tail survives."""
    num, den, tails = (numer * denom.reciprocal()).collapsed()
    if tails:
        raise ValueError("ratio not rational")
    return num, den


# ---------------------------------------------------------------------------
# Bi-truncated expansion
# ---------------------------------------------------------------------------

def _split_rescue(P: PochProduct) -> PochProduct:
    """Quadratically split double-weight numerator symbols wherever a
    negative tail sits at the half weight: (x^2 e^{2w};B)_inf equals the
    product of (+-x e^w;B)_inf (+-x B^(1/2) e^w;B)_inf.  This is what
    turns an integer-parameter weight into a finite Laurent element and
    removes zero-valuation denominators before expansion.

    One pass over P's own symbols suffices, and the result is P exactly.
    A split symbol sits at a half weight, so it could split again only
    over a negative tail at a quarter weight, which no catalog weight has;
    a symbol left unsplit is expanded exactly, or raises."""
    b = P.base
    needs = {w for (_, _, w), m in P.collapsed()[2] if m < 0}
    splits = []
    for (s, c, w), m in P.factors.items():
        if m <= 0 or s != 1 or c % 2 or b % 2 or any(x % 2 for x in w):
            continue
        half = tuple(x // 2 for x in w)
        if half in needs:
            splits.append(((s, c, w, None), -m))
            splits += [((sgn, cc, half, None), m)
                       for sgn in (1, -1) for cc in (c // 2, c // 2 + b // 2)]
    return P * PochProduct(P.rank, b, splits)


def _atoms_of(P: PochProduct, M: int):
    """Flatten a collapsed product into atoms (s, c, w, reps) whose product
    it is mod v^(M+1), each standing for 1 - s*v^c*e^w (reps = 0, a
    binomial, 0 <= c <= M) or its inverse (reps = M // c, a geometric
    atom, 0 < c <= M), w nonzero."""
    if any(not any(w) for _, _, w in P.factors):
        raise ValueError("cannot expand: a symbol of weight zero")
    num, den, tails = P.collapsed()
    for (s, c, w), m in tails:
        (num if m > 0 else den).extend([(s, cc, w) for cc in range(c, M + 1, P.base)] * abs(m))
    if any(c <= 0 for _, c, _ in den):
        raise ValueError("cannot expand: nonpositive valuation in denominator")
    if any(c < 0 for _, c, _ in num):
        raise ValueError("pole at origin")
    atoms = [a + (0,) for a in num if a[1] <= M] + [a + (M // a[1],) for a in den if a[1] <= M]
    # high valuations first: an atom moves only the orders below M + 1 - c,
    # so the weights spread by the low ones meet the tightest reach boxes
    atoms.sort(key=lambda a: -a[1])
    return atoms


def expand(P: PochProduct, M: int = DEFAULT_PRECISION, window=None) -> dict:
    """Expand to {weight: row}, a row being the M + 1 integer coefficients
    of the weight's series mod v^(M+1); exact for every weight inside the
    window, and a weight missing from the map has the zero series.  window
    is (lo, hi) per-coordinate bounds on doubled coordinates; None
    restricts to the zero weight only.

    The expansion starts from the row 1 at weight 0.  A binomial atom subtracts a
    shifted copy of each row at weight + w; a geometric atom runs the
    recurrence out[j] = in[j] + s*v^c*out[j - 1] along each chain
    x0 + j*w, for M // c steps past the chain's last input.  A weight is
    dropped once the remaining atoms cannot move it back into the window.
    """
    if M < 0:
        raise ValueError("negative precision")
    rank = P.rank
    lo, hi = window or ([0] * rank, [0] * rank)
    atoms = _atoms_of(_split_rescue(P), M)

    # boxes[k]: the weights from which atoms k, k+1, ... can still reach
    # the window
    boxes = [(list(lo), list(hi))]
    for _, _, w, reps in reversed(atoms):
        blo, bhi = boxes[-1]
        k = max(reps, 1)
        boxes.append(([a - max(0, k * x) for a, x in zip(blo, w)],
                      [b - min(0, k * x) for b, x in zip(bhi, w)]))
    boxes.reverse()

    def inside(wt, box):
        return all(map(le, box[0], wt)) and all(map(le, wt, box[1]))

    zero = (0,) * rank
    rows = {zero: [1] + [0] * M} if inside(zero, boxes[0]) else {}

    for (s, c, w, reps), box in zip(atoms, boxes[1:]):
        if not reps:
            new = {wt: row for wt, row in rows.items() if inside(wt, box)}
            for wt, row in rows.items():
                tail = row[: M + 1 - c]
                wt2 = tuple(map(add, wt, w))
                if any(tail) and inside(wt2, box):
                    old = new.get(wt2)
                    if old is None:
                        new[wt2] = [0] * c + ([-x for x in tail] if s > 0 else tail)
                    else:
                        new[wt2] = old[:c] + list(map(sub if s > 0 else add, old[c:], tail))
        else:
            new = {}
            for x0, ins in chains(rows, w).items():
                out, seen = None, False
                last = max(ins)
                for j in range(min(ins), last + reps + 1):
                    row = ins.get(j)
                    if out is not None:
                        tail = out[: M + 1 - c]
                        shifted = [0] * c + (tail if s > 0 else [-x for x in tail])
                        row = shifted if row is None else list(map(add, row, shifted))
                    out = row
                    if not any(row):
                        if j >= last:
                            break
                        continue
                    wt = tuple(a + j * b for a, b in zip(x0, w))
                    if inside(wt, box):
                        new[wt] = row
                        seen = True
                    elif seen:
                        break       # a chain meets the box in one segment
        rows = new
    return {wt: row for wt, row in rows.items() if any(row)}


def poch_to_gaelem(P: PochProduct) -> GAElem:
    """Exact group-algebra form of a product that is secretly a finite
    Laurent element (integer-parameter weights, shift factors)."""
    num, den, tails = _split_rescue(P).collapsed()
    if tails or den:
        raise ValueError("product is not a finite Laurent element")
    return binomial_product((0,) * P.rank, num)


# ---------------------------------------------------------------------------
# Constant-term inner products
# ---------------------------------------------------------------------------

class InnerProductEngine:
    """The expansion of a weight over a window, and the pairing it gives."""

    def __init__(self, W: PochProduct, M: int, window):
        self.M = M
        self.exp = expand(W, M, window)

    def ct_pair(self, f: GAElem, g: GAElem) -> TruncSeries:
        """ct(f bar(g) W) as a truncated series; exact when every weight of
        f bar(g), negated, lies in the window."""
        h = f * g.bar()
        acc = TruncSeries.zero(self.M)
        for w, c in h.terms.items():
            row = self.exp.get(wneg(w))
            if row is not None:
                acc = acc + scalar_to_series(c, self.M) * _series(row, 1, self.M)
        return acc
