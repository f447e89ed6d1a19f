"""Formal q-Pochhammer products: the Koornwinder weight, the level-shift
factor, shifted weights, the positive-root half density, exact ratio
collapse, and bi-truncated expansion feeding the constant-term pairing.

A PochSymbol encodes (sign * v^v_exp * e^weight ; v^base_exp)_length with
length None meaning infinity.  Products store only INFINITE symbols with
integer multiplicities: a finite symbol (x;B)_L is normalized into the
exact pair (x;B)_inf / (x B^L;B)_inf, which makes cancellation between a
weight and its level-shift factor an identity of multisets.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import add, le, sub

from .galg import GAElem, chains
from .roots import RootSystem, SatakeEntry, Weight, dot4, wneg, wsum
from .scalars import (DEFAULT_PRECISION, Scalar, TruncSeries, _canon, byte_width, p_from_int,
                      scalar_to_series)


@dataclass(frozen=True)
class PochSymbol:
    sign: int
    v_exp: int
    weight: tuple
    base_exp: int
    length: object = None  # None = infinite, else nonnegative int

    def key(self):
        return (self.sign, self.v_exp, self.weight, self.base_exp)


@dataclass(frozen=True)
class KLabel:
    """Koornwinder parameters (k1..k5) with the base q_i^2 = v^base_exp."""

    k1: Fraction
    k2: Fraction
    k3: Fraction
    k4: Fraction
    k5: Fraction
    base_exp: int

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
    __slots__ = ("rank", "factors")

    def __init__(self, rank: int, symbols=None):
        self.rank = rank
        self.factors = {}
        if symbols:
            for sym, mult in symbols:
                self._add(sym, mult)

    def _add(self, sym: PochSymbol, mult: int):
        if mult == 0 or sym.length == 0:
            return
        if sym.length is None:
            k = sym.key()
            m = self.factors.get(k, 0) + mult
            if m:
                self.factors[k] = m
            elif k in self.factors:
                del self.factors[k]
        else:
            inf = PochSymbol(sym.sign, sym.v_exp, sym.weight, sym.base_exp)
            shifted = PochSymbol(
                sym.sign, sym.v_exp + sym.length * sym.base_exp,
                sym.weight, sym.base_exp,
            )
            self._add(inf, mult)
            self._add(shifted, -mult)

    def copy(self) -> "PochProduct":
        out = PochProduct(self.rank)
        out.factors = dict(self.factors)
        return out

    def __mul__(self, other: "PochProduct") -> "PochProduct":
        if self.rank != other.rank:
            raise ValueError("rank mismatch")
        out = self.copy()
        for k, m in other.factors.items():
            mm = out.factors.get(k, 0) + m
            if mm:
                out.factors[k] = mm
            elif k in out.factors:
                del out.factors[k]
        return out

    def reciprocal(self) -> "PochProduct":
        out = PochProduct(self.rank)
        out.factors = {k: -m for k, m in self.factors.items()}
        return out

    def __eq__(self, other):
        return (
            isinstance(other, PochProduct)
            and self.rank == other.rank
            and self.factors == other.factors
        )

    def bar(self) -> "PochProduct":
        out = PochProduct(self.rank)
        out.factors = {
            (s, c, wneg(w), b): m for (s, c, w, b), m in self.factors.items()
        }
        return out

    def translate(self, mu: Weight, scale: int) -> "PochProduct":
        """Image under e^w -> v^(scale*(mu,w)) e^w, applied symbol-wise."""
        out = PochProduct(self.rank)
        for (s, c, wt, b), m in self.factors.items():
            e = scale * dot4(mu, wt)
            if e.denominator != 1:
                raise ValueError("non-integral translation exponent")
            k = (s, c + int(e), wt, b)
            out.factors[k] = out.factors.get(k, 0) + m
        return out

    def collapsed(self):
        """Rewrite as finite symbols plus irreducible infinite tails.

        Returns (finite, infinite): lists of (PochSymbol, mult) with finite
        lengths in the first and None lengths in the second.
        """
        groups = {}
        for (s, c, w, b), m in self.factors.items():
            groups.setdefault((s, w, b, c % b), []).append((c, m))
        finite, infinite = [], []
        for (s, w, b, _), lst in sorted(groups.items()):
            lst.sort()
            run = 0
            for i in range(len(lst) - 1):
                run += lst[i][1]
                if run:
                    steps = (lst[i + 1][0] - lst[i][0]) // b
                    finite.append(
                        (PochSymbol(s, lst[i][0], w, b, steps), run)
                    )
            run += lst[-1][1]
            if run:
                infinite.append((PochSymbol(s, lst[-1][0], w, b), run))
        return finite, infinite

    def symbols(self):
        """Canonical sorted list of (sign, v_exp, weight, base_exp, mult)."""
        return sorted((k + (m,)) for k, m in self.factors.items())

    def __repr__(self):
        bits = []
        for (s, c, w, b, m) in self.symbols():
            arg = "%sv^%d e%s" % ("-" if s < 0 else "", c, list(w))
            bits.append("(%s; v^%d)_inf^%d" % (arg, b, m))
        return " ".join(bits) if bits else "1"


def poch_one(rank: int) -> PochProduct:
    return PochProduct(rank)


def _weight_product(k: KLabel, n: int, R1, R2) -> PochProduct:
    """Per root a of R1, the factor (e^{2a};B)_inf over the four
    length-one denominators; per root b of R2, the pair
    (e^b;B)_inf / (B^{k5} e^b;B)_inf."""
    b = k.base_exp
    r1 = k.r1_args()
    syms = []
    for alpha in R1:
        two = tuple(2 * x for x in alpha)
        syms.append((PochSymbol(1, 0, two, b), 1))
        for sign, c in r1:
            syms.append((PochSymbol(sign, c, alpha, b), -1))
    t = k.r2_arg()
    for beta in R2:
        syms.append((PochSymbol(1, 0, beta, b), 1))
        syms.append((PochSymbol(1, t, beta, b), -1))
    return PochProduct(n, syms)


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
        return poch_one(rs.n)
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
    syms = []
    for alpha in rs.R1:  # the long restricted class in these coordinates
        syms.append((PochSymbol(-1, int(c), alpha, b, L), 1))
    return PochProduct(rs.n, syms)


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


def _finite_atoms(finite):
    """Binomial atoms of collapsed finite symbols, one per factor and
    multiplicity: (numerator atoms, denominator atoms)."""
    num, den = [], []
    for sym, m in finite:
        for j in range(sym.length):
            t = (sym.sign, sym.v_exp + j * sym.base_exp, sym.weight)
            (num if m > 0 else den).extend([t] * abs(m))
    return num, den


def ratio_atoms(numer: PochProduct, denom: PochProduct):
    """Collapse numer/denom into (numerator atoms, denominator atoms);
    raises 'ratio not rational' if an infinite tail survives."""
    finite, infinite = (numer * denom.reciprocal()).collapsed()
    if infinite:
        raise ValueError("ratio not rational")
    return _finite_atoms(finite)


# ---------------------------------------------------------------------------
# Bi-truncated expansion
# ---------------------------------------------------------------------------

class SeriesElem:
    """A finitely supported map weight -> list of M + 1 integer
    coefficients, mod v^(M+1)."""

    __slots__ = ("rank", "M", "terms")

    def __init__(self, rank, M, terms=None):
        self.rank = rank
        self.M = M
        self.terms = terms if terms is not None else {}

    def coeff(self, w) -> TruncSeries:
        cs = self.terms.get(tuple(w))
        if cs is None:
            return TruncSeries.zero(self.M)
        return _canon(cs, 1, self.M)


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
    needs = {sym.weight for sym, m in P.collapsed()[1] if m < 0}
    out = P.copy()
    for (s, c, w, b), m in P.factors.items():
        if m <= 0 or s != 1 or c % 2 or b % 2 or any(x % 2 for x in w):
            continue
        half = tuple(x // 2 for x in w)
        if half in needs:
            out._add(PochSymbol(s, c, w, b), -m)
            for sgn in (1, -1):
                for cc in (c // 2, c // 2 + b // 2):
                    out._add(PochSymbol(sgn, cc, half, b), m)
    return out


def _atoms_of(P: PochProduct, M: int):
    """Flatten a collapsed product into atoms (s, c, w, reps) whose product
    it is mod v^(M+1), each standing for 1 - s*v^c*e^w (reps = 0, a
    binomial, 0 <= c <= M) or its inverse (reps = M // c, a geometric
    atom, 0 < c <= M), w nonzero."""
    if any(not any(w) for _, _, w, _ in P.factors):
        raise ValueError("cannot expand: a symbol of weight zero")
    finite, infinite = P.collapsed()
    num, den = _finite_atoms(finite)
    for sym, m in infinite:
        tail = [(sym.sign, c, sym.weight) for c in range(sym.v_exp, M + 1, sym.base_exp)]
        (num if m > 0 else den).extend(tail * abs(m))
    if any(c <= 0 for _, c, _ in den):
        raise ValueError("cannot expand: nonpositive valuation in denominator")
    if any(c < 0 for _, c, _ in num):
        raise ValueError("pole at origin")
    atoms = [a + (0,) for a in num if a[1] <= M] + [a + (M // a[1],) for a in den if a[1] <= M]
    # high valuations first: an atom moves only the orders below M + 1 - c,
    # so the weights spread by the low ones meet the tightest reach boxes
    atoms.sort(key=lambda a: -a[1])
    return atoms


def expand(P: PochProduct, M: int = DEFAULT_PRECISION, window=None) -> SeriesElem:
    """Expand to a SeriesElem, exact for every weight inside the window up
    to order M.  window is (lo, hi) per-coordinate bounds on doubled
    coordinates; None restricts to the zero weight only.

    Each weight holds one dense row of M + 1 integer coefficients,
    starting from the row 1 at weight 0.  A binomial atom subtracts a
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
    return SeriesElem(rank, M, {wt: row for wt, row in rows.items() if any(row)})


def poch_to_gaelem(P: PochProduct) -> GAElem:
    """Exact group-algebra form of a product that is secretly a finite
    Laurent element (integer-parameter weights, shift factors)."""
    finite, infinite = _split_rescue(P).collapsed()
    num, den = _finite_atoms(finite)
    if infinite or den:
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
            ser = self.exp.coeff(wneg(w))
            if not ser.is_zero():
                acc = acc + scalar_to_series(c, self.M) * ser
        return acc
