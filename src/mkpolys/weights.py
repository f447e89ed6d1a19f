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

import json
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .galg import GAElem
from .roots import DEFAULT_D, RootSystem, SatakeEntry, Weight, dot4, wneg, weyl_apply
from .scalars import DEFAULT_PRECISION, Scalar, TruncSeries, _canon, scalar_to_series


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
    D: int = DEFAULT_D

    @staticmethod
    def make(ks, base_exp, D=DEFAULT_D):
        ks = [Fraction(k) for k in ks]
        lab = KLabel(ks[0], ks[1], ks[2], ks[3], ks[4], base_exp, D)
        lab.r1_args()  # validates integrality
        return lab

    @staticmethod
    def from_entry(entry: SatakeEntry, l: int = 0, sigma=Fraction(0), D=DEFAULT_D):
        return KLabel.make(entry.recipe(l, sigma), entry.base_exp(D), D)

    def _vexp(self, k: Fraction) -> int:
        e = k * self.base_exp
        if e.denominator != 1:
            raise ValueError("parameter exponent not integral for this D")
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
    __slots__ = ("rank", "factors", "prefactor")

    def __init__(self, rank: int, symbols=None, prefactor=None):
        self.rank = rank
        self.factors = {}
        self.prefactor = prefactor if prefactor is not None else GAElem.unit(rank)
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
        out = PochProduct(self.rank, prefactor=self.prefactor)
        out.factors = dict(self.factors)
        return out

    def __mul__(self, other: "PochProduct") -> "PochProduct":
        if self.rank != other.rank:
            raise ValueError("rank mismatch")
        out = PochProduct(self.rank, prefactor=self.prefactor * other.prefactor)
        out.factors = dict(self.factors)
        for k, m in other.factors.items():
            mm = out.factors.get(k, 0) + m
            if mm:
                out.factors[k] = mm
            elif k in out.factors:
                del out.factors[k]
        return out

    def reciprocal(self) -> "PochProduct":
        if len(self.prefactor.terms) != 1:
            raise ValueError("cannot invert a non-monomial prefactor")
        ((w, c),) = self.prefactor.terms.items()
        out = PochProduct(
            self.rank,
            prefactor=GAElem.monomial(self.rank, wneg(w), c.inverse()),
        )
        out.factors = {k: -m for k, m in self.factors.items()}
        return out

    def __eq__(self, other):
        return (
            isinstance(other, PochProduct)
            and self.rank == other.rank
            and self.factors == other.factors
            and self.prefactor == other.prefactor
        )

    def is_one(self) -> bool:
        return not self.factors and self.prefactor == GAElem.unit(self.rank)

    def bar(self) -> "PochProduct":
        out = PochProduct(self.rank, prefactor=self.prefactor.bar())
        out.factors = {
            (s, c, wneg(w), b): m for (s, c, w, b), m in self.factors.items()
        }
        return out

    def w_apply(self, w) -> "PochProduct":
        out = PochProduct(self.rank, prefactor=self.prefactor.w_apply(w))
        out.factors = {
            (s, c, weyl_apply(w, wt), b): m
            for (s, c, wt, b), m in self.factors.items()
        }
        return out

    def translate(self, mu: Weight, scale: int) -> "PochProduct":
        """Image under e^w -> v^(scale*(mu,w)) e^w, applied symbol-wise."""
        out = PochProduct(self.rank, prefactor=self.prefactor.translate(mu, scale))
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

    def to_json(self) -> str:
        rows = [
            {
                "sign": s, "v_exp": c, "weight": list(w),
                "base_exp": b, "length": "inf", "mult": m,
            }
            for (s, c, w, b, m) in self.symbols()
        ]
        return json.dumps({
            "rank": self.rank,
            "prefactor": json.loads(self.prefactor.to_json()),
            "symbols": rows,
        })

    def __repr__(self):
        bits = []
        for (s, c, w, b, m) in self.symbols():
            arg = "%sv^%d e%s" % ("-" if s < 0 else "", c, list(w))
            bits.append("(%s; v^%d)_inf^%d" % (arg, b, m))
        pre = "" if self.prefactor == GAElem.unit(self.rank) else "%r * " % self.prefactor
        return pre + (" ".join(bits) if bits else "1")


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
                 sigma=Fraction(0), D=DEFAULT_D) -> PochProduct:
    """The level-l factor: a finite Pochhammer per long restricted root.

    Reduced families get (-B^(1/2) e^a; B)_|l|.  The non-reduced AIII_a
    family gets (-B^(sigma+1/2) e^a; B)_l for l > 0 and
    (-B^(-sigma+1/2) e^a; B)_|l| for l < 0, the parameter ratio of the
    two coideal generators having been eliminated in favor of sigma.
    """
    if not isinstance(entry, SatakeEntry):
        raise ValueError("non-Hermitian entry")
    b = entry.base_exp(D)
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
        raise ValueError("parameter exponent not integral for this D")
    syms = []
    for alpha in rs.R1:  # the long restricted class in these coordinates
        syms.append((PochSymbol(-1, int(c), alpha, b, L), 1))
    return PochProduct(rs.n, syms)


def shifted_weight(k: KLabel, entry: SatakeEntry, l: int,
                   rs: RootSystem, sigma=Fraction(0)) -> PochProduct:
    """The level-l orthogonality weight: shift factor times base weight,
    in cancellation-normal form."""
    return shift_factor(entry, l, rs, sigma, k.D) * koornwinder_weight(k, rs)


# ---------------------------------------------------------------------------
# Binomial atoms: the finite, exact form of a collapsed product
# ---------------------------------------------------------------------------

def atom_gaelem(atom, rank: int) -> GAElem:
    """The binomial 1 - sign * v^v_exp * e^weight of atom (sign, v_exp,
    weight)."""
    s, c, w = atom
    return GAElem.unit(rank) + GAElem.monomial(rank, w, Scalar.monomial(-s, c))


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
    """Collapse numer/denom into (prefactor, numerator atoms, denominator
    atoms); raises 'ratio not rational' if an infinite tail survives."""
    q = numer * denom.reciprocal()
    finite, infinite = q.collapsed()
    if infinite:
        raise ValueError("ratio not rational")
    return (q.prefactor,) + _finite_atoms(finite)


# ---------------------------------------------------------------------------
# Bi-truncated expansion
# ---------------------------------------------------------------------------

class SeriesElem:
    """A finitely supported map weight -> list of M + 1 integer
    numerators over the one denominator den > 0, mod v^(M+1)."""

    __slots__ = ("rank", "M", "terms", "den")

    def __init__(self, rank, M, terms=None, den=1):
        self.rank = rank
        self.M = M
        self.terms = terms if terms is not None else {}
        self.den = den

    @staticmethod
    def one(rank, M):
        return SeriesElem(rank, M, {(0,) * rank: [1] + [0] * M})

    def coeff(self, w) -> TruncSeries:
        cs = self.terms.get(tuple(w))
        if cs is None:
            return TruncSeries.zero(self.M)
        return _canon(cs, self.den, self.M)


def _needs_split(P: PochProduct):
    """Weights carrying a surviving infinite tail of negative multiplicity."""
    _, infinite = P.collapsed()
    return {sym.weight for sym, m in infinite if m < 0}


def _split_rescue(P: PochProduct) -> PochProduct:
    """Quadratically split double-weight numerator symbols wherever a
    negative tail sits at the half weight: (x^2 e^{2w};B)_inf equals the
    product of (+-x e^w;B)_inf (+-x B^(1/2) e^w;B)_inf.  This is what
    turns an integer-parameter weight into a finite Laurent element and
    removes zero-valuation denominators before expansion."""
    out = P.copy()
    for _ in range(4):
        needs = _needs_split(out)
        if not needs:
            break
        changed = False
        for key, m in list(out.factors.items()):
            s, c, w, b = key
            if m <= 0 or s != 1 or c % 2 or b % 2:
                continue
            if any(x % 2 for x in w):
                continue
            half = tuple(x // 2 for x in w)
            if half not in needs:
                continue
            del out.factors[key]
            for sgn in (1, -1):
                for cc in (c // 2, c // 2 + b // 2):
                    k2 = (sgn, cc, half, b)
                    mm = out.factors.get(k2, 0) + m
                    if mm:
                        out.factors[k2] = mm
                    elif k2 in out.factors:
                        del out.factors[k2]
            changed = True
        if not changed:
            break
    return out


def _atoms_of(P: PochProduct, M: int):
    """Flatten a product into binomial and geometric expansion atoms."""
    finite, infinite = P.collapsed()
    atoms = []

    def push(sign, c, w, m):
        if m > 0:
            atoms.extend([("bin", sign, c, w)] * m)
        else:
            if c <= 0:
                raise ValueError("cannot expand: nonpositive valuation in denominator")
            atoms.extend([("geo", sign, c, w)] * (-m))

    for sym, m in finite:
        for j in range(sym.length):
            push(sym.sign, sym.v_exp + j * sym.base_exp, sym.weight, m)
    for sym, m in infinite:
        if m < 0 and sym.v_exp <= 0:
            raise ValueError("cannot expand: nonpositive valuation in denominator")
        j = 0
        while sym.v_exp + j * sym.base_exp <= M:
            push(sym.sign, sym.v_exp + j * sym.base_exp, sym.weight, m)
            j += 1
    return atoms


def expand(P: PochProduct, M: int = DEFAULT_PRECISION, window=None) -> SeriesElem:
    """Expand to a SeriesElem, exact for every weight inside the window up
    to order M.  window is (lo, hi) per-coordinate bounds on doubled
    coordinates; None restricts to the zero weight only."""
    if M < 0:
        raise ValueError("nonpositive precision")
    rank = P.rank
    if window is None:
        window = ([0] * rank, [0] * rank)
    lo, hi = window

    Q = _split_rescue(P)
    atoms = _atoms_of(Q, M)

    # window pruning: a term survives if some suffix of factors can still
    # move its weight back into the window
    moves = []
    for kind, s, c, w in atoms:
        reps = 1 if kind == "bin" else max(M // c, 0)
        moves.append((
            [min(0, x * reps) for x in w],
            [max(0, x * reps) for x in w],
        ))
    suffix = [([0] * rank, [0] * rank)]
    for mlo, mhi in reversed(moves):
        plo, phi = suffix[-1]
        suffix.append((
            [a + b for a, b in zip(plo, mlo)],
            [a + b for a, b in zip(phi, mhi)],
        ))
    suffix.reverse()

    def keep(wt, order, idx):
        if order > M:
            return False
        slo, shi = suffix[idx]
        for i in range(rank):
            if wt[i] + shi[i] < lo[i] or wt[i] + slo[i] > hi[i]:
                return False
        return True

    # the atoms have integer coefficients: one denominator, the lcm of
    # the prefactor's, serves every term
    pre = [(w, scalar_to_series(coef, M)) for w, coef in Q.prefactor.terms.items()]
    den = 1
    for _, ser in pre:
        den = den * ser.den // gcd(den, ser.den)
    acc = {}
    for w, ser in pre:
        f = den // ser.den
        entry = {i: x * f for i, x in enumerate(ser.num) if x}
        if entry and keep(w, min(entry), 0):
            acc[w] = entry

    for idx, (kind, s, c, w) in enumerate(atoms):
        new = {}

        def bump(wt, o, val):
            if val and keep(wt, o, idx + 1):
                slot = new.setdefault(wt, {})
                x = slot.get(o, 0) + val
                if x:
                    slot[o] = x
                elif o in slot:
                    del slot[o]

        if kind == "bin":
            for wt, orders in acc.items():
                wt2 = tuple(a + b for a, b in zip(wt, w))
                for o, val in orders.items():
                    bump(wt, o, val)
                    bump(wt2, o + c, -s * val)
        else:
            mmax = M // c
            for wt, orders in acc.items():
                for mm in range(mmax + 1):
                    sgn = 1 if (s > 0 or mm % 2 == 0) else -1
                    wt2 = tuple(a + mm * b for a, b in zip(wt, w))
                    for o, val in orders.items():
                        bump(wt2, o + mm * c, sgn * val)
        acc = {wt: orders for wt, orders in new.items() if orders}

    out = {}
    for wt, orders in acc.items():
        if not all(lo[i] <= wt[i] <= hi[i] for i in range(rank)):
            continue
        cs = [0] * (M + 1)
        for o, v in orders.items():
            if o <= M:
                cs[o] = v
        if any(cs):
            out[wt] = cs
    return SeriesElem(rank, M, out, den)


def poch_to_gaelem(P: PochProduct) -> GAElem:
    """Exact group-algebra form of a product that is secretly a finite
    Laurent element (integer-parameter weights, shift factors)."""
    Q = _split_rescue(P)
    finite, infinite = Q.collapsed()
    num, den = _finite_atoms(finite)
    if infinite or den:
        raise ValueError("product is not a finite Laurent element")
    out = Q.prefactor
    for atom in num:
        out = out * atom_gaelem(atom, Q.rank)
    return out


# ---------------------------------------------------------------------------
# Constant-term inner products
# ---------------------------------------------------------------------------

class InnerProductEngine:
    """Caches the expansion of a weight over a fixed window."""

    def __init__(self, W: PochProduct, M=DEFAULT_PRECISION, window=None):
        self.W = W
        self.M = M
        self.rank = W.rank
        self.window = window or ([0] * self.rank, [0] * self.rank)
        self._exp = None

    def _expansion(self):
        if self._exp is None:
            self._exp = expand(self.W, self.M, self.window)
        return self._exp

    def ct_pair(self, f: GAElem, g: GAElem) -> TruncSeries:
        """ct(f bar(g) W) as a truncated series."""
        h = f * g.bar()
        exp = self._expansion()
        acc = TruncSeries.zero(self.M)
        for w, c in h.terms.items():
            target = wneg(w)
            ser = exp.coeff(target)
            if not ser.is_zero():
                acc = acc + scalar_to_series(c, self.M) * ser
        return acc
