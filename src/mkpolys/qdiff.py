"""The q-difference operator of mkengine.apply_qdiff in integer form.

An integer polynomial a travels as one int, its value a(2^B) (Kronecker
substitution in v, Harvey, JSC 2009; the kernel lives in scalars), and
an integer Laurent polynomial as such an int times a power of v.  Pieces
holds the operator's cofactor in the direction eps_1 multiplied out in
that form, the common binomial atoms to divide by, grouped by line +-w
for galg.ga_divexact, and the proven bounds that give the slot widths.
"""

from __future__ import annotations

from collections import Counter
from itertools import groupby
from math import gcd

from .galg import GAElem
from .roots import RootSystem, eps, weyl_apply, weyl_group, wneg
from .scalars import P_ONE, Scalar, byte_width, p_divexact, p_gcd, p_mul
from .weights import KLabel, atom_product, half_density, ratio_atoms, split_atoms


class Pieces:
    """The operator's coefficient data in the direction eps_1, in integer
    form.

    The coefficient at the image eta = w(direction) is a ratio of binomial
    products; its cofactor against the factored least common denominator
    (the common atoms (s, c, w), each standing for 1 - s*v^c*e^w) is the
    Laurent polynomial v^e0 * sum z(v) e^weight, z in Z[v] evaluated at
    v = 2^width.  The common atoms, the union of w(dens) over all of W,
    are W-stable, so the cofactor at w(direction) is w applied to the one
    at direction, cof = (e0, {weight: z}), the only one kept; reps holds
    the first w with w(direction) = eta, per eta.  For Weyl invariant f,
    w(T_direction f) = T_eta(w f) = T_eta f, so the numerator
    sum_eta cof_eta * (T_eta f - f) is sum_eta w_eta(cof * (T_direction f - f)).
    norm bounds the summed l1 norm of the images' cofactors and [lo, hi]
    is the box of their weights: w maps the cofactor's own box coordinate
    by coordinate.  The final division is by the divisors and monomial of
    split_atoms, the divisors ordered line by line, one line +-w at a time.
    """

    def __init__(self, label: KLabel, rs: RootSystem):
        self.direction = direction = eps(0, rs.n)
        delta = half_density(label, rs)
        tdelta = delta.translate(direction, label.base_exp)
        num_atoms, den_atoms = ratio_atoms(tdelta, delta)
        reps = {}                  # eta -> the first w with w(direction) = eta
        lcm = Counter()
        for w in weyl_group(rs.n):
            reps.setdefault(weyl_apply(w, direction), w)
            lcm |= Counter((s, c, weyl_apply(w, a)) for s, c, a in den_atoms)
        self.reps = list(reps.values())
        self.stab = len(weyl_group(rs.n)) // len(reps)
        self.atoms = list(lcm.elements())
        # the cofactor at direction: the numerator atoms times the
        # denominator atoms missing there; binomials have l1 norm 2, and
        # the l1 norm is submultiplicative and W-invariant
        atoms = num_atoms + list((lcm - Counter(den_atoms)).elements())
        self.norm = len(reps) << len(atoms)
        self.width = self.product_width(1)
        self.cof = atom_product(GAElem.unit(rs.n), atoms, self.width)
        # each w maps the cofactor's box coordinate by coordinate
        lo = [min(x) for x in zip(*self.cof[1])]
        hi = [max(x) for x in zip(*self.cof[1])]
        images = [[(lo[p], hi[p]) if s > 0 else (-hi[p], -lo[p]) for p, s in zip(perm, signs)]
                  for perm, signs in self.reps]
        self.lo = [min(a for a, _ in col) for col in zip(*images)]
        self.hi = [max(b for _, b in col) for col in zip(*images)]
        divisors, self.monomial = split_atoms(self.atoms, rs.n)
        lines = {}              # the divisors grouped by line +-w, in order
        for d in divisors:
            lines.setdefault(_line(d[2]), []).append(d)
        self.divisors = [d for line in lines.values() for d in line]

    def product_width(self, nu: int) -> int:
        """A slot width that holds the numerator for an input whose
        coefficients have l1 norm at most nu: its coefficients are at most
        beta_0 = 2 * nu * norm in absolute value (see slot_width)."""
        return byte_width(4 * nu * self.norm)

    def slot_width(self, nu: int, lo, hi):
        """(B, gap): a slot width B that certifies the division and the
        read-back for inputs f whose coefficients have l1 norm at most nu
        and whose weights lie in the box [lo, hi], and the gap, in slots,
        that keeps the bands of a batch of such inputs apart.

        Evaluation at v = 2^B is a ring homomorphism, so products and the
        division recurrence are exact at any B; B matters only where a
        value is tested for zero or read back.  Norms are l1 norms of
        coefficient polynomials in v.  The numerator
        F = sum_eta cof_eta * (T_eta f - f) has coefficients of norm at most
        beta_0 = 2 * nu * norm, and its weights lie in the sum of the two
        boxes.  Dividing by 1 + u*e^w with u a signed power of v keeps
        norms along a chain of n weights of the box: the chain-end value of
        the recurrence has norm at most n * beta, and a quotient term q[j]
        is both a prefix and a suffix sum of the chain, of norm at most
        (n // 2) * beta.  The quotient's box is the dividend's less the
        segment [0, w].  So each value tested for zero is at most the
        largest n_t * beta_(t-1) in absolute value, and each coefficient of
        each quotient at most beta_k.  Evaluation at 2^B is injective on
        integer polynomials with coefficients below 2^B in absolute value,
        and balanced digits read back those below 2^(B-1); B covers both,
        rounded up to whole bytes.

        The divisors are taken in their order, line by line; none of
        these bounds depends on the order.  A line divides each of its
        chains by all its binomials before the next chain, and a chain's
        values are those that dividing the whole dividend binomial by
        binomial makes on it, so each bound holds on each chain as stated.

        A batch divides sum_i v^off_i * F_i, F_i in the band of slots
        [off_i, off_i + d_i]; the recurrence is linear, so each value it
        makes is the sum of the bands' own.  An exact quotient by
        1 - s*v^c*e^w (c >= 0) keeps its dividend's v-degrees.  Take the
        first divisor, in the order, at which some band does not divide,
        and a chain where it does not.  On that chain every earlier
        binomial divided exactly, for every band: those of earlier lines
        everywhere, those of its own line on this chain.  So each band
        is still in its slots, and the failing band's chain-end value is
        a sum of its slots times (-u)^k = (s*v^c)^k, k < n on a chain of n
        weights, in [off_i, off_i + d_i + c*(n - 1)]; the next band starts
        at off_i + d_i + 1 + gap.  With gap >= c*(n - 1) their slots are
        disjoint, and the batch's value there is zero only when every
        band's is.  So a batch raises "non-polynomial result" exactly when
        one of its inputs would alone: at that chain at the latest, and
        never when every input divides, the recurrence being linear."""
        beta = 2 * nu * self.norm
        need, gap = beta, 0
        lo = [a + b for a, b in zip(self.lo, lo)]
        hi = [a + b for a, b in zip(self.hi, hi)]
        for _, c, w in self.divisors:
            n = max(1, min((h - l) // abs(x) + 1 for l, h, x in zip(lo, hi, w) if x))
            need, gap = max(need, n * beta), max(gap, c * (n - 1))
            beta *= max(1, n // 2)
            lo = [l - min(x, 0) for l, x in zip(lo, w)]
            hi = [h - max(x, 0) for h, x in zip(hi, w)]
        return byte_width(max(need, 2 * beta)), gap

    def binomials(self, B: int) -> list:
        """The divisors as GAElems 1 + u*e^w with u = -s * 2^(c*B), one
        list per line +-w, for galg.ga_divexact."""
        unit = (0,) * len(self.lo)
        out = []
        for _, line in groupby(self.divisors, lambda d: _line(d[2])):
            out.append([])
            for s, c, w in line:
                g = GAElem(len(unit))
                g.terms = {unit: 1, w: -s << (c * B)}
                out[-1].append(g)
        return out


def _line(w):
    """The line +-w as one of its two weights."""
    return max(w, wneg(w))


def clear_denominators(f: dict):
    """(L, L*f) for a map f {weight: Scalar} and L the least common
    multiple in Z[v] of the denominators of its values, so that L*f has
    integer Laurent values; L is None when f's values already are."""
    L = P_ONE
    for c in f.values():
        d = c.d
        if d != P_ONE and d != L:
            k = gcd(gcd(*L), gcd(*d))
            L = tuple(x // k for x in p_mul(L, p_gcd(L, d)[2]))  # L * (d / gcd) / k
    if L == P_ONE:
        return None, f
    return Scalar.laurent(0, L), {w: Scalar.laurent(c.e, p_mul(c.n, p_divexact(L, c.d)))
                                  for w, c in f.items()}
