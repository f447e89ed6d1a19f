"""The q-difference operator of mkengine.apply_qdiff in integer form.

An integer polynomial a travels as one int, its value a(2^B) (Kronecker
substitution in v, Harvey, JSC 2009; the kernel lives in scalars), and
an integer Laurent polynomial as such an int times a power of v.  Pieces
holds the operator's cofactor in the direction eps_1 multiplied out in
that form, keyed by packed weights, the common binomial atoms (s, c, w)
to divide by, one list per line +-w for galg.ga_divexact, and the bounds
that the division's certificate reads (mkengine.apply_qdiff).
"""

from __future__ import annotations

from collections import Counter
from math import gcd

from .galg import pack
from .roots import RootSystem, eps, weyl_apply, weyl_group, wneg
from .scalars import P_ONE, Scalar, byte_width, p_divexact, p_gcd, p_mul
from .weights import KLabel, atom_product, half_density, ratio_atoms, split_atoms


class Pieces:
    """The operator's coefficient data in the direction eps_1, in integer
    form.

    The coefficient at the image eta = w(direction) is a ratio of binomial
    products; its cofactor against the factored least common denominator
    (the common atoms (s, c, w), each standing for 1 - s*v^c*e^w) is the
    Laurent polynomial v^e0 * sum z(v) e^weight, z in Z[v] of v-degrees in
    [0, top] evaluated at v = 2^width.  The common atoms, the union of
    w(dens) over all of W, are W-stable, so the cofactor at w(direction)
    is w applied to the one at direction, cof = (e0, {packed weight: z}),
    the only one kept (galg.pack); reps holds
    the first w with w(direction) = eta, per eta.  For Weyl invariant f,
    w(T_direction f) = T_eta(w f) = T_eta f, so the numerator
    sum_eta cof_eta * (T_eta f - f) is sum_eta w_eta(cof * (T_direction f - f)).
    norm bounds the summed l1 norm of the images' cofactors.  The final
    division is by the divisors and monomial of split_atoms; lines holds
    the divisors as one list of atoms per line +-w, divided one line at a
    time.  Their product D has l1 norm at most 2^d, d the number of
    divisors (binomials have norm 2), and v-degrees in [0, deg].
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
        e0, cof = atom_product((0,) * rs.n, atoms, self.width)
        self.cof = e0, {pack(w): z for w, z in cof.items()}
        # balanced digits below 2^(width-1) put slot t at bit length [t, t + 1) * width
        self.top = max(abs(z).bit_length() for z in cof.values()) // self.width
        divisors, self.monomial = split_atoms(self.atoms, rs.n)
        self.d, self.deg = len(divisors), sum(c for _, c, _ in divisors)
        lines = {}              # the divisors grouped by line +-w, in order
        for s, c, w in divisors:
            lines.setdefault(max(w, wneg(w)), []).append((s, c, w))
        self.lines = list(lines.values())

    def product_width(self, nu: int) -> int:
        """A slot width B that holds the numerator for an input whose
        coefficients have l1 norm at most nu: the l1 norms of the images'
        cofactors sum to at most norm and T - 1 at most doubles nu, so
        the numerator's coefficients are at most beta = 2 * nu * norm in
        absolute value, below 2^(B-1)."""
        return byte_width(4 * nu * self.norm)


def clear_denominators(f: dict) -> dict:
    """L*f for a map f {weight: Scalar} and L the least common multiple
    in Z[v] of the denominators of its values: a map with integer Laurent
    values, f itself when its values already are."""
    L = P_ONE
    for c in f.values():
        d = c.d
        if d != P_ONE and d != L:
            k = gcd(gcd(*L), gcd(*d))
            L = tuple(x // k for x in p_mul(L, p_gcd(L, d)[2]))  # L * (d / gcd) / k
    if L == P_ONE:
        return f
    return {w: Scalar.laurent(c.e, p_mul(c.n, p_divexact(L, c.d))) for w, c in f.items()}
