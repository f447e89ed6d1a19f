"""The q-difference operator of mkengine.apply_qdiff in integer form.

An integer polynomial a travels as one int, its value a(2^B) (Kronecker
substitution in v, Harvey, JSC 2009; the kernel lives in scalars), and
an integer Laurent polynomial as such an int times a power of v.  Pieces
holds the operator's cofactor in the direction eps_1 multiplied out in
that form at one weight per orbit of the stabilizer of eps_1, keyed by
packed weights, the common binomial atoms (s, c, w) to divide by, one
list per line +-w for galg.ga_divexact, and the bounds that the
division's certificate reads (mkengine.apply_qdiff).
"""

from __future__ import annotations

from collections import Counter
from math import gcd

from .galg import pack, require_invariant
from .roots import RootSystem, eps, weyl_apply, weyl_group, wneg
from .scalars import P_ONE, Scalar, byte_width, p_divexact, p_gcd, p_mul
from .weights import KLabel, atom_product, half_density, ratio_atoms, split_atoms


class Pieces:
    """The operator's coefficient data in the direction eps_1, as ints.

    The coefficient at the image eta = w(direction) is a ratio of binomial
    products; its cofactor against the factored least common denominator
    (the common atoms (s, c, w), each standing for 1 - s*v^c*e^w) is the
    Laurent polynomial v^e0 * sum z(v) e^weight, z in Z[v] of v-degrees in
    [0, top] evaluated at v = 2^width.  The common atoms, the union of
    w(dens) over all of W, are W-stable, so the cofactor at w(direction)
    is w(A), A the one at direction.  A is invariant under the stabilizer
    S of direction, the signed permutations of coordinates 2..n (checked,
    not assumed), and cof = (e0, {packed r: |S r| * A_r}) keeps it at one
    weight r = (w_1, |w_2..w_n| descending) per S-orbit (galg.pack).  For
    Weyl invariant f, g = T_direction f - f is S-invariant, so e^r * g has
    the W-sum of each e^(s r) * g, and w(T_direction f) = T_eta f: the
    numerator sum_eta A_eta * (T_eta f - f) = sum_eta w_eta(A * g) is the
    sum over W of cof * g divided by |S|.  cof has the l1 norm of A, at
    most 2^(number of atoms) (binomials have norm 2, and the l1 norm is
    submultiplicative), so norm = |W| * 2^(number of atoms) bounds the
    sum over W.  The final division is by the divisors and monomial of
    split_atoms; lines holds the divisors as one list of atoms per line
    +-w, divided one line at a time.  Their product D has l1 norm at most
    2^d, d the number of divisors, and v-degrees in [0, deg].
    """

    def __init__(self, label: KLabel, rs: RootSystem):
        self.direction = direction = eps(0, rs.n)
        delta = half_density(label, rs)
        tdelta = delta.translate(direction, label.base_exp)
        num_atoms, den_atoms = ratio_atoms(tdelta, delta)
        lcm = Counter()
        for w in weyl_group(rs.n):
            lcm |= Counter((s, c, weyl_apply(w, a)) for s, c, a in den_atoms)
        self.atoms = list(lcm.elements())
        # the cofactor at direction: the numerator atoms times the
        # denominator atoms missing there
        atoms = num_atoms + list((lcm - Counter(den_atoms)).elements())
        self.norm = len(weyl_group(rs.n)) << len(atoms)
        self.width = self.product_width(1)
        e0, cof = atom_product((0,) * rs.n, atoms, self.width)
        sizes = require_invariant(cof, "the cofactor", 1)
        self.cof = e0, {pack(r): k * cof[r] for r, k in sizes.items()}
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
        coefficients have l1 norm at most nu: T - 1 at most doubles nu,
        and the sum over W of the products with cof at most multiplies
        it by norm, so the numerator's coefficients are at most beta = 2 *
        nu * norm in absolute value, below 2^(B-1)."""
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
