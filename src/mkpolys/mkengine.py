"""Construction of the orthogonal polynomial families: exactly via the
q-difference operator obtained by conjugating a translation with the
positive-root half density, and as a truncated Gram-style oracle from the
constant-term inner product.  Also: orthogonality verification, the
v -> 1/v coefficient symmetry, the central-character eigenvalue identity,
and connection coefficients between neighbouring levels.  The operator
runs on ints, with v evaluated at 2^B and weights packed into ints
(apply_qdiff, mkpolys.qdiff, galg.pack): a batch's numerator is one
product and one Weyl sum, built and divided at its product width, one
line of binomial atoms (s, c, w) at a time, and the quotient's digits
are certified after the division.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from fractions import Fraction
from itertools import repeat
from operator import add, mul

from .galg import (RADIX, GAElem, columns, from_m_basis, ga_divexact, orbit_sum, pack,
                   require_invariant)
from .roots import (
    D,
    RootSystem,
    SatakeEntry,
    Weight,
    ambient_data,
    dot4,
    build_root_system,
    dominance_leq,
    dominant_weights_below,
    dominant_weights_upto,
    is_dominant,
    wdiff,
    weyl_group,
    weyl_sum,
)
from .qdiff import Pieces, clear_denominators
from .scalars import (DEFAULT_PRECISION, P_ONE, SC_ONE, SC_ZERO, Scalar, TruncSeries, int_reslot,
                      p_from_int, p_to_int, scalar_to_series)
from .weights import InnerProductEngine, KLabel, l1_norm, shifted_weight


# ---------------------------------------------------------------------------
# the q-difference operator
# ---------------------------------------------------------------------------

_QDIFF_CACHE = {}


def _qdiff_pieces(label: KLabel, rs: RootSystem) -> Pieces:
    key = (label, rs.n)
    hit = _QDIFF_CACHE.get(key)
    if hit is None:
        hit = _QDIFF_CACHE[key] = Pieces(label, rs)
    return hit


def apply_qdiff(label: KLabel, fs, rs: RootSystem) -> list:
    """Apply the q-difference operator in the direction eps_1 to each f of
    the list fs, as one batch; exact.  Each f, and each image returned, is
    a Weyl-invariant element in orbit-sum coordinates: a map {dominant
    weight: Scalar}.  The coordinates of each f must be integer Laurent
    polynomials, as build_polynomial makes them with clear_denominators
    (the operator is Q(v)-linear); a key that is not dominant, or a
    coefficient with a nontrivial denominator, raises.

    The operator is the difference form sum_w w(A * (T - 1) f): only the
    second-order normalization that kills the value at e^0 preserves
    Laurent polynomials at generic parameters, so the constant function is
    an eigenfunction with eigenvalue zero and diagonal entries carry the
    exponential Weyl sums shifted by their value at the zero weight.

    With v evaluated at 2^B (Kronecker substitution in v) each coefficient
    is one int times a power of v.  As f_i is invariant, its numerator is
    F_i = sum_(w in W) w(cof * (T_eps_1 f_i - f_i)) = |S| * sum_eta
    w_eta(A * (T_eps_1 f_i - f_i)) (qdiff.Pieces), S the stabilizer of
    eps_1: the quotient takes only the sign of the monomial.  F_i has
    coefficients at most beta = 2 * nu * norm in absolute value (nu the
    largest l1 norm of a coefficient that T_eps_1 moves) and v-degrees in
    [0, top_i], top_i = Pieces.top plus the top v-degree of T_eps_1 f_i -
    f_i: Z[v] has no zero divisors, so a product's v-degree is the sum of
    its factors', and neither a sum nor a Weyl image raises it.  The batch
    F = sum_i v^off_i * F_i, the bands [off_i, off_i + top_i] back to
    back, is one product and one Weyl sum (_numerator), built at
    B = Pieces.product_width(nu) and divided there by D, the product of
    the divisors, one line +-w at a time (ga_divexact on Pieces.lines),
    then by the monomial of split_atoms.

    The result is certified after the division, as GCDHEU does (see
    scalars.p_gcd).  Evaluation at 2^B is a ring homomorphism: a nonzero
    chain-end value proves that D does not divide F, hence not every F_i,
    and the batch raises "non-polynomial result".  Else the quotient ints,
    checked Weyl invariant, are Q~(2^B), Q~ read as the balanced base-2^B
    digits of the dominant ones.  D has l1 norm at most 2^d and v-degrees
    in [0, deg] (Pieces.d, Pieces.deg).
      - Norm test: if beta + max|digit| * 2^d < 2^(B-1), F - Q~ * D has
        coefficients below 2^(B-1) and vanishes at 2^B, so F = Q~ * D.
      - Band test: if band i holds its digits in [off_i, off_i + top_i -
        deg], Q~ = sum_i v^off_i * Q~_i, and the residues F_i - Q~_i * D,
        of v-degrees in [0, top_i], are disjoint once shifted by off_i
        and sum to zero: F_i = Q~_i * D for every i.  Else the batch
        raises: Q~ is the quotient of F, unique as Z[v][e^W] has no zero
        divisors, and were every F_i = Q_i * D it would be
        sum_i v^off_i * Q_i, the v-degrees of a product adding.
    A failed norm test builds the batch again at 2B.  This ends: if every
    F_i divides, the digits are the quotient Q's and pass the norm test
    once 2^(B-1) exceeds beta + |Q|_inf * 2^d.  If not, either D does not
    divide F, and the chain-end polynomial of the first divisor that fails
    is nonzero at 2^B for all but finitely many B, or D divides F, and the
    band test raises once the digits are the quotient's.  So the batch
    raises exactly when one of its inputs would alone.
    """
    pieces = _qdiff_pieces(label, rs)
    direction, b = pieces.direction, label.base_exp
    out = [{} for _ in fs]
    batch = []                  # (result, the terms T_direction moves: (packed weight, v-shift, c))
    for i, (res, f) in enumerate(zip(out, fs)):
        g = from_m_basis(f, rs.n)
        if any(c.d != P_ONE for c in g.terms.values()):
            raise ValueError("input %d is not an integer Laurent polynomial" % i)
        moved = []
        for w, c in g.terms.items():
            t = dot4(direction, w) * b
            if t.denominator != 1:
                raise ValueError("non-integral translation exponent")
            if t:
                moved.append((pack(w), int(t), c))
        if moved:               # else f is constant and its image zero
            batch.append((res, moved))
    if not batch:
        return out
    nu = max(l1_norm(c) for _, moved in batch for _, _, c in moved)
    beta = 2 * nu * pieces.norm
    B = pieces.product_width(nu)
    sign, C, W = pieces.monomial
    while True:
        num, bands = _numerator(pieces, batch, B)
        try:
            for line in pieces.lines:
                num = ga_divexact(num, line, B)
        except ValueError:
            raise ValueError("non-polynomial result")
        quo = {wdiff(w, W): z for w, z in zip(zip(*columns(num.terms, rs.n)), num.terms.values())}
        require_invariant(quo, "the operator's image")
        digits = {w: p_from_int(z, B) for w, z in quo.items() if is_dominant(w)}
        big = max((max(map(abs, ds)) for ds in digits.values()), default=0)
        if beta + (big << pieces.d) < 1 << (B - 1):
            break
        B *= 2
    for w, ds in digits.items():
        end = 0
        for res, E, off, top in bands:
            if any(ds[end:off]):
                raise ValueError("non-polynomial result")
            end = off + top - pieces.deg + 1
            if any(ds[off:end]):
                res[w] = Scalar.laurent(E - C, [sign * d for d in ds[off:end]])
        if any(ds[end:]):
            raise ValueError("non-polynomial result")
    return out


def _numerator(pieces: Pieces, batch, B: int):
    """apply_qdiff's numerator F at v = 2^B, keyed by packed weights, and
    its bands [(result, E, off_i, top_i)], E the v-exponent of slot off_i.
    Each band is multiplied alone: a product of bands top_i slots apart
    would multiply the zero slots between them too."""
    e0, cof = pieces.cof
    if B != pieces.width:
        cof = dict(zip(cof, int_reslot(list(cof.values()), pieces.width, B)))
    diff, bands, off = {}, [], 0        # packed weight -> [(z, band shift)]
    for res, moved in batch:
        base = min(c.e + min(t, 0) for _, t, c in moved)
        for x, t, c in moved:
            z = p_to_int(c.n, B)
            diff.setdefault(x, []).append(
                ((z << (c.e + t - base) * B) - (z << (c.e - base) * B), off * B))
        top = pieces.top + max(c.e + max(t, 0) + len(c.n) for _, t, c in moved) - 1 - base
        bands.append((res, base + e0, off, top))
        off += top + 1
    G = {}
    for x, zs in diff.items():
        for y, u in cof.items():
            acc = G.get(x + y, 0)
            for z, shift in zs:
                acc += z * u << shift
            G[x + y] = acc
    # sum_w w(G) = sum_w w(R), R the sum of G onto one weight d per W-orbit,
    # pack being linear: w(d) packs to sum_j signs[j] * d[perm[j]] * pack(e_j)
    n = len(pieces.direction)
    R = Counter()
    for w, z in zip(zip(*columns(G, n)), G.values()):
        R[tuple(sorted(map(abs, w), reverse=True))] += z
    cols, num = list(zip(*R)), {}
    for perm, signs in weyl_group(n):
        keys = repeat(0)
        for j, (p, s) in enumerate(zip(perm, signs)):
            keys = map(add, keys, map(mul, cols[p], repeat(s << RADIX * j)))
        for k, z in zip(keys, R.values()):
            num[k] = num.get(k, 0) + z
    out = GAElem(n)
    out.terms = {k: z for k, z in num.items() if z}
    return out, bands


def operator_action(label: KLabel, rs: RootSystem, basis) -> dict:
    """Matrix {(nu, mu): Scalar} of the operator in the direction eps_1 on
    the orbit-sum basis, every diagonal entry present, from one batch;
    asserts dominance triangularity column by column."""
    matrix = {}
    for mu, img in zip(basis, apply_qdiff(label, [{mu: SC_ONE} for mu in basis], rs)):
        for nu, c in img.items():
            if not dominance_leq(nu, mu):
                raise ValueError("operator is not dominance triangular")
            matrix[(nu, mu)] = c
        matrix.setdefault((mu, mu), SC_ZERO)
    return matrix


class MKPolynomial(namedtuple("MKPolynomial", "lam coeffs label level eigenvalue",
                              defaults=(0, None))):
    """The polynomial at lam of the family of label at level: coeffs maps
    each dominant weight to its Scalar coefficient in the orbit-sum basis,
    and eigenvalue is the operator's diagonal entry at lam."""

    __slots__ = ()

    def as_gaelem(self, n: int) -> GAElem:
        return from_m_basis(self.coeffs, n)

    def to_json(self):
        import json
        return json.dumps({
            "label": [str(k) for k in self.label.ks()],
            "base_exp": self.label.base_exp,
            "level": self.level,
            "lambda": list(self.lam),
            "basis": "m",
            "coeffs": [
                {"mu": list(w), "c": str(c)}
                for w, c in sorted(self.coeffs.items())
            ],
        })


def build_polynomial(label: KLabel, lams, rs: RootSystem, level: int = 0,
                     verify: bool = True) -> dict:
    """Triangular eigenfunction solves, {lam: MKPolynomial} for each lam of
    lams, from the operator on the weights below them: unit leading
    coefficient, exact coefficients in Q(v).  The self-check applies the
    operator to all of them as one batch."""
    below = {mu for lam in lams for mu in dominant_weights_below(lam)}
    M = operator_action(label, rs, sorted(below, key=lambda w: (sum(w), w)))
    out = {}
    for lam in lams:
        E_lam = M[(lam, lam)]
        coeffs = {lam: SC_ONE}
        for kappa in reversed(dominant_weights_below(lam)[:-1]):
            rhs = SC_ZERO
            for nu, c in coeffs.items():
                if nu != kappa and (kappa, nu) in M:
                    rhs = rhs + M[(kappa, nu)] * c
            gap = E_lam - M[(kappa, kappa)]
            if not gap:
                raise ValueError("non-generic parameters: eigenvalue collision at %s / %s"
                                 % (lam, kappa))
            b = rhs / gap
            if b:
                coeffs[kappa] = b
        out[lam] = MKPolynomial(lam, coeffs, label, level, E_lam)
    if verify:
        # the operator is Q(v)-linear: check it on the coordinates of each
        # L * P, which are integer Laurent polynomials
        gs = [clear_denominators(P.coeffs) for P in out.values()]
        for (lam, P), g, img in zip(out.items(), gs, apply_qdiff(label, gs, rs)):
            E = P.eigenvalue
            if img != ({w: c * E for w, c in g.items()} if E else {}):
                raise ValueError("eigenfunction check failed at %s" % (lam,))
    return out


def build_family(entry: SatakeEntry, l: int, bound: int,
                 sigma=Fraction(0), verify: bool = False):
    """Operator-exact polynomials for every dominant weight with
    coordinate sum <= bound, as a dict."""
    return build_polynomial(KLabel.from_entry(entry, l, sigma),
                            dominant_weights_upto(entry.n, bound),
                            build_root_system(entry.n), level=l, verify=verify)


# ---------------------------------------------------------------------------
# the Gram matrix of orbit sums; the truncated Gram-style construction
# (oracle path)
# ---------------------------------------------------------------------------

_GRAM = {}


def gram_matrix(entry: SatakeEntry, l: int, basis, M: int = DEFAULT_PRECISION,
                sigma=Fraction(0)) -> dict:
    """G[(mu, nu)] = ct(m_mu bar(m_nu) W_l) mod v^(M+1) for mu, nu in
    basis: the constant-term pairing of orbit sums, symmetric, as a fresh
    dict.

    Each (entry, l, sigma, M) keeps, for the life of the process, one
    expansion of W_l and every pair computed so far.  A pair of weights of
    l1 norm at most s reads the expansion at weights within +-2s, where an
    expansion over that window is exact, so the weight is expanded again
    only for a basis wider than the held window, and held pairs stay valid.
    """
    key = (entry, l, sigma, M)
    span = max((sum(map(abs, w)) for w in basis), default=0)
    held_span, engine, pairs = _GRAM.get(key, (-1, None, {}))
    if span > held_span:
        rs = build_root_system(entry.n)
        W = shifted_weight(KLabel.from_entry(entry, 0, sigma), entry, l, rs, sigma)
        engine = InnerProductEngine(W, M, ([-2 * span] * entry.n, [2 * span] * entry.n))
        _GRAM[key] = span, engine, pairs
    mons = [(mu, orbit_sum(mu, entry.n)) for mu in basis]
    G = {}
    for i, (mu, m_mu) in enumerate(mons):
        for nu, m_nu in mons[: i + 1]:
            if (mu, nu) not in pairs:
                pairs[(mu, nu)] = pairs[(nu, mu)] = engine.ct_pair(m_mu, m_nu)
            G[(mu, nu)] = G[(nu, mu)] = pairs[(mu, nu)]
    return G


def build_polynomial_gs(entry: SatakeEntry, l: int, lam: Weight,
                        M: int = DEFAULT_PRECISION, sigma=Fraction(0)):
    """Truncated coefficients from the orthogonality characterization:
    solve ct(P bar(m_mu) W) = 0 mod v^(M+1) for all mu below lam, from
    gram_matrix over those weights.  Returns a dict weight -> TruncSeries
    including the unit leading coefficient.
    """
    below = dominant_weights_below(lam)
    G = gram_matrix(entry, l, below, M, sigma)
    lower = below[:-1]
    rows = [[G[(mu, nu)] for mu in lower] for nu in lower]
    rhs = [-G[(lam, nu)] for nu in lower]
    sol = _series_solve(rows, rhs)
    out = {lam: TruncSeries.one(M)}
    out.update(zip(lower, sol))
    return out


def _series_solve(rows, rhs):
    """Solve rows * x = rhs over truncated series: forward elimination
    with valuation-aware pivoting, then back substitution; raises
    'precision exhausted' when the pivots run out.

    The pivot of column col is the entry of lowest valuation among rows
    col..k-1, the first on ties.  Only the rows below it are eliminated,
    about k^3/3 series products and k(k-1)/2 + k divisions against
    Gauss-Jordan's k^3 and k^2.  The rows not yet pivoted change exactly
    as under Gauss-Jordan, so the pivots and the columns that run out of
    precision are the same; unlike Gauss-Jordan, no entry above a pivot
    is divided by it."""
    k = len(rows)
    rows = [list(r) + [b] for r, b in zip(rows, rhs)]
    for col in range(k):
        piv, pval = None, None
        for i in range(col, k):
            val = rows[i][col].valuation()
            if val is not None and (pval is None or val < pval):
                piv, pval = i, val
        if piv is None:
            raise ValueError("precision exhausted")
        rows[col], rows[piv] = rows[piv], rows[col]
        prow = rows[col]
        p, rest = prow[col], prow[col + 1:]
        for i in range(col + 1, k):
            row = rows[i]
            f = row[col].divide(p)
            row[col + 1:] = [x - f * y for x, y in zip(row[col + 1:], rest)]
    x = [None] * k
    for i in reversed(range(k)):
        row = rows[i]
        acc = row[k]
        for j in range(i + 1, k):
            acc = acc - row[j] * x[j]
        x[i] = acc.divide(row[i])
    return x


def dual_path_agree(poly: MKPolynomial, gs_coeffs: dict, M: int) -> bool:
    """Operator-exact coefficients equal the truncated ones mod v^(M+1).

    False when a truncated coefficient is certified only below v^(M+1):
    agreement at a lower order does not certify the requested one."""
    zero = TruncSeries.zero(M)
    for w in set(poly.coeffs) | set(gs_coeffs):
        ser = gs_coeffs.get(w, zero)
        if ser.precision < M:
            return False
        if scalar_to_series(poly.coeffs.get(w, SC_ZERO), M) != ser:
            return False
    return True


# ---------------------------------------------------------------------------
# verification operations
# ---------------------------------------------------------------------------

def verify_orthogonality(family: dict, entry: SatakeEntry, l: int,
                         M: int = DEFAULT_PRECISION, sigma=Fraction(0)):
    """Pairwise constant terms ct(P bar(P') W_l) = c^T G c', from one Gram
    matrix of orbit sums and each coefficient expanded to a series once;
    off-diagonal entries must vanish mod v^(M+1), each row reporting the
    precision its constant term is certified to."""
    lams = sorted(family, key=lambda w: (sum(w), w))
    series = {lam: {a: scalar_to_series(c, M) for a, c in family[lam].coeffs.items()}
              for lam in lams}
    support = sorted({a for ser in series.values() for a in ser})
    G = gram_matrix(entry, l, support, M, sigma)
    report = {"entry": entry.family, "level": l, "pairs": [], "pass": True}
    zero = TruncSeries.zero(M)
    for i, lam in enumerate(lams):
        cG = {b: sum((x * G[(a, b)] for a, x in series[lam].items()), zero)
              for b in support}
        for mu in lams[:i]:
            ct = sum((cG[b] * y for b, y in series[mu].items()), zero)
            row = orthogonality_row(lam, mu, ct, M)
            report["pass"] = report["pass"] and row["zero"]
            report["pairs"].append(row)
    return report


def orthogonality_row(lam: Weight, mu: Weight, ct: TruncSeries, M: int) -> dict:
    """The report row of one pair: "zero" holds when the constant term
    vanishes and is certified mod v^(M+1); a zero series of lower
    precision certifies nothing beyond it."""
    row = {"lam": list(lam), "mu": list(mu),
           "zero": ct.is_zero() and ct.precision >= M,
           "precision_certified": ct.precision}
    if not ct.is_zero():
        row["first_nonzero_order"] = ct.valuation()
    return row


def check_bar_invariance(P: MKPolynomial) -> bool:
    """All orbit-sum coefficients fixed by v -> 1/v, exactly."""
    return all(c.bar() == c for c in P.coeffs.values())


def pin_rho(family: dict):
    """Read the spectral data (rho, center) off the eigenvalues of a family
    at the staircase weights (2, ..., 2, 0, ..., 0).

    The eigenvalue at lam is v^center * (S(lam/2 + rho) - S(rho)), S the
    exponential Weyl sum of eps_1 at scale b (roots.weyl_sum).  Consecutive
    staircase weights differ by 2 in coordinate k, so their difference has
    the extreme exponents center +- b*(rho_k + 1).  Nothing else is read:
    eigenvalue_closed_form_check compares every eigenvalue with the pin.
    """
    n = len(next(iter(family)))
    b = next(iter(family.values())).label.base_exp
    stairs = [(2,) * k + (0,) * (n - k) for k in range(n + 1)]
    for lam in stairs:
        if lam not in family:
            raise ValueError("weight %s out of range of the family" % (lam,))
    rho = []
    for low, high in zip(stairs, stairs[1:]):
        delta = family[high].eigenvalue - family[low].eigenvalue
        if not delta or len(delta.d) != 1:
            raise ValueError("cannot pin the spectral shift")
        lo, hi = delta.e, delta.e + len(delta.n) - 1
        rho.append(Fraction(hi - lo, 2 * b) - 1)
    return tuple(rho), Fraction(hi + lo, 2)


def eigenvalue_closed_form_check(family: dict, pinned) -> bool:
    """Every eigenvalue of the family equals v^center * (S(lam/2 + rho) -
    S(rho)), S the exponential Weyl sum of eps_1 at scale b; pinned is the
    (rho, center) of pin_rho."""
    rho, center = pinned
    if center.denominator != 1:
        return False
    eps1 = (1,) + (0,) * (len(rho) - 1)
    for lam, P in family.items():
        b = P.label.base_exp
        try:
            terms = weyl_sum(eps1, [Fraction(c, 2) + r for c, r in zip(lam, rho)], b)
            terms.subtract(weyl_sum(eps1, rho, b))
        except ValueError:
            return False
        if sum((Scalar.monomial(c, e + int(center)) for e, c in terms.items()),
               SC_ZERO) != P.eigenvalue:
            return False
    return True


def eigenvalue_identity_check(entry: SatakeEntry, ambient_lams, families: dict) -> dict:
    """The central-character identity: the ambient Weyl sum of
    q^((w mu, lam + rho)) equals N times the restricted Weyl sum of
    B^((w mu~, lam~ + rho')) with rho' pinned from the eigenvalues of the
    level-0 family.  At every level l of families, {level: family}, the
    eigenvalues follow the closed form from the rho' pinned there, and
    rho'(l) = rho'(0) + (l/2)(1,...,1).
    """
    if not entry.reduced:
        raise ValueError("identity requires a reduced entry")
    data = ambient_data(entry.family, entry.n)
    pinned = {l: pin_rho(fam) for l, fam in families.items()}
    rho_res = pinned[0][0]
    b = KLabel.from_entry(entry, 0).base_exp
    N = len(weyl_group(len(data.rho))) // len(weyl_group(entry.n))
    mu_half = [Fraction(c, 2) for c in data.restrict(data.mu)]

    report = {
        "entry": entry.family,
        "N": N,
        "rho_restricted": [str(x) for x in rho_res],
        "lambdas": [],
        "pass": True,
    }
    for lam_amb in ambient_lams:
        lhs = weyl_sum(data.mu, [x + r for x, r in zip(lam_amb, data.rho)], D * data.gram)
        x = [Fraction(c, 2) + r for c, r in zip(data.restrict(lam_amb), rho_res)]
        rhs = weyl_sum(mu_half, x, b)
        ok = lhs == Counter({e: N * c for e, c in rhs.items()})
        report["lambdas"].append({"lambda": list(lam_amb), "match": ok})
        if not ok:
            report["pass"] = False

    report["shift_law"] = []
    for l, (rho_l, center_l) in pinned.items():
        ok = (rho_l == tuple(r + Fraction(l, 2) for r in rho_res)
              and eigenvalue_closed_form_check(families[l], (rho_l, center_l)))
        report["shift_law"].append({"level": l, "match": bool(ok)})
        if not ok:
            report["pass"] = False
    return report


def connection_coeffs(family_l: dict, family_l1: dict, lam: Weight) -> dict:
    """Coefficients d_mu with P^l_lam = sum_mu d_mu P^(l+shift)_mu,
    by a triangular change of basis in orbit-sum coordinates."""
    if lam not in family_l:
        raise ValueError("weight missing from the level-l family")
    below = dominant_weights_below(lam)
    for mu in below:
        if mu not in family_l1:
            raise ValueError("weight %s missing from the target family" % (mu,))
    src = dict(family_l[lam].coeffs)
    out = {}
    for mu in reversed(below):
        c = src.get(mu, SC_ZERO)
        if c:
            out[mu] = c
            for nu, x in family_l1[mu].coeffs.items():
                acc = src.get(nu, SC_ZERO) - c * x
                if acc:
                    src[nu] = acc
                elif nu in src:
                    del src[nu]
    if src:
        raise ValueError("change of basis failed to terminate")
    return out
