"""Construction of the orthogonal polynomial families: exactly via the
q-difference operator obtained by conjugating a translation with the
positive-root half density, and as a truncated Gram-style oracle from the
constant-term inner product.  Also: orthogonality verification, the
v -> 1/v coefficient symmetry, the central-character eigenvalue identity,
and connection coefficients between neighbouring levels.  The operator
runs on ints, with v evaluated at 2^B (apply_qdiff, mkpolys.qdiff): a
batch's numerator is reslotted once and divided by one line of
binomial atoms (s, c, w) at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import add, neg

from .galg import GAElem, from_m_basis, ga_divexact, orbit_sum, require_invariant
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
    weyl_apply,
    weyl_group,
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
    is one int times a power of v shared by the numerator.  As f is
    invariant, its numerator is sum_eta w_eta(G) for the one product
    G = cof * (T_eps_1 f - f) (see qdiff.Pieces), shifted into a band of
    v-slots of its own; the sum of the bands, moved once from the product
    width to B (int_reslot on the whole batch), is divided by the common
    atoms (s, c, w) one line +-w at a time (ga_divexact on Pieces.lines,
    each atom 1 - s*v^c*e^w a shift by c*B) and must be Weyl invariant:
    the bands sit in disjoint slots, so equal ints mean equal values in
    every band.  Its dominant weights are read back and split by band.
    Pieces.slot_width gives B and the gap between bands, and proves that
    the batch raises exactly when one of its inputs would alone.
    """
    pieces = _qdiff_pieces(label, rs)
    direction, b = pieces.direction, label.base_exp
    out = [{} for _ in fs]
    batch = []                  # (result, f as a GAElem) of each nonconstant f
    for i, (res, f) in enumerate(zip(out, fs)):
        g = from_m_basis(f, rs.n)
        if any(c.d != P_ONE for c in g.terms.values()):
            raise ValueError("input %d is not an integer Laurent polynomial" % i)
        if any(map(any, g.terms)):  # else f is constant and its image zero
            batch.append((res, g))
    if not batch:
        return out
    ws = [w for _, g in batch for w in g.terms]
    nu = max(l1_norm(c) for _, g in batch for c in g.terms.values())
    B1 = pieces.product_width(nu)
    B, gap = pieces.slot_width(nu, [min(x) for x in zip(*ws)], [max(x) for x in zip(*ws)])
    e0, cof = pieces.cof
    if B1 != pieces.width:
        cof = dict(zip(cof, int_reslot(list(cof.values()), pieces.width, B1)))
    acc, bands, off = {}, [], 0
    for res, g in batch:
        moved = []              # the terms T_direction moves: (weight, e, v-shift, z)
        for w, c in g.terms.items():
            t = dot4(direction, w) * b
            if t.denominator != 1:
                raise ValueError("non-integral translation exponent")
            if t:
                moved.append((w, c.e, int(t), p_to_int(c.n, B1)))
        base = min(e + min(t, 0) for _, e, t, _ in moved)
        diff = [(w, (z << ((e + t - base) * B1)) - (z << ((e - base) * B1)))
                for w, e, t, z in moved]
        G = {}
        for w1, z1 in cof.items():
            for w2, z2 in diff:
                w = tuple(map(add, w1, w2))
                G[w] = G.get(w, 0) + z1 * z2
        # sum_eta w_eta(G), each w a signed permutation of G's weight columns
        cols = list(zip(*G))
        negs = [tuple(map(neg, c)) for c in cols]
        part = {}
        for perm, signs in pieces.reps:
            images = zip(*[(cols if s > 0 else negs)[p] for p, s in zip(perm, signs)])
            for w, z in zip(images, G.values()):
                part[w] = part.get(w, 0) + z
        # balanced digits below 2^(B1-1) put a top slot d at bit length >= d * B1
        top = max((abs(z).bit_length() for z in part.values()), default=0) // B1
        for w, z in part.items():
            acc[w] = acc.get(w, 0) + (z << (off * B1))
        bands.append((res, base + e0, off * B, 1 << ((top + 1) * B)))
        off += top + 1 + gap
    # the division needs the wider slots of slot_width
    num = GAElem(rs.n)
    num.terms = {w: z for w, z in acc.items() if z}
    del acc                     # frees the ints at B1 before the division
    if B != B1:
        num.terms = dict(zip(num.terms, int_reslot(list(num.terms.values()), B1, B)))
    try:
        for line in pieces.lines:
            num = ga_divexact(num, line, B)
    except ValueError:
        raise ValueError("non-polynomial result")
    sign, C, W = pieces.monomial
    k = sign * pieces.stab
    quo = {wdiff(w, W): z for w, z in num.terms.items()}
    require_invariant(quo, "the operator's image")
    for w, z in quo.items():
        if is_dominant(w):
            for res, E, s, m in bands:
                # the band's balanced digits; those below sum to under half of 2^s
                z1 = ((z + (1 << s >> 1) >> s) + (m >> 1)) % m - (m >> 1)
                if z1:
                    res[w] = Scalar.laurent(E - C, [k * d for d in p_from_int(z1, B)])
    return out


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


@dataclass
class MKPolynomial:
    lam: Weight
    coeffs: dict                 # dominant weight -> Scalar (orbit-sum basis)
    label: KLabel
    level: int = 0
    eigenvalue: Scalar = None    # the operator's diagonal entry at lam

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
    is divided by it.  A zero entry is skipped when its row already has
    no more precision than the update would leave it (always, at a pivot
    of valuation 0 with one precision throughout); otherwise the update
    runs, so every row keeps the precision Gauss-Jordan gives it."""
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
            a = row[col]
            if a.is_zero():
                cap = min(a.precision, p.precision) - pval
                if all(x.precision <= min(cap, y.precision) for x, y in zip(row[col + 1:], rest)):
                    continue
            f = a.divide(p)
            row[col + 1:] = [x - f * y for x, y in zip(row[col + 1:], rest)]
    x = [None] * k
    for i in reversed(range(k)):
        row = rows[i]
        acc = row[k]
        for j in range(i + 1, k):
            # a zero entry known mod v^(p+1) times a power series is zero
            # mod v^(p+1), whatever the precision of x[j]
            acc = acc - (row[j] if row[j].is_zero() else row[j] * x[j])
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


def _scalar_laurent(x: Scalar) -> dict:
    """Laurent terms {exponent: coefficient} of a Laurent polynomial."""
    if len(x.d) != 1:
        raise ValueError("not a Laurent polynomial")
    den = x.d[0]
    return {x.e + i: Fraction(c, den) for i, c in enumerate(x.n) if c}


def _staircase(n: int, k: int) -> Weight:
    return tuple([2] * k + [0] * (n - k))


def _eigenvalue_at(family: dict, lam: Weight) -> Scalar:
    if lam not in family:
        raise ValueError("weight %s out of range of the family" % (lam,))
    return family[lam].eigenvalue


def pin_rho(family: dict):
    """Extract the spectral data (rho, center) from the eigenvalues of a
    family at the staircase weights.

    The eigenvalue at lam is v^center * mult * (S(lam + rho) - S(rho))
    with S the symmetric exponential sum; consecutive staircase weights
    differ in one coordinate, so each difference is a four-term Laurent
    polynomial exposing center +- b*(rho_k + 1) and center +- b*rho_k.
    """
    n = len(next(iter(family)))
    b = next(iter(family.values())).label.base_exp
    mult = Fraction(len(weyl_group(n)), 2 * n)
    rho = []
    center = None
    for k in range(1, n + 1):
        delta = (_eigenvalue_at(family, _staircase(n, k))
                 - _eigenvalue_at(family, _staircase(n, k - 1)))
        terms = _scalar_laurent(delta)
        bag = {}
        for e, c in terms.items():
            m = c / mult
            if m.denominator != 1 or abs(m) != 1:
                raise ValueError("cannot pin the spectral shift")
            bag[e] = int(m)
        if len(bag) != 4 or sorted(bag.values()) != [-1, -1, 1, 1]:
            raise ValueError("cannot pin the spectral shift")
        hi, lo = max(bag), min(bag)
        if bag[hi] != 1 or bag[lo] != 1:
            raise ValueError("cannot pin the spectral shift")
        c_k = Fraction(hi + lo, 2)
        if center is None:
            center = c_k
        elif center != c_k:
            raise ValueError("cannot pin the spectral shift")
        rho.append(Fraction(hi - c_k, b) - 1)
    if center is None or center.denominator != 1:
        raise ValueError("cannot pin the spectral shift")
    return tuple(rho), center


def _closed_form_eigenvalue(lam: Weight, rho, center, b: int, mult: int) -> Scalar:
    acc = SC_ZERO
    for i in range(len(rho)):
        x = (Fraction(lam[i], 2) + rho[i]) * b
        r = rho[i] * b
        if x.denominator != 1 or r.denominator != 1:
            raise ValueError("non-integral exponent")
        acc = acc + Scalar.of(mult) * (
            Scalar.v_pow(int(x)) + Scalar.v_pow(-int(x))
            - Scalar.v_pow(int(r)) - Scalar.v_pow(-int(r))
        )
    return acc * Scalar.v_pow(int(center))


def eigenvalue_closed_form_check(family: dict, pinned) -> bool:
    """Every eigenvalue of the family equals the exponential Weyl sum at
    lam + rho minus its value at rho, times a fixed monomial; pinned is
    the (rho, center) of pin_rho."""
    rho, center = pinned
    n = len(rho)
    mult = len(weyl_group(n)) // (2 * n)
    for lam, P in family.items():
        try:
            want = _closed_form_eigenvalue(lam, rho, center, P.label.base_exp, mult)
        except ValueError:
            return False
        if want != P.eigenvalue:
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
    n = entry.n
    pinned = {l: pin_rho(fam) for l, fam in families.items()}
    rho_res = pinned[0][0]
    b = KLabel.from_entry(entry, 0).base_exp
    N = len(weyl_group(len(data.rho))) // len(weyl_group(n))
    mu_res = data.restrict(data.mu)

    report = {
        "entry": entry.family,
        "N": N,
        "rho_restricted": [str(x) for x in rho_res],
        "lambdas": [],
        "pass": True,
    }
    for lam_amb in ambient_lams:
        lhs = {}
        target = tuple(Fraction(x) + r for x, r in zip(lam_amb, data.rho))
        for w in weyl_group(len(data.rho)):
            e = data.pair(weyl_apply(w, data.mu), target)
            ve = e * D
            if ve.denominator != 1:
                raise ValueError("non-integral ambient exponent")
            lhs[int(ve)] = lhs.get(int(ve), 0) + 1
        lam_res = data.restrict(lam_amb)
        x = tuple(Fraction(c, 2) + rho_res[i] for i, c in enumerate(lam_res))
        mu_half = tuple(Fraction(c, 2) for c in mu_res)
        rhs = {}
        for w in weyl_group(n):
            wmu = weyl_apply(w, mu_half)
            e = sum(a * t for a, t in zip(wmu, x))
            ve = e * b
            if ve.denominator != 1:
                raise ValueError("non-integral restricted exponent")
            rhs[int(ve)] = rhs.get(int(ve), 0) + N
        ok = lhs == rhs
        report["lambdas"].append({"lambda": list(lam_amb), "match": bool(ok)})
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
