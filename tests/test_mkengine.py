import random
from collections import Counter
from fractions import Fraction

import pytest

from mkpolys import checks, mkengine, qdiff, weights
from mkpolys.galg import GAElem, columns, from_m_basis, m_basis, orbit_sum, pack
from mkpolys.mkengine import (
    apply_qdiff,
    build_family,
    build_polynomial,
    build_polynomial_gs,
    check_bar_invariance,
    connection_coeffs,
    dual_path_agree,
    eigenvalue_closed_form_check,
    eigenvalue_identity_check,
    gram_matrix,
    operator_action,
    orthogonality_row,
    verify_orthogonality,
    _qdiff_pieces,
)
from mkpolys.qdiff import Pieces, clear_denominators
from mkpolys.roots import (
    build_root_system,
    dominant_weights_upto,
    eps,
    is_dominant,
    satake_catalog,
    wdiff,
    weyl_apply,
    weyl_group,
    wneg,
    wsum,
)
from mkpolys.scalars import (P_ONE, SC_ONE, Scalar, TruncSeries, byte_width, p_from_int, p_make,
                             scalar_to_series)
from mkpolys.weights import (
    InnerProductEngine,
    KLabel,
    atom_product,
    half_density,
    ratio_atoms,
    shifted_weight,
)

AI1 = satake_catalog("AI1", 1)
AIV2 = satake_catalog("AIVm", 1, 2)
AIIIB2 = satake_catalog("AIIIb", 2)
RS1 = build_root_system(1)
RS2 = build_root_system(2)


def _engine(entry, l, M, span):
    """A pairing engine for W_l built directly, over the window +-2 * span."""
    rs = build_root_system(entry.n)
    W = shifted_weight(KLabel.from_entry(entry, 0), entry, l, rs)
    return InnerProductEngine(W, M, ([-2 * span] * entry.n, [2 * span] * entry.n))


def _ct_oracle(eng, f, g):
    """ct(f bar(g) W) for any two elements f, g, from the engine's rows:
    h = f * bar(g) multiplied out, and the sum over the terms c e^w of h
    of c times the row at -w; no orbit argument."""
    acc = TruncSeries.zero(eng.M)
    for w, c in (f * g.bar()).terms.items():
        z = eng.exp.get(wneg(w))
        if z is not None:
            acc = acc + scalar_to_series(c, eng.M) * TruncSeries(_row(z, eng.B, eng.M), eng.M)
    return acc


def _row(z, B, M):
    """The M + 1 coefficients of a row of the engine, read from its int."""
    return (p_from_int(z, B) + [0] * (M + 1))[: M + 1]


def test_constants_are_eigenfunctions():
    k = KLabel.from_entry(AI1, 0)
    assert apply_qdiff(k, [{(0,): SC_ONE}], RS1) == [{}]


def test_coefficient_functions_are_bar_images():
    # the two rank-one coefficient functions swap under weight negation
    k = KLabel.from_entry(AI1, 1)
    pieces = _qdiff_pieces(k, RS1)
    cofs = _per_image_cofactors(k, RS1, pieces.width)
    # at rank one the stabilizer of eps_1 is trivial: one weight per orbit
    assert _cofactor_images(pieces) == cofs
    assert len(pieces.cof[1]) == len(cofs[(2,)][1])
    assert set(cofs) == {(2,), (-2,)}
    e_plus, plus = cofs[(2,)]
    e_minus, minus = cofs[(-2,)]
    assert e_minus == e_plus and minus == {(-w[0],): z for w, z in plus.items()}
    neg = {(s, c, tuple(-x for x in w)) for (s, c, w) in pieces.atoms}
    assert neg == set(pieces.atoms)  # common denominator is bar symmetric


def atom_binomial(atom, rank):
    """The binomial 1 - s*v^c*e^w of atom (s, c, w)."""
    s, c, w = atom
    return GAElem.unit(rank) + GAElem.monomial(rank, w, Scalar.monomial(-s, c))


def _per_image_atoms(label, rs):
    """Per Weyl image eta = w(eps_1), for the first such w: w(numerator
    atoms), w(denominator atoms); and the least common multiple of the
    images' denominator atoms."""
    direction = eps(0, rs.n)
    delta = half_density(label, rs)
    num_atoms, den_atoms = ratio_atoms(delta.translate(direction, label.base_exp), delta)
    groups = {}
    for w in weyl_group(rs.n):
        eta = weyl_apply(w, direction)
        groups.setdefault(eta, ([(s, c, weyl_apply(w, a)) for s, c, a in num_atoms],
                                [(s, c, weyl_apply(w, a)) for s, c, a in den_atoms]))
    lcm = Counter()
    for _, dens in groups.values():
        lcm |= Counter(dens)
    return groups, lcm


def _per_image_cofactors(label, rs, width):
    """The oracle: per Weyl image eta, the cofactor multiplied out from that
    image's own atoms by atom_product at the given width."""
    groups, lcm = _per_image_atoms(label, rs)
    return {eta: atom_product((0,) * rs.n, nums + list((lcm - Counter(dens)).elements()), width)
            for eta, (nums, dens) in groups.items()}


def _stabilizer(n):
    """The elements of W that fix eps_1: the signed permutations of
    coordinates 2..n."""
    return [w for w in weyl_group(n) if weyl_apply(w, eps(0, n)) == eps(0, n)]


def _cofactor_images(pieces):
    """The cofactor at w(eps_1) for the first w of W with each image: each
    orbit weight r of the cofactor that Pieces keeps, its coefficient
    divided by the size of its stabilizer orbit and spread over that
    orbit, then w applied to the weights."""
    e0, cof = pieces.cof
    n = len(pieces.direction)
    full = {}
    for r, z in zip(zip(*columns(cof, n)), cof.values()):
        orbit = {weyl_apply(s, r) for s in _stabilizer(n)}
        assert z % len(orbit) == 0
        full.update(dict.fromkeys(orbit, z // len(orbit)))
    out = {}
    for w in weyl_group(n):
        out.setdefault(weyl_apply(w, pieces.direction),
                       (e0, {weyl_apply(w, x): z for x, z in full.items()}))
    return out


def _scalar_apply_qdiff(label, f, rs):
    """The operator in the direction eps_1 on a GAElem f with Scalar
    coefficients, as a reference for the integer kernel: cofactors
    multiplied out as GAElems, the numerator divided atom by atom by
    lex-leading-term long division."""
    groups, lcm = _per_image_atoms(label, rs)
    acc = GAElem(rs.n)
    for eta, (nums, dens) in groups.items():
        cof = GAElem.unit(rs.n)
        for a in nums + list((lcm - Counter(dens)).elements()):
            cof = cof * atom_binomial(a, rs.n)
        acc = acc + cof * (f.translate(eta, label.base_exp) - f)
    for a in lcm.elements():
        g = atom_binomial(a, rs.n)
        gw = max(g.terms)
        quo = GAElem(rs.n)
        while acc.terms:
            fw = max(acc.terms)
            t = GAElem.monomial(rs.n, tuple(x - y for x, y in zip(fw, gw)),
                                acc.terms[fw] / g.terms[gw])
            quo, acc = quo + t, acc - t * g
        acc = quo
    return acc.scale(Scalar.of(len(weyl_group(rs.n)) // len(groups)))


@pytest.mark.parametrize("entry,n,l,bound", [
    (AI1, 1, 0, 8), (AI1, 1, 2, 6), (AIV2, 1, 1, 6), (AIIIB2, 2, 1, 4),
    (satake_catalog("CI", 2), 2, 0, 4), (satake_catalog("DI", 2), 2, 2, 2)],
    ids=["AI1 l=0", "AI1 l=2", "AIVm l=1", "AIIIb l=1", "CI l=0", "DI l=2"])
def test_integer_kernel_matches_the_scalar_operator(entry, n, l, bound):
    # m_basis raises unless the reference image is Weyl invariant
    rs = build_root_system(n)
    k = KLabel.from_entry(entry, l)
    fs = [{mu: SC_ONE} for mu in dominant_weights_upto(n, bound)]
    assert apply_qdiff(k, fs, rs) == [m_basis(_scalar_apply_qdiff(k, from_m_basis(f, n), rs))
                                      for f in fs]


def test_integer_kernel_matches_the_scalar_operator_on_rational_coefficients():
    # P has rational coefficients; the operator takes L * P, L their
    # common denominator
    k = KLabel.from_entry(AIIIB2, 1)
    P = build_family(AIIIB2, 1, 4)[(4, 0)]
    g = clear_denominators(P.coeffs)
    assert any(c.d != P_ONE for c in P.coeffs.values())
    assert apply_qdiff(k, [g], RS2) == [m_basis(_scalar_apply_qdiff(k, from_m_basis(g, 2), RS2))]


def test_a_coefficient_that_is_not_integer_laurent_raises():
    k = KLabel.from_entry(AIIIB2, 1)
    P = build_family(AIIIB2, 1, 4)[(4, 0)]
    with pytest.raises(ValueError, match="input 1 is not an integer Laurent polynomial"):
        apply_qdiff(k, [{(2, 0): SC_ONE}, P.coeffs], RS2)


def test_operator_with_a_negative_parameter():
    # k1 < 0 puts atoms 1 - s v^c e^w with c < 0 into the cofactors
    k = KLabel.make((-3, 1, 0, 0, 0), 2)
    for mu in dominant_weights_upto(1, 6):
        assert apply_qdiff(k, [{mu: SC_ONE}], RS1) == [
            m_basis(_scalar_apply_qdiff(k, orbit_sum(mu, 1), RS1))]


@pytest.mark.parametrize("label,n,bound", [
    (KLabel.from_entry(AI1, 1), 1, 6), (KLabel.from_entry(AIV2, -1, Fraction(1, 2)), 1, 6),
    (KLabel.make((-1, 1, 0, 0, 0), 2), 1, 6), (KLabel.from_entry(AIIIB2, 1), 2, 4)],
    ids=["AI1 l=1", "AIVm l=-1", "negative k1", "AIIIb l=1"])
def test_a_batch_gives_each_input_its_own_image(label, n, bound):
    # orbit sums with varied coefficients and each L * P, L the common
    # denominator of P's rational coefficients, in a scrambled order
    rs = build_root_system(n)
    rng = random.Random(n * 100 + bound)
    fs, dens = [], []
    for mu, P in build_polynomial(label, dominant_weights_upto(n, bound), rs,
                                  verify=False).items():
        c = Scalar.of(rng.randint(-99, 99)) * Scalar.v_pow(rng.randint(-5, 5))
        fs += [{mu: c}, clear_denominators(P.coeffs)]
        dens.append(any(x.d != P_ONE for x in P.coeffs.values()))
    rng.shuffle(fs)
    assert any(dens)
    assert apply_qdiff(label, fs, rs) == [m_basis(_scalar_apply_qdiff(label, from_m_basis(f, n), rs))
                                          for f in fs]


@pytest.mark.parametrize("n,key", [(1, (-2,)), (2, (0, 2)), (2, (2, -2))])
def test_a_coordinate_key_that_is_not_dominant_raises(n, key):
    k = KLabel.from_entry(AI1 if n == 1 else AIIIB2, 1)
    rs = build_root_system(n)
    fs = [{mu: SC_ONE} for mu in dominant_weights_upto(n, 4)]
    with pytest.raises(ValueError, match="weights must be dominant"):
        apply_qdiff(k, fs + [{key: SC_ONE}], rs)


def test_a_non_invariant_quotient_raises(monkeypatch):
    # fault injection: the last line's quotient changes at one weight that
    # is not dominant after the shift, which only the output check sees
    k = KLabel.from_entry(AIIIB2, 1)
    pieces = _qdiff_pieces(k, RS2)
    W = pieces.monomial[2]
    lines = len(pieces.lines)
    real, calls = mkengine.ga_divexact, []

    def faulty(f, line, B):
        q = real(f, line, B)
        calls.append(line)
        if len(calls) == lines:
            keys = list(q.terms)
            x = next(x for x, w in zip(keys, zip(*columns(keys, 2)))
                     if not is_dominant(wdiff(w, W)))
            q.terms[x] += 1
        return q

    fs = [{mu: SC_ONE} for mu in dominant_weights_upto(2, 4)]
    want = apply_qdiff(k, fs, RS2)
    monkeypatch.setattr(mkengine, "ga_divexact", faulty)
    with pytest.raises(ValueError, match="image is not Weyl invariant"):
        apply_qdiff(k, fs, RS2)
    assert len(calls) == lines
    monkeypatch.setattr(mkengine, "ga_divexact", real)
    assert apply_qdiff(k, fs, RS2) == want


def test_a_digit_outside_its_band_raises(monkeypatch):
    # fault injection: the last line's quotient gains one digit past every
    # band on a whole orbit, so it stays Weyl invariant and passes the norm
    # test, and only the band test sees it
    k = KLabel.from_entry(AIIIB2, 1)
    pieces = _qdiff_pieces(k, RS2)
    W = pieces.monomial[2]
    lines = len(pieces.lines)
    real, calls = mkengine.ga_divexact, []

    def faulty(f, line, B):
        q = real(f, line, B)
        calls.append(line)
        if len(calls) == lines:
            slot = max(z.bit_length() for z in q.terms.values()) // B + 2
            for w in orbit_sum((2, 0), 2).terms:
                x = pack(wsum(w, W))
                q.terms[x] = q.terms.get(x, 0) + (1 << slot * B)
        return q

    fs = [{mu: SC_ONE} for mu in dominant_weights_upto(2, 4)]
    want = apply_qdiff(k, fs, RS2)
    monkeypatch.setattr(mkengine, "ga_divexact", faulty)
    with pytest.raises(ValueError, match="non-polynomial result"):
        apply_qdiff(k, fs, RS2)
    assert len(calls) == lines
    monkeypatch.setattr(mkengine, "ga_divexact", real)
    assert apply_qdiff(k, fs, RS2) == want


@pytest.mark.parametrize("entry,l,bound", [
    (AI1, 2, 6), (AIIIB2, 1, 4), (satake_catalog("EVII", 3), 0, 2)],
    ids=["AI1 l=2", "AIIIb l=1", "EVII l=0"])
def test_a_failed_norm_test_builds_the_batch_again_at_twice_the_width(monkeypatch, entry, l,
                                                                      bound):
    # orbit sums and each L * P; a larger d makes the first width fail
    # the norm test, and the images must not change
    rs = build_root_system(entry.n)
    k = KLabel.from_entry(entry, l)
    basis = dominant_weights_upto(entry.n, bound)
    fs = [{mu: SC_ONE} for mu in basis] + [
        clear_denominators(P.coeffs) for P in build_polynomial(k, basis, rs, verify=False).values()]
    pieces = _qdiff_pieces(k, rs)
    real, widths = mkengine.ga_divexact, []

    def spy(f, line, B):
        if line is pieces.lines[0]:
            widths.append(B)    # one division of a whole batch
        return real(f, line, B)

    monkeypatch.setattr(mkengine, "ga_divexact", spy)
    want = apply_qdiff(k, fs, rs)
    B, = widths
    monkeypatch.setattr(pieces, "d", pieces.d + B)
    assert apply_qdiff(k, fs, rs) == want
    assert widths == [B, B, 2 * B]


COFACTOR_LABELS = pytest.mark.parametrize("entry,l,sigma", [
    (AI1, 0, 0), (AI1, 2, 0), (AIV2, -1, Fraction(1, 2)), (AIV2, 1, Fraction(1, 2)),
    (AIIIB2, 1, 0), (satake_catalog("CI", 2), 0, 0), (satake_catalog("BI", 2, 3), 1, 0),
    (satake_catalog("DI", 2, 4), 2, 0), (satake_catalog("AIIIa", 2, 2), 1, Fraction(1, 2)),
    (satake_catalog("EVII", 3), 0, 0)],
    ids=["AI1 l=0", "AI1 l=2", "AIVm l=-1", "AIVm l=1", "AIIIb l=1", "CI l=0", "BI l=1",
         "DI l=2", "AIIIa l=1", "EVII l=0"])


@COFACTOR_LABELS
def test_pieces_maps_one_cofactor_by_w(entry, l, sigma):
    # the cofactor kept at one weight per stabilizer orbit, spread over
    # each orbit and mapped by W, against the cofactors as multiplied out
    # one Weyl image at a time; each kept weight is its orbit's
    # representative (w_1, |w_2..w_n| in descending order)
    rs = build_root_system(entry.n)
    label = KLabel.from_entry(entry, l, sigma)
    pieces = Pieces(label, rs)
    groups, lcm = _per_image_atoms(label, rs)
    assert Counter(pieces.atoms) == lcm
    assert _cofactor_images(pieces) == _per_image_cofactors(label, rs, pieces.width)
    for r in zip(*columns(pieces.cof[1], rs.n)):
        assert r[1:] == tuple(sorted(map(abs, r[1:]), reverse=True))
    # the sum over all of W is |S| times the sum over the images eta, and
    # norm bounds the latter: their number times 2^(cofactor atoms)
    nums, dens = groups[pieces.direction]
    assert pieces.stab == len(_stabilizer(rs.n))
    assert pieces.norm == len(groups) << len(nums) + sum((lcm - Counter(dens)).values())
    # the premise of apply_qdiff's certificate: the divisors multiplied
    # out have v-degrees in [0, deg] and l1 norm at most 2^d
    divisors = [atom for line in pieces.lines for atom in line]
    assert len(divisors) == pieces.d
    B = byte_width(2 << pieces.d)
    e0, D = atom_product((0,) * rs.n, divisors, B)
    digits = [p_from_int(z, B) for z in D.values()]
    assert e0 == 0
    assert max(len(p_make(ds)) for ds in digits) - 1 == pieces.deg
    assert sum(abs(x) for ds in digits for x in ds) <= 1 << pieces.d


@pytest.mark.parametrize("fault", ["changed", "dropped"])
def test_a_cofactor_that_is_not_stabilizer_invariant_raises(monkeypatch, fault):
    # fault injection: the multiplied-out cofactor changes at one weight
    # that is no orbit representative, so its orbit is not constant
    real = qdiff.atom_product

    def faulty(W, atoms, B):
        e0, cof = real(W, atoms, B)
        x = next(x for x in cof if x[1:] != tuple(sorted(map(abs, x[1:]), reverse=True)))
        if fault == "changed":
            cof[x] += 1
        else:
            del cof[x]
        return e0, cof

    monkeypatch.setattr(qdiff, "atom_product", faulty)
    with pytest.raises(ValueError, match="the cofactor is not Weyl invariant"):
        Pieces(KLabel.from_entry(AIIIB2, 1), RS2)


@pytest.mark.parametrize("entry,l,bound", [
    (AIIIB2, 1, 4), (satake_catalog("CI", 2), 0, 4), (satake_catalog("EVII", 3), 0, 2),
    (AI1, 1, 6)], ids=["AIIIb n=2 l=1", "CI n=2 l=0", "EVII n=3 l=0", "AI1 l=1"])
def test_a_doubled_orbit_coefficient_fails_the_build(monkeypatch, entry, l, bound):
    # fault injection: one representative's orbit coefficient doubled, at
    # six representatives spread over the cofactor, one at a time
    rs = build_root_system(entry.n)
    label = KLabel.from_entry(entry, l)
    reps = list(Pieces(label, rs).cof[1])
    for x in reps[::max(1, len(reps) // 6)][:6]:
        pieces = Pieces(label, rs)
        e0, cof = pieces.cof
        pieces.cof = e0, {**cof, x: 2 * cof[x]}
        monkeypatch.setattr(mkengine, "_QDIFF_CACHE", {(label, rs.n): pieces})
        with pytest.raises(ValueError, match="non-polynomial result"):
            build_family(entry, l, bound, verify=True)


@pytest.mark.parametrize("entry,l,bound", [
    (AIIIB2, 1, 4), (satake_catalog("CI", 2), 0, 4), (satake_catalog("EVII", 3), 0, 2)],
    ids=["AIIIb n=2 l=1", "CI n=2 l=0", "EVII n=3 l=0"])
def test_a_numerator_that_is_no_multiple_of_the_stabilizer_raises(monkeypatch, entry, l, bound):
    # fault injection: one representative's orbit coefficient raised by
    # one, at six representatives, one at a time; the sum over W is then
    # no longer |S| times an integer polynomial, or the division fails
    rs = build_root_system(entry.n)
    label = KLabel.from_entry(entry, l)
    reps = list(Pieces(label, rs).cof[1])
    errors = set()
    for x in reps[::max(1, len(reps) // 6)][:6]:
        pieces = Pieces(label, rs)
        e0, cof = pieces.cof
        pieces.cof = e0, {**cof, x: cof[x] + 1}
        monkeypatch.setattr(mkengine, "_QDIFF_CACHE", {(label, rs.n): pieces})
        with pytest.raises(ValueError) as exc:
            build_family(entry, l, bound, verify=True)
        errors.add(str(exc.value))
    assert "the numerator is not |S| times an integer polynomial" in errors
    assert errors <= {"the numerator is not |S| times an integer polynomial",
                      "non-polynomial result"}


@COFACTOR_LABELS
def test_each_band_bound_is_the_top_slot_of_its_numerator(monkeypatch, entry, l, sigma):
    # orbit sums and each L * P: the bound that band i is laid out with,
    # before the product, equals the top slot read from the bit lengths of
    # input i's numerator built alone, so the bands are no wider than
    # reading them after the product would make them
    rs = build_root_system(entry.n)
    k = KLabel.from_entry(entry, l, sigma)
    basis = dominant_weights_upto(entry.n, 6 if entry.n == 1 else 4)
    gs = [clear_denominators(P.coeffs)
          for P in build_polynomial(k, basis, rs, verify=False).values()]
    real, seen = mkengine._numerator, []

    def spy(pieces, batch, B):
        num, bands = real(pieces, batch, B)
        seen.append((pieces, batch, B, bands))
        return num, bands

    monkeypatch.setattr(mkengine, "_numerator", spy)
    apply_qdiff(k, [{mu: SC_ONE} for mu in basis], rs)
    apply_qdiff(k, gs, rs)
    assert len(seen) == 2
    for pieces, batch, B, bands in seen:
        assert len(bands) == len(batch) == len(basis) - 1
        for item, (_, _, _, top) in zip(batch, bands):
            num, _ = real(pieces, [item], B)
            # balanced digits below 2^(B-1) put a top slot t at bit length
            # in [t * B, (t + 1) * B)
            assert max(abs(z).bit_length() for z in num.terms.values()) // B == top


@pytest.mark.parametrize("entry,n,bound", [(AI1, 1, 8), (AIV2, 1, 6), (AIIIB2, 2, 4)])
def test_triangularity_and_invariance(entry, n, bound):
    rs = build_root_system(n)
    k = KLabel.from_entry(entry, 1)
    basis = dominant_weights_upto(n, bound)
    operator_action(k, rs, basis)   # asserts triangularity
    for mu in basis[:3]:
        img, = apply_qdiff(k, [{mu: SC_ONE}], rs)
        # Weyl invariant: the reference image, term by term, is the
        # expansion of the coordinates returned
        assert all(map(is_dominant, img))
        assert from_m_basis(img, n) == _scalar_apply_qdiff(k, orbit_sum(mu, n), rs)


def test_eigenvalue_examples():
    k = KLabel.from_entry(AI1, 0)
    basis = dominant_weights_upto(1, 6)
    M = operator_action(k, RS1, basis)
    assert M[((0,), (0,))] == Scalar.of(0)
    # B^{-1} + B^2 - (1 + B) in base B = v^4
    e2 = Scalar.v_pow(-4) + Scalar.v_pow(8) - Scalar.of(1) - Scalar.v_pow(4)
    assert M[((2,), (2,))] == e2
    # distinct across the basis
    eigs = [M[(w, w)] for w in basis]
    for i, a in enumerate(eigs):
        for b in eigs[i + 1:]:
            assert a != b


@pytest.mark.parametrize("entry,n,bound", [(AIV2, 1, 6), (AIIIB2, 2, 4)])
def test_family_eigenvalues_are_the_operator_diagonal(entry, n, bound):
    fam = build_family(entry, 1, bound)
    M = operator_action(KLabel.from_entry(entry, 1), build_root_system(n), list(fam))
    assert all(P.eigenvalue == M[(lam, lam)] for lam, P in fam.items())


def test_label_rho():
    for entry, want in ((AI1, (Fraction(1, 2),)),
                        (AIIIB2, (Fraction(3, 2), Fraction(1, 2))),
                        (satake_catalog("CI", 2), (Fraction(1), Fraction(1, 2)))):
        assert KLabel.from_entry(entry, 0).rho(entry.n) == want


def test_a_family_below_the_staircase_passes_the_closed_form():
    # (2, 2) has coordinate sum 4, beyond the bound
    fam = build_family(satake_catalog("CI", 2), 0, 2)
    assert (2, 2) not in fam
    assert eigenvalue_closed_form_check(fam)


def test_a_polynomial_without_an_eigenvalue_compares_unequal():
    """An MKPolynomial made with the default eigenvalue None differs from
    the built one, which holds its eigenvalue, and comparing them raises
    nothing."""
    from mkpolys.mkengine import MKPolynomial
    P = build_family(AI1, 1, 2)[(2,)]
    bare = MKPolynomial(P.lam, P.coeffs, P.label, P.level)
    assert bare != P and P != bare
    assert P == MKPolynomial(P.lam, P.coeffs, P.label, P.level, P.eigenvalue)


def test_records_compare_and_hash_by_value_and_refuse_assignment():
    """Equal labels and equal catalog entries are equal and hash equal, so
    two equal labels share one operator cache entry; an MKPolynomial keeps
    its defaults and compares field by field; labels, catalog entries and
    checks refuse attribute assignment."""
    from mkpolys.mkengine import MKPolynomial
    a, b = KLabel.from_entry(AI1, 3), KLabel.from_entry(AI1, 3)
    assert a is not b and a == b and hash(a) == hash(b)
    pieces = _qdiff_pieces(a, RS1)
    size = len(mkengine._QDIFF_CACHE)
    assert _qdiff_pieces(b, RS1) is pieces and len(mkengine._QDIFF_CACHE) == size
    e, f = satake_catalog("CI", 2), satake_catalog("CI", 2)
    assert e is not f and e == f and hash(e) == hash(f)

    P = MKPolynomial((0,), {(0,): SC_ONE}, a)
    assert (P.level, P.eigenvalue) == (0, None)
    assert P == MKPolynomial((0,), {(0,): SC_ONE}, b, 0, None)
    assert P != MKPolynomial((0,), {(0,): SC_ONE}, a, 1)
    assert P != MKPolynomial((0,), {(0,): -SC_ONE}, a)

    for record, name in ((a, "k1"), (e, "n"), (checks.CHECKS[0], "claim")):
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))
        with pytest.raises(AttributeError):
            record.note = "extra"


def test_build_polynomial_base_cases():
    k = KLabel.from_entry(AI1, 0)
    P0 = build_polynomial(k, [(0,)], RS1)[(0,)]
    assert P0.coeffs == {(0,): SC_ONE}
    P1 = build_polynomial(k, [(2,)], RS1)[(2,)]
    assert P1.coeffs[(2,)] == SC_ONE
    assert set(P1.coeffs) <= {(2,), (0,)}


def test_eigenfunction_property_reverified():
    k = KLabel.from_entry(AIV2, 1)
    basis = dominant_weights_upto(1, 6)
    E = operator_action(k, RS1, basis)[((4,), (4,))]
    P = build_polynomial(k, [(4,)], RS1, verify=True)[(4,)]  # raises on failure
    assert P.eigenvalue == E
    g = clear_denominators(P.coeffs)
    assert apply_qdiff(k, [g], RS1) == [{w: c * E for w, c in g.items()}]


def test_polynomial_json():
    import json
    P = build_polynomial(KLabel.from_entry(AI1, 0), [(2,)], RS1)[(2,)]
    blob = json.loads(P.to_json())
    assert blob["lambda"] == [2] and blob["basis"] == "m"
    assert blob["coeffs"][-1]["c"] == "1"


def test_gram_path_and_dual_agreement():
    fam = build_family(AI1, 0, 6)
    for lam, P in fam.items():
        gs = build_polynomial_gs(AI1, 0, lam, M=40)
        assert dual_path_agree(P, gs, 38)
    # truncated coefficients of the trivial weight
    gs0 = build_polynomial_gs(AI1, 1, (0,), M=10)
    assert list(gs0) == [(0,)]


def test_gram_path_orthogonality_postcondition(monkeypatch):
    monkeypatch.setattr(mkengine, "_GRAM", {})
    lam = (4,)
    M = 30
    gs = build_polynomial_gs(AIV2, 1, lam, M=M)
    G = gram_matrix(AIV2, 1, dominant_weights_upto(1, 4), M)
    # re-verify <P, m_mu> = 0 mod v^(M+1) for mu below lam
    for mu in ((0,), (2,)):
        acc = None
        for nu, cs in gs.items():
            term = cs * G[(nu, mu)]
            acc = term if acc is None else acc + term
        assert acc.is_zero()
    # the same solve from a Gram matrix over a larger basis: on an empty
    # memo, every pair the solve reads comes from the bound-8 window
    monkeypatch.setattr(mkengine, "_GRAM", {})
    gram_matrix(AIV2, 1, dominant_weights_upto(1, 8), M)
    assert build_polynomial_gs(AIV2, 1, lam, M) == gs


def test_gram_matrix_is_the_orbit_sum_pairing(monkeypatch):
    monkeypatch.setattr(mkengine, "_GRAM", {})
    basis = dominant_weights_upto(1, 6)
    G = gram_matrix(AI1, 1, basis, 20)
    assert set(G) == {(mu, nu) for mu in basis for nu in basis}
    eng = _engine(AI1, 1, 20, 6)
    for mu in basis:
        for nu in basis:
            assert G[(mu, nu)] is G[(nu, mu)]
            assert G[(mu, nu)] == _ct_oracle(eng, orbit_sum(mu, 1), orbit_sum(nu, 1))


@pytest.mark.parametrize("first,second", [(6, 4), (4, 6)], ids=["wide-first", "narrow-first"])
def test_gram_memo_matches_a_fresh_pairing(monkeypatch, first, second):
    # the held pairs and the held window serve both orders of request
    monkeypatch.setattr(mkengine, "_GRAM", {})
    for entry, n in ((AIV2, 1), (AIIIB2, 2)):
        gram_matrix(entry, 1, dominant_weights_upto(n, first), 20)
        basis = dominant_weights_upto(n, second)
        G = gram_matrix(entry, 1, basis, 20)
        eng = _engine(entry, 1, 20, second)
        assert set(G) == {(mu, nu) for mu in basis for nu in basis}
        for mu in basis:
            for nu in basis:
                assert G[(mu, nu)] == _ct_oracle(eng, orbit_sum(mu, n), orbit_sum(nu, n))


@pytest.mark.parametrize("f,l", [(f, l) for f in checks.TABLE for l in f.levels],
                         ids=["%s n=%d l=%d" % (f.name, f.n, l)
                              for f in checks.TABLE for l in f.levels])
def test_one_orbit_pairing_is_the_double_sum(f, l):
    # every Gram entry over the family's weights through its table bound,
    # |W mu| times a sum of rows, against the pairing of the two orbit
    # sums multiplied out, on the rows of the engine that gram_matrix holds
    entry = satake_catalog(f.tag, f.n, f.m)
    basis = dominant_weights_upto(f.n, f.bound)
    G = gram_matrix(entry, l, basis, 40, f.sigma)
    eng = mkengine._GRAM[(entry, l, f.sigma, 40)][1]
    for mu in basis:
        for nu in basis:
            assert G[(mu, nu)] == _ct_oracle(eng, orbit_sum(mu, f.n), orbit_sum(nu, f.n))


def test_gram_path_at_the_zero_weight_expands_no_weight(monkeypatch):
    # nothing lies below the zero weight, so its solve is empty and it
    # needs no Gram matrix
    monkeypatch.setattr(mkengine, "_GRAM", {})
    calls = []
    real = weights.expand
    monkeypatch.setattr(weights, "expand", lambda *args: calls.append(args) or real(*args))
    for entry, n in ((AI1, 1), (AIIIB2, 2), (satake_catalog("EVII", 3), 3)):
        assert build_polynomial_gs(entry, 1, (0,) * n, 20) == {(0,) * n: TruncSeries.one(20)}
    assert calls == [] and mkengine._GRAM == {}


def test_gram_memo_expands_each_weight_once(monkeypatch):
    monkeypatch.setattr(mkengine, "_GRAM", {})
    calls = []
    real = weights.expand

    def counted(P, M, window):
        calls.append(window)
        return real(P, M, window)

    monkeypatch.setattr(weights, "expand", counted)
    for level in (0, 1, 2):
        fam = build_family(AI1, level, 10)
        assert verify_orthogonality(fam, AI1, level, 40)["pass"]
        assert all(dual_path_agree(P, build_polynomial_gs(AI1, level, lam, 40), 40)
                   for lam, P in fam.items())
        assert len(calls) == level + 1
    assert calls == [([-20], [20])] * 3


def test_a_returned_gram_is_the_callers_own(monkeypatch):
    monkeypatch.setattr(mkengine, "_GRAM", {})
    basis = dominant_weights_upto(1, 4)
    G = gram_matrix(AI1, 0, basis, 12)
    want = dict(G)
    G[((0,), (0,))] = G[((2,), (2,))]
    del G[((4,), (2,))]
    G.clear()
    assert gram_matrix(AI1, 0, basis, 12) == want
    assert gram_matrix(AI1, 0, basis[:2], 12) == {
        k: x for k, x in want.items() if (4,) not in k}


def test_dual_agreement_needs_the_requested_precision():
    # a Gram coefficient certified only mod v^(M-3) does not certify mod v^(M+1)
    M = 40
    P = build_family(AI1, 0, 4)[(4,)]
    gs = build_polynomial_gs(AI1, 0, (4,), M=M)
    assert dual_path_agree(P, gs, M)
    from mkpolys.scalars import TruncSeries
    low = dict(gs)
    low[(2,)] = TruncSeries(gs[(2,)].coeffs, M - 4)
    assert not dual_path_agree(P, low, M)
    assert dual_path_agree(P, low, M - 4)


def test_gram_path_low_precision_is_graceful():
    # a tiny precision still yields coefficients, exact mod v^2
    fam = build_family(AIV2, 1, 4)
    gs = build_polynomial_gs(AIV2, 1, (4,), M=1)
    assert dual_path_agree(fam[(4,)], gs, 1)


def test_series_solver_reports_exhaustion():
    from mkpolys.mkengine import _series_solve
    from mkpolys.scalars import TruncSeries
    with pytest.raises(ValueError, match="precision exhausted"):
        _series_solve([[TruncSeries.zero(4)]], [TruncSeries.one(4)])


def test_aiiia_smallest_even_weight_cross_check():
    fam = build_family(AIV2, 0, 4)
    P = fam[(2,)]
    num = Scalar.v_pow(6) + Scalar.v_pow(2)
    den = Scalar.v_pow(8) + Scalar.v_pow(4) + Scalar.of(1)
    assert P.coeffs[(0,)] == num / den
    gs = build_polynomial_gs(AIV2, 0, (2,), M=40)
    assert dual_path_agree(P, gs, 38)


def test_orthogonality_report():
    fam = build_family(AI1, 1, 6)
    rep = verify_orthogonality(fam, AI1, 1, M=40)
    assert rep["pass"] and len(rep["pairs"]) == 6
    # singleton family
    rep1 = verify_orthogonality({(0,): fam[(0,)]}, AI1, 1, M=20)
    assert rep1["pass"] and rep1["pairs"] == []
    # corrupt one coefficient: exactly the pairs involving it must flag
    from mkpolys.mkengine import MKPolynomial
    bad = dict(fam)
    coeffs = dict(fam[(4,)].coeffs)
    coeffs[(0,)] = coeffs.get((0,), Scalar.of(0)) + Scalar.of(1)
    bad[(4,)] = MKPolynomial((4,), coeffs, fam[(4,)].label, 1)
    rep2 = verify_orthogonality(bad, AI1, 1, M=20)
    flagged = {(tuple(r["lam"]), tuple(r["mu"])) for r in rep2["pairs"] if not r["zero"]}
    assert flagged and all((4,) in pair for pair in flagged)
    assert all("first_nonzero_order" in r for r in rep2["pairs"] if not r["zero"])
    assert all(r["precision_certified"] == 20 for r in rep2["pairs"])


def test_orthogonality_rows_match_the_full_polynomial_pairing():
    # reference: ct(P bar(P') W) from whole polynomials, one pair at a time
    from mkpolys.mkengine import MKPolynomial
    fam = dict(build_family(AI1, 1, 6))
    coeffs = dict(fam[(4,)].coeffs)
    coeffs[(0,)] = coeffs.get((0,), Scalar.of(0)) + Scalar.of(1)
    fam[(4,)] = MKPolynomial((4,), coeffs, fam[(4,)].label, 1)
    eng = _engine(AI1, 1, 20, 6)
    lams = sorted(fam)
    want = [orthogonality_row(lam, mu, _ct_oracle(eng, fam[lam].as_gaelem(1),
                                                  fam[mu].as_gaelem(1)), 20)
            for i, lam in enumerate(lams) for mu in lams[:i]]
    rows = verify_orthogonality(fam, AI1, 1, M=20)["pairs"]
    assert rows == want
    assert any("first_nonzero_order" in r for r in rows)


def test_orthogonality_row_needs_the_requested_precision():
    from mkpolys.scalars import TruncSeries
    row = orthogonality_row((2,), (0,), TruncSeries.zero(37), 40)
    assert row["zero"] is False and row["precision_certified"] == 37
    assert "first_nonzero_order" not in row
    assert orthogonality_row((2,), (0,), TruncSeries.zero(40), 40)["zero"] is True


def test_bar_invariance():
    fam = build_family(AI1, 2, 6)
    assert all(check_bar_invariance(P) for P in fam.values())
    P1 = build_polynomial(KLabel.from_entry(AI1, 0), [(0,)], RS1)[(0,)]
    assert check_bar_invariance(P1)


def _pole_order(h):
    worst = 0
    for c in h.terms.values():
        if -c.e > worst:
            worst = -c.e
    return worst


def test_self_adjointness_mod_precision():
    # operator images and g carry Laurent coefficients, so both pairings
    # are compared after one common monomial shift that clears the poles
    # of both products; the coefficients are drawn interleaved, and again
    # with every f coefficient before every g coefficient
    M = 24
    k = KLabel.from_entry(AI1, 1)
    basis = dominant_weights_upto(1, 4)
    eng = _engine(AI1, 1, M, 8)
    for f_first in (False, True):
        rng = random.Random(17)
        for _ in range(3):
            if f_first:
                fc = {mu: Scalar.of(rng.randint(-2, 2)) for mu in basis}
                gc = {mu: Scalar.v_pow(rng.randint(-1, 1)) for mu in basis}
            else:
                fc, gc = {}, {}
                for mu in basis:
                    fc[mu] = Scalar.of(rng.randint(-2, 2))
                    gc[mu] = Scalar.v_pow(rng.randint(-1, 1))
            f, g = from_m_basis(fc, 1), from_m_basis(gc, 1)
            Df, Dg = (from_m_basis(h, 1) for h in apply_qdiff(k, [fc, gc], RS1))
            shift = Scalar.v_pow(max(_pole_order(Df) + _pole_order(g),
                                     _pole_order(f) + _pole_order(Dg)))
            lhs = _ct_oracle(eng, Df.scale(shift), g)
            rhs = _ct_oracle(eng, f.scale(shift), Dg)
            assert lhs == rhs


def test_eigenvalue_identity_reports(monkeypatch):
    lams = [(Fraction(0),), (Fraction(2),), (Fraction(4),), (Fraction(6),)]
    rep = eigenvalue_identity_check(AI1, lams)
    assert rep["pass"] and rep["N"] == 1
    assert rep["rho_restricted"] == ["1/2"]
    assert rep["shift_law"] == [{"level": l, "match": True} for l in (0, 1, 2)]
    with pytest.raises(ValueError, match="reduced"):
        eigenvalue_identity_check(AIV2, [(Fraction(0),)])
    # a spectral vector that ignores the level breaks the shift law at l = 1, 2 only
    rho = KLabel.rho
    monkeypatch.setattr(KLabel, "rho", lambda label, n: rho(label._replace(k4=Fraction(0)), n))
    rep = eigenvalue_identity_check(AI1, lams)
    assert rep["pass"] is False and all(x["match"] for x in rep["lambdas"])
    assert [x["match"] for x in rep["shift_law"]] == [True, False, False]


SPECTRUM = checks.cases("spectrum")


@pytest.mark.parametrize("check,case", SPECTRUM, ids=[case[0] for _, case in SPECTRUM])
def test_every_single_corrupted_eigenvalue_fails_its_spectrum_row(monkeypatch, check, case):
    """Each spectrum row's family, with one eigenvalue moved by v^40: the
    row fails, and raises nothing, for every choice."""
    _, key = case
    fam = checks.family(*key)
    assert check.row(case, 40)["pass"] is True
    for lam, P in fam.items():
        bad = dict(fam)
        bad[lam] = P._replace(eigenvalue=P.eigenvalue + Scalar.v_pow(40))
        monkeypatch.setitem(checks._FAMILIES, key, bad)
        row = check.row(case, 40)
        assert row["pass"] is False and "error" not in row, lam


@pytest.mark.parametrize("dsum,dk5", [(1, 0), (Fraction(1, 2), 0), (0, 1)])
def test_a_shifted_spectral_vector_fails_the_spectrum_rows(monkeypatch, dsum, dk5):
    """A test-local copy of KLabel.rho with k1+k2+k3+k4 or k5 shifted fails
    every spectrum and eigenvalue row; k5 does not enter at rank 1, where
    its rows pass."""
    def rho(label, n, dsum=0, dk5=0):
        half = (label.k1 + label.k2 + label.k3 + label.k4 + dsum) / 2
        return tuple(half + (n - i) * (label.k5 + dk5) for i in range(1, n + 1))

    rows = SPECTRUM + checks.cases("eigenvalue")
    monkeypatch.setattr(KLabel, "rho", rho)
    assert all(check.row(case, 40)["pass"] for check, case in rows)
    monkeypatch.setattr(KLabel, "rho", lambda label, n: rho(label, n, dsum, dk5))
    for check, case in rows:
        n = case[1][1]
        assert check.row(case, 40)["pass"] is (dsum == 0 and n == 1), case[0]


def test_connection_coefficients():
    f0 = build_family(AI1, 0, 6)
    f1 = build_family(AI1, 1, 6)
    assert connection_coeffs(f0, f1, (0,)) == {(0,): SC_ONE}
    d = connection_coeffs(f0, f1, (2,))
    assert set(d) == {(2,), (0,)}
    assert d[(2,)] == SC_ONE
    assert d[(0,)] == Scalar.v_pow(2) / (Scalar.v_pow(4) - Scalar.v_pow(2) + Scalar.of(1))
    # independent 2x2 triangular solve from the raw coefficients
    a = f0[(2,)].coeffs.get((0,), Scalar.of(0))
    b = f1[(2,)].coeffs.get((0,), Scalar.of(0))
    assert d[(0,)] == a - b
    # reconstruction
    g = GAElem(1)
    for mu, c in d.items():
        g = g + f1[mu].as_gaelem(1).scale(c)
    assert g == f0[(2,)].as_gaelem(1)


def test_gram_matrix_solver_handles_positive_valuation():
    # pivots with positive valuation lower precision but stay exact
    from mkpolys.mkengine import _series_solve
    from mkpolys.scalars import TruncSeries
    A = [[TruncSeries([0, 1], 8)]]
    b = [TruncSeries([0, 0, 1], 8)]
    (x,) = _series_solve(A, b)
    assert x.coeffs[: x.precision + 1][:2] == [0, 1]
