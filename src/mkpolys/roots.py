"""BC_n root data on a doubled weight lattice, the type-C Weyl group,
dominance order, and the catalog of Hermitian symmetric-pair families.

Weights are tuples of integers storing DOUBLED coordinates: the tuple w
represents the vector (w[0]/2, ..., w[n-1]/2) in an orthonormal
epsilon-basis, so half-weights such as e^(alpha/2) stay integral.  The
inner product of two weights is dot(doubled)/4.

Orbit classes of the ambient BC_n system:
    R1 = +-eps_i          doubled (..., +-2, ...)
    R2 = +-eps_i +- eps_j
The long-root class Sigma_l of the restricted system is realized as the
R1 class (doubled entries +-2); its half Sigma_s sits at doubled +-1.
Dominant lattice points are therefore integer partitions in doubled
coordinates (2*m_1 >= ... >= 2*m_n >= 0).
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

Weight = tuple

D = 2  # v = q^(1/D): every half-integer power of q is a power of v


def dot4(a: Weight, b: Weight) -> Fraction:
    """Inner product of two doubled-coordinate weights."""
    return Fraction(sum(x * y for x, y in zip(a, b)), 4)


def wsum(a: Weight, b: Weight) -> Weight:
    return tuple(x + y for x, y in zip(a, b))


def wneg(a: Weight) -> Weight:
    return tuple(-x for x in a)


def wdiff(a: Weight, b: Weight) -> Weight:
    return tuple(x - y for x, y in zip(a, b))


def eps(i: int, n: int) -> Weight:
    """Doubled coordinates of epsilon_i."""
    return tuple(2 if j == i else 0 for j in range(n))


@dataclass
class RootSystem:
    n: int
    R1: list
    R2: list
    R1p: list
    R2p: list


def build_root_system(n: int) -> RootSystem:
    if n < 1:
        raise ValueError("empty rank")
    R1p = [eps(i, n) for i in range(n)]
    R2p = []
    for i in range(n):
        for j in range(i + 1, n):
            R2p.append(wsum(eps(i, n), eps(j, n)))
            R2p.append(wdiff(eps(i, n), eps(j, n)))
    mirror = lambda l: l + [wneg(a) for a in l]
    return RootSystem(n, mirror(R1p), mirror(R2p), R1p, R2p)


@lru_cache(maxsize=None)
def weyl_group(n: int):
    """All signed permutations as (perm, signs) pairs."""
    out = []
    for perm in itertools.permutations(range(n)):
        for signs in itertools.product((1, -1), repeat=n):
            out.append((perm, signs))
    return tuple(out)


def weyl_apply(w, wt: Weight) -> Weight:
    perm, signs = w
    return tuple(signs[i] * wt[perm[i]] for i in range(len(wt)))


def weyl_orbit(wt: Weight, n: int):
    if len(wt) != n:
        raise ValueError("rank mismatch")
    return {weyl_apply(w, wt) for w in weyl_group(n)}


def is_dominant(wt: Weight) -> bool:
    return all(wt[i] >= wt[i + 1] for i in range(len(wt) - 1)) and (
        not wt or wt[-1] >= 0
    )


def dominance_leq(mu: Weight, lam: Weight) -> bool:
    """mu <= lam in the dominance order whose positive cone is spanned by
    eps_i - eps_(i+1) and eps_n (the BC-type cone; the five-parameter
    weight mixes parities, so the short simple root must be included)."""
    if len(mu) != len(lam):
        raise ValueError("rank mismatch")
    if not (is_dominant(mu) and is_dominant(lam)):
        raise ValueError("weights must be dominant")
    delta = wdiff(lam, mu)
    run = 0
    for d in delta:
        run += d
        if run < 0 or run % 2:
            return False
    return True


def dominant_weights_below(lam: Weight):
    """All dominant mu <= lam, ascending in (coordinate sum, lex); lam
    must lie on the even-doubled lattice."""
    if not is_dominant(lam):
        raise ValueError("weights must be dominant")
    if any(c % 2 for c in lam):
        raise ValueError("weights must have even doubled coordinates")
    n = len(lam)
    total = sum(lam)
    top = lam[0] if lam else 0
    out = []
    for mu in _partitions_upto(n, total, top):
        if dominance_leq(mu, lam):
            out.append(mu)
    out.sort(key=lambda m: (sum(m), m))
    return out


def dominant_weights_upto(n: int, bound: int):
    """Even-doubled dominant weights (partition points) with coordinate
    sum <= bound, ascending in the (sum, lex) extension."""
    out = list(_partitions_upto(n, bound, bound - bound % 2))
    out.sort(key=lambda w: (sum(w), w))
    return out


def _partitions_upto(n, total, top):
    """Even-doubled dominant weights with coordinate sum <= total, entries
    <= top."""
    def rec(i, prev, budget):
        if i == n:
            yield ()
            return
        for c in range(0, min(prev, budget) + 1, 2):
            for rest in rec(i + 1, c, budget - c):
                yield (c,) + rest
    yield from rec(0, top, total)


# ---------------------------------------------------------------------------
# Satake catalog
# ---------------------------------------------------------------------------

FAMILIES = (
    "AIIIa", "AIIIb", "BI", "CI", "DI", "DIIIb", "EIII", "EVII", "AI1", "AIVm",
)

_OPEN_FAMILIES = {"DIIIb", "EIII"}


@dataclass(frozen=True)
class SatakeEntry:
    """Catalog record for one Hermitian family.

    base_d is d_i at the marked index, so the squared base is q^(2*base_d);
    long_mult / med_mult are restricted-root multiplicities of the long
    (Sigma_l) and medium orbit.  aux carries the family size parameter
    where one exists (m for AIIIa / AIVm, the ambient diagram rank for
    BI / DI).
    """

    family: str
    n: int
    aux: int
    reduced: bool
    long_mult: int
    med_mult: int
    base_d: int

    def base_exp(self) -> int:
        """The v-exponent of the base q_i^2."""
        return 2 * self.base_d * D

    def recipe(self, l: int = 0, sigma: Fraction = Fraction(0)):
        """Koornwinder parameter 5-tuple (k1..k5) for the level-l family.

        Reduced families carry (1, 0, 0, |l|, med_mult/2): the spectral
        vector of the family must match the half sum of multiplicity-
        weighted restricted roots, which pins the long-orbit parameter to
        the long multiplicity and the medium parameter to half the medium
        multiplicity (the medium orbit sits at half weights relative to
        the lattice the polynomials live on).
        """
        if self.family in _OPEN_FAMILIES:
            raise ValueError("identification open in source")
        sigma = Fraction(sigma)
        if self.reduced:
            return (
                Fraction(1), Fraction(0), Fraction(0),
                Fraction(abs(l)), Fraction(self.med_mult, 2),
            )
        m = self.aux
        if l >= 0:
            return (
                Fraction(1, 2), sigma + Fraction(1, 2) + l,
                Fraction(m - 1), -sigma, Fraction(1),
            )
        return (
            Fraction(1, 2), sigma + Fraction(1, 2),
            Fraction(m - 1), -sigma + abs(l), Fraction(1),
        )

    def to_json(self):
        if self.family in _OPEN_FAMILIES:
            template = None
        elif self.reduced:
            template = "(1, 0, 0, |l|, %s)" % Fraction(self.med_mult, 2)
        else:
            template = "(1/2, s+1/2+l, %d, -s, 1) for l>=0; k4 -> -s+|l| for l<0" % (
                self.aux - 1
            )
        return {
            "family": self.family,
            "n": self.n,
            "aux": self.aux,
            "reduced": self.reduced,
            "long_mult": self.long_mult,
            "med_mult": self.med_mult,
            "base_d": self.base_d,
            "recipe_template": template,
        }


def satake_catalog(tag: str, n: int = 1, m: int = 0) -> SatakeEntry:
    """Look up one family; m is the size parameter where applicable."""
    if tag == "AIIIa":
        if m < 2:
            raise ValueError("AIIIa needs aux m >= 2")
        return SatakeEntry("AIIIa", n, m, False, 1, 2, 1)
    if tag == "AIIIb":
        return SatakeEntry("AIIIb", n, 0, True, 1, 2, 1)
    if tag == "BI":
        m = m or 3
        if m < 3:
            raise ValueError("BI needs ambient rank >= 3")
        return SatakeEntry("BI", 2, m, True, 1, 2 * m - 3, 2)
    if tag == "CI":
        if n < 2:
            raise ValueError("CI needs rank >= 2")
        return SatakeEntry("CI", n, 0, True, 1, 1, 2)
    if tag == "DI":
        m = m or 4
        if m < 4:
            raise ValueError("DI needs ambient rank >= 4")
        return SatakeEntry("DI", 2, m, True, 1, 2 * m - 4, 1)
    if tag == "DIIIb":
        return SatakeEntry("DIIIb", n, 0, False, 1, 4, 1)
    if tag == "EIII":
        return SatakeEntry("EIII", 2, 0, False, 1, 6, 1)
    if tag == "EVII":
        return SatakeEntry("EVII", 3, 0, True, 1, 8, 1)
    if tag == "AI1":
        return SatakeEntry("AI1", 1, 0, True, 1, 0, 1)
    if tag == "AIVm":
        if m < 2:
            raise ValueError("AIVm needs aux m >= 2")
        return SatakeEntry("AIVm", 1, m, False, 1, 2, 1)
    raise ValueError("unknown family %r" % tag)


def catalog_entries():
    """All families at their smallest sensible size, stable order."""
    return [
        satake_catalog("AIIIa", 2, 2),
        satake_catalog("AIIIb", 2),
        satake_catalog("BI", 2, 3),
        satake_catalog("CI", 2),
        satake_catalog("DI", 2, 4),
        satake_catalog("DIIIb", 2),
        satake_catalog("EIII", 2),
        satake_catalog("EVII", 3),
        satake_catalog("AI1", 1),
        satake_catalog("AIVm", 1, 2),
    ]


def catalog_json(reduced=None) -> str:
    rows = [e.to_json() for e in catalog_entries()]
    if reduced is not None:
        rows = [r for r in rows if r["reduced"] == reduced]
    return json.dumps(rows, indent=2, sort_keys=True)


# ---------------------------------------------------------------------------
# Ambient Weyl data for the central-character eigenvalue identity
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AmbientData:
    """Ambient weight-space data for one catalog entry whose ambient Weyl
    group is the signed permutations of its coordinates (weyl_group of
    len(rho)): the scalar Gram (x, x) of each coordinate vector, the
    half-sum rho and the chosen direction mu."""

    gram: Fraction
    rho: tuple
    mu: tuple

    def pair(self, a, b) -> Fraction:
        return self.gram * sum(x * y for x, y in zip(a, b))

    @staticmethod
    def restrict(v) -> tuple:
        """An ambient weight in doubled restricted coordinates: in both
        cataloged systems the same coordinates, which must be integers."""
        if any(Fraction(x).denominator != 1 for x in v):
            raise ValueError("non-integral restricted coordinate")
        return tuple(int(x) for x in v)


def ambient_data(tag: str, n: int = 1) -> AmbientData:
    if tag == "AI1":
        # coordinates in units of omega = alpha/2; (omega, omega) = 1/2
        return AmbientData(Fraction(1, 2), (1,), (1,))
    if tag == "CI" and n == 2:
        # sp4 in the orthonormal epsilon-basis; short roots have length^2 2
        return AmbientData(Fraction(1), (2, 1), (1, 0))
    raise ValueError("ambient data not cataloged for %r n=%d" % (tag, n))
