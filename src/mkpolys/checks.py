"""The acceptance checks, each defined once.

`mkpolys verify` runs them and tests/test_acceptance.py parametrizes over
them.  A check names its `verify` suite, the claim its rows print
("{order}" stands for M + 1), its cases as (row id, arguments) pairs of
plain data, and the function that decides one case at series precision
M.  Families and rank-one modules are built once, on first use, and
shared for the life of the process; importing this module builds nothing.

Every family a row reads comes from `family`, built with the eigen
self-check: the orthogonality, bar, soundness and connection rows all
take the same arguments (tag, n, m, sigma, bound, l), and the eigenvalue
rows read the spectral vector off the eigenvalues of the families at
levels 0, 1 and 2.  Each check declares the families its rows read, so
each (tag, n, m, sigma, l) is built once, at the widest bound a row
reads, and a narrower read is its restriction.  A family whose
self-check raises is built once too, and each row that reads it fails
with the message as its "error"; the other rows are unaffected.  Gram
matrices come from mkengine.gram_matrix, which keeps one expansion of
each weight and every pair it has computed.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache

from .galg import GAElem
from .mkengine import (
    build_family,
    build_polynomial_gs,
    check_bar_invariance,
    connection_coeffs,
    dual_path_agree,
    eigenvalue_identity_check,
    verify_orthogonality,
)
from .qsp1 import aiiia_parameter, build_rank1, chain_res, fundamental_res, solve_spherical
from .roots import build_root_system, satake_catalog
from .scalars import SC_ONE
from .weights import KLabel, koornwinder_weight, poch_to_gaelem, shift_factor, shifted_weight

S0 = Fraction(0)


class Check(namedtuple("Check", "suite claim cases holds show reads", defaults=(None, None))):
    """holds(M, *arguments) -> bool decides a case; show(*arguments) -> str,
    if given, is shown beside the row; reads(*arguments), if given, lists
    the (tag, n, m, sigma, l, bound) families the case reads."""

    __slots__ = ()

    def row(self, case, M: int) -> dict:
        """The verify row of one case.  A case that raises ValueError fails,
        with the message as its "error", so one bad case hides no other."""
        row_id, args = case
        out = {"id": row_id, "claim": self.claim.format(order=M + 1)}
        try:
            out["pass"] = bool(self.holds(M, *args))
            if self.show is not None:
                out["show"] = self.show(*args)
        except ValueError as exc:
            out["pass"] = False
            out["error"] = str(exc)
        return out


_FAMILIES = {}                  # (tag, n, m, sigma, l) -> (bound, family or message)


def family(tag: str, n: int, m: int, sigma, l: int, bound: int) -> dict:
    """The operator-exact level-l family through bound, with the eigen
    self-check; callers must not modify it.  Each (tag, n, m, sigma, l) is
    built once per process, at the widest bound any registered row reads
    (or at bound, when that is wider), and a narrower read is the
    restriction to coordinate sum <= bound: the polynomial at lam is
    solved from the weights below lam alone.  A failed build is kept as
    its message, raised again on every call."""
    key = (tag, n, m, sigma, l)
    built, fam = _FAMILIES.get(key, (-1, None))
    if built < bound:
        built = max(bound, _widest().get(key, bound))
        try:
            fam = build_family(satake_catalog(tag, n, m), l, built, sigma, verify=True)
        except ValueError as exc:
            fam = str(exc)
        _FAMILIES[key] = built, fam
    if isinstance(fam, str):
        raise ValueError(fam)
    if built == bound:
        return fam
    return {lam: P for lam, P in fam.items() if sum(lam) <= bound}


@lru_cache(maxsize=None)
def _widest() -> dict:
    """(tag, n, m, sigma, l) -> the widest bound any registered row reads."""
    out = {}
    for check in CHECKS:
        for _, args in check.cases if check.reads else ():
            for *key, bound in check.reads(*args):
                out[tuple(key)] = max(out.get(tuple(key), bound), bound)
    return out


def _reads(tag, n, m, sigma, bound, l, levels=(0,)):
    """The families a row of arguments (tag, n, m, sigma, bound, l) reads:
    level l + i for i in levels."""
    return [(tag, n, m, sigma, l + i, bound) for i in levels]


def _weight_shift(M, tag, n, m, sigma, l):
    entry = satake_catalog(tag, n, m)
    rs = build_root_system(entry.n)
    lhs = shifted_weight(KLabel.from_entry(entry, 0, sigma), entry, l, rs, sigma)
    return lhs == koornwinder_weight(KLabel.from_entry(entry, l, sigma), rs)


def _orthogonality(M, tag, n, m, sigma, bound, l):
    fam = family(tag, n, m, sigma, l, bound)
    return len(fam) >= 4 and verify_orthogonality(
        fam, satake_catalog(tag, n, m), l, M, sigma)["pass"]


def _squares_to_factor(mod, entry, l, sigma):
    """The level-l chain, and whether chain * bar(chain) is the level-l
    factor, exactly."""
    chain = chain_res(mod, l)
    factor = poch_to_gaelem(shift_factor(entry, l, build_root_system(1), sigma))
    return chain, chain * chain.bar() == factor


# one module per parameter set, so each shift of its chain is solved once
rank1_module = lru_cache(maxsize=None)(build_rank1)


def _rank1_ai1(M, l):
    chain, squares = _squares_to_factor(
        rank1_module("AI1"), satake_catalog("AI1"), l, S0)
    return squares and chain == fundamental_res("AI1", 1, l)


def _rank1_aiv(M, n, sigma, l):
    mod = rank1_module("AIV", n, (SC_ONE, aiiia_parameter(sigma, n)))
    entry = satake_catalog("AIVm", 1, n)
    chain, squares = _squares_to_factor(mod, entry, l, sigma)
    return (squares and chain == fundamental_res("AIV", n, l, sigma)
            and _squares_to_factor(mod, entry, -l, sigma)[1])


def _bar(M, tag, n, m, sigma, bound, l):
    fam = family(tag, n, m, sigma, l, bound)
    return len(fam) >= 4 and all(check_bar_invariance(P) for P in fam.values())


def _eigenvalue(M, tag, n, ambient_lams, bound):
    rep = eigenvalue_identity_check(satake_catalog(tag, n), ambient_lams,
                                    {l: family(tag, n, 0, S0, l, bound) for l in (0, 1, 2)})
    return rep["pass"] and rep["N"] == 1


def _connection(M, tag, n, m, sigma, bound, l):
    fam, nxt = family(tag, n, m, sigma, l, bound), family(tag, n, m, sigma, l + 1, bound)
    for lam in ((2,), (4,), (6,)):
        d = connection_coeffs(fam, nxt, lam)
        rebuilt = GAElem(n)
        for mu, c in d.items():
            rebuilt = rebuilt + nxt[mu].as_gaelem(n).scale(c)
        if (set(d) != {lam, (lam[0] - 2,)} or d[lam] != SC_ONE
                or rebuilt != fam[lam].as_gaelem(n)):
            return False
    return True


def _soundness(M, tag, n, m, sigma, bound, l):
    """The self-checked operator-exact family and the truncated Gram
    construction compared mod v^(M+1) through bound."""
    fam = family(tag, n, m, sigma, l, bound)
    entry = satake_catalog(tag, n, m)
    # the widest weight first, so that gram_matrix expands W_l once
    return all(dual_path_agree(P, build_polynomial_gs(entry, l, lam, M, sigma), M)
               for lam, P in reversed(fam.items()))


def _scope(suite, skip=()):
    """The suite's rows on the rank-2 families BI, DI and AIIIa and the
    rank-3 families CI, EVII, AIIIb and AIIIa at bound 4, which gives the
    4 weights _orthogonality asks for, but for the families named in
    skip; an AIIIa id names its sigma, as the weight-shift rows do."""
    return tuple(("%s %s n=%d l=%d" % (suite, name, n, l), (tag, n, m, sigma, 4, l))
                 for name, tag, n, m, sigma, levels in (
                     ("BI m=3", "BI", 2, 3, S0, (0, 1, 2)),
                     ("BI m=5", "BI", 2, 5, S0, (0, 1, 2)),
                     ("DI m=4", "DI", 2, 4, S0, (0, 1, 2)),
                     ("DI m=6", "DI", 2, 6, S0, (0, 1, 2)),
                     ("AIIIa s=1/2 m=2", "AIIIa", 2, 2, Fraction(1, 2), (-1, 0, 1)),
                     ("AIIIa s=0 m=3", "AIIIa", 2, 3, S0, (-1, 0, 1)),
                     ("CI", "CI", 3, 0, S0, (0, 1)),
                     ("EVII", "EVII", 3, 0, S0, (0, 1)),
                     ("AIIIb", "AIIIb", 3, 0, S0, (0,)),
                     ("AIIIa s=1/2 m=2", "AIIIa", 3, 2, Fraction(1, 2), (0,)))
                 if name not in skip
                 for l in levels)


CHECKS = (
    Check("weight-shift",
          "level factor times base weight equals the k4-shifted weight, exactly",
          tuple(("weight-shift reduced %s n=%d l=%d" % (tag, n, l), (tag, n, 0, S0, l))
                for tag, n in (("AI1", 1), ("CI", 2)) for l in (0, 1, 2, 3)),
          _weight_shift),
    Check("weight-shift",
          "level factor shifts k2 (l>0) or k4 (l<0)",
          tuple(("weight-shift AIIIa s=%s m=%d n=%d l=%d" % (sigma, m, n, l),
                 ("AIIIa", n, m, sigma, l))
                for sigma in (S0, Fraction(1, 2), Fraction(1))
                for m in (2, 3) for n in (1, 2) for l in (-2, -1, 1, 2)),
          _weight_shift),
    Check("orthogonality",
          "off-diagonal pair constant terms vanish mod v^{order}",
          tuple(("orthogonality %s l=%d" % (name, l), (tag, n, m, S0, bound, l))
                for name, tag, n, m, bound in (("AI1 n=1", "AI1", 1, 0, 8),
                                               ("AIVm m=2 n=1", "AIVm", 1, 2, 6),
                                               ("AIIIb n=2", "AIIIb", 2, 0, 6))
                for l in (0, 1, 2)) + _scope("orthogonality"),
          _orthogonality, reads=_reads),
    Check("rank1",
          "solved chain equals the closed product and squares to the level factor",
          tuple(("rank1 AI1 l=%d" % l, (l,)) for l in (1, 2, 3, 4)),
          _rank1_ai1,
          show=lambda l: solve_spherical(rank1_module("AI1"), l - 1).describe()),
    Check("rank1",
          "solved chain equals the closed product and squares to the level "
          "factor (both signs)",
          tuple(("rank1 AIV n=%d s=%s l=%d" % (n, sigma, l), (n, sigma, l))
                for n in (2, 3) for sigma in (S0, Fraction(1, 2)) for l in (1, 2, 3)),
          _rank1_aiv),
    Check("bar",
          "all coefficients fixed by v -> 1/v",
          tuple(("bar %s l=%d" % (tag, l), (tag, n, 0, S0, bound, l))
                for tag, n, bound in (("AI1", 1, 8), ("AIIIb", 2, 6)) for l in (0, 1, 2))
          + _scope("bar"),
          _bar, reads=_reads),
    Check("eigenvalue",
          "ambient Weyl sum equals N times the restricted sum; the level shift "
          "moves the spectral vector by l/2 per entry",
          (("eigenvalue identity AI1", ("AI1", 1, ((0,), (2,), (4,), (6,)), 8)),
           ("eigenvalue identity CI n=2",
            ("CI", 2, ((0, 0), (2, 0), (2, 2), (4, 2)), 6))),
          _eigenvalue,
          reads=lambda tag, n, _, bound: _reads(tag, n, 0, S0, bound, 0, (0, 1, 2))),
    Check("connection",
          "expansion in the next level has exactly two terms with unit leading "
          "coefficient",
          tuple(("connection %s l=%d" % (name, l), (tag, 1, m, S0, 8, l))
                for name, tag, m in (("AI1", "AI1", 0), ("AIV2", "AIVm", 2))
                for l in (0, 1)),
          _connection,
          reads=lambda *args: _reads(*args, levels=(0, 1))),
    Check("soundness",
          "triangular eigen-solve and truncated Gram path agree mod v^{order}",
          tuple(("soundness %s l=%d" % (tag, l), (tag, n, m, S0, bound, l))
                for tag, n, m, bound, levels in (
                    ("AI1", 1, 0, 8, (0, 1, 2)),
                    ("AIVm", 1, 2, 6, (0, 1, 2)),
                    ("AIIIb", 2, 0, 4, (0, 1, 2)),
                    ("CI", 2, 0, 4, (0, 1)),
                    ("EVII", 3, 0, 4, (0, 1)))
                for l in levels) + _scope("soundness", skip=("EVII",)),
          _soundness, reads=_reads),
)

SUITES = tuple(dict.fromkeys(c.suite for c in CHECKS))


def cases(suite: str = "all"):
    """(check, case) pairs of one suite, or of every suite."""
    return [(c, case) for c in CHECKS if suite in ("all", c.suite) for case in c.cases]
