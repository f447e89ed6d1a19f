"""The acceptance checks, each defined once.

`mkpolys verify` runs them and tests/test_acceptance.py parametrizes over
them.  A check names its `verify` suite, the claim its rows print
("{order}" stands for M + 1), its cases as (row id, arguments) pairs of
plain data, and the function that decides one case at series precision
M.  Families and rank-one modules are built once, on first use, and
shared for the life of the process; importing this module builds nothing.

The orthogonality, bar, eigenvalue, connection and soundness rows are
the family table TABLE times those suites, with the arguments (tag, n, m,
sigma, l) and the id "<suite> <name> n=<n> l=<l>"; a suite that applies
to only some families says so with a predicate on the table row.  Gram
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
from .roots import ambient_data, build_root_system, satake_catalog
from .scalars import SC_ONE
from .weights import KLabel, koornwinder_weight, poch_to_gaelem, shift_factor, shifted_weight

S0 = Fraction(0)
MIN_WEIGHTS = 4                 # below this, an orthogonality or bar row is vacuous


class Check(namedtuple("Check", "suite claim cases holds show", defaults=(None,))):
    """holds(M, *arguments) -> bool decides a case; show(*arguments) -> str,
    if given, is shown beside the row."""

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


TableRow = namedtuple("TableRow", "name tag n m sigma levels bound")

# every family a row reads; at bound 4 a rank-2 or rank-3 family has MIN_WEIGHTS weights
TABLE = (
    TableRow("AI1", "AI1", 1, 0, S0, (0, 1, 2), 8),
    TableRow("AIVm m=2", "AIVm", 1, 2, S0, (0, 1, 2), 8),
    TableRow("AIIIb", "AIIIb", 2, 0, S0, (0, 1, 2), 6),
    TableRow("CI", "CI", 2, 0, S0, (0, 1, 2), 6),
    TableRow("BI m=3", "BI", 2, 3, S0, (0, 1, 2), 4),
    TableRow("BI m=5", "BI", 2, 5, S0, (0, 1, 2), 4),
    TableRow("DI m=4", "DI", 2, 4, S0, (0, 1, 2), 4),
    TableRow("DI m=6", "DI", 2, 6, S0, (0, 1, 2), 4),
    TableRow("AIIIa s=1/2 m=2", "AIIIa", 2, 2, Fraction(1, 2), (-1, 0, 1), 4),
    TableRow("AIIIa s=0 m=3", "AIIIa", 2, 3, S0, (-1, 0, 1), 4),
    TableRow("CI", "CI", 3, 0, S0, (0, 1), 4),
    TableRow("EVII", "EVII", 3, 0, S0, (0, 1), 4),
    TableRow("AIIIb", "AIIIb", 3, 0, S0, (0,), 4),
    TableRow("AIIIa s=1/2 m=2", "AIIIa", 3, 2, Fraction(1, 2), (0,), 4),
)

_FAMILIES = {}                  # (tag, n, m, sigma, l) -> family or message


def family(tag: str, n: int, m: int, sigma, l: int) -> dict:
    """The operator-exact level-l family of TABLE through its table bound,
    with the eigen self-check; callers must not modify it.  Each is built
    once per process, and a failed build is kept as its message, raised
    again on every call, as is a read of a family outside TABLE."""
    key = (tag, n, m, sigma, l)
    if key not in _FAMILIES:
        bound = next((f.bound for f in TABLE
                      if (f.tag, f.n, f.m, f.sigma) == key[:4] and l in f.levels), None)
        if bound is None:
            raise ValueError("%s n=%d m=%d sigma=%s l=%d is not a family of the table" % key)
        try:
            _FAMILIES[key] = build_family(satake_catalog(tag, n, m), l, bound, sigma, verify=True)
        except ValueError as exc:
            _FAMILIES[key] = str(exc)
    fam = _FAMILIES[key]
    if isinstance(fam, str):
        raise ValueError(fam)
    return fam


def _table(suite, applies=lambda f, l: True):
    """The suite's cases: each family of TABLE at each level l with applies(f, l)."""
    return tuple(("%s %s n=%d l=%d" % (suite, f.name, f.n, l), (f.tag, f.n, f.m, f.sigma, l))
                 for f in TABLE for l in f.levels if applies(f, l))


def _ambient(f, l):
    """Level 0 of a family whose ambient data roots.ambient_data catalogs."""
    try:
        return l == 0 and bool(ambient_data(f.tag, f.n))
    except ValueError:
        return False


def _weight_shift(M, tag, n, m, sigma, l):
    entry = satake_catalog(tag, n, m)
    rs = build_root_system(entry.n)
    lhs = shifted_weight(KLabel.from_entry(entry, 0, sigma), entry, l, rs, sigma)
    return lhs == koornwinder_weight(KLabel.from_entry(entry, l, sigma), rs)


def _orthogonality(M, tag, n, m, sigma, l):
    fam = family(tag, n, m, sigma, l)
    return len(fam) >= MIN_WEIGHTS and verify_orthogonality(
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


def _bar(M, tag, n, m, sigma, l):
    fam = family(tag, n, m, sigma, l)
    return len(fam) >= MIN_WEIGHTS and all(check_bar_invariance(P) for P in fam.values())


def _eigenvalue(M, tag, n, m, sigma, l):
    # the level-0 family's weights are the ambient weights
    families = {i: family(tag, n, m, sigma, i) for i in (0, 1, 2)}
    rep = eigenvalue_identity_check(satake_catalog(tag, n, m), list(families[0]), families)
    return rep["pass"] and rep["N"] == 1


def _connection(M, tag, n, m, sigma, l):
    fam, nxt = family(tag, n, m, sigma, l), family(tag, n, m, sigma, l + 1)
    for lam in filter(any, fam):            # every weight but 0
        d = connection_coeffs(fam, nxt, lam)
        rebuilt = GAElem(n)
        for mu, c in d.items():
            rebuilt = rebuilt + nxt[mu].as_gaelem(n).scale(c)
        if (set(d) != {lam, (lam[0] - 2,)} or d[lam] != SC_ONE
                or rebuilt != fam[lam].as_gaelem(n)):
            return False
    return True


def _soundness(M, tag, n, m, sigma, l):
    """The self-checked operator-exact family and the truncated Gram
    construction compared mod v^(M+1) through its bound."""
    fam = family(tag, n, m, sigma, l)
    entry = satake_catalog(tag, n, m)
    # the widest weight first, so that gram_matrix expands W_l once
    return all(dual_path_agree(P, build_polynomial_gs(entry, l, lam, M, sigma), M)
               for lam, P in reversed(fam.items()))


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
          _table("orthogonality"), _orthogonality),
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
          _table("bar"), _bar),
    Check("eigenvalue",
          "ambient Weyl sum equals N times the restricted sum; the level shift "
          "moves the spectral vector by l/2 per entry",
          _table("eigenvalue", _ambient), _eigenvalue),
    Check("connection",
          "expansion in the next level has exactly two terms with unit leading "
          "coefficient",
          _table("connection", lambda f, l: f.n == 1 and l + 1 in f.levels), _connection),
    Check("soundness",
          "triangular eigen-solve and truncated Gram path agree mod v^{order}",
          _table("soundness"), _soundness),
)

SUITES = tuple(dict.fromkeys(c.suite for c in CHECKS))


def cases(suite: str = "all"):
    """(check, case) pairs of one suite, or of every suite."""
    return [(c, case) for c in CHECKS if suite in ("all", c.suite) for case in c.cases]
