"""Span tracing installed from outside the engine.

Each traced layer is a public function of an mkpolys module.  `Tracer`
replaces every reference to that function (the home module attribute,
every module that imported it by name, and class-attribute aliases such
as `GAElem.__rmul__`) with a wrapper that records a span.  Spans stay in
memory as lists `[name, start, end, parent, job, note]` and are written
out once, when the traced process ends.  `uninstall` puts every original
back, so untraced code runs unwrapped.
"""

from __future__ import annotations

import importlib
import json
import sys
import time

# (module, attribute) -> span name.  An attribute may be "Class.method".
LAYERS = (
    ("mkpolys.scalars", "p_gcd", "scalars.p_gcd"),
    ("mkpolys.scalars", "scalar_to_series", "scalars.scalar_to_series"),
    ("mkpolys.scalars", "TruncSeries.divide", "scalars.TruncSeries.divide"),
    ("mkpolys.galg", "ga_divexact", "galg.ga_divexact"),
    ("mkpolys.galg", "GAElem.__mul__", "galg.GAElem.mul"),
    ("mkpolys.galg", "m_basis", "galg.m_basis"),
    ("mkpolys.weights", "expand", "weights.expand"),
    ("mkpolys.weights", "InnerProductEngine.ct_pair", "weights.ct_pair"),
    ("mkpolys.mkengine", "operator_action", "mkengine.operator_action"),
    ("mkpolys.mkengine", "apply_qdiff", "mkengine.apply_qdiff"),
    ("mkpolys.mkengine", "build_polynomial", "mkengine.build_polynomial"),
    ("mkpolys.mkengine", "verify_orthogonality", "mkengine.verify_orthogonality"),
    ("mkpolys.mkengine", "build_polynomial_gs", "mkengine.build_polynomial_gs"),
    ("mkpolys.mkengine", "dual_path_agree", "mkengine.dual_path_agree"),
    ("mkpolys.mkengine", "connection_coeffs", "mkengine.connection_coeffs"),
    ("mkpolys.qsp1", "chain_res", "qsp1.chain_res"),
    ("mkpolys.roots", "weyl_group", "roots.weyl_group"),
    ("mkpolys.roots", "dominance_leq", "roots.dominance_leq"),
    ("mkpolys.roots", "dominant_weights_below", "roots.dominant_weights_below"),
    ("mkpolys.cli", "main", "cli.main"),
)


def is_monomial(poly) -> bool:
    """A coefficient tuple with exactly one nonzero entry: c * v^k."""
    nonzero = 0
    for c in poly:
        if c:
            nonzero += 1
            if nonzero > 1:
                return False
    return nonzero == 1


def gcd_is_trivial(args, _result) -> int:
    """1 when p_gcd's answer is known without work: an argument is zero or
    a monomial, so the gcd is 1, a power of v, or the other argument."""
    a, b = args[0], args[1]
    return int(not a or not b or is_monomial(a) or is_monomial(b))


def quotient_terms(_args, result) -> int:
    return len(result.terms)


NOTES = {
    "scalars.p_gcd": gcd_is_trivial,
    "galg.ga_divexact": quotient_terms,
}


class Tracer:
    """Records spans for the functions named in LAYERS."""

    def __init__(self):
        self.spans = []
        self.job = None
        self._stack = []
        self._patched = []          # (owner, attribute, original)

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        note = NOTES.get(name)

        def traced(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, self.job, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if note is not None:
                rec[5] = note(args, out)
            return out

        return traced

    def install(self):
        """Wrap every layer function wherever mkpolys refers to it."""
        homes = [importlib.import_module(modname) for modname, _, _ in LAYERS]
        mods = [m for k, m in sorted(sys.modules.items())
                if (k == "mkpolys" or k.startswith("mkpolys.")) and m is not None]
        for home, (_, attr, name) in zip(homes, LAYERS):
            owner = home
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(home, cls_name)
            original = vars(owner)[attr]
            wrapper = self._wrap(name, original)
            for target in [owner] if isinstance(owner, type) else mods:
                for key, value in list(vars(target).items()):
                    if value is original:
                        self._patched.append((target, key, value))
                        setattr(target, key, wrapper)

    def uninstall(self):
        for owner, key, original in reversed(self._patched):
            setattr(owner, key, original)
        self._patched = []

    def dump(self, path):
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec, separators=(",", ":")))
                fh.write("\n")


def load(path):
    with open(path) as fh:
        return [json.loads(line) for line in fh]


def self_times(spans):
    """Per-span self time: duration minus the durations of direct children.

    Children of one span never overlap (the engine is single-threaded), so
    subtracting their durations removes exactly the covered part."""
    out = [rec[2] - rec[1] for rec in spans]
    for rec in spans:
        parent = rec[3]
        if parent >= 0:
            out[parent] -= rec[2] - rec[1]
    return out


def layer_metrics(spans):
    """Per-layer metrics of one traced process, keyed by metric name."""
    selft = self_times(spans)
    calls, self_s = {}, {}
    for rec, s in zip(spans, selft):
        calls[rec[0]] = calls.get(rec[0], 0) + 1
        self_s[rec[0]] = self_s.get(rec[0], 0.0) + s
    gcd_trivial = sum(rec[5] for rec in spans if rec[0] == "scalars.p_gcd")
    quotient = sum(rec[5] for rec in spans if rec[0] == "galg.ga_divexact")
    selfcheck = sum((rec[2] - rec[1] for rec in spans
                    if rec[0] == "mkengine.apply_qdiff" and rec[3] >= 0
                    and spans[rec[3]][0] == "mkengine.build_polynomial"), 0.0)

    def c(name):
        return calls.get(name, 0)

    def s(name):
        return self_s.get(name, 0.0)

    gcd_calls = c("scalars.p_gcd")
    return {
        "scalars.p_gcd.calls": (gcd_calls, "count"),
        "scalars.p_gcd.self_s": (s("scalars.p_gcd"), "s"),
        "scalars.p_gcd.monomial_share": (gcd_trivial / gcd_calls if gcd_calls else 0.0, "ratio"),
        "scalars.scalar_to_series.calls": (c("scalars.scalar_to_series"), "count"),
        "scalars.scalar_to_series.self_s": (s("scalars.scalar_to_series"), "s"),
        "scalars.TruncSeries.divide.self_s": (s("scalars.TruncSeries.divide"), "s"),
        "galg.ga_divexact.calls": (c("galg.ga_divexact"), "count"),
        "galg.ga_divexact.self_s": (s("galg.ga_divexact"), "s"),
        "galg.ga_divexact.quotient_terms": (quotient, "count"),
        "galg.GAElem.mul.calls": (c("galg.GAElem.mul"), "count"),
        "galg.GAElem.mul.self_s": (s("galg.GAElem.mul"), "s"),
        "galg.m_basis.self_s": (s("galg.m_basis"), "s"),
        "weights.expand.calls": (c("weights.expand"), "count"),
        "weights.expand.self_s": (s("weights.expand"), "s"),
        "weights.ct_pair.calls": (c("weights.ct_pair"), "count"),
        "weights.ct_pair.self_s": (s("weights.ct_pair"), "s"),
        "mkengine.operator_action.self_s": (s("mkengine.operator_action"), "s"),
        "mkengine.apply_qdiff.calls": (c("mkengine.apply_qdiff"), "count"),
        "mkengine.apply_qdiff.self_s": (s("mkengine.apply_qdiff"), "s"),
        "mkengine.selfcheck_s": (selfcheck, "s"),
        "mkengine.build_polynomial.self_s": (s("mkengine.build_polynomial"), "s"),
        "mkengine.verify_orthogonality.self_s": (s("mkengine.verify_orthogonality"), "s"),
        "mkengine.build_polynomial_gs.self_s": (s("mkengine.build_polynomial_gs"), "s"),
        "mkengine.dual_path_agree.self_s": (s("mkengine.dual_path_agree"), "s"),
        "mkengine.connection_coeffs.self_s": (s("mkengine.connection_coeffs"), "s"),
        "qsp1.chain_res.calls": (c("qsp1.chain_res"), "count"),
        "qsp1.chain_res.self_s": (s("qsp1.chain_res"), "s"),
        "roots.self_s": (s("roots.weyl_group") + s("roots.dominance_leq")
                         + s("roots.dominant_weights_below"), "s"),
        "cli.main.self_s": (s("cli.main"), "s"),
    }
