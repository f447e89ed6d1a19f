"""Every top-level function and class of the engine is used by the engine:
each one defined in src/mkpolys/*.py (the package's __init__.py aside)
is referenced in src beyond its own definition, or is a layer that
perfbench/spans.py traces.  A name only tests read is test-only code."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "mkpolys"


def used_names(node) -> set:
    """The names node reads: bare names and attributes, imports aside."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
    return out


def traced_layers() -> set:
    """(module file stem, top-level name) of each perfbench.spans LAYERS entry."""
    tree = ast.parse((ROOT / "perfbench" / "spans.py").read_text())
    layers = next(ast.literal_eval(s.value) for s in tree.body if isinstance(s, ast.Assign)
                  and any(getattr(t, "id", None) == "LAYERS" for t in s.targets))
    return {(mod.rsplit(".", 1)[1], attr.split(".")[0]) for mod, attr, _ in layers}


def test_every_top_level_src_name_is_used_in_src():
    modules = {p.stem: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))
               if p.name != "__init__.py"}
    # per top-level statement, the names it reads
    stmts = [(mod, s, used_names(s)) for mod, tree in modules.items() for s in tree.body]
    traced = traced_layers()
    unused = []
    for mod, tree in modules.items():
        for d in tree.body:
            if not isinstance(d, (ast.FunctionDef, ast.ClassDef)):
                continue
            if (mod, d.name) in traced:
                continue
            if not any(d.name in names for _, s, names in stmts if s is not d):
                unused.append("%s.%s" % (mod, d.name))
    assert not unused, "used only outside src: %s" % ", ".join(unused)
