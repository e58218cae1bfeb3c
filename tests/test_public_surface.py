"""Every function, class and method of src/ans2d is reached from the package itself.

A name that no module of the package refers to, apart from its own
definition and the re-export in __init__.py, is run by tests alone: a
second path beside the one a subcommand, a certificate or the benchmark
runs, or dead code.  The scan reads names and attribute names in the
syntax tree, so docstrings and comments do not count as a use; dunder
methods, which Python itself calls, are not scanned.  The
exceptions are listed below, each with its reason; an entry whose name
gains a caller or goes away fails the test too, so the list stays exact.
"""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "ans2d"

_CERTIFICATE = "certificate with no src/ caller until the CLI runs the battery (ROADMAP item 10)"
ALLOWED = {
    "det.eps_sweep": _CERTIFICATE,
    "det.weak_form_residual": _CERTIFICATE,
    "det.time_profile": "the time windows of weak_form_residual, " + _CERTIFICATE,
    "noise.condition_c_empirical_check": _CERTIFICATE,
    "sde.ito_isometry_audit": _CERTIFICATE,
    "sde.ou_mode_validation": _CERTIFICATE,
    "sde.undamped_mode_validation": _CERTIFICATE,
    "basis.galerkin_project_raw": "the basis.galerkin span of perfbench/layers.py and the "
                                  "subject of criterion 06 (ROADMAP item 6 drops the span)",
    "snapshots.read_snapshot": "reader of the documented snapshot format; perfbench checks "
                               "final states with it",
    "cli._Parser.error": "argparse calls it on a usage error",
    "__init__.__version__": "the package version, read by users and packaging tools",
}


def _names(tree) -> Counter:
    """How often each name or attribute name occurs in tree."""
    found = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found[node.id] += 1
        elif isinstance(node, ast.Attribute):
            found[node.attr] += 1
    return found


def _definitions():
    """(label, name, defining node or None) for every scanned definition."""
    for path in sorted(SRC.glob("*.py")):
        module = path.stem
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                yield path, f"{module}.{node.name}", node.name, node
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, ast.FunctionDef) and not (
                            sub.name.startswith("__") and sub.name.endswith("__")):
                        yield path, f"{module}.{node.name}.{sub.name}", sub.name, sub
            if module == "__init__" and isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        yield path, f"{module}.{target.id}", target.id, None


def unreached() -> set[str]:
    """Labels of the definitions no module other than __init__.py names."""
    uses = Counter()
    for path in SRC.glob("*.py"):
        if path.name != "__init__.py":
            uses += _names(ast.parse(path.read_text()))
    out = set()
    for path, label, name, node in _definitions():
        own = _names(node)[name] if node is not None and path.name != "__init__.py" else 0
        if uses[name] - own <= 0:
            out.add(label)
    return out


def test_every_definition_has_a_caller_in_the_package():
    found = unreached()
    extra, stale = sorted(found - ALLOWED.keys()), sorted(ALLOWED.keys() - found)
    assert not extra, f"reached only from outside src/: {extra}"
    assert not stale, f"allowlisted but now reached or gone: {stale}"
