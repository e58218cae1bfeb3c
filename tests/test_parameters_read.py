"""Every parameter of every function of src/ans2d is read in its body.

A parameter that no line of its function reads is a knob with no effect:
a caller can pass a value that changes nothing, or a second source of a
value the package takes from elsewhere.  The scan reads the syntax tree:
a parameter counts as read when its name is loaded anywhere in the
function's body, nested functions and lambdas included.  self, cls and
names with a leading underscore (the convention for a parameter kept for
a signature) are not scanned, nor are lambdas, whose parameters are the
table signatures of ensemble.MOMENTS and det.time_profile.  The
exceptions are listed below, each with its reason; an entry that is read
or goes away fails the test too, so the list stays exact.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "ans2d"

_COMMAND = "the one signature of cli._COMMANDS, (cfg, out, args); this subcommand has no flag"
ALLOWED = {
    "cli._cmd_run_det.args": _COMMAND,
    "cli._cmd_verify.args": _COMMAND,
    "cli._cmd_oracle_check.args": _COMMAND,
    "spectral._spec.n_points": "the perfbench layer counter _fft_counts reads it as args[1]",
}
_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _functions(node, prefix):
    """(label, node) of every function defined in node, nested ones too."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, _FUNCTIONS + (ast.ClassDef,)):
            label = f"{prefix}.{child.name}"
            if isinstance(child, _FUNCTIONS):
                yield label, child
            yield from _functions(child, label)
        else:
            yield from _functions(child, prefix)


def _parameters(fn):
    args = fn.args
    named = args.posonlyargs + args.args + args.kwonlyargs
    named += [a for a in (args.vararg, args.kwarg) if a is not None]
    return [a.arg for a in named if a.arg not in ("self", "cls") and not a.arg.startswith("_")]


def unread() -> set[str]:
    """Labels module.function.parameter of the parameters their function never reads."""
    out = set()
    for path in sorted(SRC.glob("*.py")):
        for label, fn in _functions(ast.parse(path.read_text()), path.stem):
            loaded = {node.id for stmt in fn.body for node in ast.walk(stmt)
                      if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            out.update(f"{label}.{name}" for name in _parameters(fn) if name not in loaded)
    return out


def test_every_parameter_is_read():
    found = unread()
    extra, stale = sorted(found - ALLOWED.keys()), sorted(ALLOWED.keys() - found)
    assert not extra, f"parameters their function never reads: {extra}"
    assert not stale, f"allowlisted but now read or gone: {stale}"
