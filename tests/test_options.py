"""Every optional parameter of the library is set by some call in the library.

An option that no caller sets only widens a signature: each call runs the
default.  A call sets an option when it passes it by keyword or by position,
and a call of a class sets the options of its ``__init__``.  A call that
passes on an option of its own function, as ``f(bound=bound)`` does, sets it
only if that option is set in turn.  Two kinds of option need no setter: the
``argv`` of ``cli.main``, which the tests pass, and the ``bound`` of a search
annotated ``-> Verdict``, whose ``unknown`` verdict names it.
"""

import ast
from pathlib import Path
from typing import NamedTuple, Optional

SRC = Path(__file__).resolve().parent.parent / "src" / "arl"
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


class Option(NamedTuple):
    module: str
    line: int
    function: str
    name: str
    callee: str              # the name a call uses: the function's, or the class's for __init__
    position: Optional[int]  # its index among a call's positional arguments; None if keyword-only


def functions(tree: ast.Module) -> dict[ast.AST, tuple[str, int]]:
    """Each function with the name a call uses (the class's for ``__init__``)
    and the number of its positional parameters that a call does not pass
    (``self`` or ``cls``)."""
    methods = {f: c for c in ast.walk(tree) if isinstance(c, ast.ClassDef)
               for f in c.body if isinstance(f, FUNCTIONS)}
    found = {}
    for node in ast.walk(tree):
        if not isinstance(node, FUNCTIONS):
            continue
        cls = methods.get(node)
        static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                     for d in node.decorator_list)
        callee = cls.name if cls is not None and node.name == "__init__" else node.name
        found[node] = (callee, 1 if cls is not None and not static else 0)
    return found


def defaulted(fn: ast.AST) -> list[tuple[ast.arg, Optional[int]]]:
    """Each parameter of fn with a default, with its index among fn's
    positional parameters (None if keyword-only)."""
    args = fn.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    return ([(a, i) for i, a in enumerate(positional) if i >= first]
            + [(a, None) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None])


def options(tree: ast.Module, module: str = "") -> dict[tuple[str, str], Option]:
    found = {}
    for node, (callee, skip) in functions(tree).items():
        verdict = node.returns is not None and "Verdict" in ast.unparse(node.returns)
        for arg, index in defaulted(node):
            if (callee, arg.arg) == ("main", "argv") or (verdict and arg.arg == "bound"):
                continue
            position = None if index is None else index - skip
            found[(callee, arg.arg)] = Option(module, node.lineno, node.name, arg.arg,
                                              callee, position)
    return found


def calls(tree: ast.Module) -> list[tuple[ast.Call, Optional[ast.AST]]]:
    """Each call, with the function whose body makes it (None at module level)."""
    out = []

    def visit(node, fn):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                out.append((child, fn))
            visit(child, child if isinstance(child, FUNCTIONS) else fn)

    visit(tree, None)
    return out


def unset_options(sources: dict[str, str]) -> list[str]:
    """Where each option that no call sets is declared, from module sources."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    opts, callees = {}, {}
    for name, tree in trees.items():
        opts.update(options(tree, name))
        callees.update({node: callee for node, (callee, _) in functions(tree).items()})
    done, passed_on = set(), set()
    for tree in trees.values():
        for call, fn in calls(tree):
            f = call.func
            callee = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
            if callee is None:
                continue
            starred = [i for i, a in enumerate(call.args) if isinstance(a, ast.Starred)]
            keywords = {k.arg: k.value for k in call.keywords}
            for key, opt in opts.items():
                if opt.callee != callee:
                    continue
                if None in keywords or (opt.position is not None and starred
                                        and starred[0] <= opt.position):
                    done.add(key)
                    continue
                value = keywords.get(opt.name)
                if value is None and opt.position is not None and opt.position < len(call.args):
                    value = call.args[opt.position]
                if value is None:
                    continue
                if (isinstance(value, ast.Name) and fn is not None
                        and value.id in {a.arg for a, _ in defaulted(fn)}):
                    passed_on.add((key, (callees[fn], value.id)))
                else:
                    done.add(key)
    # passing on an option that is set, or that needs no setter, sets it
    while new := {key for key, source in passed_on
                  if source in done or source not in opts} - done:
        done |= new
    unset = sorted(opt for key, opt in opts.items() if key not in done)
    return [f"{o.module}:{o.line} {o.function}({o.name})" for o in unset]


def test_every_option_has_a_setter():
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
    unset = unset_options(sources)
    assert not unset, f"options that no call in src/arl sets: {unset}"


def test_an_option_without_a_setter_is_caught():
    source = (
        "def search(f, bound=None) -> 'Verdict':\n    return f\n"
        "def outer(f, bound=None, depth=None):\n"
        "    return search(f, bound=bound), inner(f, depth)\n"
        "def inner(f, depth=None, width=2):\n    return f\n"
        "class Box:\n"
        "    def __init__(self, size=1, *, label=''):\n        self.size = size\n"
        "    def grow(self, by=1):\n        return Box(self.size + by, label='grown')\n"
        "def main(argv=None):\n    return outer(Box(3).grow(), depth=4)\n"
        "inner(1, width=3)\n"
    )
    assert unset_options({"m.py": source}) == ["m.py:3 outer(bound)", "m.py:10 grow(by)"]
