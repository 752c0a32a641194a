"""Every function, class and method must be used by the program itself, not
only by tests.

The check parses src/gradsel/*.py and walks references outward from module
level code (the CLI entry point, constants). A top-level function or class,
or a method, public or private, that no reachable code names is dead weight
kept alive only by its tests (or by nothing), and fails the check; dunder
methods run implicitly and are exempt. Names are matched by identifier, so
a method counts as used when any reachable code reads an attribute of that
name. Reference implementations that tests compare the production paths
against live in tests/reference.py, not in src/.

A second check does the same for imports: a module-level import whose name
its module never reads is left over from deleted code. A third does it for
parameter defaults: a default that no call in the program overrides is a
knob only tests turn, or none does.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "gradsel"


def _names(nodes) -> set[str]:
    """Identifiers read anywhere inside the given nodes."""
    out = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                out.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                out.add(sub.attr)
    return out


def _units(src: Path):
    """(qualified name, short name, identifiers it reads) for every top-level
    function and class and every method in src's modules, plus the
    identifiers read by module level code. __init__.py only re-exports,
    which is not a use."""
    units, roots = [], set()
    for path in sorted(src.glob("*.py")):
        if path.name == "__init__.py":
            continue
        mod = path.stem
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                qual = f"{mod}.{node.name}"
                if isinstance(node, ast.ClassDef):
                    methods = [n for n in node.body if isinstance(n, ast.FunctionDef)]
                    rest = [n for n in node.body if n not in methods]
                    units.append((qual, node.name, _names(node.bases + node.decorator_list + rest)))
                    for m in methods:
                        units.append((f"{qual}.{m.name}", m.name, _names([m])))
                else:
                    units.append((qual, node.name, _names([node])))
            else:
                roots |= _names([node])
    return units, roots


def _unused(src: Path = SRC) -> list[str]:
    units, names = _units(src)
    reached: set[str] = set()
    while True:
        new = [
            u
            for u in units
            if u[0] not in reached
            and (
                u[1] in names
                # dunder methods run implicitly once their class is in use
                or (u[1].startswith("__") and u[0].rsplit(".", 1)[0] in reached)
            )
        ]
        if not new:
            break
        for qual, _, reads in new:
            reached.add(qual)
            names |= reads
    return sorted(
        qual
        for qual, short, _ in units
        if qual not in reached and not (short.startswith("__") and short.endswith("__"))
    )


def test_every_public_name_is_used_by_the_program():
    assert _unused() == []


def test_a_private_helper_no_code_calls_is_flagged(tmp_path):
    (tmp_path / "mod.py").write_text(
        "def main():\n    return _used()\n\n\n"
        "def _used():\n    return Box()._kept()\n\n\n"
        "def _left_over():\n    pass\n\n\n"
        "class Box:\n    def __init__(self):\n        pass\n\n"
        "    def _kept(self):\n        pass\n\n"
        "    def _stale(self):\n        pass\n\n\n"
        "main()\n"
    )
    assert _unused(tmp_path) == ["mod.Box._stale", "mod._left_over"]


def _unread_imports() -> list[str]:
    """module.name for each name a module-level import binds and its module
    never reads. __future__ imports bind nothing; __init__.py re-exports."""
    out = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                bound = [(a.asname or a.name).split(".")[0] for a in node.names]
                out += [f"{path.stem}.{name}" for name in bound if name not in read]
    return out


def test_every_module_level_import_is_read():
    assert _unread_imports() == []


# The command line's entry point: the console script calls it with no
# arguments, so it reads sys.argv.
_DEFAULT_EXEMPT = {"cli.main.argv"}


def _calls() -> dict[str, list[tuple[int, set[str], bool]]]:
    """For each called name (a function's, or an attribute's), one (number
    of positional arguments, keyword names, whether an argument is starred)
    per call in the program."""
    out: dict[str, list] = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
                name = node.func.id if isinstance(node.func, ast.Name) else node.func.attr
                starred = any(isinstance(a, ast.Starred) for a in node.args) or any(
                    k.arg is None for k in node.keywords
                )
                out.setdefault(name, []).append((len(node.args), {k.arg for k in node.keywords}, starred))
    return out


def _never_overridden_defaults() -> list[str]:
    """module[.class].function.parameter for each parameter default that no
    call in the program overrides, by position, by keyword or by a starred
    argument, which may pass anything."""
    calls = _calls()
    out = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        methods = {
            id(f): cls.name for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
            for f in cls.body if isinstance(f, ast.FunctionDef)
        }
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            static = any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in fn.decorator_list)
            bound = id(fn) in methods and not static  # self or cls is passed implicitly
            positional = fn.args.posonlyargs + fn.args.args
            first = len(positional) - len(fn.args.defaults)
            params = [(a.arg, i - bound) for i, a in enumerate(positional) if i >= first]
            params += [(a.arg, None) for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults) if d is not None]
            qual = f"{path.stem}.{methods[id(fn)]}.{fn.name}" if id(fn) in methods else f"{path.stem}.{fn.name}"
            for param, index in params:
                if f"{qual}.{param}" in _DEFAULT_EXEMPT:
                    continue
                if not any(
                    starred or param in keywords or (index is not None and n > index)
                    for n, keywords, starred in calls.get(fn.name, [])
                ):
                    out.append(f"{qual}.{param}")
    return out


def test_every_parameter_default_is_overridden_by_the_program():
    assert _never_overridden_defaults() == []
