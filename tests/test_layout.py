"""src/persets holds what a command runs.

An AST walk from the ``cmd_*`` functions, ``build_parser`` and ``main`` of
``cli.py`` follows every name and attribute name to the top-level
functions, classes and assignments of ``src/persets/*.py`` that bear it,
and walks those in turn.  Matching bare names over-approximates, so what
the walk misses is reached by no command.  That belongs in
``tests/reference.py``, nowhere, or in ``ALLOWED`` with the reason it
stays (what an allowed name uses stays with it).
"""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "persets"
_CDF = "the persistence CDF that ROADMAP item 15 gives a command"
_POINT_CHECK = "README's point-check API; ROADMAP item 8 drives it"
ALLOWED = {
    "engine.kept_tuples": "redraws the tuples behind a sample (README); ROADMAP items 1 and 12 label them",
    "engine.StepCDF": _CDF,
    "engine.coordinate_cdf": _CDF,
    "spaces.distance": _POINT_CHECK,
    "spaces.distance_matrix": _POINT_CHECK,
}
TREES = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}
TOP = {}  # module.name: node of each top-level function, class and assigned name
for mod, tree in TREES.items():
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            TOP[f"{mod}.{node.name}"] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            TOP.update((f"{mod}.{n.id}", node) for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
DEFINED = {key for key, node in TOP.items() if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
CLI_ROOTS = [key for key in DEFINED if key.startswith("cli.cmd_") or key in ("cli.build_parser", "cli.main")]


def reached(roots):
    by_name = {}
    for key in TOP:
        by_name.setdefault(key.split(".", 1)[1], []).append(key)
    seen, todo = set(roots), list(roots)
    while todo:
        for node in ast.walk(TOP[todo.pop()]):
            if isinstance(node, (ast.Name, ast.Attribute)):
                name = node.id if isinstance(node, ast.Name) else node.attr
                new = [key for key in by_name.get(name, ()) if key not in seen]
                seen.update(new)
                todo += new
    return seen


def test_every_definition_in_src_is_reached_by_a_command_or_allowed():
    unreached = sorted(DEFINED - reached(CLI_ROOTS + sorted(ALLOWED.keys() & DEFINED)))
    assert not unreached, "reached by no command: move to tests/reference.py, delete, or allow with a reason"


def test_every_allowed_name_is_defined_and_reached_by_no_command():
    assert ALLOWED.keys() <= DEFINED
    assert not ALLOWED.keys() & reached(CLI_ROOTS)


def test_src_imports_nothing_from_tests():
    nodes = [node for tree in TREES.values() for node in ast.walk(tree)]
    imported = {alias.name for node in nodes if isinstance(node, ast.Import) for alias in node.names}
    imported |= {node.module for node in nodes if isinstance(node, ast.ImportFrom) and node.level == 0}
    assert not {name.split(".")[0] for name in imported} & {"reference", "conftest", "tests"}
