"""Single-operator mutation sweep of persets modules.

    python tools/mutate.py oracle principal
    python tools/mutate.py regions --tests tests/test_regions.py tests/test_region_digests.py

Each mutant changes one site of a module's AST: ``min``/``max`` (and
numpy's ``minimum``/``maximum``, ``argmin``/``argmax``) swapped, one
comparison operator swapped (< <=, > >=, == !=), one arithmetic or bitwise
operator swapped, or one number plus 1.  A mutant runs against the module's
test files (``tests/test_<module>.py`` unless ``--tests`` names others)
with ``pytest -x``, in a copy of the repository made in a temporary
directory (``TMPDIR`` chooses where), so the working tree is never edited.
The module as ``ast.unparse`` writes it must pass those tests first.  A
failing run, a crash or a run longer than ``TIMEOUT`` seconds kills the
mutant.  The sweep prints, per
module, how many mutants were killed and how many survived, and the diff of
each survivor against that unparsed module (so comments do not show).

Only the standard library is used; tier-1 does not collect this script.
"""
from __future__ import annotations

import argparse
import ast
import difflib
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT = 120.0  # seconds
NAMES = {"min": "max", "max": "min", "minimum": "maximum", "maximum": "minimum",
         "argmin": "argmax", "argmax": "argmin"}
COMPARE = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt, ast.Eq: ast.NotEq,
           ast.NotEq: ast.Eq}
ARITHMETIC = {ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Div, ast.Div: ast.Mult,
              ast.FloorDiv: ast.Div, ast.Mod: ast.FloorDiv, ast.Pow: ast.Mult, ast.BitXor: ast.BitOr,
              ast.BitOr: ast.BitAnd, ast.BitAnd: ast.BitOr, ast.LShift: ast.RShift, ast.RShift: ast.LShift}


class Mutator(ast.NodeTransformer):
    """Counts the mutation sites in walk order; with ``target`` set, mutates that one site only."""

    def __init__(self, target=None):
        self.target, self.sites = target, 0

    def _hit(self) -> bool:
        self.sites += 1
        return self.sites - 1 == self.target

    def visit_Name(self, node):
        if node.id in NAMES and self._hit():
            node.id = NAMES[node.id]
        return node

    def visit_Attribute(self, node):
        self.generic_visit(node)
        if node.attr in NAMES and self._hit():
            node.attr = NAMES[node.attr]
        return node

    def visit_Compare(self, node):
        self.generic_visit(node)
        for i, op in enumerate(node.ops):
            if type(op) in COMPARE and self._hit():
                node.ops[i] = COMPARE[type(op)]()
        return node

    def _operator(self, node):
        self.generic_visit(node)
        if type(node.op) in ARITHMETIC and self._hit():
            node.op = ARITHMETIC[type(node.op)]()
        return node

    visit_BinOp = visit_AugAssign = _operator

    def visit_Constant(self, node):
        if type(node.value) in (int, float) and self._hit():
            node.value += 1
        return node


def mutants(source: str):
    """(site, mutated source) of every mutation site of ``source``, in walk order."""
    counter = Mutator()
    counter.visit(ast.parse(source))
    return [(site, ast.unparse(Mutator(site).visit(ast.parse(source))) + "\n") for site in range(counter.sites)]


def sweep(module: str, tests: list[str], copy: Path) -> tuple[int, list[str]]:
    """The mutant count of ``src/persets/<module>.py`` and the diffs of its survivors."""
    path = copy / "src" / "persets" / f"{module}.py"
    source = path.read_text(encoding="utf-8")
    plain = (ast.unparse(ast.parse(source)) + "\n").splitlines(keepends=True)
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    found, survivors = mutants(source), []
    try:
        path.write_text("".join(plain), encoding="utf-8")
        if subprocess.run(command, cwd=copy, env=env, capture_output=True, timeout=TIMEOUT).returncode:
            raise SystemExit(f"{module}.py fails {' '.join(tests)} before any mutation")
        for site, text in found:
            path.write_text(text, encoding="utf-8")
            try:
                run = subprocess.run(command, cwd=copy, env=env, capture_output=True, timeout=TIMEOUT)
                survived = run.returncode == 0
            except subprocess.TimeoutExpired:
                survived = False
            if survived:
                diff = difflib.unified_diff(plain, text.splitlines(keepends=True), f"{module}.py",
                                            f"{module}.py (site {site})", n=0)
                survivors.append("".join(diff))
            print(f"{module}: site {site + 1}/{len(found)} {'survived' if survived else 'killed'}",
                  file=sys.stderr, flush=True)
    finally:
        path.write_text(source, encoding="utf-8")
    return len(found), survivors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("modules", nargs="+", help="module names under src/persets, e.g. oracle")
    parser.add_argument("--tests", nargs="+", help="test files for every module (default tests/test_<module>.py)")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="persets-mutate-") as scratch:
        copy = Path(scratch)
        for part in ("src", "tests", "pyproject.toml"):
            (shutil.copytree if (ROOT / part).is_dir() else shutil.copy)(ROOT / part, copy / part)
        for module in args.modules:
            tests = args.tests or [f"tests/test_{module}.py"]
            count, survivors = sweep(module, tests, copy)
            print(f"{module}.py: {count} mutants, {count - len(survivors)} killed, {len(survivors)} survived")
            for diff in survivors:
                print(diff, end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())
