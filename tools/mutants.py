"""Mutation gauge: which single operator swaps in ``src/eventstudy`` the tests miss.

Usage::

    python tools/mutants.py [module.py ...]

Each mutant swaps one operator at one site: ``<`` and ``<=``, ``>`` and
``>=``, ``==`` and ``!=``, ``+`` and ``-``, ``*`` and ``/`` (also in
augmented assignments), and ``//`` to ``/``.  The sites are found with
``ast`` and rewritten token by token, so the rest of the file stays as it
is.  Each mutant is written into a temporary copy of ``src/`` and
``tests/``, and the test modules that ``TESTS`` maps to the mutated module
run with ``pytest -x``; a mutant whose tests all pass survives.  No module
is given: every module in ``TESTS`` is mutated.

A survivor listed in ``tools/survivors.txt`` (its key, then ``#`` and the
reason the swap changes no result) is reported as explained.  The exit
status is 1 when any survivor is unexplained.  A full run takes tens of
minutes on two cores, so this is not part of the test suite.
"""

from __future__ import annotations

import argparse
import ast
import io
import os
import shutil
import subprocess
import sys
import tempfile
import tokenize
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path("src") / "eventstudy"
SURVIVORS = Path(__file__).resolve().parent / "survivors.txt"

#: Test modules run against each mutated module, its own first; the golden
#: report hashes catch what the unit tests miss.
TESTS = {
    "bootstrap.py": ("tests/test_bootstrap.py", "tests/test_golden.py"),
    "model.py": ("tests/test_model.py", "tests/test_golden.py"),
    "inference.py": (
        "tests/test_inference.py", "tests/test_ingest.py", "tests/test_model.py",
        "tests/test_whole_run.py", "tests/test_golden.py",
    ),
    "ingest.py": ("tests/test_ingest.py", "tests/test_whole_run.py", "tests/test_golden.py"),
    "report.py": ("tests/test_report_cli.py", "tests/test_whole_run.py", "tests/test_golden.py"),
    "config.py": ("tests/test_report_cli.py", "tests/test_golden.py"),
    "cli.py": ("tests/test_report_cli.py", "tests/test_golden.py"),
}

SWAPS = {
    ast.Lt: ("<", "<="), ast.LtE: ("<=", "<"), ast.Gt: (">", ">="), ast.GtE: (">=", ">"),
    ast.Eq: ("==", "!="), ast.NotEq: ("!=", "=="),
    ast.Add: ("+", "-"), ast.Sub: ("-", "+"), ast.Mult: ("*", "/"), ast.Div: ("/", "*"),
    ast.FloorDiv: ("//", "/"),
}

#: A pytest run longer than this counts as killed (a mutant can loop forever).
TIMEOUT_S = 600


@dataclass(frozen=True)
class Site:
    """One operator token and the one it is swapped for."""

    module: str
    line: int  # 1-based
    col: int  # character offset of the token in its line
    old: str
    new: str
    key: str  # stable across unrelated edits: module, function, line text, swap

    def apply(self, source: str) -> str:
        lines = source.splitlines(keepends=True)
        text = lines[self.line - 1]
        assert text[self.col : self.col + len(self.old)] == self.old, (self, text)
        lines[self.line - 1] = text[: self.col] + self.new + text[self.col + len(self.old) :]
        return "".join(lines)


def _operators(source: str) -> dict[tuple[int, int], str]:
    """Every operator token, by its (line, character column) start."""
    tokens = tokenize.generate_tokens(io.StringIO(source).readline)
    return {tok.start: tok.string for tok in tokens if tok.type == tokenize.OP}


def _char_col(line: str, byte_col: int) -> int:
    """``ast`` columns count UTF-8 bytes; ``tokenize`` columns count characters."""
    return len(line.encode("utf-8")[:byte_col].decode("utf-8"))


def _operands(node: ast.AST) -> list[tuple[ast.AST, ast.AST, type, str]]:
    """(left operand, right operand, operator type, token suffix) for each swappable operator."""
    if isinstance(node, ast.BinOp):
        return [(node.left, node.right, type(node.op), "")]
    if isinstance(node, ast.AugAssign):
        return [(node.target, node.value, type(node.op), "=")]
    if isinstance(node, ast.Compare):
        lefts = [node.left, *node.comparators[:-1]]
        return [(a, b, type(op), "") for a, b, op in zip(lefts, node.comparators, node.ops)]
    return []


def find_sites(module: str) -> list[Site]:
    """Every swappable operator of ``src/eventstudy/<module>``, in source order."""
    source = (ROOT / PACKAGE / module).read_text(encoding="utf-8")
    lines = source.splitlines()
    operators = _operators(source)
    sites: list[Site] = []
    seen: dict[tuple[str, str, str], int] = {}

    def visit(node: ast.AST, scope: str) -> None:
        for left, right, kind, suffix in _operands(node):
            if kind not in SWAPS:
                continue
            old, new = (symbol + suffix for symbol in SWAPS[kind])
            start = (left.end_lineno, _char_col(lines[left.end_lineno - 1], left.end_col_offset))
            stop = (right.lineno, _char_col(lines[right.lineno - 1], right.col_offset))
            found = [at for at, text in operators.items() if start <= at < stop and text == old]
            if len(found) != 1:  # inside an f-string, which Python < 3.12 tokenizes whole
                continue
            (line, col), = found
            text = lines[line - 1].strip()
            n = seen[scope, text, old] = seen.get((scope, text, old), 0) + 1
            key = f"{module}:{scope}: {text} [{old} -> {new}{f' #{n}' if n > 1 else ''}]"
            sites.append(Site(module, line, col, old, new, key))
        for child in ast.iter_child_nodes(node):
            named = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            visit(child, f"{scope}.{child.name}".lstrip(".") if named else scope)

    visit(ast.parse(source), "")
    return sorted(sites, key=lambda site: (site.line, site.col))


def _explained() -> dict[str, str]:
    """Known equivalent survivors: key -> reason."""
    reasons = {}
    if SURVIVORS.exists():
        for raw in SURVIVORS.read_text(encoding="utf-8").splitlines():
            if raw.strip() and not raw.startswith("#"):
                key, _, reason = raw.rpartition("  # ")
                reasons[key.strip()] = reason.strip()
    return reasons


def _passes(workdir: Path, tests: tuple[str, ...]) -> bool:
    env = {**os.environ, "PYTHONPATH": str(workdir / "src")}
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    try:
        done = subprocess.run(command, cwd=workdir, env=env, capture_output=True,
                              timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return False
    return done.returncode == 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("modules", nargs="*", metavar="module.py", help=", ".join(TESTS))
    args = parser.parse_args(argv)
    if set(args.modules) - set(TESTS):
        parser.error(f"no tests are mapped to {sorted(set(args.modules) - set(TESTS))}")
    modules = args.modules or list(TESTS)
    sites = [site for module in modules for site in find_sites(module)]

    explained = _explained()
    unexplained = 0
    killed = 0
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        workdir = Path(tmp)
        for part in ("src", "tests", "fixtures"):
            shutil.copytree(ROOT / part, workdir / part)
        for part in ("pyproject.toml", "README.md"):  # the tests read both
            shutil.copy(ROOT / part, workdir)
        for module in modules:
            if not _passes(workdir, TESTS[module]):
                print(f"{module}: its tests fail without a mutant; stopping", file=sys.stderr)
                return 2
        for site in sites:
            target = workdir / PACKAGE / site.module
            original = target.read_text(encoding="utf-8")
            target.write_text(site.apply(original), encoding="utf-8")
            try:
                survived = _passes(workdir, TESTS[site.module])
            finally:
                target.write_text(original, encoding="utf-8")
            if not survived:
                killed += 1
            elif site.key in explained:
                print(f"survived (explained: {explained[site.key]}): {site.key}", flush=True)
            else:
                unexplained += 1
                print(f"SURVIVED: {site.key}", flush=True)
    survivors = len(sites) - killed
    print(f"{len(sites)} mutants: {killed} killed, {survivors} survived, "
          f"{unexplained} unexplained")
    return 1 if unexplained else 0


if __name__ == "__main__":
    sys.exit(main())
