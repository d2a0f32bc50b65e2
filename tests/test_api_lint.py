"""API lint: every function, method and class in ``src/repro`` is reached
by production code, not only by tests.

"Production" is ``src/repro``, ``examples/``, ``scripts/``, the
``benchmarks/`` tree without its test files, and the CI workflows.  A
definition passes when its name appears in that text anywhere but on its
own ``def``/``class`` line.  Dunder methods are exempt: the language calls
them.  Code that only a test reaches is a second copy of an operation or
a tally nothing reports; such a test checks code that no simulation runs.

What the check cannot see:

* attributes and properties read as plain names are not definitions
  here, so a tally written on the hot path and read only by tests
  passes unnoticed unless it is a method;
* a name shared with a used method passes through that use: a
  test-only ``record``, ``get`` or ``channels`` on one class hides behind
  the ones production calls on another.

Wired into CI as part of the tier-1 test run.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"

#: Definitions kept for a check that no production return can replace.
ALLOWED = {
    "pending_count": "the drain test reads a directory's in-flight reads",
    "stream_capacity": "the allocation tests read each stream's pad share",
    "by_pair": "MessageTracer's export for users of the tracer",
    "fault_counts": "MessageTracer's export for users of the tracer",
    "dump_jsonl": "MessageTracer's export for users of the tracer",
}


def _production_files() -> list[Path]:
    benchmarks = [
        p
        for p in sorted((ROOT / "benchmarks").rglob("*.py"))
        if not p.name.startswith("test_") and p.name != "conftest.py"
    ]
    return [
        *sorted(SRC.rglob("*.py")),
        *sorted((ROOT / "examples").rglob("*.py")),
        *sorted((ROOT / "scripts").rglob("*.py")),
        *benchmarks,
        *sorted((ROOT / ".github" / "workflows").glob("*.yml")),
    ]


def _definitions() -> list[tuple[str, Path, int]]:
    found = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    found.append((node.name, path, node.lineno))
    return found


def unused_outside_tests() -> dict[str, list[str]]:
    """Each definition that no production line names, with its sites."""
    own: dict[str, set[tuple[Path, int]]] = {}
    for name, path, line in _definitions():
        own.setdefault(name, set()).add((path, line))
    named_at: dict[str, set[tuple[Path, int]]] = {}
    for path in _production_files():
        for number, line in enumerate(path.read_text().splitlines(), 1):
            for word in set(re.findall(r"[A-Za-z_][A-Za-z0-9_]*", line)):
                named_at.setdefault(word, set()).add((path, number))
    return {
        name: sorted(f"{path.relative_to(ROOT)}:{line}" for path, line in sites)
        for name, sites in own.items()
        if not named_at.get(name, set()) - sites
    }


def test_every_definition_is_reached_by_production_code():
    unused = {n: sites for n, sites in unused_outside_tests().items() if n not in ALLOWED}
    assert not unused, (
        "defined in src/repro but named only by tests: "
        + ", ".join(f"{n} ({', '.join(sites)})" for n, sites in sorted(unused.items()))
    )


def test_allowlist_has_no_stale_entries():
    assert set(unused_outside_tests()) == set(ALLOWED)
