"""Doc-lint: the documentation must not drift from the code.

Four mechanical checks over the repo's own documentation set:

* every **relative link** in the markdown pages resolves to a real file
  or directory;
* every ``repro-sim`` / ``python -m repro`` command quoted in a ```bash
  block parses against the *real* CLI parser (argparse dry-run — stale
  subcommands, renamed flags, and removed choices fail here);
* every **metric name** quoted in ``docs/OBSERVABILITY.md`` uses a known
  registry namespace, and the page's namespace table matches
  ``KNOWN_NAMESPACES`` exactly (both directions — a namespace added in
  code must be documented, a documented one must exist);
* the **README documentation map** lists every page under ``docs/`` —
  adding a page without indexing it fails here.

Wired into CI as part of the tier-1 test run.
"""

from __future__ import annotations

import re
import shlex
from pathlib import Path

import pytest

from repro.cli import _build_parser
from repro.obs.metrics import KNOWN_NAMESPACES

ROOT = Path(__file__).resolve().parents[1]

#: The documentation this repo maintains (PAPER.md / PAPERS.md / SNIPPETS.md /
#: ISSUE.md / CHANGES.md are driver-provided working notes, not docs).
DOC_FILES = [
    ROOT / "README.md",
    ROOT / "DESIGN.md",
    ROOT / "EXPERIMENTS.md",
    ROOT / "ROADMAP.md",
    *sorted((ROOT / "docs").glob("*.md")),
]

_LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
_FENCE_RE = re.compile(r"```bash\n(.*?)```", re.DOTALL)
_METRIC_RE = re.compile(r"`([a-z][a-z0-9_]*(?:\.[a-z0-9_*]+)+)`")


def doc_ids():
    return [str(p.relative_to(ROOT)) for p in DOC_FILES]


@pytest.mark.parametrize("doc", DOC_FILES, ids=doc_ids())
def test_relative_links_resolve(doc):
    text = doc.read_text()
    broken = []
    for target in _LINK_RE.findall(text):
        if target.startswith(("http://", "https://", "mailto:")):
            continue
        path = target.split("#", 1)[0]
        if not path:
            continue  # pure in-page anchor
        if not (doc.parent / path).exists():
            broken.append(target)
    assert not broken, f"{doc.name}: dead relative links {broken}"


def _cli_commands(text: str):
    """Yield argv lists for every repro CLI command in ```bash fences."""
    for block in _FENCE_RE.findall(text):
        for raw in block.splitlines():
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            try:
                tokens = shlex.split(line, comments=True)
            except ValueError:
                continue  # prose or deliberately partial shell syntax
            if not tokens:
                continue
            if tokens[0] == "repro-sim":
                yield line, tokens[1:]
            elif tokens[:3] == ["python", "-m", "repro"]:
                yield line, tokens[3:]


def all_cli_commands():
    commands = []
    for doc in DOC_FILES:
        for line, argv in _cli_commands(doc.read_text()):
            commands.append(pytest.param(argv, id=f"{doc.name}:{line[:60]}"))
    return commands


@pytest.mark.parametrize("argv", all_cli_commands())
def test_documented_cli_commands_parse(argv):
    parser = _build_parser()
    try:
        parser.parse_args(argv)
    except SystemExit as exc:  # argparse reports errors via sys.exit
        pytest.fail(f"documented command no longer parses: repro-sim {' '.join(argv)}"
                    f" (exit {exc.code})")


def test_docs_quote_at_least_a_few_commands():
    """The parser dry-run must actually be exercising something."""
    assert len(all_cli_commands()) >= 10


def test_readme_documentation_map_is_complete():
    """Every page under docs/ is indexed in the README documentation map."""
    readme = (ROOT / "README.md").read_text()
    start = readme.index("## Documentation map")
    end = readme.index("## ", start + 3)
    doc_map = readme[start:end]
    missing = [
        f"docs/{page.name}"
        for page in sorted((ROOT / "docs").glob("*.md"))
        if f"docs/{page.name}" not in doc_map
    ]
    assert not missing, f"README documentation map is missing {missing}"


class TestObservabilityNamespace:
    DOC = ROOT / "docs" / "OBSERVABILITY.md"

    def _namespace_section(self) -> str:
        """The '## Metric namespace' section, where metric names are listed."""
        text = self.DOC.read_text()
        start = text.index("## Metric namespace")
        end = text.index("## ", start + 3)
        return text[start:end]

    def test_quoted_metric_names_use_known_namespaces(self):
        section = self._namespace_section()
        names = _METRIC_RE.findall(section)
        assert len(names) >= 20  # the table must actually enumerate metrics
        unknown = {
            name for name in names
            if name.split(".", 1)[0] not in KNOWN_NAMESPACES
        }
        assert not unknown, f"docs quote metrics outside KNOWN_NAMESPACES: {sorted(unknown)}"

    def test_namespace_table_matches_registry(self):
        """The markdown namespace table and KNOWN_NAMESPACES agree exactly."""
        documented = set()
        for line in self.DOC.read_text().splitlines():
            match = re.match(r"\|\s*`([a-z_]+)`\s*\|", line)
            if match:
                documented.add(match.group(1))
        assert documented == set(KNOWN_NAMESPACES), (
            f"namespace table drift: documented-only {sorted(documented - set(KNOWN_NAMESPACES))}, "
            f"code-only {sorted(set(KNOWN_NAMESPACES) - documented)}"
        )
