"""The docs resolve against the tree.

Every repo path, ``make`` target and ``repro`` subcommand quoted in a
code span or fenced block of README.md, DESIGN.md, EXPERIMENTS.md and
docs/*.md must exist — a doc that names a deleted command or a file
that moved fails here, not in a reader's shell.  Every lint or verifier
rule id those docs, the verify skill notes or the source quote must be
a live rule.  (``perfbench/`` keeps its own README and is out of scope.)
"""

import re
from pathlib import Path

from repro.analysis import RULES, VERIFY_RULES
from repro.analysis.unrlint import PARSE_ERROR
from repro.cli import build_parser

ROOT = Path(__file__).resolve().parent.parent
DOCS = [ROOT / "README.md", ROOT / "DESIGN.md", ROOT / "EXPERIMENTS.md",
        *sorted((ROOT / "docs").glob("*.md"))]

_CODE = re.compile(r"```.*?```|`[^`]+`", re.S)
_PATH = re.compile(r"(?<![\w/.-])((?:benchmarks|examples|tests|src|tools)/[\w./-]+)(?![\w*<{])")
_MAKE = re.compile(r"\bmake\s+([a-z][a-z-]*)\b")
_REPRO = re.compile(r"(?<!from )(?<![\w/])repro\s+([a-z][a-z0-9-]*)\b")
_RULE_ID = re.compile(r"\b(?:UNR|VER)\d{3}\b")


def _quoted(pattern):
    """(doc name, match) for every hit of ``pattern`` inside code."""
    hits = set()
    for doc in DOCS:
        for code in _CODE.findall(doc.read_text(encoding="utf-8")):
            hits.update((doc.name, m) for m in pattern.findall(code))
    return sorted(hits)


def test_docs_resolve_against_the_tree():
    makefile = (ROOT / "Makefile").read_text(encoding="utf-8")
    targets = set(re.findall(r"^([a-z][a-z-]*):", makefile, re.M))
    sub = next(a for a in build_parser()._actions if a.dest == "command")
    paths, makes, repros = _quoted(_PATH), _quoted(_MAKE), _quoted(_REPRO)
    assert len(paths) > 30 and len(makes) > 10 and len(repros) > 20, (
        "a pattern stopped matching the docs")
    missing = (
        [(doc, path) for doc, path in paths
         if not (ROOT / path.rstrip(".:")).exists()]
        + [(doc, f"make {t}") for doc, t in makes if t not in targets]
        + [(doc, f"repro {c}") for doc, c in repros if c not in sub.choices]
    )
    assert not missing


def test_rule_ids_in_prose_resolve():
    texts = [*DOCS, ROOT / ".claude" / "skills" / "verify" / "SKILL.md",
             *sorted((ROOT / "src").rglob("*.py"))]
    quoted = {
        (path.relative_to(ROOT).as_posix(), rule_id)
        for path in texts
        for rule_id in _RULE_ID.findall(path.read_text(encoding="utf-8"))
    }
    assert len({rule_id for _, rule_id in quoted}) > 8, "the pattern stopped matching"
    live = {*RULES, *VERIFY_RULES, PARSE_ERROR.id}
    assert sorted(hit for hit in quoted if hit[1] not in live) == []
