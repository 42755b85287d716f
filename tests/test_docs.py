"""The docs resolve against the tree.

Every repo path, ``make`` target and ``repro`` subcommand quoted in a
code span or fenced block of README.md, DESIGN.md, EXPERIMENTS.md and
docs/*.md must exist — a doc that names a deleted command or a file
that moved fails here, not in a reader's shell.  Every ``--flag`` those
docs or the verify skill notes quote after ``repro <sub>`` must be an
option of that subcommand.  Every lint or verifier rule id those docs,
the verify skill notes or the source quote must be a live rule, and
every sanitizer finding kind they quote must be one the sanitizer
emits.  Every quoted fault spec with a timed event (``@t=``) in those docs or the
verify skill notes must parse, and every dotted ``repro.*`` name they
quote in code must import and resolve.  (``perfbench/`` keeps its own
README and is out of scope.)
"""

import importlib
import re
from pathlib import Path

from repro.analysis import RULES, VERIFY_RULES, UnrSanitizer
from repro.analysis.unrlint import PARSE_ERROR
from repro.cli import build_parser
from repro.netsim import FaultSpec

ROOT = Path(__file__).resolve().parent.parent
DOCS = [ROOT / "README.md", ROOT / "DESIGN.md", ROOT / "EXPERIMENTS.md",
        *sorted((ROOT / "docs").glob("*.md"))]
SKILL = ROOT / ".claude" / "skills" / "verify" / "SKILL.md"

_CODE = re.compile(r"```.*?```|`[^`]+`", re.S)
_PATH = re.compile(r"(?<![\w/.-])((?:benchmarks|examples|tests|src|tools)/[\w./-]+)(?![\w*<{])")
_MAKE = re.compile(r"\bmake\s+([a-z][a-z-]*)\b")
_REPRO = re.compile(r"(?<!from )(?<![\w/])repro\s+([a-z][a-z0-9-]*)\b")
_RULE_ID = re.compile(r"\b(?:UNR|VER)\d{3}\b")
_COMMAND = re.compile(r"(?<![\w/.])repro\s+([a-z][a-z0-9-]*)([^\n]*)")
_END = re.compile(r"\s#|[|;]|&&|(?<![\w/.])repro\s")
_FLAG = re.compile(r"(?<![\w-])--[a-z][a-z0-9-]*")
_SPEC = re.compile(r"[\w.=:+@,-]*@t=[^\s\"'`]*")
_BLOCK = re.compile(r"\n\s*\n")
_KIND_ROW = re.compile(r"^\| `([a-z-]+)` \|", re.M)
_HYPHENATED = re.compile(r"`([a-z]+(?:-[a-z]+)+)`")
_DOTTED = re.compile(r"(?<![\w.])repro(?:\.\w+)+")


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


def test_quoted_flags_resolve():
    """``repro <sub> ... --flag`` on one command line (``\\``
    continuations joined) names an option of ``<sub>``."""
    sub = next(a for a in build_parser()._actions if a.dest == "command")
    checked, stale = 0, []
    for doc in [*DOCS, SKILL]:
        text = doc.read_text(encoding="utf-8").replace("\\\n", " ")
        for code in _CODE.findall(text):
            for name, rest in _COMMAND.findall(code):
                parser = sub.choices.get(name)
                if parser is None:
                    continue
                options = {o for a in parser._actions for o in a.option_strings}
                for flag in _FLAG.findall(_END.split(rest)[0]):
                    checked += 1
                    if flag not in options:
                        stale.append((doc.name, f"repro {name} {flag}"))
    assert checked > 20, "the pattern stopped matching the docs"
    assert stale == []


def test_rule_ids_in_prose_resolve():
    texts = [*DOCS, SKILL, *sorted((ROOT / "src").rglob("*.py"))]
    quoted = {
        (path.relative_to(ROOT).as_posix(), rule_id)
        for path in texts
        for rule_id in _RULE_ID.findall(path.read_text(encoding="utf-8"))
    }
    assert len({rule_id for _, rule_id in quoted}) > 8, "the pattern stopped matching"
    live = {*RULES, *VERIFY_RULES, PARSE_ERROR.id}
    assert sorted(hit for hit in quoted if hit[1] not in live) == []


def test_sanitizer_kinds_in_prose_resolve():
    """A kind is quoted as a row of the ``| Kind |`` table, or as a
    hyphenated code span in a paragraph naming the sanitizer."""
    table, quoted = set(), set()
    for doc in [*DOCS, SKILL]:
        for block in _BLOCK.split(doc.read_text(encoding="utf-8")):
            if block.startswith("| Kind |"):
                table.update(_KIND_ROW.findall(block))
            if "anitizer" in block:
                quoted.update((doc.name, k) for k in _HYPHENATED.findall(block))
    assert table == set(UnrSanitizer.KINDS)
    assert quoted, "the pattern stopped matching the docs"
    assert sorted(hit for hit in quoted if hit[1] not in UnrSanitizer.KINDS) == []


def test_quoted_fault_specs_parse():
    """A spec quoted in code with a timed event parses; the grammar
    table's template rows (``t=T``, ``[:node=N]``) are not specs."""
    specs = [
        (doc.name, spec)
        for doc in [*DOCS, SKILL]
        for code in _CODE.findall(doc.read_text(encoding="utf-8"))
        for spec in _SPEC.findall(code)
        if not re.search(r"=[A-Z]", spec)
    ]
    assert len(specs) > 8, "the pattern stopped matching the docs"
    bad = []
    for doc, spec in specs:
        try:
            FaultSpec.parse(spec)
        except ValueError as exc:
            bad.append((doc, spec, str(exc)))
    assert bad == []


def _resolves(dotted):
    """The longest importable module prefix, then attributes."""
    parts = dotted.split(".")
    for i in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:i]))
        except ImportError:
            continue
        for attr in parts[i:]:
            if not hasattr(obj, attr):
                return False
            obj = getattr(obj, attr)
        return True
    return False


def test_quoted_dotted_names_resolve():
    """``repro.core.api``, ``repro.netsim.node.CpuSet``: a dotted name
    quoted in code imports, so no doc names a moved or deleted one."""
    names = _quoted(_DOTTED)
    assert len(names) > 30, "the pattern stopped matching the docs"
    assert [(doc, name) for doc, name in names if not _resolves(name)] == []
