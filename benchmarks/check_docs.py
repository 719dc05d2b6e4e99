"""Docs consistency check: keep docs/ truthful against the source tree.

Run by the CI lint job (no third-party imports — the lint environment has
no numpy, so this never imports ``repro``; everything is text and
``ast``-level inspection):

1. every relative link in ``docs/*.md`` and ``README.md`` points at a
   file that exists, and every ``#anchor`` targets a real heading;
2. every event kind named in ``docs/operations.md`` is an ``EVENT_*``
   string literal in ``repro.telemetry.events``;
3. every backticked metric token (``fleet_*`` / ``fisone_*`` /
   ``replay_*``) in ``docs/operations.md`` appears as a string literal
   somewhere under ``src/repro/``;
4. every perf-guard floor key in ``benchmarks/baselines/*.json`` is
   documented in ``docs/benchmarks.md``;
5. the public serving/telemetry API keeps its docstrings (classes and
   public methods of the operator-facing surface);
6. no module under ``src tests benchmarks examples`` (the tree ``ruff``
   lints) imports a name at top level that it never uses — the stdlib
   stand-in for ruff's F401 where ruff is not installed.  Names listed in
   ``__all__`` and import lines marked ``# noqa`` count as used.

Usage::

    python benchmarks/check_docs.py   # exits 1 with a report on failure
"""

from __future__ import annotations

import ast
import json
import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
DOCS = [REPO / "README.md", *sorted((REPO / "docs").glob("*.md"))]

#: The operator-facing API whose docstrings check 5 enforces.
DOCSTRING_SURFACE = {
    REPO / "src/repro/serving/sharded.py": ["ShardedFleetServer"],
    REPO / "src/repro/serving/netserver.py": ["ShardServer"],
    REPO / "src/repro/serving/scheduler.py": ["RefreshScheduler"],
    REPO / "src/repro/serving/autoscale.py": ["Autoscaler", "AutoscalePolicy"],
    REPO / "src/repro/telemetry/metrics.py": ["MetricsRegistry"],
}

#: The trees check 6 scans for unused top-level imports.
LINT_ROOTS = ["src", "tests", "benchmarks", "examples"]

LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
METRIC_RE = re.compile(r"`((?:fleet|fisone|replay)_[a-z0-9_]+)`")
EVENT_RE = re.compile(r"`([a-z]+(?:-[a-z]+)+)`")
HEADING_RE = re.compile(r"^#{1,6}\s+(.*)$", re.MULTILINE)


def anchor_of(heading: str) -> str:
    """GitHub's heading → anchor slug (the subset these docs use)."""
    text = re.sub(r"[`*]", "", heading.strip().lower())
    text = re.sub(r"[^\w\- ]", "", text)
    return text.replace(" ", "-")


def check_links(errors: list) -> None:
    anchors = {
        doc: {anchor_of(h) for h in HEADING_RE.findall(doc.read_text())}
        for doc in DOCS
    }
    for doc in DOCS:
        for target in LINK_RE.findall(doc.read_text()):
            if target.startswith(("http://", "https://", "mailto:")):
                continue
            path_part, _, fragment = target.partition("#")
            resolved = (doc.parent / path_part).resolve() if path_part else doc
            if not resolved.exists():
                errors.append(f"{doc.relative_to(REPO)}: broken link -> {target}")
                continue
            if fragment and resolved in anchors:
                if fragment not in anchors[resolved]:
                    errors.append(
                        f"{doc.relative_to(REPO)}: dangling anchor -> {target}"
                    )


def source_string_literals() -> set:
    literals = set()
    for path in (REPO / "src" / "repro").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                literals.add(node.value)
    return literals


def check_operations_names(errors: list, literals: set) -> None:
    operations = (REPO / "docs" / "operations.md").read_text()
    events_src = (REPO / "src/repro/telemetry/events.py").read_text()
    event_kinds = {
        node.value.value
        for node in ast.walk(ast.parse(events_src))
        if isinstance(node, ast.Assign)
        and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, str)
        and any(
            isinstance(t, ast.Name) and t.id.startswith("EVENT_")
            for t in node.targets
        )
    }
    for metric in sorted(set(METRIC_RE.findall(operations))):
        if metric not in literals:
            errors.append(
                f"docs/operations.md: metric `{metric}` not found in src/repro"
            )
    for kind in sorted(set(EVENT_RE.findall(operations))):
        # Backticked kebab-case tokens are event kinds by convention; only
        # judge the ones claiming the event namespaces we define.
        if kind in event_kinds:
            continue
        prefix = kind.split("-")[0]
        if any(existing.startswith(prefix + "-") for existing in event_kinds):
            errors.append(
                f"docs/operations.md: event kind `{kind}` is not an EVENT_* "
                "constant in repro.telemetry.events"
            )


def check_benchmark_floors(errors: list) -> None:
    benchmarks_doc = (REPO / "docs" / "benchmarks.md").read_text()
    for baseline in sorted((REPO / "benchmarks" / "baselines").glob("*.json")):
        for key in json.loads(baseline.read_text()):
            if f"`{key}`" not in benchmarks_doc:
                errors.append(
                    f"docs/benchmarks.md: floor `{key}` from "
                    f"benchmarks/baselines/{baseline.name} is undocumented"
                )


def check_docstrings(errors: list) -> None:
    for path, class_names in DOCSTRING_SURFACE.items():
        tree = ast.parse(path.read_text())
        found = {
            node.name: node
            for node in tree.body
            if isinstance(node, ast.ClassDef)
        }
        for class_name in class_names:
            node = found.get(class_name)
            if node is None:
                errors.append(f"{path.relative_to(REPO)}: class {class_name} missing")
                continue
            if not ast.get_docstring(node):
                errors.append(f"{class_name}: missing class docstring")
            for member in node.body:
                if not isinstance(
                    member, (ast.FunctionDef, ast.AsyncFunctionDef)
                ):
                    continue
                if member.name.startswith("_") and member.name != "__init__":
                    continue
                has_property = any(
                    isinstance(d, ast.Name) and d.id == "property"
                    for d in member.decorator_list
                )
                if member.name == "__init__":
                    # Constructors document through the class docstring.
                    continue
                if not ast.get_docstring(member) and not has_property:
                    errors.append(
                        f"{class_name}.{member.name}: missing docstring"
                    )
                elif not ast.get_docstring(member) and has_property:
                    errors.append(
                        f"{class_name}.{member.name}: missing property docstring"
                    )


def imported_names(tree: ast.Module, lines: list) -> dict:
    """Name bound by each top-level import of ``tree`` -> its line number."""
    names = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if "# noqa" in lines[node.lineno - 1]:
            continue
        for alias in node.names:
            if alias.name != "*":
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
    return names


def string_constants(node: ast.AST) -> list:
    return [
        part.value
        for part in ast.walk(node)
        if isinstance(part, ast.Constant) and isinstance(part.value, str)
    ]


def used_names(tree: ast.Module) -> set:
    """Every name the module reads, including inside string annotations and
    the string entries of ``__all__``."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        # ``annotation`` exists on arguments and annotated assignments,
        # ``returns`` on functions.
        annotation = getattr(node, "annotation", None) or getattr(node, "returns", None)
        for text in string_constants(annotation) if annotation is not None else []:
            try:
                quoted = ast.parse(text, mode="eval")
            except SyntaxError:
                continue
            used.update(part.id for part in ast.walk(quoted) if isinstance(part, ast.Name))
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            used.update(string_constants(node.value))
    return used


def check_unused_imports(errors: list) -> None:
    for root in LINT_ROOTS:
        for path in sorted((REPO / root).rglob("*.py")):
            source = path.read_text()
            tree = ast.parse(source)
            used = used_names(tree)
            for name, line in imported_names(tree, source.splitlines()).items():
                if name not in used:
                    errors.append(
                        f"{path.relative_to(REPO)}:{line}: `{name}` imported but unused"
                    )


def main() -> int:
    errors: list = []
    check_links(errors)
    check_operations_names(errors, source_string_literals())
    check_benchmark_floors(errors)
    check_docstrings(errors)
    check_unused_imports(errors)
    if errors:
        print(f"check_docs: {len(errors)} problem(s)")
        for error in errors:
            print(f"  - {error}")
        return 1
    print("check_docs: docs, metrics, events, floors, docstrings and imports all consistent")
    return 0


if __name__ == "__main__":
    sys.exit(main())
