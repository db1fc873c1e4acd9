#!/usr/bin/env python3
"""Docs gate: keep the prose docs in sync with the code.

Three independent checks, all run by CI's lint job and by
``tests/test_docs_gate.py``; their failures aggregate so one run shows
all drift at once:

* **Module map** — extracts the dotted module names from the
  ``<!-- module-map:begin -->`` block in ARCHITECTURE.md and compares
  them, as exact sets, with the modules that actually exist under
  ``src/repro/``, so CI fails whenever a module is added, removed or
  renamed without updating the documentation.
* **Protocol examples** — parses every fenced ``json`` example in
  PROTOCOL.md back through ``repro.serve.protocol``: frames must
  encode within the frame bound, requests must parse
  (``hello``/``submit``/``lease``/``status``, real trace names, valid
  machine specs), events and reject reasons must be ones the server
  can emit, every op/event/reason must have at least one example or
  mention (the spec may not silently omit a message type), every
  example's ``protocol`` field and ``hello`` version must be the code's
  ``PROTOCOL_VERSION``, and the constants table must match the code's
  values.  Skipped when the repo under ``--repo-root`` has no
  ``src/repro/serve/protocol.py`` (e.g. the minimal fixtures the
  docs-gate tests build).
* **Code references** — every backticked ``repro.<dotted>`` name and
  every backticked ``.py`` path outside fenced blocks in the prose docs
  (``PROSE_DOCS``; ROADMAP.md and CHANGES.md record history and are not
  checked) must resolve.  A dotted name's longest prefix that is a
  module under ``src/repro`` must exist, and the component after it, if
  any, must be a top-level name of that module, read from its AST (no
  import, so this check needs no NumPy).  A path that contains ``/``
  and ends in ``.py`` must exist under the repo root or ``src/``.  Each
  unresolved reference is reported as ``DOC:LINE: REF``; a doc the
  tree lacks is skipped.

Usage::

    python tools/check_architecture_docs.py [--repo-root PATH]
"""

from __future__ import annotations

import argparse
import ast
import json
import re
import sys
from pathlib import Path

BEGIN_MARK = "<!-- module-map:begin -->"
END_MARK = "<!-- module-map:end -->"
# A documented entry is the leading dotted name on a line, e.g.
# ``repro.sim.retry — retry policy ...``.
ENTRY_RE = re.compile(r"^(repro(?:\.[A-Za-z_][A-Za-z0-9_]*)*)\s")

# Fenced ```json blocks in PROTOCOL.md (each one wire-format example).
JSON_BLOCK_RE = re.compile(r"```json\n(.*?)```", re.DOTALL)

# Constants-table rows: | `NAME` | value | ...
CONSTANT_ROW_RE = re.compile(r"\|\s*`([A-Z_]+)`\s*\|\s*`?(\d+)`?\s*\|")

#: Prose docs whose code references must resolve.
PROSE_DOCS = (
    "README.md",
    "DESIGN.md",
    "EXPERIMENTS.md",
    "ARCHITECTURE.md",
    "PROTOCOL.md",
    "docs/OPERATIONS.md",
)

# One inline code span, e.g. `repro.sim.batch` or `tests/test_cli.py`.
CODE_SPAN_RE = re.compile(r"`([^`\n]+)`")
# The dotted name a span starts with, e.g. `repro.sim.perfbench.run()`.
DOTTED_REF_RE = re.compile(r"repro(?:\.[A-Za-z_][A-Za-z0-9_]*)+")

#: Constants PROTOCOL.md must state, checked against the code's values.
SPEC_CONSTANTS = (
    "PROTOCOL_VERSION",
    "MAX_FRAME_BYTES",
    "MAX_JOBS_PER_SUBMIT",
)


def documented_modules(architecture_md: Path) -> set[str]:
    """Dotted module names listed in ARCHITECTURE.md's module map."""
    text = architecture_md.read_text(encoding="utf-8")
    try:
        start = text.index(BEGIN_MARK) + len(BEGIN_MARK)
        end = text.index(END_MARK, start)
    except ValueError:
        raise SystemExit(
            f"{architecture_md}: missing {BEGIN_MARK}/{END_MARK} markers"
        )
    modules = set()
    for line in text[start:end].splitlines():
        match = ENTRY_RE.match(line.strip())
        if match:
            modules.add(match.group(1))
    if not modules:
        raise SystemExit(f"{architecture_md}: module map block is empty")
    return modules


def actual_modules(src_root: Path) -> set[str]:
    """Dotted module names for every .py file under src/repro."""
    package_root = src_root / "repro"
    modules = set()
    for path in package_root.rglob("*.py"):
        relative = path.relative_to(src_root).with_suffix("")
        parts = list(relative.parts)
        if parts[-1] == "__init__":
            parts.pop()
        modules.add(".".join(parts))
    return modules


def check_module_map(repo_root: Path) -> list[str]:
    """Module-map drift as a list of failure lines (empty = in sync)."""
    documented = documented_modules(repo_root / "ARCHITECTURE.md")
    actual = actual_modules(repo_root / "src")
    failures = []
    for name in sorted(actual - documented):
        failures.append(f"module missing from ARCHITECTURE.md module map: {name}")
    for name in sorted(documented - actual):
        failures.append(f"ARCHITECTURE.md lists a module that no longer exists: {name}")
    return failures


def _module_file(src_root: Path, dotted: str) -> Path | None:
    """The source file of module ``dotted`` under ``src_root``, if any."""
    base = src_root.joinpath(*dotted.split("."))
    for path in (base / "__init__.py", base.with_suffix(".py")):
        if path.is_file():
            return path
    return None


def _top_level_names(path: Path) -> set[str]:
    """Names a module's top-level statements bind (defs, assignments, imports)."""
    names: set[str] = set()
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update((alias.asname or alias.name).split(".")[0]
                         for alias in node.names)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                names.update(n.id for n in ast.walk(target) if isinstance(n, ast.Name))
    return names


def _resolves(src_root: Path, dotted: str) -> bool:
    """Whether ``repro.<...>`` names a module or one of its top-level names."""
    parts = dotted.split(".")
    for end in range(len(parts), 0, -1):
        module = _module_file(src_root, ".".join(parts[:end]))
        if module is not None:
            return end == len(parts) or parts[end] in _top_level_names(module)
    return False


def check_code_references(repo_root: Path) -> list[str]:
    """Unresolved code references in the prose docs, as ``DOC:LINE: REF``."""
    src_root = repo_root / "src"
    failures = []
    for doc in PROSE_DOCS:
        path = repo_root / doc
        if not path.exists():
            continue
        lines = path.read_text(encoding="utf-8").splitlines()
        fenced = False
        for number, line in enumerate(lines, start=1):
            if line.lstrip().startswith("```"):
                fenced = not fenced
                continue
            if fenced:
                continue
            for span in CODE_SPAN_RE.findall(line):
                dotted = DOTTED_REF_RE.match(span)
                if dotted:
                    ref = dotted.group(0)
                    ok = _resolves(src_root, ref)
                elif "/" in span and span.endswith(".py"):
                    ref = span
                    ok = (repo_root / ref).exists() or (src_root / ref).exists()
                else:
                    continue
                if not ok:
                    failures.append(f"{doc}:{number}: {ref}")
    return failures


def _validate_request(protocol, frame: dict, known_traces: frozenset) -> None:
    """Parse one request example with the op's real parser."""
    op = frame["op"]
    if op == "hello":
        protocol.parse_hello(frame)
    elif op == "submit":
        protocol.parse_submit(frame, known_traces)
    elif op == "lease":
        protocol.parse_lease(frame, known_traces)
    elif op == "ping":
        protocol.parse_ping(frame)
    else:  # status
        unknown = sorted(set(frame) - {"op"})
        if unknown:
            raise protocol.ProtocolError(
                f"unknown status field(s): {', '.join(unknown)}"
            )


def check_protocol_examples(repo_root: Path) -> list[str]:
    """Validate PROTOCOL.md's examples and constants against the code.

    Returns failure lines (empty = spec and code agree).  Skips — with
    no failures — when the repo has no serve protocol module, so the
    gate still works on the minimal fixture trees tests build.
    """
    protocol_md = repo_root / "PROTOCOL.md"
    protocol_py = repo_root / "src" / "repro" / "serve" / "protocol.py"
    if not protocol_py.exists():
        return []
    if not protocol_md.exists():
        return [f"{protocol_md} is missing (the serve protocol must be specified)"]

    src = str(repo_root / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    from repro.serve import protocol
    from repro.workloads.suite import all_specs

    known_traces = frozenset(spec.name for spec in all_specs())
    text = protocol_md.read_text(encoding="utf-8")
    failures: list[str] = []

    seen_ops: set[str] = set()
    seen_events: set[str] = set()
    blocks = JSON_BLOCK_RE.findall(text)
    if not blocks:
        failures.append("PROTOCOL.md contains no fenced json examples")
    for number, block in enumerate(blocks, start=1):
        label = f"PROTOCOL.md json example #{number}"
        try:
            frame = json.loads(block)
        except json.JSONDecodeError as exc:
            failures.append(f"{label}: not valid JSON: {exc.msg}")
            continue
        if not isinstance(frame, dict):
            failures.append(f"{label}: frame must be a JSON object")
            continue
        try:
            protocol.encode_frame(frame)
        except protocol.ProtocolError as exc:
            failures.append(f"{label}: {exc}")
            continue
        field = "version" if frame.get("op") == "hello" else "protocol"
        version = frame.get(field, protocol.PROTOCOL_VERSION)
        if version != protocol.PROTOCOL_VERSION:
            failures.append(
                f"{label}: {field} {version!r} is not "
                f"PROTOCOL_VERSION {protocol.PROTOCOL_VERSION}"
            )
        if "op" in frame:
            if frame["op"] not in protocol.REQUEST_OPS:
                failures.append(f"{label}: unknown op {frame['op']!r}")
                continue
            seen_ops.add(frame["op"])
            try:
                _validate_request(protocol, frame, known_traces)
            except protocol.ProtocolError as exc:
                failures.append(f"{label}: {exc}")
        elif "event" in frame:
            if frame["event"] not in protocol.EVENT_KINDS:
                failures.append(f"{label}: unknown event {frame['event']!r}")
                continue
            seen_events.add(frame["event"])
            if frame["event"] == "rejected":
                reason = frame.get("reason")
                if reason not in protocol.REJECT_REASONS:
                    failures.append(
                        f"{label}: unknown reject reason {reason!r}"
                    )
        else:
            failures.append(f"{label}: frame has neither 'op' nor 'event'")

    # Coverage: the spec may not silently omit a message type.
    for op in protocol.REQUEST_OPS:
        if op not in seen_ops:
            failures.append(f"PROTOCOL.md has no example for request op {op!r}")
    for event in protocol.EVENT_KINDS:
        if event not in seen_events:
            failures.append(f"PROTOCOL.md has no example for event {event!r}")
    for reason in protocol.REJECT_REASONS:
        if f"`{reason}`" not in text:
            failures.append(
                f"PROTOCOL.md does not document reject reason {reason!r}"
            )

    stated = dict(CONSTANT_ROW_RE.findall(text))
    for name in SPEC_CONSTANTS:
        actual = getattr(protocol, name)
        if name not in stated:
            failures.append(f"PROTOCOL.md constants table is missing {name}")
        elif int(stated[name]) != actual:
            failures.append(
                f"PROTOCOL.md states {name} = {stated[name]}, code says {actual}"
            )
    return failures


def main(argv: list[str] | None = None) -> int:
    """Run every check; 0 iff docs and code agree."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--repo-root",
        type=Path,
        default=Path(__file__).resolve().parent.parent,
        help="repository root containing ARCHITECTURE.md and src/repro",
    )
    args = parser.parse_args(argv)

    failures = check_module_map(args.repo_root)
    failures += check_protocol_examples(args.repo_root)
    failures += check_code_references(args.repo_root)
    if failures:
        for line in failures:
            print(line)
        print(f"\ndocs gate FAILED: {len(failures)} problem(s).")
        return 1
    print(
        "docs gate OK: module map, protocol spec and code references "
        "match the code."
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
