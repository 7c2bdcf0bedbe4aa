"""Event-commutativity analyzer (``ddoshield check-parity``).

``ORD002`` (warning)
    An event handler order-sensitively assigns instance state that
    bucket-mate handlers also touch, so equal-``(time, priority)``
    events do not commute.  The runtime counterpart is the bucket
    shuffle sanitizer (``Simulator(shuffle_buckets=seed)`` /
    ``REPRO_SHUFFLE=<seed>``) which deterministically permutes
    same-bucket dispatch so any such race changes observable results.

The rule feeds the shared rule registry (category ``"parity"``), the
fingerprint baseline (``analysis/parity_baseline.json``) and inline
``# repro: lint-ok[...]`` suppressions.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterator, Sequence

from repro.analysis.effects import collect_class_effects, self_path
from repro.analysis.report import Finding
from repro.analysis.rules import _terminal_name, iter_rules, rule
from repro.analysis.walker import (
    LintContext,
    build_context,
    iter_python_files,
    parse_failure_finding,
    run_rules,
)

#: Scheduling entry points whose second argument is an event callback.
SCHEDULE_FNS = frozenset({"schedule", "schedule_abs", "schedule_periodic"})

#: Rule ids owned by this module (the ``check-parity`` command).
PARITY_RULE_IDS = frozenset({"ORD002"})

#: Default scan roots: the event-driven data plane.
DEFAULT_PARITY_PATHS: tuple[str, ...] = (
    "src/repro/sim",
    "src/repro/ids",
    "src/repro/testbed",
    "src/repro/botnet",
    "src/repro/apps",
)


# ----------------------------------------------------------------------
# ORD002 — non-commuting event handlers


@rule(
    "ORD002",
    "warning",
    "equal-(time, priority) events execute in schedule order; a handler "
    "that order-sensitively assigns state shared with bucket mates makes "
    "results depend on that order — make the update commutative, split "
    "priorities, or verify with Simulator(shuffle_buckets=seed)",
    category="parity",
)
def bucket_commutativity(ctx: "LintContext") -> Iterator[tuple[ast.AST, str]]:
    """Event handlers whose plain assigns race with bucket-mate accesses."""
    infos = {info.node: info for info in collect_class_effects(ctx.tree)}
    handlers: dict[ast.ClassDef, set[str]] = {}
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        if _terminal_name(node.func) not in SCHEDULE_FNS:
            continue
        callback: ast.AST | None = None
        for keyword in node.keywords:
            if keyword.arg == "callback":
                callback = keyword.value
        if callback is None and len(node.args) >= 2:
            callback = node.args[1]
        if callback is None:
            continue
        path = self_path(callback)
        if path is None or "." in path:
            continue
        ancestor = ctx.parents.get(node)
        while ancestor is not None and not isinstance(ancestor, ast.ClassDef):
            ancestor = ctx.parents.get(ancestor)
        if ancestor is not None:
            handlers.setdefault(ancestor, set()).add(path)
    for cls_node, names in sorted(
        handlers.items(), key=lambda item: item[0].lineno
    ):
        info = infos.get(cls_node)
        if info is None:
            continue
        present = [name for name in sorted(names) if name in info.methods]
        for handler in present:
            closure = info.closure(handler)
            conflicts: dict[str, str] = {}
            for attr in sorted(closure.assigns):
                if attr in closure.reads:
                    conflicts[attr] = handler
                    continue
                for other in present:
                    if other == handler:
                        continue
                    other_closure = info.closure(other)
                    if attr in other_closure.reads or attr in other_closure.writes:
                        conflicts[attr] = other
                        break
            if conflicts:
                detail = ", ".join(
                    f"self.{attr} (shared with {other}())"
                    for attr, other in conflicts.items()
                )
                yield info.methods[handler], (
                    f"event handler {info.name}.{handler}() order-sensitively "
                    f"assigns {detail}; equal-(time, priority) bucket mates "
                    "do not commute"
                )


# ----------------------------------------------------------------------
# Entry point


def check_parity_paths(
    paths: Sequence[str | Path] | None = None,
    root: str | Path | None = None,
) -> tuple[list[Finding], int, int]:
    """Run the parity rules; returns (findings, suppressed, files checked).

    The rules run through the same walker as the determinism linter.
    Unparseable files yield ``PARSE001`` error findings, like
    ``ddoshield lint``.
    """
    root_path = Path(root) if root is not None else Path.cwd()
    scan = list(paths) if paths else list(DEFAULT_PARITY_PATHS)
    rules = iter_rules(category="parity")
    findings: list[Finding] = []
    suppressed = 0
    files_checked = 0
    for file in iter_python_files(scan, root_path):
        try:
            rel = file.resolve().relative_to(root_path.resolve())
            shown = rel.as_posix()
        except ValueError:
            shown = file.as_posix()
        try:
            ctx = build_context(file.read_text(encoding="utf-8"), path=shown)
        except SyntaxError as exc:
            findings.append(parse_failure_finding(shown, exc))
            files_checked += 1
            continue
        file_findings, file_suppressed = run_rules(ctx, rules)
        findings.extend(file_findings)
        suppressed += file_suppressed
        files_checked += 1
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule_id))
    return findings, suppressed, files_checked
