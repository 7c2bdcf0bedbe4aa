"""AST walking infrastructure for the determinism linter.

:func:`lint_paths` discovers ``*.py`` files, parses each once, builds a
:class:`LintContext` (import aliases, set-typed names, parent links,
inline suppressions) and runs every registered rule over it.

Suppressions are source comments of the form::

    some_hazard()  # repro: lint-ok[RNG001] -- justification

``lint-ok[*]`` silences every rule on that line.  Suppressed findings
are counted but never fail a run.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from fnmatch import fnmatch
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from repro.analysis.report import Finding
from repro.analysis.rules import Rule, iter_rules

#: Files where wall-clock reads are legitimate (benchmark timing, CLI UX).
DEFAULT_WALL_CLOCK_ALLOWLIST: tuple[str, ...] = (
    "*/bench.py",
    "*/cli.py",
    "bench.py",
    "cli.py",
)

_SUPPRESS_RE = re.compile(r"#\s*repro:\s*lint-ok\[([^\]]*)\]")

#: Pseudo-rule id for files the parser rejects.  Unparseable files used
#: to be skipped silently; now they surface as error findings so a lint
#: run over a broken tree exits nonzero instead of vacuously passing.
PARSE_RULE_ID = "PARSE001"
PARSE_RULE_HINT = (
    "the file failed to parse, so no rule could check it; fix the syntax "
    "error (unparseable files fail the run rather than being skipped)"
)


def parse_failure_finding(path: str, exc: SyntaxError) -> Finding:
    """Turn a ``SyntaxError`` into an error :class:`Finding` for ``path``."""
    return Finding(
        rule_id=PARSE_RULE_ID,
        severity="error",
        path=path,
        line=exc.lineno or 1,
        col=exc.offset or 1,
        message=f"file does not parse: {exc.msg}",
        hint=PARSE_RULE_HINT,
        snippet=(exc.text or "").strip(),
    )


@dataclass
class LintContext:
    """Everything a rule needs to inspect one parsed module."""

    path: str  # repo-relative, POSIX separators
    tree: ast.Module
    source_lines: list[str]
    wall_clock_allowed: bool = False
    parents: dict[ast.AST, ast.AST] = field(default_factory=dict)
    set_typed_names: set[str] = field(default_factory=set)
    _module_aliases: dict[str, set[str]] = field(default_factory=dict)
    _from_imports: dict[str, dict[str, str]] = field(default_factory=dict)
    suppressions: dict[int, set[str]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self._index_imports()
        self._link_parents()
        self._infer_set_names()
        self._collect_suppressions()

    # ------------------------------------------------------------------
    # Rule helpers

    def module_aliases(self, module: str) -> set[str]:
        """Local names bound to ``module`` (``import numpy as np`` → np)."""
        return self._module_aliases.get(module, set())

    def from_imports(self, module: str) -> dict[str, str]:
        """Local name → original name for ``from module import …``."""
        return self._from_imports.get(module, {})

    def snippet(self, line: int) -> str:
        if 1 <= line <= len(self.source_lines):
            return self.source_lines[line - 1].strip()
        return ""

    def is_suppressed(self, rule_id: str, line: int) -> bool:
        ids = self.suppressions.get(line)
        return ids is not None and (rule_id in ids or "*" in ids)

    # ------------------------------------------------------------------
    # Construction passes

    def _index_imports(self) -> None:
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    self._module_aliases.setdefault(alias.name, set()).add(
                        alias.asname or alias.name.split(".")[0]
                    )
            elif isinstance(node, ast.ImportFrom) and node.module:
                table = self._from_imports.setdefault(node.module, {})
                for alias in node.names:
                    table[alias.asname or alias.name] = alias.name

    def _link_parents(self) -> None:
        for parent in ast.walk(self.tree):
            for child in ast.iter_child_nodes(parent):
                self.parents[child] = parent

    def _infer_set_names(self) -> None:
        """Names/attributes statically known to hold a ``set``.

        Inference is intentionally shallow (one module at a time): it
        catches ``x = set()`` / ``self.peers: set[int] = …`` — the
        patterns event-scheduling code actually uses — without a type
        checker.
        """

        def is_set_annotation(node: ast.AST | None) -> bool:
            if node is None:
                return False
            if isinstance(node, ast.Subscript):
                node = node.value
            name = node.attr if isinstance(node, ast.Attribute) else (
                node.id if isinstance(node, ast.Name) else None
            )
            return name in ("set", "frozenset", "Set", "FrozenSet", "AbstractSet",
                            "MutableSet")

        def is_set_value(node: ast.AST | None) -> bool:
            if isinstance(node, (ast.Set, ast.SetComp)):
                return True
            return (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in ("set", "frozenset")
            )

        def dotted(node: ast.AST) -> str | None:
            parts: list[str] = []
            while isinstance(node, ast.Attribute):
                parts.append(node.attr)
                node = node.value
            if not isinstance(node, ast.Name):
                return None
            parts.append(node.id)
            return ".".join(reversed(parts))

        for node in ast.walk(self.tree):
            targets: list[ast.AST] = []
            if isinstance(node, ast.AnnAssign) and is_set_annotation(node.annotation):
                targets.append(node.target)
            elif isinstance(node, ast.Assign) and is_set_value(node.value):
                targets.extend(node.targets)
            elif isinstance(node, ast.AnnAssign) and is_set_value(node.value):
                targets.append(node.target)
            for target in targets:
                name = dotted(target)
                if name is not None:
                    self.set_typed_names.add(name)

    def _collect_suppressions(self) -> None:
        for lineno, line in enumerate(self.source_lines, start=1):
            match = _SUPPRESS_RE.search(line)
            if match is None:
                continue
            ids = {part.strip() for part in match.group(1).split(",") if part.strip()}
            if ids:
                self.suppressions.setdefault(lineno, set()).update(ids)


# ----------------------------------------------------------------------
# Entry points


def build_context(
    source: str,
    path: str = "<string>",
    wall_clock_allowlist: Iterable[str] = DEFAULT_WALL_CLOCK_ALLOWLIST,
) -> LintContext:
    """Parse one module and assemble its :class:`LintContext`.

    Raises :class:`SyntaxError` for unparseable source — callers decide
    whether that is fatal (:func:`lint_source`) or a reportable finding
    (:func:`lint_paths`, via :func:`parse_failure_finding`).
    """
    tree = ast.parse(source, filename=path)
    posix_path = path.replace("\\", "/")
    return LintContext(
        path=posix_path,
        tree=tree,
        source_lines=source.splitlines(),
        wall_clock_allowed=any(
            fnmatch(posix_path, pattern) for pattern in wall_clock_allowlist
        ),
    )


def run_rules(
    ctx: LintContext, rules: Sequence[Rule]
) -> tuple[list[Finding], int]:
    """Run ``rules`` over one prepared context; returns (findings, suppressed)."""
    findings: list[Finding] = []
    suppressed = 0
    for entry in rules:
        for node, message in entry.fn(ctx):
            line = getattr(node, "lineno", 1)
            col = getattr(node, "col_offset", 0)
            if ctx.is_suppressed(entry.rule_id, line):
                suppressed += 1
                continue
            findings.append(
                Finding(
                    rule_id=entry.rule_id,
                    severity=entry.severity,
                    path=ctx.path,
                    line=line,
                    col=col + 1,
                    message=message,
                    hint=entry.hint,
                    snippet=ctx.snippet(line),
                )
            )
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule_id))
    return findings, suppressed


def lint_source(
    source: str,
    path: str = "<string>",
    rules: Sequence[Rule] | None = None,
    wall_clock_allowlist: Iterable[str] = DEFAULT_WALL_CLOCK_ALLOWLIST,
) -> tuple[list[Finding], int]:
    """Lint one module's source; returns (findings, suppressed count).

    With ``rules=None`` only the determinism category runs — the parity
    rule (``ORD002``) has its own entry point in
    :mod:`repro.analysis.parity` and their own baseline.
    """
    ctx = build_context(source, path, wall_clock_allowlist)
    selected = rules if rules is not None else iter_rules(category="determinism")
    return run_rules(ctx, selected)


def iter_python_files(paths: Sequence[str | Path], root: Path) -> Iterator[Path]:
    """Yield every ``*.py`` under ``paths`` (files or directories), sorted."""
    seen: set[Path] = set()
    for raw in paths:
        candidate = Path(raw)
        if not candidate.is_absolute():
            candidate = root / candidate
        if candidate.is_dir():
            files: Iterable[Path] = sorted(candidate.rglob("*.py"))
        elif candidate.suffix == ".py":
            files = [candidate]
        else:
            continue
        for file in files:
            resolved = file.resolve()
            if resolved not in seen:
                seen.add(resolved)
                yield file


def lint_paths(
    paths: Sequence[str | Path],
    root: str | Path | None = None,
    rules: Sequence[Rule] | None = None,
    wall_clock_allowlist: Iterable[str] = DEFAULT_WALL_CLOCK_ALLOWLIST,
) -> tuple[list[Finding], int, int]:
    """Lint files/directories; returns (findings, suppressed, files checked).

    Finding paths are reported relative to ``root`` (default: the current
    working directory) with POSIX separators, so baselines are portable.
    Files the parser rejects are *not* skipped: each yields a
    ``PARSE001`` error finding, so a broken file fails the run.
    """
    root_path = Path(root) if root is not None else Path.cwd()
    findings: list[Finding] = []
    suppressed = 0
    files_checked = 0
    for file in iter_python_files(paths, root_path):
        try:
            rel = file.resolve().relative_to(root_path.resolve())
            shown = rel.as_posix()
        except ValueError:
            shown = file.as_posix()
        try:
            file_findings, file_suppressed = lint_source(
                file.read_text(encoding="utf-8"),
                path=shown,
                rules=rules,
                wall_clock_allowlist=wall_clock_allowlist,
            )
        except SyntaxError as exc:
            findings.append(parse_failure_finding(shown, exc))
            files_checked += 1
            continue
        findings.extend(file_findings)
        suppressed += file_suppressed
        files_checked += 1
    return findings, suppressed, files_checked
