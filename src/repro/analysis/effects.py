"""Per-method effect summaries for the event-commutativity analyzer.

Two event handlers that run at the same ``(time, priority)`` commute
only if neither order-sensitively assigns state the other touches
(rule ORD002).  This module extracts a conservative, purely syntactic
summary of what one method does to its instance:

* ``writes``   — dotted ``self`` attribute paths assigned, aug-assigned,
  ``del``-ed or mutated in place (``self.items.append(...)``);
* ``counters`` — the subset of writes that are ``+=`` / ``-=`` bumps
  (commutative accumulations);
* ``assigns``  — the subset written by plain (order-sensitive)
  assignment or a non-additive aug-assign;
* ``reads``    — ``self`` attribute paths loaded;
* ``calls``    — dotted call paths rooted at ``self`` (``tcp.receive``,
  ``_forward``); single-segment entries that name a sibling method are
  expanded transitively by :func:`class_effects`.

Subscripts are collapsed (``self.blocked_until[src]`` reads/writes
``blocked_until``) and local variables are ignored — the summary is a
set-level contract, not a dataflow analysis.  That is exactly the
granularity ORD002 needs: "this handler assigns ``_busy`` and its
bucket mate reads it" is a real race regardless of how the value flows.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

#: In-place mutators: a call ``self.x.<name>(...)`` counts as a write of
#: ``x``.  Covers list/set/dict/deque mutation used on the hot paths.
MUTATOR_METHODS = frozenset(
    {
        "append", "appendleft", "add", "clear", "discard", "extend",
        "extendleft", "insert", "pop", "popleft", "remove", "setdefault",
        "sort", "update",
    }
)

FunctionNode = ast.FunctionDef | ast.AsyncFunctionDef


@dataclass(frozen=True)
class EffectSummary:
    """What one method does to ``self`` (see module docstring)."""

    writes: frozenset[str] = frozenset()
    counters: frozenset[str] = frozenset()
    assigns: frozenset[str] = frozenset()
    reads: frozenset[str] = frozenset()
    calls: frozenset[str] = frozenset()

    def merge(self, other: "EffectSummary") -> "EffectSummary":
        return EffectSummary(
            writes=self.writes | other.writes,
            counters=self.counters | other.counters,
            assigns=self.assigns | other.assigns,
            reads=self.reads | other.reads,
            calls=self.calls | other.calls,
        )


def self_path(node: ast.AST, self_name: str = "self") -> str | None:
    """Dotted path of an attribute chain rooted at ``self``, or None.

    ``self.tcp.receive`` → ``"tcp.receive"``; subscripts collapse onto
    their base (``self.blocked_until[src]`` → ``"blocked_until"``).
    """
    parts: list[str] = []
    while True:
        if isinstance(node, ast.Subscript):
            node = node.value
        elif isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        else:
            break
    if not (isinstance(node, ast.Name) and node.id == self_name and parts):
        return None
    return ".".join(reversed(parts))


def _first_arg_name(func: FunctionNode) -> str:
    args = func.args.posonlyargs + func.args.args
    return args[0].arg if args else "self"


def summarize_method(func: FunctionNode) -> EffectSummary:
    """Extract the direct (non-transitive) effect summary of one method."""
    self_name = _first_arg_name(func)
    writes: set[str] = set()
    counters: set[str] = set()
    assigns: set[str] = set()
    reads: set[str] = set()
    calls: set[str] = set()

    def record_write(target: ast.AST, commutative: bool) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                record_write(element, commutative)
            return
        if isinstance(target, ast.Starred):
            record_write(target.value, commutative)
            return
        path = self_path(target, self_name)
        if path is None:
            return
        writes.add(path)
        (counters if commutative else assigns).add(path)

    for node in ast.walk(func):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                record_write(target, commutative=False)
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            record_write(node.target, commutative=False)
        elif isinstance(node, ast.AugAssign):
            record_write(
                node.target, commutative=isinstance(node.op, (ast.Add, ast.Sub))
            )
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                record_write(target, commutative=True)
        elif isinstance(node, ast.Call):
            path = self_path(node.func, self_name)
            if path is None:
                continue
            calls.add(path)
            head, _, method = path.rpartition(".")
            if head and method in MUTATOR_METHODS:
                # self.items.append(...) mutates self.items in place.
                writes.add(head)
                counters.add(head)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            path = self_path(node, self_name)
            if path is not None:
                reads.add(path)

    return EffectSummary(
        writes=frozenset(writes),
        counters=frozenset(counters),
        assigns=frozenset(assigns),
        reads=frozenset(reads),
        calls=frozenset(calls),
    )


@dataclass
class ClassEffects:
    """All methods of one class plus their direct and transitive effects."""

    name: str
    node: ast.ClassDef
    methods: dict[str, FunctionNode] = field(default_factory=dict)
    direct: dict[str, EffectSummary] = field(default_factory=dict)
    _closures: dict[str, EffectSummary] = field(default_factory=dict)

    def closure(self, method: str) -> EffectSummary:
        """Effects of ``method`` including sibling methods it calls.

        Single-segment call paths that name another method of the same
        class are expanded to a fixpoint (cycles are fine); collaborator
        calls (``tcp.receive``) stay in ``calls`` unexpanded.
        """
        cached = self._closures.get(method)
        if cached is not None:
            return cached
        merged = EffectSummary()
        visited: set[str] = set()
        frontier = [method]
        while frontier:
            name = frontier.pop()
            if name in visited or name not in self.direct:
                continue
            visited.add(name)
            summary = self.direct[name]
            merged = merged.merge(summary)
            frontier.extend(
                callee
                for callee in summary.calls
                if "." not in callee and callee in self.methods
            )
        # Expanded sibling calls are internal plumbing, not part of the
        # observable contract — keep only collaborator calls.
        merged = EffectSummary(
            writes=merged.writes,
            counters=merged.counters,
            assigns=merged.assigns,
            reads=merged.reads,
            calls=frozenset(
                c for c in merged.calls if "." in c or c not in self.methods
            ),
        )
        self._closures[method] = merged
        return merged


def collect_class_effects(tree: ast.Module) -> list[ClassEffects]:
    """Effect summaries for every class in a parsed module (top level or
    nested — ``ast.walk`` finds them all; methods are the direct
    function children of the class body)."""
    result: list[ClassEffects] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        info = ClassEffects(name=node.name, node=node)
        for child in node.body:
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                info.methods[child.name] = child
                info.direct[child.name] = summarize_method(child)
        result.append(info)
    return result

