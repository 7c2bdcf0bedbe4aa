"""Determinism lint rules and their registry.

Each rule is a function registered with :func:`rule` that walks a parsed
module (via the :class:`~repro.analysis.walker.LintContext` helpers) and
yields ``(node, message)`` pairs; the walker turns those into
:class:`~repro.analysis.report.Finding` objects, applying inline
``# repro: lint-ok[rule-id]`` suppressions.

The registry is pluggable: downstream code (or tests) can register extra
rules with the same decorator; ``ddoshield lint`` picks them up as long
as the module defining them is imported first.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, Iterator

if TYPE_CHECKING:
    from repro.analysis.walker import LintContext

#: A rule yields (offending node, message) pairs for one parsed module.
RuleFn = Callable[["LintContext"], Iterator[tuple[ast.AST, str]]]


@dataclass(frozen=True)
class Rule:
    """Registry entry: identity, severity, fix hint and the check itself.

    ``category`` partitions the registry between the determinism linter
    (``ddoshield lint``) and the event-commutativity checker (``ddoshield
    check-parity``); each command runs only its own category so the two
    analyses keep independent baselines.
    """

    rule_id: str
    severity: str
    hint: str
    fn: RuleFn
    category: str = "determinism"


RULES: dict[str, Rule] = {}


def rule(
    rule_id: str, severity: str, hint: str, category: str = "determinism"
) -> Callable[[RuleFn], RuleFn]:
    """Register a lint rule under ``rule_id`` (e.g. ``RNG001``)."""

    def decorator(fn: RuleFn) -> RuleFn:
        if rule_id in RULES:
            raise ValueError(f"duplicate lint rule id {rule_id!r}")
        RULES[rule_id] = Rule(
            rule_id=rule_id, severity=severity, hint=hint, fn=fn, category=category
        )
        return fn

    return decorator


def iter_rules(
    only: Iterable[str] | None = None, category: str | None = None
) -> list[Rule]:
    """Registered rules, restricted to ``only`` ids and/or a ``category``."""
    if only is None:
        selected = [RULES[key] for key in sorted(RULES)]
    else:
        unknown = set(only) - set(RULES)
        if unknown:
            raise KeyError(f"unknown lint rule id(s): {sorted(unknown)}")
        selected = [RULES[key] for key in sorted(only)]
    if category is not None:
        selected = [entry for entry in selected if entry.category == category]
    return selected


# ----------------------------------------------------------------------
# Shared AST helpers

#: ``random`` module functions that consume the hidden global RNG state.
GLOBAL_RANDOM_FNS = frozenset(
    {
        "betavariate", "choice", "choices", "expovariate", "gauss",
        "getrandbits", "lognormvariate", "normalvariate", "paretovariate",
        "randint", "random", "randrange", "sample", "seed", "shuffle",
        "triangular", "uniform", "vonmisesvariate", "weibullvariate",
    }
)

#: Legacy ``numpy.random`` module-level functions (global RandomState).
GLOBAL_NP_RANDOM_FNS = frozenset(
    {
        "beta", "binomial", "bytes", "chisquare", "choice", "exponential",
        "gamma", "normal", "permutation", "poisson", "rand", "randint",
        "randn", "random", "random_sample", "ranf", "sample", "seed",
        "shuffle", "standard_normal", "uniform",
    }
)

#: Wall-clock reads: (module attribute path, call name).
WALL_CLOCK_TIME_FNS = frozenset(
    {
        "monotonic", "monotonic_ns", "perf_counter", "perf_counter_ns",
        "time", "time_ns",
    }
)
WALL_CLOCK_DATETIME_FNS = frozenset({"now", "today", "utcnow"})

#: Terminal identifiers that mark an expression as simulation-time-like.
TIME_LIKE_NAMES = frozenset({"now", "time", "timestamp"})
TIME_LIKE_SUFFIXES = ("_time", "_timestamp", "_deadline", "_at")


def _terminal_name(node: ast.AST) -> str | None:
    """The last identifier of a Name/Attribute chain (``a.b.now`` → ``now``)."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def _dotted(node: ast.AST) -> str | None:
    """Render a Name/Attribute chain as ``a.b.c`` (None for anything else)."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def _is_time_like(node: ast.AST) -> bool:
    name = _terminal_name(node)
    if name is None:
        return False
    lowered = name.lower()
    return lowered in TIME_LIKE_NAMES or lowered.endswith(TIME_LIKE_SUFFIXES)


# ----------------------------------------------------------------------
# Rules


@rule(
    "RNG001",
    "error",
    "thread a seeded random.Random instance (e.g. self.rng) instead of the "
    "process-global RNG; seeds must flow from the Scenario",
)
def unseeded_global_random(ctx: "LintContext") -> Iterator[tuple[ast.AST, str]]:
    """Calls into the ``random`` module's hidden global generator."""
    random_aliases = ctx.module_aliases("random")
    from_imports = ctx.from_imports("random")
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id in random_aliases
            and func.attr in GLOBAL_RANDOM_FNS
        ):
            yield node, f"call to global-RNG random.{func.attr}()"
        elif (
            isinstance(func, ast.Name)
            and from_imports.get(func.id) in GLOBAL_RANDOM_FNS
        ):
            yield node, (
                f"call to global-RNG random.{from_imports[func.id]}() "
                f"(imported as {func.id})"
            )


@rule(
    "RNG002",
    "error",
    "use a seeded np.random.default_rng(seed) Generator threaded through the "
    "call path instead of numpy's legacy global RandomState",
)
def unseeded_numpy_random(ctx: "LintContext") -> Iterator[tuple[ast.AST, str]]:
    """Calls into ``numpy.random``'s legacy module-level RandomState."""
    numpy_aliases = ctx.module_aliases("numpy")
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if not isinstance(func, ast.Attribute) or func.attr not in GLOBAL_NP_RANDOM_FNS:
            continue
        base = func.value
        if (
            isinstance(base, ast.Attribute)
            and base.attr == "random"
            and isinstance(base.value, ast.Name)
            and base.value.id in numpy_aliases
        ):
            yield node, f"call to legacy global np.random.{func.attr}()"


@rule(
    "TIME001",
    "error",
    "simulation code must consume virtual time (sim.now); wall-clock reads "
    "belong only in benchmarks and CLI entry points",
)
def wall_clock_read(ctx: "LintContext") -> Iterator[tuple[ast.AST, str]]:
    """``time.time()``-style wall-clock reads outside the allowlist."""
    if ctx.wall_clock_allowed:
        return
    time_aliases = ctx.module_aliases("time")
    time_from = ctx.from_imports("time")
    datetime_from = ctx.from_imports("datetime")
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
            base, attr = func.value.id, func.attr
            if base in time_aliases and attr in WALL_CLOCK_TIME_FNS:
                yield node, f"wall-clock read time.{attr}()"
            elif (
                datetime_from.get(base) in ("datetime", "date")
                and attr in WALL_CLOCK_DATETIME_FNS
            ):
                yield node, f"wall-clock read {datetime_from[base]}.{attr}()"
        elif isinstance(func, ast.Attribute) and isinstance(func.value, ast.Attribute):
            dotted = _dotted(func)
            if dotted and dotted.startswith("datetime.") and func.attr in WALL_CLOCK_DATETIME_FNS:
                yield node, f"wall-clock read {dotted}()"
        elif isinstance(func, ast.Name):
            if time_from.get(func.id) in WALL_CLOCK_TIME_FNS:
                yield node, (
                    f"wall-clock read time.{time_from[func.id]}() "
                    f"(imported as {func.id})"
                )


@rule(
    "ORD001",
    "error",
    "set iteration order is not reproducible across processes; iterate "
    "sorted(the_set) (and replace set.pop() with an ordered pop)",
)
def unordered_set_iteration(ctx: "LintContext") -> Iterator[tuple[ast.AST, str]]:
    """Iteration over a ``set`` (or ``set.pop()``) without ``sorted``."""

    def is_set_expr(node: ast.AST) -> str | None:
        """Describe why ``node`` is set-typed, or None."""
        if isinstance(node, ast.Set):
            return "a set literal"
        if isinstance(node, ast.SetComp):
            return "a set comprehension"
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            if node.func.id in ("set", "frozenset"):
                return f"a {node.func.id}(...) call"
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr in ("union", "intersection", "difference",
                                  "symmetric_difference") and is_set_expr(node.func.value):
                return f"a set.{node.func.attr}(...) result"
        name = _dotted(node)
        if name is not None and name in ctx.set_typed_names:
            return f"{name!r}, inferred as a set"
        return None

    for node in ast.walk(ctx.tree):
        iterables: list[ast.AST] = []
        if isinstance(node, ast.For):
            iterables.append(node.iter)
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
            iterables.extend(gen.iter for gen in node.generators)
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "pop"
            and not node.args
            and not node.keywords
            and is_set_expr(node.func.value)
        ):
            why = is_set_expr(node.func.value)
            yield node, f"set.pop() removes an arbitrary element ({why})"
            continue
        for iterable in iterables:
            why = is_set_expr(iterable)
            if why is not None:
                yield iterable, f"iteration over unordered set ({why})"


@rule(
    "FLT001",
    "error",
    "float equality against simulation time is brittle (accumulated float "
    "error); compare window indices or use an explicit tolerance",
)
def float_time_equality(ctx: "LintContext") -> Iterator[tuple[ast.AST, str]]:
    """``==`` / ``!=`` where either operand looks like simulation time."""
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Compare):
            continue
        operands = [node.left, *node.comparators]
        for op, left, right in zip(node.ops, operands, operands[1:]):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            # Comparisons against None/sentinels are identity checks, and
            # int-literal comparisons (e.g. ``seq == 0``) are exact.
            if any(
                isinstance(side, ast.Constant)
                and (side.value is None or isinstance(side.value, (int, str, bool))
                     and not isinstance(side.value, float))
                for side in (left, right)
            ):
                continue
            if _is_time_like(left) or _is_time_like(right):
                kind = "==" if isinstance(op, ast.Eq) else "!="
                yield node, f"float {kind} comparison against simulation time"
                break


@rule(
    "MUT001",
    "error",
    "mutable default arguments alias state across calls (and across "
    "scenarios); default to None and construct inside the function",
)
def mutable_default_argument(ctx: "LintContext") -> Iterator[tuple[ast.AST, str]]:
    """``def f(x=[])``-style defaults."""
    mutable_ctors = {"list", "dict", "set", "bytearray", "deque", "defaultdict"}
    for node in ast.walk(ctx.tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        defaults = list(node.args.defaults) + [
            d for d in node.args.kw_defaults if d is not None
        ]
        for default in defaults:
            if isinstance(default, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                                    ast.DictComp, ast.SetComp)):
                yield default, f"mutable default argument in {node.name}()"
            elif (
                isinstance(default, ast.Call)
                and isinstance(default.func, ast.Name)
                and default.func.id in mutable_ctors
            ):
                yield default, (
                    f"mutable default argument {default.func.id}() in {node.name}()"
                )


@rule(
    "ID001",
    "warning",
    "id() values differ between runs; break ties with a stable field "
    "(sequence number, name) instead",
)
def id_based_tiebreak(ctx: "LintContext") -> Iterator[tuple[ast.AST, str]]:
    """``id()`` used for ordering: in sort keys or comparisons."""
    for node in ast.walk(ctx.tree):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "id"
            and len(node.args) == 1
        ):
            continue
        ancestor = ctx.parents.get(node)
        while ancestor is not None:
            if isinstance(ancestor, ast.Compare):
                yield node, "id() used in a comparison (nondeterministic order)"
                break
            if (
                isinstance(ancestor, ast.Call)
                and isinstance(ancestor.func, ast.Name)
                and ancestor.func.id in ("sorted", "min", "max")
            ):
                yield node, f"id() used inside {ancestor.func.id}() (nondeterministic order)"
                break
            ancestor = ctx.parents.get(ancestor)
