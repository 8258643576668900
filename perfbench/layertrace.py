"""Per-layer tracing from outside the program.

:func:`install` wraps the public entry points of each layer -- module
functions where their callers look them up, methods on the classes --
and :func:`uninstall` puts the originals back.  Nothing under ``src/``
changes, and the program's own ``repro.obs`` tracer stays off.

A *span* covers one call into a layer: name, start, end and the span
that caused it.  A layer's self time is its spans' durations minus the
time their child spans cover, so the self times of all spans inside a
request add up to the request's wall time.  Spans of the coarse layers
(Datalog engine, evaluator, relation algebra) are kept in memory and
written out when the run ends; the hot theory calls are spans too (they
take their time out of their caller's self time) but are only summed,
because a run makes hundreds of thousands of them.  The hottest leaves
-- ``GTuple`` methods, ``Fraction`` arithmetic and comparisons, and the
theory's satisfiability and entailer constructors -- are counted
without a clock.

Absorption is not wrapped: inside ``complement`` it is complement's
self time, and reached through ``simplify`` it is simplify's.
"""

from __future__ import annotations

import fractions
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional, Tuple

from repro.core import evaluator
from repro.core.gtuple import GTuple
from repro.core.relation import Relation
from repro.core.theory import DenseOrderTheory
from repro.datalog import engine
from repro.linear.theory import LinearTheory

#: relation-algebra operators timed as layers (binary ones add the
#: right operand's tuples to ``in_tuples``)
RELATION_OPS = ("join", "project", "complement", "intersection", "union", "select", "simplify")
_BINARY_OPS = {"join", "intersection", "union"}
#: theory methods timed as spans (summed, not kept)
THEORY_TIMED = ("canonicalize_if_satisfiable", "project_out")
#: theory methods counted only
THEORY_COUNTED = ("is_satisfiable", "make_entailer")
GTUPLE_COUNTED = ("entails", "merge", "make", "project_out_all")
_FRACTION_OPS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__floordiv__", "__rfloordiv__",
    "__mod__", "__rmod__", "__pow__", "__rpow__", "__neg__", "__abs__",
    "__eq__", "__lt__", "__le__", "__gt__", "__ge__",
)

#: the root span the benchmark opens around each request
ROOT = "request"


class LayerTracer:
    """Spans, self times and counts for one traced run."""

    def __init__(self) -> None:
        #: open spans: [name, start, child_seconds, span_id]
        self._stack: List[list] = []
        self._next_id = 0
        #: kept spans: (span_id, name, start, end, parent_id)
        self.spans: List[Tuple[int, str, float, float, Optional[int]]] = []
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.tuples_in: Counter = Counter()
        self.tuples_out: Counter = Counter()
        #: sum of |L| * |R| over join calls
        self.join_pairs = 0
        self.fraction_ops = 0
        self._patches: List[Tuple[object, str, object, bool]] = []

    # ---------------------------------------------------------------- spans

    def enter(self, name: str) -> None:
        self._stack.append([name, time.perf_counter(), 0.0, self._next_id])
        self._next_id += 1

    def exit(self, keep: bool = True) -> None:
        """Close the innermost span."""
        end = time.perf_counter()
        name, start, child, span_id = self._stack.pop()
        duration = end - start
        self.self_s[name] += duration - child
        self.calls[name] += 1
        if self._stack:
            parent = self._stack[-1]
            parent[2] += duration
            parent_id = parent[3]
        else:
            parent_id = None
        if keep:
            self.spans.append((span_id, name, start, end, parent_id))

    # ------------------------------------------------------------- patching

    def _patch(self, owner: object, attr: str, replacement: object) -> None:
        had_own = attr in vars(owner) if isinstance(owner, type) else True
        original = vars(owner)[attr] if had_own else getattr(owner, attr)
        self._patches.append((owner, attr, original, had_own))
        setattr(owner, attr, replacement)

    def _timed(self, name: str, fn: Callable, keep: bool = True) -> Callable:
        enter, exit_ = self.enter, self.exit

        def wrapper(*args, **kwargs):
            enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                exit_(keep)

        return wrapper

    def _counted(self, name: str, fn: Callable) -> Callable:
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _relation_op(self, op: str, fn: Callable) -> Callable:
        name = f"relation.{op}"
        enter, exit_ = self.enter, self.exit
        tuples_in, tuples_out = self.tuples_in, self.tuples_out
        binary = op in _BINARY_OPS
        tracer = self

        def wrapper(relation, *args, **kwargs):
            size = len(relation.tuples)
            if binary:
                other = len(args[0].tuples)
                if op == "join":
                    tracer.join_pairs += size * other
                size += other
            tuples_in[name] += size
            enter(name)
            try:
                result = fn(relation, *args, **kwargs)
            finally:
                exit_(True)
            tuples_out[name] += len(result.tuples)
            return result

        return wrapper

    def _count_fraction(self, fn: Callable) -> Callable:
        tracer = self

        def wrapper(*args):
            tracer.fraction_ops += 1
            return fn(*args)

        return wrapper

    def install(self) -> None:
        """Wrap every layer's entry points (idempotent only via uninstall)."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        self._patch(engine, "evaluate_program", self._timed("datalog", engine.evaluate_program))
        # the engine calls the evaluator through its own module global
        self._patch(engine, "evaluate", self._timed("evaluator", engine.evaluate))
        self._patch(evaluator, "evaluate", self._timed("evaluator", evaluator.evaluate))
        self._patch(evaluator, "evaluate_boolean",
                    self._timed("evaluator", evaluator.evaluate_boolean))
        for op in RELATION_OPS:
            self._patch(Relation, op, self._relation_op(op, getattr(Relation, op)))
        for method in GTUPLE_COUNTED:
            raw = vars(GTuple)[method]
            if isinstance(raw, classmethod):
                self._patch(GTuple, method,
                            classmethod(self._counted(f"gtuple.{method}", raw.__func__)))
            else:
                self._patch(GTuple, method, self._counted(f"gtuple.{method}", raw))
        for cls in (DenseOrderTheory, LinearTheory):
            for method in THEORY_TIMED:
                self._patch(cls, method, self._timed(
                    f"theory.{method}", getattr(cls, method), keep=False))
            for method in THEORY_COUNTED:
                self._patch(cls, method, self._counted(f"theory.{method}", getattr(cls, method)))
        for method in _FRACTION_OPS:
            self._patch(fractions.Fraction, method,
                        self._count_fraction(getattr(fractions.Fraction, method)))

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attr, original, had_own = self._patches.pop()
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
