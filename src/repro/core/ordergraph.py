"""Reasoning over conjunctions of dense-order atoms.

A conjunction of atoms over ``{<, <=, =}`` (NE-free; see
:mod:`repro.core.atoms`) is represented as a directed graph whose nodes
are the terms (variables and constants) and whose edges carry a
strictness bit: ``u -> v`` strict means ``u < v``, non-strict means
``u <= v``; ``u = v`` contributes edges both ways.

Because ``(Q, <=)`` is a dense linear order without endpoints, *every*
consistent set of order constraints is realizable: the only sources of
inconsistency are (a) a cycle containing a strict edge, and (b) two
distinct constants forced equal.  Constants carry their numeric order
implicitly (``1 < 2`` holds whether or not stated), which the graph
materializes as edges between consecutive constants present in it.

The graph supports:

* :meth:`OrderGraph.is_satisfiable` -- consistency of the conjunction;
* :meth:`OrderGraph.implies` -- entailment of a single atom;
* :meth:`OrderGraph.relation_between` -- strongest derived relation;
* :meth:`OrderGraph.canonical_atoms` -- a deterministic minimal
  generating set (used to deduplicate generalized tuples);
* :meth:`OrderGraph.bounds` -- the tightest entailed constant bounds of
  each variable (used to decide absorption without entailment calls);
* :meth:`OrderGraph.solve` -- an explicit rational witness (used by the
  sample-point evaluator and by tests).

All methods are exact; complexity is cubic in the number of terms of a
single conjunction, which is small in practice (a generalized tuple
mentions its schema variables plus a handful of constants).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple, Union

from repro.core.atoms import Atom, Op, atom, eq, le, lt
from repro.core.terms import Const, Term, Var, term_key
from repro.errors import TheoryError

__all__ = ["OrderGraph"]

#: closure entry: True = strict path exists, False = weak path only
_Reach = Dict[Term, Dict[Term, bool]]
#: per-variable constant bounds: ``(lo, lo_strict, hi, hi_strict)``
Bounds = Tuple[Optional[Fraction], bool, Optional[Fraction], bool]


class OrderGraph:
    """Entailment graph for one conjunction of NE-free dense-order atoms."""

    def __init__(self, atoms: Iterable[Atom] = ()) -> None:
        self._edges: Dict[Term, Dict[Term, bool]] = {}
        self._nodes: set = set()
        self._closure: Optional[_Reach] = None
        self._sat: Optional[bool] = None
        self._consts: Optional[List[Const]] = None
        for a in atoms:
            self.add(a)

    # ------------------------------------------------------------------ build

    def add(self, a: Atom) -> None:
        """Add one atom to the conjunction."""
        if a.op is Op.NE:
            raise TheoryError("OrderGraph handles NE-free conjunctions only")
        if a.op in (Op.GE, Op.GT):  # pragma: no cover - atoms normalize these away
            raise TheoryError("atoms must be normalized before reaching OrderGraph")
        self._closure = None
        self._sat = None
        self._consts = None
        self._touch(a.left)
        self._touch(a.right)
        if a.op is Op.LT:
            self._edge(a.left, a.right, strict=True)
        elif a.op is Op.LE:
            self._edge(a.left, a.right, strict=False)
        else:  # EQ
            self._edge(a.left, a.right, strict=False)
            self._edge(a.right, a.left, strict=False)

    def _touch(self, node: Term) -> None:
        if node not in self._nodes:
            self._nodes.add(node)
            self._edges.setdefault(node, {})

    def _edge(self, u: Term, v: Term, strict: bool) -> None:
        row = self._edges.setdefault(u, {})
        row[v] = row.get(v, False) or strict

    # ---------------------------------------------------------------- closure

    @property
    def nodes(self) -> FrozenSet[Term]:
        return frozenset(self._nodes)

    def _constant_nodes(self) -> List[Const]:
        if self._consts is None:
            self._consts = sorted(
                (n for n in self._nodes if isinstance(n, Const)), key=lambda c: c.value
            )
        return self._consts

    def _compute_closure(self) -> _Reach:
        if self._closure is not None:
            return self._closure
        reach: _Reach = {u: dict(row) for u, row in self._edges.items()}
        for node in self._nodes:
            reach.setdefault(node, {})
        # materialize the numeric order of the constants present
        consts = self._constant_nodes()
        for lo, hi in zip(consts, consts[1:]):
            row = reach.setdefault(lo, {})
            row[hi] = True
        nodes = list(self._nodes)
        for mid in nodes:
            mid_row = list(reach[mid].items())
            for src in nodes:
                src_row = reach[src]
                if mid not in src_row:
                    continue
                via_strict = src_row[mid]
                for dst, leg_strict in mid_row:
                    strict = via_strict or leg_strict
                    if src_row.get(dst, None) is not True:
                        if dst in src_row:
                            src_row[dst] = src_row[dst] or strict
                        else:
                            src_row[dst] = strict
        self._closure = reach
        return reach

    # ---------------------------------------------------------------- queries

    def is_satisfiable(self) -> bool:
        """True iff the conjunction has a rational solution.

        The verdict is memoized: entailers call this per query, and the
        graph is immutable between :meth:`add` calls.
        """
        if self._sat is not None:
            return self._sat
        self._sat = self._satisfiable()
        return self._sat

    def _satisfiable(self) -> bool:
        reach = self._compute_closure()
        for node, row in reach.items():
            if row.get(node) is True:  # strict cycle
                return False
        # two distinct constants forced equal
        consts = self._constant_nodes()
        for i, c1 in enumerate(consts):
            row = reach.get(c1, {})
            for c2 in consts[i + 1 :]:
                if row.get(c2) is not None and reach.get(c2, {}).get(c1) is not None:
                    return False
        return True

    def relation_between(self, a: Term, b: Term) -> Optional[Op]:
        """Strongest derived relation ``a op b``; None if unconstrained.

        Returns one of ``EQ``, ``LT``, ``LE``, ``GT``, ``GE`` or None.
        Both terms must already occur in the graph (constants that do
        not occur are compared numerically against occurring constants
        only through explicit atoms).
        """
        if a == b:
            return Op.EQ
        if isinstance(a, Const) and isinstance(b, Const):
            return Op.LT if a.value < b.value else (Op.EQ if a.value == b.value else Op.GT)
        reach = self._compute_closure()
        fwd = reach.get(a, {}).get(b)
        bwd = reach.get(b, {}).get(a)
        if fwd is not None and bwd is not None:
            return Op.EQ  # (unsat if either is strict; caller checks satisfiability)
        if fwd is True:
            return Op.LT
        if fwd is False:
            return Op.LE
        if bwd is True:
            return Op.GT
        if bwd is False:
            return Op.GE
        # fall back to numeric reasoning when one side is a constant the
        # graph has never seen (e.g. {x = -1} entails x <= 0)
        if isinstance(b, Const) and b not in self._nodes and a in self._nodes:
            return self._relation_to_fresh_constant(a, b)
        if isinstance(a, Const) and a not in self._nodes and b in self._nodes:
            rel = self._relation_to_fresh_constant(b, a)
            return rel.flipped if rel is not None else None
        return None

    def _relation_to_fresh_constant(self, node: Term, c: Const) -> Optional[Op]:
        """Strongest relation ``node op c`` for a constant not in the graph."""
        reach = self._compute_closure()
        row = reach.get(node, {})
        at_most_c = False
        at_least_c = False
        for other in self._constant_nodes():
            if other in row:  # node </<= other
                if other.value < c.value or (other.value == c.value and row[other]):
                    return Op.LT
                if other.value == c.value:
                    at_most_c = True
            if node in reach.get(other, {}):  # other </<= node
                if other.value > c.value or (other.value == c.value and reach[other][node]):
                    return Op.GT
                if other.value == c.value:
                    at_least_c = True
        if at_most_c and at_least_c:
            return Op.EQ
        if at_most_c:
            return Op.LE
        if at_least_c:
            return Op.GE
        return None

    def implies(self, candidate: Union[Atom, bool]) -> bool:
        """Entailment: does the (satisfiable) conjunction imply ``candidate``?

        An unsatisfiable conjunction implies everything.
        """
        if isinstance(candidate, bool):
            return candidate or not self.is_satisfiable()
        if not self.is_satisfiable():
            return True
        rel = self.relation_between(candidate.left, candidate.right)
        if candidate.op is Op.NE:
            return rel in (Op.LT, Op.GT)
        if rel is None:
            return False
        if candidate.op is Op.EQ:
            return rel is Op.EQ
        if candidate.op is Op.LT:
            return rel is Op.LT
        if candidate.op is Op.LE:
            return rel in (Op.LT, Op.LE, Op.EQ)
        raise TheoryError(f"non-normalized candidate atom {candidate}")

    # ------------------------------------------------------------ equivalence

    def equality_classes(self) -> List[FrozenSet[Term]]:
        """Partition of the nodes into classes forced equal."""
        reach = self._compute_closure()
        seen: set = set()
        classes: List[FrozenSet[Term]] = []
        for node in sorted(self._nodes, key=term_key):
            if node in seen:
                continue
            members = {node}
            row = reach.get(node, {})
            for other in self._nodes:
                if other is node or other in seen:
                    continue
                if other in row and node in reach.get(other, {}):
                    members.add(other)
            seen |= members
            classes.append(frozenset(members))
        return classes

    def _representatives(self) -> Dict[Term, Term]:
        """Map each node to its class representative (a constant if any)."""
        rep: Dict[Term, Term] = {}
        for cls in self.equality_classes():
            consts = sorted((t for t in cls if isinstance(t, Const)), key=term_key)
            members = sorted(cls, key=term_key)
            chosen = consts[0] if consts else members[0]
            for member in cls:
                rep[member] = chosen
        return rep

    def canonical_atoms(self) -> FrozenSet[Atom]:
        """A deterministic minimal atom set generating the same conjunction.

        Raises :class:`TheoryError` on an unsatisfiable conjunction.
        The construction: pick a representative per equality class
        (preferring constants), emit ``member = rep`` equalities, then
        the transitive reduction of the strict/weak order on the
        representatives, dropping constant-to-constant edges (implicit
        in the numeric order).
        """
        if not self.is_satisfiable():
            raise TheoryError("canonical form of an unsatisfiable conjunction")
        rep = self._representatives()
        out: set = set()
        for member, chosen in rep.items():
            if member != chosen:
                made = eq(member, chosen)
                if not isinstance(made, bool):
                    out.add(made)
        reach = self._compute_closure()
        reps = sorted({r for r in rep.values()}, key=term_key)
        # derived relation between representative classes
        edges: Dict[Tuple[Term, Term], bool] = {}
        for i, u in enumerate(reps):
            for v in reps[i + 1 :]:
                rel = self.relation_between(u, v)
                if rel in (Op.LT, Op.LE):
                    edges[(u, v)] = rel is Op.LT
                elif rel in (Op.GT, Op.GE):
                    edges[(v, u)] = rel is Op.GT

        def reachable(a: Term, b: Term) -> Optional[bool]:
            if isinstance(a, Const) and isinstance(b, Const):
                if a.value < b.value:
                    return True
                return None
            entry = reach.get(a, {}).get(b)
            return entry

        for (u, v), strict in edges.items():
            if isinstance(u, Const) and isinstance(v, Const):
                continue  # numeric order is implicit
            redundant = False
            for w in reps:
                if w == u or w == v:
                    continue
                first = reachable(u, w)
                second = reachable(w, v)
                if first is None or second is None:
                    continue
                path_strict = bool(first) or bool(second)
                if path_strict or not strict:
                    redundant = True
                    break
            if not redundant:
                made = lt(u, v) if strict else le(u, v)
                if not isinstance(made, bool):
                    out.add(made)
        return frozenset(out)

    # ---------------------------------------------------------------- bounds

    def bounds(self) -> Dict[Var, Bounds]:
        """The tightest constant bounds the conjunction entails, per variable.

        Maps every variable of the graph to ``(lo, lo_strict, hi,
        hi_strict)``: the conjunction entails ``lo < v`` (``lo <= v``
        when ``lo_strict`` is False) and ``v < hi`` (``v <= hi``), and
        no tighter constant bound.  A missing side is ``None`` with a
        False strictness bit.  Both sides are read off the transitive
        closure, which already carries the numeric order of the
        constants, so the first constant above ``v`` and the last one
        below it are the tightest.  Over a dense order without
        endpoints the interval is exactly the projection of a
        satisfiable conjunction onto ``v``; for an unsatisfiable one
        it is meaningless.
        """
        reach = self._compute_closure()
        consts = self._constant_nodes()  # ascending by value
        out: Dict[Var, Bounds] = {}
        for node in self._nodes:
            if not isinstance(node, Var):
                continue
            row = reach[node]
            lo: Optional[Fraction] = None
            hi: Optional[Fraction] = None
            lo_strict = hi_strict = False
            for c in consts:
                if hi is None and c in row:  # node <= / < c
                    hi, hi_strict = c.value, row[c]
                below = reach[c].get(node)
                if below is not None:  # c <= / < node
                    lo, lo_strict = c.value, below
            out[node] = (lo, lo_strict, hi, hi_strict)
        return out

    # ----------------------------------------------------------------- solve

    def solve(self) -> Optional[Dict[Var, Fraction]]:
        """An explicit rational assignment satisfying the conjunction.

        Returns None when unsatisfiable.  Variables of distinct
        equality classes receive distinct values strictly inside their
        feasible intervals, so the witness also satisfies every
        *implied strict* relation.
        """
        if not self.is_satisfiable():
            return None
        rep = self._representatives()
        reach = self._compute_closure()
        reps = sorted(set(rep.values()), key=term_key)
        values: Dict[Term, Fraction] = {}
        pending = []
        for r in reps:
            if isinstance(r, Const):
                values[r] = r.value
            else:
                pending.append(r)
        bounds = self.bounds()

        # order the variable representatives by the induced partial order
        def preds(node: Term) -> List[Term]:
            result = []
            for other in pending:
                if other == node:
                    continue
                if node in reach.get(other, {}):
                    result.append(other)
            return result

        remaining = list(pending)
        ordered: List[Term] = []
        placed: set = set()
        while remaining:
            progressed = False
            for node in list(remaining):
                if all(p in placed for p in preds(node)):
                    ordered.append(node)
                    placed.add(node)
                    remaining.remove(node)
                    progressed = True
            if not progressed:  # pragma: no cover - impossible once satisfiable
                raise TheoryError("cyclic order among distinct classes")

        for node in ordered:
            lo, _, hi, _ = bounds[node]
            for p in preds(node):
                pv = values[p]
                lo = pv if lo is None else max(lo, pv)
            if lo is None and hi is None:
                values[node] = Fraction(0)
            elif lo is None:
                values[node] = hi - 1
            elif hi is None:
                values[node] = lo + 1
            else:
                if not lo < hi:  # pragma: no cover - guarded by satisfiability
                    raise TheoryError("no interior point available for witness")
                values[node] = (lo + hi) / 2

        witness: Dict[Var, Fraction] = {}
        for node in self._nodes:
            if isinstance(node, Var):
                chosen = rep[node]
                witness[node] = values[chosen] if isinstance(chosen, Var) else chosen.value
        return witness
