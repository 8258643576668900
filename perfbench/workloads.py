"""The four benchmark workloads: seeded inputs, requests, reference checks.

Every workload is a closed loop with one client: one *request* at a
time, the next sent only after the previous answer returns.  A request
is a fixed, short list of queries from one of the paper's languages;
``Instance.requests`` is the cycle the client walks round.

Inputs are made from the seed alone, and every seed gives the same
*shape* -- the same tuple, atom and answer counts, with only the
constants permuted -- so that runs on different seeds measure the same
amount of work and the spread between them is machine noise, not input
luck.  Each generator says below how it keeps the shape fixed.

Every answer is checked against a reference that does not share the
closed-form algebra: a BFS closure, the sample-point semantics of
``repro.core.sampling``, nested loops over the edge list, or exact
interval arithmetic.  ``check`` returns a list of problems (empty when
the answer is right).
"""

from __future__ import annotations

import hashlib
import random
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.core import evaluator
from repro.core.atoms import Op, le, lt
from repro.core.database import Database
from repro.core.formula import Not, constraint, exists, forall, rel
from repro.core.relation import Relation
from repro.core.sampling import eval_at, evaluate_sentence, sample_points
from repro.core.terms import Const, Var
from repro.datalog import engine
from repro.linear.latoms import lin_eq, lin_le
from repro.linear.theory import LINEAR
from repro.queries.library import (
    bounded_query,
    contains_open_interval_query,
    is_dense_in_itself_query,
    transitive_closure_program,
)

Point = Tuple[Fraction, ...]


@dataclass
class Answer:
    """What one request returned: relations and booleans, in query order."""

    parts: Tuple[object, ...]
    rounds: int = 0

    def relations(self) -> List[Relation]:
        return [p for p in self.parts if isinstance(p, Relation)]

    def atoms(self) -> int:
        return sum(len(t.atoms) for r in self.relations() for t in r.tuples)

    def tuples(self) -> int:
        return sum(len(r.tuples) for r in self.relations())

    def fingerprint(self) -> str:
        """Equal for answers with the same representation, also across
        processes."""
        text = []
        for p in self.parts:
            if isinstance(p, Relation):
                rows = sorted(" and ".join(sorted(str(a) for a in t.atoms)) for t in p.tuples)
                text.append(repr((p.schema, rows)))
            else:
                text.append(repr(p))
        return hashlib.sha256("\n".join(text).encode()).hexdigest()


@dataclass
class Request:
    run: Callable[[], Answer]
    check: Callable[[Answer], List[str]]


@dataclass
class Instance:
    database: Database
    requests: List[Request]

    def input_shape(self) -> Dict[str, int]:
        tuples = atoms = 0
        for _, relation in self.database.items():
            tuples += len(relation.tuples)
            atoms += sum(len(t.atoms) for t in relation.tuples)
        return {
            "input_tuples": tuples,
            "input_atoms": atoms,
            "input_constants": len(self.database.constants()),
        }


@dataclass(frozen=True)
class Workload:
    """One workload; why each was chosen is in BENCHMARK.json and the
    README beside this file."""

    name: str
    #: the input-size parameter the benchmark runs at (vertices,
    #: intervals or segments; see each generator)
    size: int
    build: Callable[[int, int], Instance]


# ------------------------------------------------------------- helpers


def _point_set(relation: Relation) -> Optional[Set[Point]]:
    """The points a relation of point tuples denotes; None when some
    tuple is not a single point (every column pinned by ``col = c``)."""
    out: Set[Point] = set()
    for t in relation.tuples:
        pinned: Dict[str, Fraction] = {}
        for a in t.atoms:
            if getattr(a, "op", None) is not Op.EQ:
                return None
            if isinstance(a.left, Var) and isinstance(a.right, Const):
                pinned[a.left.name] = a.right.value
            elif isinstance(a.right, Var) and isinstance(a.left, Const):
                pinned[a.right.name] = a.left.value
            else:
                return None
        if set(pinned) != set(relation.schema):
            return None
        out.add(tuple(pinned[c] for c in relation.schema))
    return out


def _compare_points(label: str, got: Relation, want: Set[Point]) -> List[str]:
    points = _point_set(got)
    if points is None:
        return [f"{label}: answer has a tuple that is not a single point"]
    if len(points) != len(got.tuples):
        return [f"{label}: answer repeats a point ({len(got.tuples)} tuples)"]
    problems = []
    if points - want:
        problems.append(f"{label}: {len(points - want)} point(s) not in the reference")
    if want - points:
        problems.append(f"{label}: {len(want - points)} reference point(s) missing")
    return problems


def _parts_shape(answer: Answer, kinds: Sequence[type]) -> List[str]:
    if len(answer.parts) != len(kinds) or not all(
        isinstance(p, k) for p, k in zip(answer.parts, kinds)
    ):
        return [f"answer has the wrong parts: {[type(p).__name__ for p in answer.parts]}"]
    return []


# ---------------------------------------------------------- datalog_tc


def build_datalog_tc(seed: int, size: int) -> Instance:
    """A directed path through all ``size`` vertices in a seeded order.

    Naive inflationary transitive closure takes about ``size`` rounds
    and answers ``size * (size - 1) / 2`` point pairs on every seed;
    the seed only decides which constant sits where on the path.
    """
    order = list(range(size))
    random.Random(seed).shuffle(order)
    edges = list(zip(order, order[1:]))
    db = Database()
    db["E"] = Relation.from_points(("x", "y"), edges)
    program = transitive_closure_program()

    successors: Dict[int, List[int]] = {}
    for a, b in edges:
        successors.setdefault(a, []).append(b)
    closure: Set[Point] = set()
    for start in order:  # breadth-first search from every vertex
        reached: Set[int] = set()
        frontier = deque([start])
        while frontier:
            for node in successors.get(frontier.popleft(), ()):
                if node not in reached:
                    reached.add(node)
                    frontier.append(node)
        closure |= {(Fraction(start), Fraction(node)) for node in reached}

    def run() -> Answer:
        result = engine.evaluate_program(program, db)
        return Answer((result["tc"],), rounds=result.rounds)

    def check(answer: Answer) -> List[str]:
        return _parts_shape(answer, [Relation]) or _compare_points(
            "tc", answer.parts[0], closure
        )

    return Instance(db, [Request(run, check)])


# --------------------------------------------------------- fo_negation


def _interval_atoms(lo: Fraction, hi: Fraction, lo_open: bool, hi_open: bool):
    x = Var("x")
    if lo == hi:
        return [le(x, lo), le(lo, x)]
    return [lt(lo, x) if lo_open else le(lo, x), lt(x, hi) if hi_open else le(x, hi)]


def build_fo_negation(seed: int, size: int) -> Instance:
    """``size`` intervals in overlapping pairs, plus one isolated point.

    The stored representation keeps the overlaps (a constraint database
    does not normalise its input), so complement distributes over
    overlapping interval tuples and absorbs the results.  Endpoints are
    ``2 * size + 1`` distinct seeded four-digit integers (so that the
    string order complement sorts tuples by is their numeric order on
    every seed); pair ``c`` is ``[v4c, v4c+2]`` and ``[v4c+1, v4c+3]``
    with a fixed pattern of open and closed ends, and the point sits in
    the middle gap.  So every seed gives
    ``size / 2 + 1`` components: bounded and with interior (true), dense
    in itself (false, because of the point), and a complement of
    ``size / 2 + 2`` tuples.
    """
    if size % 2:
        raise ValueError("fo_negation needs an even interval count")
    rng = random.Random(seed)
    values = sorted(Fraction(v) for v in rng.sample(range(1000, 10000), 2 * size + 1))
    middle = size // 2 // 2 * 4  # start of the pair after the point
    point = values[middle]
    rest = values[:middle] + values[middle + 1:]
    intervals = [(point, point, False, False)]
    for c in range(size // 2):
        v = rest[4 * c: 4 * c + 4]
        intervals.append((v[0], v[2], c % 2 == 0, c % 3 == 0))
        intervals.append((v[1], v[3], c % 3 == 1, c % 2 == 1))
    db = Database()
    db["S"] = Relation.from_atoms(("x",), [_interval_atoms(*iv) for iv in intervals])

    sentences = [
        bounded_query("S"),
        contains_open_interval_query("S"),
        is_dense_in_itself_query("S"),
    ]
    negation = Not(rel("S", "x"))
    x = Var("x")

    def run() -> Answer:
        parts: List[object] = [evaluator.evaluate_boolean(s, db) for s in sentences]
        parts.append(evaluator.evaluate(negation, db))
        return Answer(tuple(parts))

    def check(answer: Answer) -> List[str]:
        problems = _parts_shape(answer, [bool, bool, bool, Relation])
        if problems:
            return problems
        for sentence, got in zip(sentences, answer.parts):
            if evaluate_sentence(sentence, db) != got:
                problems.append(f"sentence {str(sentence)[:40]}...: answered {got}")
        complement = answer.parts[3]
        for p in sample_points(db.constants() | complement.constants()):
            if eval_at(negation, db, {x: p}) != complement.contains_point([p]):
                problems.append(f"not S(x): wrong at x = {p}")
                break
        return problems

    return Instance(db, [Request(run, check)])


# ------------------------------------------------------------- fo_join

#: the second chord of the circulant graph, as a share of the vertex count
_CHORD = 0.3
#: source partitions of the edge relation; a request joins one of them
#: against the whole relation, and the cycle visits every partition
JOIN_PARTITIONS = 16


def build_fo_join(seed: int, size: int) -> Instance:
    """A seeded relabelling of an out-degree-2 circulant graph.

    Vertex ``s`` of the circulant has edges to ``s + 1`` and
    ``s + k`` (mod ``size``), so every vertex has the same two- and
    three-hop fan-out and every seed the same join sizes; the seed
    picks the constant each vertex carries.  The edge relation ``E`` is
    also stored as ``JOIN_PARTITIONS`` relations ``P0, P1, ...`` by
    source-constant range.  Request ``j`` runs the two-hop join and the
    filtered three-hop join from partition ``j``; the cycle visits the
    partitions in a seeded order, so the join working set of a whole
    cycle (which exceeds the kernel cache at the default size) is
    revisited only after every other partition has been.
    """
    rng = random.Random(seed)
    label = list(range(size))
    rng.shuffle(label)
    chord = max(2, int(size * _CHORD))
    edges = sorted(
        {(label[s], label[(s + 1) % size]) for s in range(size)}
        | {(label[s], label[(s + chord) % size]) for s in range(size)}
    )
    db = Database()
    db["E"] = Relation.from_points(("x", "y"), edges)
    width = -(-size // JOIN_PARTITIONS)
    parts = [[e for e in edges if j * width <= e[0] < (j + 1) * width]
             for j in range(JOIN_PARTITIONS)]
    for j, part in enumerate(parts):
        db[f"P{j}"] = Relation.from_points(("x", "y"), part)

    def requests_for(j: int) -> Request:
        name = f"P{j}"
        two = exists("y", rel(name, "x", "y") & rel("E", "y", "z"))
        three = exists(
            ["y", "w"],
            rel(name, "x", "y") & rel("E", "y", "w") & rel("E", "w", "z")
            & constraint(lt("x", "z")),
        )

        def run() -> Answer:
            return Answer((evaluator.evaluate(two, db), evaluator.evaluate(three, db)))

        def check(answer: Answer) -> List[str]:
            problems = _parts_shape(answer, [Relation, Relation])
            if problems:
                return problems
            want_two: Set[Point] = set()
            want_three: Set[Point] = set()
            for a, b in parts[j]:  # nested loops over the finite edge list
                for b2, c in edges:
                    if b2 != b:
                        continue
                    want_two.add((Fraction(a), Fraction(c)))
                    for c2, d in edges:
                        if c2 == c and a < d:
                            want_three.add((Fraction(a), Fraction(d)))
            return _compare_points(f"{name} two-hop", answer.parts[0], want_two) + \
                _compare_points(f"{name} three-hop", answer.parts[1], want_three)

        return Request(run, check)

    order = list(range(JOIN_PARTITIONS))
    rng.shuffle(order)
    return Instance(db, [requests_for(j) for j in order])


# ------------------------------------------------------- foplus_linear

#: segment ends are four-digit integers, so ``x + y <= 2 * _HIGH`` holds
_LOW, _HIGH = 1000, 9999
_MAX_WIDTH = 50


def _segments(rng: random.Random, count: int) -> List[Tuple[int, int]]:
    """``count`` integer segments whose pairwise midpoint intervals and
    halved intervals are all distinct, so the answers have the same
    tuple count on every seed."""
    while True:
        segs = []
        for _ in range(count):
            lo = rng.randint(_LOW, _HIGH - _MAX_WIDTH)
            segs.append((lo, lo + rng.randint(1, _MAX_WIDTH)))
        sums = {(a[0] + b[0], a[1] + b[1])
                for i, a in enumerate(segs) for b in segs[i:]}
        if len(sums) == count * (count + 1) // 2 and len(set(segs)) == count:
            return segs


def _union_problems(label: str, got: Relation, want: List[Tuple[Fraction, Fraction]]) -> List[str]:
    """Compare a unary answer with a union of closed intervals, exactly.

    Both sides are finite unions of intervals whose ends lie in
    ``points``: the reference's ends, and the answer's constant terms up
    to sign (a unary linear atom is normalised to ``+-x + c op 0``, so
    its bound is ``c`` or ``-c``).  Membership is constant between
    neighbouring points, so probing every point, every midpoint between
    neighbours and one point beyond each end decides equality."""
    points = sorted({v for iv in want for v in iv}
                    | {sign * c for c in got.constants() for sign in (1, -1)})
    probes = points + [(a + b) / 2 for a, b in zip(points, points[1:])]
    for v in probes + [points[0] - 1, points[-1] + 1]:
        inside = any(lo <= v <= hi for lo, hi in want)
        if got.contains_point([v]) != inside:
            verdict = "misses" if inside else "contains"
            return [f"{label}: answer {verdict} {v}, unlike the reference"]
    return []


def build_foplus_linear(seed: int, size: int) -> Instance:
    """``size`` seeded integer segments under the LINEAR theory.

    Requests run the FO+ midpoint query, the scaled-membership query
    ``{x | 2x in S}`` and the sum-bound sentence.  Every seed gives
    ``size * (size + 1) / 2`` distinct midpoint intervals and a true
    sum bound.  The sentence is written with nested quantifiers,
    ``forall x (S(x) -> forall y (S(y) -> x + y <= b))``: the prenex
    form complements ``size ** 2`` boxes under LINEAR, which grows
    exponentially (1.6 s at 6 segments, 16 s at 8 on a 2-core x86 box)
    and with the order complement happens to visit them in.
    """
    segs = _segments(random.Random(seed), size)
    db = Database(theory=LINEAR)
    db["S"] = Relation.from_atoms(("x",), [[lin_le(a, "x"), lin_le("x", b)] for a, b in segs], LINEAR)
    bound = 2 * _HIGH
    midpoint = exists(
        ["mx", "my"],
        rel("S", "mx") & rel("S", "my") & constraint(lin_eq({"mx": 1, "my": 1}, {"z": 2})),
    )
    scaled = exists("s", rel("S", "s") & constraint(lin_eq({"s": 1}, {"x": 2})))
    sum_bound = forall("x", rel("S", "x").implies(
        forall("y", rel("S", "y").implies(constraint(lin_le({"x": 1, "y": 1}, bound))))))
    half = Fraction(1, 2)
    want_mid = [((a[0] + b[0]) * half, (a[1] + b[1]) * half)
                for i, a in enumerate(segs) for b in segs[i:]]
    want_scaled = [(a * half, b * half) for a, b in segs]
    want_bound = 2 * max(b for _, b in segs) <= bound

    def run() -> Answer:
        return Answer((
            evaluator.evaluate(midpoint, db, LINEAR),
            evaluator.evaluate(scaled, db, LINEAR),
            evaluator.evaluate_boolean(sum_bound, db, LINEAR),
        ))

    def check(answer: Answer) -> List[str]:
        problems = _parts_shape(answer, [Relation, Relation, bool])
        if problems:
            return problems
        problems += _union_problems("midpoint", answer.parts[0], want_mid)
        problems += _union_problems("scaled", answer.parts[1], want_scaled)
        if answer.parts[2] != want_bound:
            problems.append(f"sum bound: answered {answer.parts[2]}, reference {want_bound}")
        return problems

    return Instance(db, [Request(run, check)])


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("datalog_tc", 12, build_datalog_tc),
        Workload("fo_negation", 10, build_fo_negation),
        Workload("fo_join", 320, build_fo_join),
        Workload("foplus_linear", 8, build_foplus_linear),
    )
}
