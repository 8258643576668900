"""Budget-truncated fixpoints are sound: partial ⊆ full, for every IDB.

Every inflationary engine documents ``on_budget="partial"`` as a sound
under-approximation: each completed round only adds tuples, so any
prefix of the iteration lies inside the fixpoint.  The stratified
engine stops at the stratum the budget cut, so every relation it
returns is either complete or a round prefix of a stratum whose
negated inputs are complete.  These tests check that claim with exact
pointset containment (:meth:`Relation.contains`) rather than a few
probe points, for every round cap below the full round count and for
a few tuple caps.

``evaluate_while`` is left out on purpose: replacement semantics is
non-monotone and its partial result is documented as best effort.
"""

from __future__ import annotations

import pytest

from repro.cobjects.calculus import CAnd, CExists, CNot, COr
from repro.cobjects.fixpoint import FixpointQuery, PartialRelation, evaluate_fixpoint
from repro.core.database import Database
from repro.core.relation import Relation
from repro.datalog.ast import Program, negated, pred, rule
from repro.datalog.engine import evaluate_program
from repro.datalog.finite import FiniteInstance, evaluate_finite
from repro.datalog.seminaive import evaluate_seminaive
from repro.datalog.stratified import evaluate_stratified
from repro.queries.library import transitive_closure_program
from repro.runtime.budget import Budget
from tests.runtime.test_budgeted_evaluation import R, tc_step

#: a 7-vertex path plus a back edge closing the cycle 1 -> ... -> 5 -> 1:
#: the negated literal below removes the pairs on that cycle, and a
#: round prefix of ``reach`` is too short to see most of them
EDGES = [(i, i + 1) for i in range(6)] + [(5, 1)]
PATH = [(i, i + 1) for i in range(6)]

TUPLE_CAPS = (1, 4, 12, 30)


def one_way_program() -> Program:
    """Reachability plus the pairs that cannot reach back (negated IDB)."""
    return Program(
        [
            rule("reach", ["x", "y"], pred("E", "x", "y")),
            rule("reach", ["x", "z"], pred("reach", "x", "y"), pred("E", "y", "z")),
            rule(
                "one_way", ["x", "y"],
                pred("reach", "x", "y"), negated("reach", "y", "x"),
            ),
        ],
        edb={"E": 2},
    )


PROGRAMS = {
    "tc": (transitive_closure_program, PATH),
    "one_way": (one_way_program, EDGES),
}

ENGINES = {
    "naive": evaluate_program,
    "seminaive": evaluate_seminaive,
    "stratified": evaluate_stratified,
}


def _database(edges) -> Database:
    return Database({"E": Relation.from_points(("x", "y"), edges)})


def _assert_partial_inside(full, partial, names) -> None:
    for name in names:
        assert full[name].contains(partial[name]), (
            f"truncated {name!r} is not inside the full answer:\n"
            f"partial:\n{partial[name].pretty()}\nfull:\n{full[name].pretty()}"
        )


@pytest.mark.parametrize("engine", sorted(ENGINES))
@pytest.mark.parametrize("program_name", sorted(PROGRAMS))
class TestConstraintDatalog:
    def test_every_round_cap(self, engine, program_name):
        make, edges = PROGRAMS[program_name]
        program, run = make(), ENGINES[engine]
        full = run(program, _database(edges))
        assert full.reached_fixpoint and full.rounds > 2
        for k in range(1, full.rounds):
            partial = run(
                program, _database(edges),
                budget=Budget(max_rounds=k), on_budget="partial",
            )
            assert not partial.reached_fixpoint, k
            _assert_partial_inside(full, partial, program.idb)

    def test_tuple_caps(self, engine, program_name):
        make, edges = PROGRAMS[program_name]
        program, run = make(), ENGINES[engine]
        full = run(program, _database(edges))
        cut = 0
        for cap in TUPLE_CAPS:
            partial = run(
                program, _database(edges),
                budget=Budget(max_tuples=cap), on_budget="partial",
            )
            cut += not partial.reached_fixpoint
            _assert_partial_inside(full, partial, program.idb)
        assert cut, "no tuple cap truncated the run"


@pytest.mark.parametrize("program_name", sorted(PROGRAMS))
def test_finite_engine_every_round_cap(program_name):
    make, edges = PROGRAMS[program_name]
    program = make()
    full = evaluate_finite(program, FiniteInstance({"E": edges}))
    assert full.reached_fixpoint and full.rounds > 2

    def as_relation(rows):
        return Relation.from_points(("a0", "a1"), sorted(rows))

    for k in range(1, full.rounds):
        partial = evaluate_finite(
            program, FiniteInstance({"E": edges}), max_rounds=k, on_budget="partial"
        )
        assert not partial.reached_fixpoint, k
        for name in program.idb:
            assert as_relation(full[name]).contains(as_relation(partial[name])), (
                name, k
            )


def _one_way_step():
    # extend by one edge only while the pair cannot already reach back
    return COr((
        R("E", "x", "y"),
        CAnd((
            CExists(("z",), CAnd((R("TC", "x", "z"), R("E", "z", "y")))),
            CNot(R("TC", "y", "x")),
        )),
    ))


CCALC_STEPS = {"tc": (tc_step, PATH), "one_way": (_one_way_step, EDGES)}


@pytest.mark.parametrize("step_name", sorted(CCALC_STEPS))
class TestCCalcFixpoint:
    def test_every_round_cap(self, step_name):
        make, edges = CCALC_STEPS[step_name]
        query = FixpointQuery("TC", ("x", "y"), make())
        full = evaluate_fixpoint(query, _database(edges), max_rounds=50)
        rounds = 0
        for k in range(1, 50):
            partial = evaluate_fixpoint(
                query, _database(edges),
                budget=Budget(max_rounds=k), on_budget="partial",
            )
            if not isinstance(partial, PartialRelation):
                break  # converged within k rounds: the full answer
            rounds = k
            assert full.contains(partial), k
        assert rounds > 2

    def test_tuple_caps(self, step_name):
        make, edges = CCALC_STEPS[step_name]
        query = FixpointQuery("TC", ("x", "y"), make())
        full = evaluate_fixpoint(query, _database(edges))
        cut = 0
        for cap in TUPLE_CAPS:
            partial = evaluate_fixpoint(
                query, _database(edges),
                budget=Budget(max_tuples=cap), on_budget="partial",
            )
            cut += isinstance(partial, PartialRelation)
            assert full.contains(partial), cap
        assert cut, "no tuple cap truncated the run"
