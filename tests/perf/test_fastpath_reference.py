"""The rewritten hot paths against their straight-line references.

``Relation._absorb`` (hash dedup + subsumption pruning) and
``Relation.join`` (pinned-constant partition index) must produce
byte-identical output to the original quadratic algorithms on random
inputs — not just equivalent pointsets, the same tuples in the same
order, so downstream syntactic fixpoint tests see no difference.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.atoms import eq, le, lt
from repro.core.gtuple import GTuple
from repro.core.relation import Relation, _absorb, _absorb_survivors, _join_partition
from repro.core.theory import DENSE_ORDER
from repro.datalog.engine import evaluate_program
from repro.queries.library import transitive_closure_program
from repro.workloads.generators import path_graph
from tests.strategies import conjunctions

SCHEMA = ("x", "y", "z", "u", "v")


@st.composite
def gtuples(draw):
    made = GTuple.make(DENSE_ORDER, SCHEMA, draw(conjunctions(max_size=4)))
    if made is None:  # unsatisfiable draw: fall back to the universe
        return GTuple.universe(DENSE_ORDER, SCHEMA)
    return made


def reference_absorb(tuples):
    """The pre-optimization algorithm, verbatim."""
    distinct = []
    for t in tuples:
        if t not in distinct:
            distinct.append(t)

    def subsumes(s, t):
        return all(t.entails(a) for a in s.atoms)

    kept = []
    for i, t in enumerate(distinct):
        absorbed = False
        for j, s in enumerate(distinct):
            if i == j or not subsumes(s, t):
                continue
            if subsumes(t, s) and j > i:
                continue
            absorbed = True
            break
        if not absorbed:
            kept.append(t)
    return kept


def reference_join(left, right):
    """The pre-optimization nested-loop join, verbatim."""
    combined = left.schema + tuple(c for c in right.schema if c not in left.schema)
    out = []
    for a in left.tuples:
        wide_a = a.extend(combined)
        for b in right.tuples:
            merged = wide_a.merge(b.extend(combined).reorder(combined), combined)
            if merged is not None:
                out.append(merged)
    return Relation(left.theory, combined, out)


class TestAbsorbMatchesReference:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(gtuples(), max_size=7))
    def test_same_kept_tuples_in_same_order(self, tuples):
        assert _absorb(list(tuples)) == reference_absorb(tuples)

    def test_universe_fast_path(self):
        u = GTuple.universe(DENSE_ORDER, SCHEMA)
        from repro.core.atoms import lt

        t = GTuple.make(DENSE_ORDER, SCHEMA, [lt("x", "y")])
        assert _absorb([t, u, t]) == reference_absorb([t, u, t]) == [u]


def _interval_atoms(var, lo, hi, lo_open, hi_open):
    """Atoms bounding ``var`` to an interval with optional open ends."""
    out = []
    if lo is not None:
        out.append(lt(lo, var) if lo_open else le(lo, var))
    if hi is not None:
        out.append(lt(var, hi) if hi_open else le(var, hi))
    return out


@st.composite
def column_intervals(draw, var, values):
    """A point, a bounded or half-bounded interval, or nothing, on ``var``."""
    kind = draw(st.sampled_from(["point", "point", "interval", "half", "free"]))
    if kind == "point":
        v = draw(values)
        return _interval_atoms(var, v, v, False, False)
    if kind == "free":
        return []
    lo, hi = sorted(draw(st.lists(values, min_size=2, max_size=2, unique=True)))
    if kind == "half":
        lo, hi = draw(st.sampled_from([(lo, None), (None, hi)]))
    return _interval_atoms(var, lo, hi, draw(st.booleans()), draw(st.booleans()))


@st.composite
def binary_boxes(draw):
    """Point-heavy binary tuples: first-column values repeat, and some
    tuples unpinned on the first column can absorb pinned ones."""
    atoms = draw(column_intervals("x", st.integers(0, 3)))
    atoms += draw(column_intervals("y", st.integers(0, 4)))
    if draw(st.integers(0, 5)) == 0:  # an occasional variable-vs-variable atom
        atoms.append(draw(st.sampled_from([lt("x", "y"), le("x", "y"), le("y", "x")])))
    made = GTuple.make(DENSE_ORDER, ("x", "y"), atoms)
    return made if made is not None else GTuple.point(DENSE_ORDER, ("x", "y"), (0, 0))


@st.composite
def unary_intervals(draw):
    """Unary intervals sharing endpoints, with mixed open and closed ends."""
    atoms = draw(column_intervals("x", st.integers(0, 2)))
    made = GTuple.make(DENSE_ORDER, ("x",), atoms)
    return made if made is not None else GTuple.point(DENSE_ORDER, ("x",), (0,))


def assert_shards_match_full_pass(tuples, cuts):
    """The ``absorb_shard`` contract: survivors of split index ranges,
    concatenated in order, equal the survivors of the full range."""
    distinct = list(dict.fromkeys(tuples))
    if len(distinct) <= 1 or any(not t.atoms for t in distinct):
        return
    n = len(distinct)
    edges = [0] + sorted(c % (n + 1) for c in cuts) + [n]
    split = []
    for lo, hi in zip(edges, edges[1:]):
        split += _absorb_survivors(distinct, lo, hi)
    assert split == _absorb_survivors(distinct, 0, n)


class TestAbsorbIndexMatchesReference:
    """Inputs that reach the pinned-value index and the bounds test."""

    @settings(max_examples=80, deadline=None)
    @given(st.lists(binary_boxes(), max_size=9))
    def test_binary_boxes(self, tuples):
        assert _absorb(list(tuples)) == reference_absorb(tuples)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(unary_intervals(), max_size=8))
    def test_unary_intervals_sharing_endpoints(self, tuples):
        assert _absorb(list(tuples)) == reference_absorb(tuples)

    @settings(max_examples=60, deadline=None)
    @given(
        st.one_of(
            st.lists(binary_boxes(), max_size=9),
            st.lists(unary_intervals(), max_size=8),
            st.lists(gtuples(), max_size=7),
        ),
        st.lists(st.integers(0, 20), min_size=1, max_size=2),
    )
    def test_split_ranges_concatenate_to_full_pass(self, tuples, cuts):
        assert_shards_match_full_pass(tuples, cuts)

    def test_unpinned_tuple_absorbs_pinned_one(self):
        schema = ("x", "y")
        box = GTuple.make(DENSE_ORDER, schema, [le(0, "x"), le("x", 5), eq("y", 4)])
        point = GTuple.point(DENSE_ORDER, schema, (3, 4))
        other = GTuple.point(DENSE_ORDER, schema, (3, 5))
        tuples = [point, other, box]
        assert _absorb(tuples) == reference_absorb(tuples) == [other, box]

    def test_open_end_does_not_absorb_its_endpoint(self):
        schema = ("x",)
        half_open = GTuple.make(DENSE_ORDER, schema, [lt(0, "x"), le("x", 1)])
        endpoints = [GTuple.point(DENSE_ORDER, schema, (v,)) for v in (0, 1)]
        tuples = endpoints + [half_open]
        assert _absorb(tuples) == reference_absorb(tuples) == [endpoints[0], half_open]


class TestAbsorbAvoidsKernel:
    """Point tuples carry only variable-vs-constant atoms, so absorbing
    them must never reach the entailment kernel."""

    @pytest.fixture
    def entails_calls(self, monkeypatch):
        calls = []
        original = GTuple.entails

        def counting(self, a):
            calls.append(a)
            return original(self, a)

        monkeypatch.setattr(GTuple, "entails", counting)
        return calls

    def test_simplify_point_relation(self, entails_calls):
        points = [(i % 4, (3 * i) % 7) for i in range(20)]
        relation = Relation.from_points(("x", "y"), points)
        assert relation.simplify().tuples == relation.tuples
        assert entails_calls == []

    def test_naive_transitive_closure(self, entails_calls):
        n = 9
        result = evaluate_program(transitive_closure_program(), path_graph(n))
        expected = {
            GTuple.point(DENSE_ORDER, result["tc"].schema, (i, j))
            for i in range(n)
            for j in range(i + 1, n)
        }
        assert set(result["tc"].tuples) == expected
        assert len(result["tc"].tuples) == len(expected)
        assert entails_calls == []


@st.composite
def point_relations(draw, schema):
    """Mostly classical tuples plus some unpinned interval tuples."""
    from repro.core.atoms import le

    points = draw(
        st.lists(
            st.tuples(st.integers(0, 5), st.integers(0, 5)),
            min_size=0,
            max_size=8,
        )
    )
    tuples = [GTuple.point(DENSE_ORDER, schema, p) for p in points]
    for bound in draw(st.lists(st.integers(0, 5), max_size=2)):
        tuples.append(GTuple.make(DENSE_ORDER, schema, [le(schema[0], bound)]))
    return Relation(DENSE_ORDER, schema, tuples)


class TestJoinMatchesReference:
    @settings(max_examples=60, deadline=None)
    @given(point_relations(("x", "y")), point_relations(("y", "z")))
    def test_shared_column_join(self, left, right):
        assert left.join(right).tuples == reference_join(left, right).tuples

    @settings(max_examples=30, deadline=None)
    @given(point_relations(("x", "y")), point_relations(("x", "y")))
    def test_same_schema_join(self, left, right):
        assert left.join(right).tuples == reference_join(left, right).tuples

    @settings(max_examples=20, deadline=None)
    @given(point_relations(("x", "y")), point_relations(("u", "v")))
    def test_cross_product_join(self, left, right):
        assert left.join(right).tuples == reference_join(left, right).tuples

    def test_partition_declines_small_inputs(self):
        small = Relation.from_points(("x", "y"), [(0, 1)])
        assert _join_partition(small, small) is None

    def test_partition_used_on_point_sets(self):
        edges = Relation.from_points(("x", "y"), [(i, i + 1) for i in range(6)])
        other = Relation.from_points(("y", "z"), [(i, i + 2) for i in range(6)])
        partition = _join_partition(edges, other)
        assert partition is not None
        buckets, unpinned, pins = partition
        assert unpinned == ()
        assert all(p is not None for p in pins)


class TestTrustedConstructor:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(gtuples(), max_size=6))
    def test_matches_validating_constructor(self, tuples):
        checked = Relation(DENSE_ORDER, SCHEMA, tuples)
        trusted = Relation._trusted(DENSE_ORDER, SCHEMA, tuples)
        assert trusted.tuples == checked.tuples
        assert trusted.schema == checked.schema
