"""Unit and property tests for the order-constraint reasoner."""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings

from repro.core.atoms import Op, eq, le, lt, ne
from repro.core.gtuple import GTuple
from repro.core.ordergraph import OrderGraph
from repro.core.terms import Const, Var
from repro.core.theory import DENSE_ORDER
from repro.errors import TheoryError
from tests.strategies import conjunctions


class TestSatisfiability:
    def test_empty_is_satisfiable(self):
        assert OrderGraph([]).is_satisfiable()

    def test_simple_chain(self):
        g = OrderGraph([lt("x", "y"), lt("y", "z")])
        assert g.is_satisfiable()

    def test_strict_cycle_unsat(self):
        g = OrderGraph([lt("x", "y"), le("y", "x")])
        assert not g.is_satisfiable()

    def test_weak_cycle_sat(self):
        g = OrderGraph([le("x", "y"), le("y", "x")])
        assert g.is_satisfiable()

    def test_constants_forced_equal_unsat(self):
        g = OrderGraph([le(1, "x"), le("x", 1), eq("x", 2)])
        assert not g.is_satisfiable()

    def test_implicit_constant_order(self):
        # 2 <= x and x <= 1 contradicts 1 < 2 even though no atom says so
        g = OrderGraph([le(2, "x"), le("x", 1)])
        assert not g.is_satisfiable()

    def test_implicit_constant_order_weakly_ok(self):
        g = OrderGraph([le(1, "x"), le("x", 2)])
        assert g.is_satisfiable()

    def test_transitive_contradiction(self):
        g = OrderGraph([lt("x", "y"), lt("y", "z"), lt("z", "x")])
        assert not g.is_satisfiable()

    def test_pinned_between_constants(self):
        g = OrderGraph([lt(0, "x"), lt("x", 1), eq("x", Fraction(1, 2))])
        assert g.is_satisfiable()

    def test_ne_atom_rejected(self):
        with pytest.raises(TheoryError):
            OrderGraph([ne("x", "y")])


class TestImplication:
    def test_transitive_strict(self):
        g = OrderGraph([lt("x", "y"), lt("y", "z")])
        assert g.implies(lt("x", "z"))
        assert g.implies(le("x", "z"))
        assert g.implies(ne("x", "z"))
        assert not g.implies(eq("x", "z"))

    def test_weak_chain_implies_weak_only(self):
        g = OrderGraph([le("x", "y"), le("y", "z")])
        assert g.implies(le("x", "z"))
        assert not g.implies(lt("x", "z"))

    def test_mixed_chain_is_strict(self):
        g = OrderGraph([le("x", "y"), lt("y", "z")])
        assert g.implies(lt("x", "z"))

    def test_equality_from_two_weaks(self):
        g = OrderGraph([le("x", "y"), le("y", "x")])
        assert g.implies(eq("x", "y"))

    def test_constant_gap(self):
        g = OrderGraph([le("x", 1), le(2, "y")])
        assert g.implies(lt("x", "y"))

    def test_fresh_constant_reasoning(self):
        # {x = -1} entails x <= 0 although 0 is not a node of the graph
        g = OrderGraph([eq("x", -1)])
        assert g.implies(le("x", 0))
        assert not g.implies(le(0, "x"))
        assert g.implies(lt("x", 5))

    def test_unsat_implies_everything(self):
        g = OrderGraph([lt("x", "x") if False else lt("x", "y"), lt("y", "x")])
        assert g.implies(eq("x", "y"))
        assert g.implies(lt("y", "x"))

    def test_boolean_candidates(self):
        g = OrderGraph([lt("x", "y")])
        assert g.implies(True)
        assert not g.implies(False)


class TestRelationBetween:
    def test_unrelated(self):
        g = OrderGraph([lt("x", "y")])
        assert g.relation_between(Var("x"), Var("z")) is None

    def test_constants_numeric(self):
        g = OrderGraph([])
        assert g.relation_between(Const(Fraction(1)), Const(Fraction(2))) is Op.LT
        assert g.relation_between(Const(Fraction(2)), Const(Fraction(1))) is Op.GT

    def test_same_term(self):
        g = OrderGraph([])
        assert g.relation_between(Var("x"), Var("x")) is Op.EQ


class TestEqualityClasses:
    def test_merges_chain_of_equalities(self):
        g = OrderGraph([eq("x", "y"), eq("y", "z")])
        classes = {frozenset(v.name for v in cls if isinstance(v, Var)) for cls in g.equality_classes()}
        assert frozenset({"x", "y", "z"}) in classes

    def test_weak_cycle_merges(self):
        g = OrderGraph([le("x", "y"), le("y", "z"), le("z", "x")])
        [cls] = g.equality_classes()
        assert cls == frozenset({Var("x"), Var("y"), Var("z")})


class TestCanonicalAtoms:
    def test_unsat_raises(self):
        g = OrderGraph([lt("x", "y"), lt("y", "x")])
        with pytest.raises(TheoryError):
            g.canonical_atoms()

    def test_transitive_edge_dropped(self):
        g = OrderGraph([lt("x", "y"), lt("y", "z"), lt("x", "z")])
        assert g.canonical_atoms() == frozenset({lt("x", "y"), lt("y", "z")})

    def test_equalities_to_constant_representative(self):
        g = OrderGraph([eq("x", "y"), eq("y", 3)])
        assert g.canonical_atoms() == frozenset({eq("x", 3), eq("y", 3)})

    def test_constant_constant_edges_implicit(self):
        g = OrderGraph([le(1, "x"), le("x", 2)])
        assert g.canonical_atoms() == frozenset({le(1, "x"), le("x", 2)})

    def test_equivalent_conjunctions_same_canonical_form(self):
        a = OrderGraph([le("x", "y"), le("y", "x")])
        b = OrderGraph([eq("x", "y")])
        assert a.canonical_atoms() == b.canonical_atoms()

    def test_redundant_constant_bound_dropped(self):
        g = OrderGraph([lt("x", 1), lt("x", 2)])
        assert g.canonical_atoms() == frozenset({lt("x", 1)})

    def test_bound_through_variable_dropped(self):
        g = OrderGraph([lt("x", "y"), lt("y", 5), lt("x", 5)])
        assert g.canonical_atoms() == frozenset({lt("x", "y"), lt("y", 5)})


UNBOUNDED = (None, False, None, False)


def _one_column_interval(atoms, var):
    """``(lo, lo_strict, hi, hi_strict)`` of a one-variable canonical set."""
    lo, lo_strict, hi, hi_strict = UNBOUNDED
    for a in atoms:
        if isinstance(a.right, Const):
            assert a.left == var
            hi, hi_strict = a.right.value, a.op is Op.LT
            if a.op is Op.EQ:
                lo = hi
        else:
            assert isinstance(a.left, Const) and a.right == var
            lo, lo_strict = a.left.value, a.op is Op.LT
            if a.op is Op.EQ:
                hi = lo
    return lo, lo_strict, hi, hi_strict


class TestBounds:
    def test_reads_tightest_constants_through_variables(self):
        bounds = OrderGraph([lt("x", "y"), le("y", 3), lt(1, "x"), le(0, "x")]).bounds()
        assert bounds[Var("x")] == (Fraction(1), True, Fraction(3), True)
        assert bounds[Var("y")] == (Fraction(1), True, Fraction(3), False)

    def test_pinned_variable(self):
        bounds = OrderGraph([eq("x", 2), le("x", "y")]).bounds()
        assert bounds[Var("x")] == (Fraction(2), False, Fraction(2), False)
        assert bounds[Var("y")] == (Fraction(2), False, None, False)

    def test_unconstrained_variable_reports_none(self):
        bounds = OrderGraph([lt("x", "y")]).bounds()
        assert bounds == {Var("x"): UNBOUNDED, Var("y"): UNBOUNDED}

    @settings(max_examples=200, deadline=None)
    @given(conjunctions(max_size=6))
    def test_bounds_are_the_one_column_projection(self, atoms):
        """Exactness: the bounds of every variable equal the interval
        left after projecting out every other column, strictness
        included."""
        schema = ("x", "y", "z", "u", "v")
        g = OrderGraph(atoms)
        assume(g.is_satisfiable())
        t = GTuple.make(DENSE_ORDER, schema, atoms)
        bounds = g.bounds()
        assert set(bounds) == {n for n in g.nodes if isinstance(n, Var)}
        for col in schema:
            var = Var(col)
            projected = [t]
            for other in schema:
                if other != col:
                    projected = [q for p in projected for q in p.project_out_all(other)]
            assert len(projected) == 1
            expected = _one_column_interval(projected[0].atoms, var)
            assert bounds.get(var, UNBOUNDED) == expected
            assert t.bounds().get(var, UNBOUNDED) == expected


class TestSolve:
    def test_unsat_returns_none(self):
        assert OrderGraph([lt("x", "y"), lt("y", "x")]).solve() is None

    def test_witness_satisfies_all_atoms(self):
        atoms = [lt("x", "y"), le("y", "z"), lt(0, "x"), lt("z", 1)]
        witness = OrderGraph(atoms).solve()
        assert witness is not None
        for a in atoms:
            assert a.evaluate(witness)

    def test_pinned_variable(self):
        witness = OrderGraph([eq("x", Fraction(7, 2))]).solve()
        assert witness == {Var("x"): Fraction(7, 2)}

    def test_unconstrained_variable_gets_value(self):
        witness = OrderGraph([le("x", "x") if False else lt("x", "y")]).solve()
        assert set(witness) == {Var("x"), Var("y")}

    @settings(max_examples=200)
    @given(conjunctions(max_size=6))
    def test_solve_iff_satisfiable(self, atoms):
        atoms = [a for a in atoms if not isinstance(a, bool)]
        g = OrderGraph(atoms)
        witness = g.solve()
        if g.is_satisfiable():
            assert witness is not None
            for a in atoms:
                assert a.evaluate(witness), f"{a} fails under {witness}"
        else:
            assert witness is None

    @settings(max_examples=200)
    @given(conjunctions(min_size=1, max_size=6))
    def test_canonical_form_equivalent(self, atoms):
        """The canonical atom set entails and is entailed by the original."""
        atoms = [a for a in atoms if not isinstance(a, bool)]
        g = OrderGraph(atoms)
        if not g.is_satisfiable():
            return
        canon = g.canonical_atoms()
        h = OrderGraph(canon)
        for a in atoms:
            assert h.implies(a), f"canonical form lost {a}"
        for a in canon:
            assert g.implies(a), f"canonical form invented {a}"
