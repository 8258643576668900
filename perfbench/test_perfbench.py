"""The benchmark's own tests.

    PYTHONPATH=src python3 -m pytest perfbench -q

They run small sizes in fresh worker processes, as the benchmark does.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from run import ROOT, UNITS, WORKLOAD_NAMES, child_env, layer_unit, tail
from workloads import WORKLOADS, Answer

import repro.core.gtuple as gtuple
from repro.core.relation import Relation
from repro.linear.latoms import lin_le
from repro.linear.theory import LINEAR

#: sizes small enough for a test, big enough to touch every layer
SMALL = {"datalog_tc": 6, "fo_negation": 4, "fo_join": 48, "foplus_linear": 3}
HERE = Path(__file__).resolve().parent


def trace_run(workload: str, seed: int = 3) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--mode", "trace", "--workload", workload,
         "--seed", str(seed), "--size", str(SMALL[workload]), "--requests", "2"],
        cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def traced_pairs():
    return {w: (trace_run(w), trace_run(w)) for w in WORKLOAD_NAMES}


def test_names_match_benchmark_json(traced_pairs):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert WORKLOAD_NAMES == tuple(WORKLOADS) == tuple(w["name"] for w in declared["workloads"])
    assert list(UNITS) == [m["name"] for m in declared["end_to_end"]]
    assert [UNITS[m["name"]] for m in declared["end_to_end"]] == [m["unit"] for m in declared["end_to_end"]]
    per_layer = {m["name"]: m["unit"] for m in declared["per_layer"]}
    for first, _ in traced_pairs.values():
        assert set(first["layers"]) == set(per_layer)
    assert all(layer_unit(name) == unit for name, unit in per_layer.items())


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_exact_counts_repeat(traced_pairs, workload):
    first, second = traced_pairs[workload]
    assert first["failed"] == 0 and second["failed"] == 0
    exact = [k for k in first["layers"] if not k.endswith(("_s", "overhead_ratio"))]
    assert {k: first["layers"][k] for k in exact} == {k: second["layers"][k] for k in exact}
    assert first["layers"]["relation.join.calls"] > 0 or workload == "datalog_tc"


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_layers_account_for_request_time(traced_pairs, workload):
    """Time inside a traced request that no wrapped layer covers stays small."""
    for result in traced_pairs[workload]:
        layers = result["layers"]
        assert layers["harness.self_s"] < 0.02 * layers["query.traced_s"]


def _wrong_answers(answer: Answer):
    """Every one-part corruption of a right answer."""
    for i, part in enumerate(answer.parts):
        if isinstance(part, bool):
            yield i, not part
        else:
            yield i, Relation(part.theory, part.schema, ())
            yield i, Relation(part.theory, part.schema, part.tuples + (_missing_point(part),))


def _missing_point(relation: Relation):
    """A point tuple the relation does not contain."""
    values = sorted(relation.constants())
    candidates = [Fraction(10**6)] + values + [(a + b) / 2 for a, b in zip(values, values[1:])]
    for v in candidates:
        point = [v + k for k in range(relation.arity)]
        if not relation.contains_point(point):
            return gtuple.GTuple.point(relation.theory, relation.schema, point)
    raise AssertionError("no candidate point outside the relation")


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_reference_rejects_wrong_answers(workload):
    instance = WORKLOADS[workload].build(5, SMALL[workload])
    request = instance.requests[0]
    right = request.run()
    assert request.check(right) == []
    for i, wrong in _wrong_answers(right):
        parts = list(right.parts)
        parts[i] = wrong
        assert request.check(Answer(tuple(parts), right.rounds)), f"part {i} corruption passed"


def test_linear_reference_rejects_a_moved_interval_end():
    """Stretch one answer interval a little past its upper end, to a
    point no other interval covers: the check must notice."""
    instance = WORKLOADS["foplus_linear"].build(5, SMALL["foplus_linear"])
    request = instance.requests[0]
    right = request.run()
    epsilon = Fraction(1, 1000)
    for i, part in enumerate(right.parts[:2]):
        column = part.schema[0]
        for k, t in enumerate(part.tuples):
            candidates = {s * c for c in t.constants() for s in (1, -1)}
            lo = min(v for v in candidates if t.contains_point([v]))
            hi = max(v for v in candidates if t.contains_point([v]))
            if part.contains_point([hi + epsilon]):
                continue
            stretched = Relation.from_atoms(
                part.schema, [[lin_le(lo, column), lin_le(column, hi + epsilon)]], LINEAR)
            wrong = Relation(part.theory, part.schema,
                             part.tuples[:k] + stretched.tuples + part.tuples[k + 1:])
            parts = list(right.parts)
            parts[i] = wrong
            assert request.check(Answer(tuple(parts))), f"part {i} tuple {k} stretched passed"
            break
        else:
            raise AssertionError(f"part {i}: no interval end to move")


@pytest.mark.parametrize("workload", ["datalog_tc", "fo_negation", "foplus_linear"])
def test_shape_does_not_depend_on_the_seed(workload):
    shapes = []
    for seed in (1, 2):
        instance = WORKLOADS[workload].build(seed, SMALL[workload])
        got = instance.requests[0].run()
        shapes.append((instance.input_shape(), got.tuples(), got.atoms(), got.rounds,
                       [p for p in got.parts if isinstance(p, bool)]))
    assert shapes[0] == shapes[1]


def test_tail_has_ten_samples_beyond():
    samples = list(range(1, 41))
    value, percentile, count = tail(samples)
    assert sum(s > value for s in samples) == 10
    assert (percentile, count) == (75.0, 40)
    assert tail([3, 1, 2]) == (3, 100.0, 3)


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "datalog_tc", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
