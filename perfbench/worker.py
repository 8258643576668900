"""One workload process: set up, answer requests, check the answers.

``run.py`` starts this in a fresh interpreter for every measurement, so
import time counts towards set-up and each process starts with an empty
kernel cache.  The last line of standard output is one JSON object.

Modes:

``probe``
    set up, answer the first request cold, check it (unless it is
    identical to an answer ``--verified`` already passed).
``loop``
    set up, then a closed loop with one client for ``--seconds``
    seconds; every answer is checked after the loop.
``trace``
    set up, answer the first request cold, then alternate untraced and
    traced (by :mod:`layertrace`) request cycles until each side has
    at least ``--requests`` requests.  Writes the kept spans to
    ``--spans-out``.
``ladder``
    set up at ``--size`` and answer ``--requests`` requests after the
    cold one (growth ladder).

After set-up every mode reads the host's speed (:func:`host_s`, the
time of a fixed piece of pure-Python work); ``probe`` and ``loop`` read
it again after the cold request, and ``loop`` before every later
request, so ``run.py`` can read each time against the speed of the host
at that moment.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import repro  # noqa: E402

if not Path(repro.__file__).resolve().is_relative_to(ROOT / "src"):
    sys.exit(f"repro imported from {repro.__file__}, not from {ROOT / 'src'}")

from repro.perf.cache import kernel_cache, kernel_stats  # noqa: E402

import layertrace  # noqa: E402
from workloads import WORKLOADS, Answer, Instance  # noqa: E402


#: traced requests per traced run, at least (rounded up to whole cycles)
TRACE_REQUESTS = 6


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def host_work() -> Fraction:
    """A fixed piece of pure-Python work of the kind the engine does:
    a few MB of fresh tuples, strings and dict entries (so the allocator
    takes and faults in new memory, as a request does), frozensets,
    sorting and ``Fraction`` arithmetic."""
    rows = [(i, str(i), (i, i + 1)) for i in range(20000)]
    index = {row[1]: row for row in rows}
    total = Fraction(0)
    for i in range(2000):
        index[frozenset((i % 97, str(i % 13)))] = i
        total += Fraction(i % 7 + 1, i % 11 + 1)
        sorted((j * 7919) % 101 for j in range(20))
    return total


def host_s() -> float:
    """How long :func:`host_work` takes right now: the host's speed at
    this moment, to read a request time against."""
    start = time.perf_counter()
    host_work()
    return time.perf_counter() - start


def host_reading() -> float:
    """The median of three :func:`host_s` readings."""
    return median(host_s() for _ in range(3))


def answer(instance: Instance, index: int):
    """Run request ``index`` (modulo the cycle); the Answer, or the
    formatted exception when it raised."""
    try:
        return instance.requests[index % len(instance.requests)].run()
    except Exception:  # a failed request is counted, not fatal
        return traceback.format_exc()


def timed(instance: Instance, index: int):
    start = time.perf_counter()
    got = answer(instance, index)
    return time.perf_counter() - start, got


def check_all(instance: Instance, answers, verified=()):
    """Check every ``(index, answer)``.  Answers identical to one that
    already passed -- earlier in this process, or in another process
    whose ``index:fingerprint`` is in ``verified`` -- share its
    reference check.  Returns (failed, problems, passed fingerprints)."""
    verdicts = {}
    failed = 0
    problems = []
    passed = set(verified)
    for index, got in answers:
        if not isinstance(got, Answer):
            failed += 1
            problems.append(f"request {index} raised: {got.strip().splitlines()[-1]}")
            continue
        request = index % len(instance.requests)
        mark = f"{request}:{got.fingerprint()}"
        if mark not in verdicts:
            verdicts[mark] = [] if mark in passed else instance.requests[request].check(got)
            problems.extend(verdicts[mark])
            if not verdicts[mark]:
                passed.add(mark)
        if verdicts[mark]:
            failed += 1
    return failed, problems, sorted(passed)


def answer_shape(instance: Instance, answers):
    """Mean answer tuples, atoms and fixpoint rounds per distinct request."""
    seen = {}
    for index, got in answers:
        if isinstance(got, Answer):
            seen.setdefault(index % len(instance.requests), got)
    if not seen:
        return {"answer_tuples": 0.0, "answer_atoms": 0.0, "rounds": 0.0}
    n = len(seen)
    return {
        "answer_tuples": sum(a.tuples() for a in seen.values()) / n,
        "answer_atoms": sum(a.atoms() for a in seen.values()) / n,
        "rounds": sum(a.rounds for a in seen.values()) / n,
    }


def cache_delta(before, after, requests: int):
    lookups = (after["cache.hits"] - before["cache.hits"]) + (
        after["cache.misses"] - before["cache.misses"])
    hits = after["cache.hits"] - before["cache.hits"]
    return {
        "cache.lookups": lookups / requests,
        "cache.misses": (after["cache.misses"] - before["cache.misses"]) / requests,
        "cache.evictions": (after["cache.evictions"] - before["cache.evictions"]) / requests,
        "cache.hit_ratio": hits / lookups if lookups else 0.0,
        "cache.entries": after["cache.entries"],
        "cache.capacity": after["cache.capacity"],
    }


def layer_metrics(tracer: layertrace.LayerTracer, requests: int):
    """Per-request means of every per-layer figure the tracer gathered."""
    s, calls = tracer.self_s, tracer.calls
    out = {
        "datalog.self_s": s["datalog"] / requests,
        "evaluator.calls": calls["evaluator"] / requests,
        "evaluator.self_s": s["evaluator"] / requests,
        "harness.self_s": s[layertrace.ROOT] / requests,
        "fraction.ops": tracer.fraction_ops / requests,
    }
    for op in layertrace.RELATION_OPS:
        name = f"relation.{op}"
        out[f"{name}.calls"] = calls[name] / requests
        out[f"{name}.self_s"] = s[name] / requests
        out[f"{name}.in_tuples"] = tracer.tuples_in[name] / requests
        out[f"{name}.out_tuples"] = tracer.tuples_out[name] / requests
    simplify_in = tracer.tuples_in["relation.simplify"]
    out["relation.simplify.kept_ratio"] = (
        tracer.tuples_out["relation.simplify"] / simplify_in if simplify_in else 0.0)
    out["relation.join.pair_yield"] = (
        tracer.tuples_out["relation.join"] / tracer.join_pairs if tracer.join_pairs else 0.0)
    for method in layertrace.GTUPLE_COUNTED:
        out[f"gtuple.{method}.calls"] = calls[f"gtuple.{method}"] / requests
    for method in layertrace.THEORY_TIMED:
        out[f"theory.{method}.calls"] = calls[f"theory.{method}"] / requests
        out[f"theory.{method}.self_s"] = s[f"theory.{method}"] / requests
    for method in layertrace.THEORY_COUNTED:
        out[f"theory.{method}.calls"] = calls[f"theory.{method}"] / requests
    return out


def mode_trace(instance: Instance, minimum: int, spans_out: str):
    """Cold request, then untraced and traced phases of one request
    cycle each, alternating until each side has ``minimum`` requests.
    Alternating keeps both sides in the same stretch of machine noise;
    whole cycles keep the traced phase in the untraced one's steady
    state (on ``fo_join`` a partition comes round again only after all
    the others)."""
    cycle = len(instance.requests)
    pairs = -(-minimum // cycle)
    answers = [(0, answer(instance, 0))]
    tracer = layertrace.LayerTracer()
    plain, traced, traced_answers = [], [], []
    cache = {"cache.hits": 0, "cache.misses": 0, "cache.evictions": 0}
    index = 1
    for _ in range(pairs):
        for _ in range(cycle):
            seconds, got = timed(instance, index)
            plain.append(seconds)
            answers.append((index, got))
            index += 1
        before = kernel_stats()
        tracer.install()
        try:
            for _ in range(cycle):
                start = time.perf_counter()
                tracer.enter(layertrace.ROOT)
                try:
                    got = answer(instance, index)
                finally:
                    tracer.exit()
                wall = time.perf_counter() - start
                traced.append(wall)
                traced_answers.append((index, got))
                index += 1
        finally:
            tracer.uninstall()
        after = kernel_stats()
        for key in cache:  # the traced phases' deltas, summed
            cache[key] += after[key] - before[key]
    requests = len(traced)
    failed, problems, _ = check_all(instance, answers + traced_answers)
    layers = layer_metrics(tracer, requests)
    zero = {key: 0 for key in cache}
    layers.update(cache_delta(zero, dict(after, **cache), requests))
    shape = answer_shape(instance, traced_answers)
    layers["datalog.rounds"] = shape["rounds"]
    layers["trace.overhead_ratio"] = sum(traced) / sum(plain)
    layers["query.untraced_s"] = sum(plain) / len(plain)
    layers["query.traced_s"] = sum(traced) / requests
    for key, value in instance.input_shape().items():
        layers[f"shape.{key}"] = value
    layers["shape.answer_tuples"] = shape["answer_tuples"]
    layers["shape.answer_atoms"] = shape["answer_atoms"]
    if spans_out:
        Path(spans_out).parent.mkdir(parents=True, exist_ok=True)
        with open(spans_out, "w") as fh:
            json.dump({"columns": ["id", "name", "start", "end", "parent"],
                       "spans": tracer.spans, "layers": layers}, fh)
    return {
        "attempted": len(answers) + len(traced_answers),
        "failed": failed,
        "problems": problems[:5],
        "layers": layers,
    }


def mode_loop(instance: Instance, seconds: float, cold: object):
    """Closed loop for ``seconds`` after the cold request, whose answer
    is ``cold``; :func:`host_s` is read before every request."""
    before_warm = kernel_stats()
    times = []
    hosts = []
    answers = [(0, cold)]
    deadline = time.perf_counter() + seconds
    i = 1
    while True:
        hosts.append(host_s())
        took, got = timed(instance, i)
        times.append(took)
        answers.append((i, got))
        i += 1
        if time.perf_counter() >= deadline:
            break
    after = kernel_stats()
    failed, problems, passed = check_all(instance, answers)
    return {
        "times": times,
        "host_s": hosts,
        "attempted": len(answers),
        "failed": failed,
        "problems": problems[:5],
        "passed": [mark for mark in passed if mark.startswith("0:")],
        "shape": dict(instance.input_shape(), **answer_shape(instance, answers),
                      **cache_delta(before_warm, after, len(times))),
        "peak_rss_mb": peak_rss_mb(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=("probe", "loop", "trace", "ladder"), required=True)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--requests", type=int, default=None)
    parser.add_argument("--spans-out", default="")
    parser.add_argument("--verified", default="",
                        help="comma-separated index:fingerprint of answers known to pass")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    instance = workload.build(args.seed, args.size or workload.size)
    kernel_cache().clear()  # the first request starts cold
    ready = time.monotonic()
    host_work()  # untimed: lets the interpreter specialise it
    before = host_reading()
    result = {"ready": ready, "ready_host_s": before}
    if args.mode in ("probe", "loop"):
        took, got = timed(instance, 0)
        # the cold request may take seconds: read the host on either side
        result.update(cold_s=took, cold_host_s=(before + host_reading()) / 2)
    if args.mode == "probe":
        failed, problems, _ = check_all(instance, [(0, got)], args.verified.split(","))
        result.update(attempted=1, failed=failed, problems=problems[:5])
    elif args.mode == "loop":
        result.update(mode_loop(instance, args.seconds, got))
    elif args.mode == "trace":
        result.update(mode_trace(instance, args.requests or TRACE_REQUESTS, args.spans_out))
    else:
        times = [timed(instance, i)[0] for i in range(1 + (args.requests or 3))]
        result.update(cold_s=times[0], warm_s=median(times[1:]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
