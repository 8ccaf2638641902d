"""E-K — compiled evaluation kernels vs the object path.

Measures full evaluations/second for every built-in objective through the
object path (``Objective.evaluate`` over string-keyed dicts) and through
the compiled kernels (``repro.algorithms.compiled`` over integer-indexed
flat arrays), plus kernel move deltas/second against kernel full
evaluations, at growing model sizes.  Results are
printed as paper-style tables and written machine-readable to
``BENCH_compiled.json`` in the repository root (tracked in git so the
measured speedups travel with the code — see docs/PERFORMANCE.md).

Two modes:

* full (default): sizes 10x40, 20x100, 40x200; asserts the kernels reach
  at least 3x the object path's evals/sec at 40 hosts x 200 components.
* smoke (``BENCH_COMPILED_SMOKE=1``): tiny sizes for CI; asserts only
  that the kernels are no slower than the object path.

Both modes also assert that a kernel move delta beats a full kernel
evaluation for every objective.
"""

from __future__ import annotations

import json
import os
import random
import time
from pathlib import Path

from repro.algorithms.compiled import compile_kernel, compiled_model
from repro.core.objectives import (
    AvailabilityObjective, CommunicationCostObjective, DurabilityObjective,
    LatencyObjective, SecurityObjective, ThroughputObjective,
)
from repro.desi.generator import Generator, GeneratorConfig
from conftest import print_table

SMOKE = os.environ.get("BENCH_COMPILED_SMOKE", "") not in ("", "0")
SIZES = [(4, 10), (6, 20)] if SMOKE else [(10, 40), (20, 100), (40, 200)]
#: Required aggregate (geometric-mean) evaluate speedup at the largest size.
REQUIRED_SPEEDUP = 1.0 if SMOKE else 3.0
OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_compiled.json"
MOVES_PER_BATCH = 50


def objectives():
    return [AvailabilityObjective(), LatencyObjective(),
            CommunicationCostObjective(), SecurityObjective(),
            ThroughputObjective(), DurabilityObjective()]


def paint_extended_params(model, seed):
    """Parameters the generator leaves at defaults; without them the
    security and durability kernels would race over trivial landscapes."""
    rng = random.Random(seed)
    for link in model.physical_links:
        model.set_physical_link_param(*link.hosts, "security", rng.random())
    for host in model.hosts:
        if rng.random() < 0.7:
            model.set_host_param(host.id, "battery", rng.uniform(50.0, 500.0))
        model.set_host_param(host.id, "cpu", rng.uniform(1.0, 8.0))
    for component in model.components:
        model.set_component_param(component.id, "cpu", rng.uniform(0.1, 2.0))


def rate(fn, min_time=0.05, min_calls=3):
    """Calls/second: repeat *fn* until both floors are met (after warmup)."""
    fn()
    calls = 0
    start = time.perf_counter()
    while True:
        fn()
        calls += 1
        elapsed = time.perf_counter() - start
        if calls >= min_calls and elapsed >= min_time:
            return calls / elapsed


def geomean(values):
    product = 1.0
    for value in values:
        product *= value
    return product ** (1.0 / len(values))


def bench_size(hosts, components, seed):
    model = Generator(GeneratorConfig(hosts=hosts, components=components),
                      seed=seed).generate(f"bench-{hosts}x{components}")
    paint_extended_params(model, seed * 31 + 1)
    compiled = compiled_model(model)
    deployment = dict(model.deployment)
    assignment = compiled.encode(deployment)
    rng = random.Random(seed * 7 + 3)
    moves = [(rng.choice(model.component_ids), rng.choice(model.host_ids))
             for __ in range(MOVES_PER_BATCH)]
    compiled_moves = [(compiled.component_index[c], compiled.host_index[h])
                      for c, h in moves]

    per_objective = {}
    for objective in objectives():
        kernel = compile_kernel(objective, compiled)
        assert kernel is not None, objective.name

        def kernel_deltas(kernel=kernel):
            for component_index, host_index in compiled_moves:
                kernel.move_delta(assignment, component_index, host_index)

        object_eval = rate(
            lambda objective=objective: objective.evaluate(model, deployment))
        kernel_eval = rate(lambda kernel=kernel: kernel.evaluate(assignment))
        kernel_delta = rate(kernel_deltas) * MOVES_PER_BATCH
        per_objective[objective.name] = {
            "object_evals_per_sec": object_eval,
            "kernel_evals_per_sec": kernel_eval,
            "eval_speedup": kernel_eval / object_eval,
            "kernel_deltas_per_sec": kernel_delta,
            # How much cheaper one incremental delta is than one full
            # kernel evaluation.
            "delta_vs_full_kernel": kernel_delta / kernel_eval,
        }
    return {
        "hosts": hosts,
        "components": components,
        "objectives": per_objective,
        "aggregate_eval_speedup": geomean(
            [o["eval_speedup"] for o in per_objective.values()]),
    }


def test_compiled_kernels_beat_object_path():
    results = [bench_size(hosts, components, seed=9 + index)
               for index, (hosts, components) in enumerate(SIZES)]

    for entry in results:
        rows = [(name, data["object_evals_per_sec"],
                 data["kernel_evals_per_sec"], data["eval_speedup"],
                 data["kernel_deltas_per_sec"], data["delta_vs_full_kernel"])
                for name, data in sorted(entry["objectives"].items())]
        print_table(
            f"E-K: kernels vs object path "
            f"({entry['hosts']} hosts x {entry['components']} components)",
            ["objective", "obj eval/s", "kernel eval/s", "speedup",
             "kernel delta/s", "delta/full"], rows)

    payload = {
        "benchmark": "compiled-kernels",
        "mode": "smoke" if SMOKE else "full",
        "moves_per_batch": MOVES_PER_BATCH,
        "required_speedup": REQUIRED_SPEEDUP,
        "sizes": results,
    }
    OUTPUT.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")

    largest = results[-1]
    assert largest["aggregate_eval_speedup"] >= REQUIRED_SPEEDUP, (
        f"kernels only {largest['aggregate_eval_speedup']:.2f}x the object "
        f"path at {largest['hosts']}x{largest['components']} "
        f"(need >= {REQUIRED_SPEEDUP}x)")
    # Every built-in objective individually must at least break even, and
    # incremental deltas must beat full kernel evaluations.
    for name, data in largest["objectives"].items():
        assert data["eval_speedup"] >= REQUIRED_SPEEDUP * 0.5, name
        assert data["delta_vs_full_kernel"] > 1.0, name


def test_bench_json_is_readable():
    """The artifact the CI job uploads must parse and carry the headline."""
    if not OUTPUT.exists():  # bench above writes it; ordering is file-local
        test_compiled_kernels_beat_object_path()
    payload = json.loads(OUTPUT.read_text())
    assert payload["benchmark"] == "compiled-kernels"
    assert payload["sizes"], "no sizes recorded"
    for entry in payload["sizes"]:
        assert entry["aggregate_eval_speedup"] > 0
