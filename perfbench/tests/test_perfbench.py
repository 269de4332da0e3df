"""The benchmark's own tests: determinism, tracing, and the workloads'
intended cache behaviour.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
Sizes are shrunk so the file runs in about a minute; the hot-set
test keeps the real working-set-to-cache proportions.
"""

from dataclasses import replace

import numpy as np
import pytest

from dacebench import layers
from dacebench.inputs import Sizes, derive_many, make_inputs
from dacebench.runner import END_TO_END, run
from dacebench.trace import TARGETS, Tracer
from dacebench.workloads import Ledger, pretrain, same_bits, serve_cold
from repro.featurize.catcher import catch_plan

SMALL = Sizes(train_queries=8, held_out_queries=12, serve_queries=6,
              epochs=2, finetune_epochs=2, cold_block=64,
              hot_working_set=96, hot_window=64, hot_warmup=1,
              hot_swap_every=2, setup_repeats=1)
# The real working set and swap schedule against the real 4096-entry cache.
HOT = replace(SMALL, hot_working_set=6144, hot_window=4096, hot_warmup=4,
              hot_swap_every=10)
FOREVER = 1e9  # run until the block/epoch/cycle limit


@pytest.fixture(scope="module")
def inputs():
    return make_inputs(SMALL)


def _fingerprints(inputs, seed):
    rng = np.random.default_rng([seed, 2])
    return [catch_plan(plan).fingerprint()
            for plan in derive_many(inputs.base_plans, 32, rng)]


def test_seed_fixes_plan_fingerprints(inputs):
    assert _fingerprints(inputs, 3) == _fingerprints(inputs, 3)
    assert set(_fingerprints(inputs, 3)).isdisjoint(_fingerprints(inputs, 4))


def test_seed_fixes_reference_outputs():
    first = run("serve-cold", 3, FOREVER, False, SMALL, limit=1)
    again = run("serve-cold", 3, FOREVER, False, SMALL, limit=1)
    other = run("serve-cold", 4, FOREVER, False, SMALL, limit=1)
    for result in (first, again, other):
        assert result["correct"] and result["failed"] == 0
    assert same_bits(first["phase"].answers[0], again["phase"].answers[0])
    assert not np.array_equal(first["phase"].answers[0],
                              other["phase"].answers[0])


@pytest.mark.parametrize("workload", ["serve-cold", "serve-hot", "train"])
def test_traced_run_returns_identical_bits(workload):
    result = run(workload, 5, FOREVER, True, SMALL, limit=2)
    assert result["correct"]
    traced = result["phase"].answers
    untraced = result["untraced_phase"].answers
    assert len(traced) == len(untraced) > 0
    for got, want in zip(traced, untraced):
        assert same_bits(got, want)
    assert set(result["metrics"]) == set(layers.PER_LAYER_METRICS)
    assert result["absent_targets"] == []
    assert result["metrics"]["encodecache.hits"]["value"] == 0


def test_untraced_run_reports_every_end_to_end_metric():
    result = run("train", 6, FOREVER, False, SMALL, limit=2)
    assert result["correct"]
    assert set(result["metrics"]) == set(END_TO_END)
    for name, metric in result["metrics"].items():
        assert metric["value"] > 0, name


def test_missing_target_is_reported_absent():
    import repro.serve.service as service

    original = service.catch_plan
    missing = (("repro.no_such_module.Thing.method", "gone.module"),
               ("repro.serve.service.EstimatorService.no_such", "gone.attr"),
               ("repro.serve.service.NoSuchClass.predict", "gone.class"))
    tracer = Tracer(TARGETS + missing)
    tracer.install()
    try:
        assert tracer.absent == [dotted for dotted, _ in missing]
        # `from x import f` copies are wrapped too.
        assert service.catch_plan is not original
        assert service.catch_plan.__wrapped__ is original
    finally:
        tracer.uninstall()
    assert service.catch_plan is original


def test_serve_cold_never_hits_the_cache():
    result = run("serve-cold", 7, FOREVER, True, SMALL, limit=3)
    counters = result["phase"].counters
    assert counters["serve.cache.hits"] == 0
    assert counters["serve.cache.misses"] == 3 * SMALL.cold_block
    assert result["metrics"]["serve.cache.hit_ratio"]["value"] == 0


def test_serve_hot_hit_ratio_in_band():
    # Ten timed windows: six on the base model, a swap, four on LoRA --
    # what a 10-s run at 4k requests/s times.  An LRU model of the
    # schedule predicts 0.88; a full run measured 0.90.
    result = run("serve-hot", 8, FOREVER, True, HOT, limit=10)
    assert result["correct"]
    ratio = result["metrics"]["serve.cache.hit_ratio"]["value"]
    assert 0.85 <= ratio <= 0.95, ratio
    assert result["metrics"]["serve.registry.swaps"]["value"] == 1
    assert result["metrics"]["forward.lora_s"]["value"] > 0
    assert result["metrics"]["serve.pool.flush_size"]["value"] >= 1


def test_bit_mismatch_counts_as_failed(inputs):
    trained = pretrain(inputs, SMALL, 9)
    real = trained.dace.predict_plans
    trained.dace.predict_plans = lambda plans: np.nextafter(real(plans),
                                                            np.inf)
    ledger = Ledger()
    serve_cold(trained, inputs, SMALL, 9, FOREVER, ledger, limit=1)
    assert ledger.attempted > 0
    assert ledger.failed == ledger.attempted


def test_forward_cost_counts_padding():
    dims = (18, 128, 128, 64, (32, 16, 8))
    padded = layers.forward_cost(4, 4 * 16, 4 * 16 * 16, False, *dims)
    valid = layers.forward_cost(4, 30, 250, False, *dims)
    lora = layers.forward_cost(4, 4 * 16, 4 * 16 * 16, True, *dims)
    assert valid[0] < padded[0] < lora[0]
    assert valid[1] < padded[1] < lora[1]


def test_benchmark_json_matches_the_harness():
    import json
    import re
    from pathlib import Path

    from dacebench.workloads import WORKLOADS

    spec = json.loads((Path(__file__).resolve().parents[2]
                       / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"])
            for m in spec["end_to_end"]} == {
        name: spec_[:2] for name, spec_ in END_TO_END.items()}
    assert {m["name"]: (m["unit"], m["better"])
            for m in spec["per_layer"]} == {
        name: spec_[:2] for name, spec_ in layers.PER_LAYER_METRICS.items()}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}",
                            metric["name"])
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", metric["unit"])
