"""One benchmark run: set up, measure, check, report.

``--trace 0`` reports the end-to-end metrics, measured with no tracing
at all.  ``--trace 1`` sets up once with the tracer installed, runs the
timed phase untraced and then traced, and reports the per-layer metrics
plus the tracing overhead (untraced ``plans_per_s`` over traced).
"""

from __future__ import annotations

import json
import resource
import statistics
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from dacebench import layers
from dacebench.env import calibrate, environment
from dacebench.inputs import FULL, Sizes
from dacebench.trace import Tracer
from dacebench.workloads import (
    WORKLOADS, Ledger, Phase, Trained, TrainingSampler, add_counters,
    add_evaluations, check_trained, counter_values, serve_cold, serve_hot,
    setup, train,
)

# name -> (unit, better, what it measures)
END_TO_END: Dict[str, tuple] = {
    "setup_s": ("s", "lower", "median set-up: inputs + pre-training"),
    "peak_rss_mb": ("MB", "lower", "peak resident set of the run"),
    "plans_per_s": ("plans/s", "higher", "plans priced per timed second"),
    "request_p50_ms": ("ms", "lower", "closed-loop request latency"),
    "request_p95_ms": ("ms", "lower", "closed-loop request latency"),
    "train_plans_per_s": ("plans/s", "higher",
                          "plan-epochs/s of DACE.fit, encode included"),
    "finetune_plans_per_s": ("plans/s", "higher",
                             "plan-epochs/s of fine_tune_lora"),
    "qerror_p50": ("ratio", "lower", "zero-shot, held-out database"),
    "qerror_p95": ("ratio", "lower", "zero-shot, held-out database"),
    "qerror_adapted_p50": ("ratio", "lower", "after LoRA to machine M2"),
}

def _phase(workload: str, inputs, trained: Optional[Trained], sizes: Sizes,
           seed: int, seconds: float, ledger: Ledger, tracer=None,
           limit: Optional[int] = None) -> Phase:
    """One timed phase; a serving phase's training cycles land in
    ``Phase.trained``, as the train workload's do."""
    if workload == "train":
        return train(inputs, sizes, seed, seconds, ledger, tracer, limit)
    sampler = TrainingSampler(inputs, sizes, seed, ledger, tracer)
    serve = serve_cold if workload == "serve-cold" else serve_hot
    phase = serve(trained, inputs, sizes, seed, seconds, ledger, tracer,
                  limit, sampler)
    phase.trained = sampler.runs
    return phase


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(setup_seconds: List[float], phase: Phase,
               runs: List[Trained]) -> Dict[str, dict]:
    """Every end-to-end metric with the sample count behind it.

    ``runs`` are the pre-training runs behind the training and q-error
    metrics: the set-up repeats plus, on the serving workloads, the
    cycles run between serving windows, on train the timed cycles.
    """
    requests = phase.requests
    latencies = len(requests.latencies_s)
    fits = [run.fit_plan_epochs / run.fit_s for run in runs]
    tunes = [run.finetune_plan_epochs / run.finetune_s for run in runs]
    last = runs[-1]
    qerror = last.zero_shot.qerror
    adapted = last.adapted.qerror
    values = {
        "setup_s": (statistics.median(setup_seconds), len(setup_seconds)),
        "peak_rss_mb": (_peak_rss_mb(), 1),
        "plans_per_s": (requests.rate(), len(requests.windows)),
        "request_p50_ms": (requests.latency_ms(50), latencies),
        "request_p95_ms": (requests.latency_ms(95), latencies),
        "train_plans_per_s": (statistics.median(fits), len(fits)),
        "finetune_plans_per_s": (statistics.median(tunes), len(tunes)),
        "qerror_p50": (float(np.median(qerror)), len(qerror)),
        "qerror_p95": (float(np.percentile(qerror, 95)), len(qerror)),
        "qerror_adapted_p50": (float(np.median(adapted)), len(adapted)),
    }
    return {
        name: {"value": value, "unit": END_TO_END[name][0], "samples": n}
        for name, (value, n) in values.items()
    }


def run(workload: str, seed: int, seconds: float, trace: bool,
        sizes: Sizes = FULL, limit: Optional[int] = None) -> dict:
    """Run one workload; returns the full result (metrics, checks, env)."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; have {WORKLOADS}")
    workers = 2 if workload == "serve-hot" else None
    ledger = Ledger()
    result: dict = {"workload": workload, "seed": seed, "seconds": seconds,
                    "trace": int(trace)}
    # The machine's speed before set-up, before and after the timed phase.
    speed = [calibrate()]

    if not trace:
        inputs, runs, setup_seconds = setup(seed, sizes, workers,
                                            sizes.setup_repeats)
        check_trained(runs[-1], ledger)
        speed.append(calibrate())
        phase = _phase(workload, inputs, runs[-1], sizes, seed, seconds,
                       ledger, limit=limit)
        speed.append(calibrate())
        if workload == "train":
            # Set-up's evaluations too: the timed cycles alone cover too
            # short a stretch of a noisy machine for steady latencies.
            for model_run in runs:
                add_evaluations(phase.requests, model_run)
        metrics = end_to_end(setup_seconds, phase, runs + phase.trained)
        result["phase"] = phase
    else:
        tracer = Tracer()
        with tracer.installed_for("setup"):
            inputs, runs, setup_seconds = setup(seed, sizes, workers, 1)
        trained = runs[-1]
        check_trained(trained, ledger)
        speed.append(calibrate())
        untraced = _phase(workload, inputs, trained, sizes, seed, seconds,
                          ledger, limit=limit)
        with tracer.installed_for("timed"):
            traced = _phase(workload, inputs, trained, sizes, seed, seconds,
                            ledger, tracer, limit)
        speed.append(calibrate())
        # On-disk encoding cache traffic over the whole run: must stay 0.
        whole: Dict[str, Optional[float]] = {}
        for model_run in runs + untraced.trained + traced.trained:
            add_counters(whole, counter_values(model_run.dace))
        counters = dict(traced.counters)
        counters["encodecache.hits"] = whole.get("encodecache.hits")
        untraced_rate = untraced.requests.rate()
        traced_rate = traced.requests.rate()
        overhead = untraced_rate / traced_rate if traced_rate else 0.0
        values = layers.per_layer(tracer.spans, tracer.queue_waits,
                                  counters, overhead, tracer.absent)
        metrics = {
            name: {"value": values[name],
                   "unit": layers.PER_LAYER_METRICS[name][0]}
            for name in layers.PER_LAYER_METRICS
        }
        result["absent_targets"] = list(tracer.absent)
        result["span_table"] = layers.span_table(
            [s for s in tracer.spans if s[7] == "timed"])
        result["untraced_plans_per_s"] = untraced_rate
        result["traced_plans_per_s"] = traced_rate
        result["tracer"] = tracer
        result["phase"] = traced
        result["untraced_phase"] = untraced

    for model_run in runs:
        if model_run.dace.pool is not None:
            model_run.dace.pool.close()  # joins the pool's worker threads
    result["metrics"] = metrics
    result["calibration_loops_per_s"] = speed
    windows = result["phase"].requests.windows
    result["windows"] = [
        {"plans": w.plans, "wall_s": w.wall_s,
         "p50_ms": float(np.percentile(w.latencies_s, 50)) * 1e3,
         "p95_ms": float(np.percentile(w.latencies_s, 95)) * 1e3}
        for w in windows
    ]
    result["pretrain_runs"] = [
        {"fit_plan_epochs": r.fit_plan_epochs, "fit_s": r.fit_s,
         "finetune_plan_epochs": r.finetune_plan_epochs,
         "finetune_s": r.finetune_s}
        for r in runs + result["phase"].trained
    ]
    result["attempted"] = ledger.attempted
    result["failed"] = ledger.failed
    result["succeeded"] = ledger.succeeded
    result["failures"] = ledger.reasons
    result["correct"] = ledger.failed == 0 and ledger.attempted > 0
    return result


def report(result: dict, root: Path, pinned_before_numpy: bool,
           out_dir: Path) -> str:
    """Print the human-readable report; write the full record and spans.

    Returns the final result line (the contract's JSON object).
    """
    env = environment(root, pinned_before_numpy)
    env["calibration_loops_per_s"] = result["calibration_loops_per_s"]
    workload, seed, trace = (result["workload"], result["seed"],
                             result["trace"])
    names = layers.PER_LAYER_METRICS if trace else END_TO_END
    print(f"workload={workload} seed={seed} seconds={result['seconds']} "
          f"trace={trace}")
    print("env " + json.dumps(env, sort_keys=True))
    for name in names:
        metric = result["metrics"][name]
        samples = metric.get("samples")
        note = f"  n={samples}" if samples is not None else ""
        print(f"  {name:28s} {metric['value']:>16.6g} {metric['unit']}{note}")
    if trace:
        print(f"  tracing overhead: untraced {result['untraced_plans_per_s']:.1f}"
              f" plans/s, traced {result['traced_plans_per_s']:.1f} plans/s")
        absent = result["absent_targets"]
        print("  absent wrap targets: " + (", ".join(absent) or "none"))
        print("  forward.flops/bytes are computed from tensor shapes, "
              "not measured")
    print(f"requests sent={result['attempted']} "
          f"succeeded={result['succeeded']} failed={result['failed']}")
    for reason in result["failures"]:
        print(f"  failure: {reason}")

    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{trace}"
    record = {key: value for key, value in result.items()
              if key not in ("tracer", "phase", "untraced_phase",
                             "calibration_loops_per_s")}
    record["env"] = env
    with open(out_dir / f"{stem}.json", "w") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)
    if trace:
        result["tracer"].dump(out_dir / f"{stem}.spans.jsonl.gz")
    return json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": result["metrics"][name]["value"],
                   "unit": result["metrics"][name]["unit"]}
            for name in names
        },
    })
