"""Per-layer metrics from recorded spans, and the forward cost model.

Layer times are *inclusive* totals of the outermost span of each name
(a nested span of the same name is not counted twice).  Self time is a
span's duration minus the durations of its direct children on the same
thread.

Which spans feed which metric:

- ``engine.*``, ``train.*``, ``nn.*`` and ``encodecache.*`` cover the
  whole traced run: the engine runs only during set-up, and on the
  serving workloads training runs only in set-up and between serving
  windows.
- ``featurize.*``, ``forward.*`` and ``serve.*`` cover the timed phase
  only, so set-up training does not blur the serving path.

``forward.flops`` and ``forward.bytes`` are *computed from tensor
shapes* by :func:`forward_cost`, not measured.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, List, Optional

import numpy as np

BYTES_PER_FLOAT = 8  # float64 is the encoding contract

# name -> (unit, better, meaning).  The order is the order printed.
PER_LAYER_METRICS: Dict[str, tuple] = {
    "engine.explain_s": ("s", "lower", "EngineSession.explain, inclusive"),
    "engine.explain_calls": ("count", "lower", "EngineSession.explain calls"),
    "engine.execute_s": ("s", "lower", "SimulatedExecutor.execute"),
    "featurize.catch_s": ("s", "lower", "catch_plan, inclusive"),
    "featurize.catch_calls": ("count", "lower", "catch_plan calls"),
    "featurize.fingerprint_s": ("s", "lower", "CaughtPlan.fingerprint"),
    "featurize.encode_s": ("s", "lower", "PlanEncoder.encode_*, outermost"),
    "featurize.encode_plans": ("count", "lower", "plans delivered encoded"),
    "featurize.valid_row_ratio": (
        "ratio", "higher", "valid node rows / padded rows over every batch "
        "a forward or training step consumed"),
    "forward.s": ("s", "lower", "inference forwards (fused + infer)"),
    "forward.calls": ("count", "lower", "inference forwards"),
    "forward.plans_per_call": ("plans", "higher", "mean plans per forward"),
    "forward.padded_rows": ("count", "lower", "B x padded n, summed"),
    "forward.valid_rows": ("count", "lower", "real node rows, summed"),
    "forward.flops": ("flop", "lower", "computed from shapes, all rows"),
    "forward.flops_valid": ("flop", "lower",
                            "computed from shapes, valid rows"),
    "forward.bytes": ("byte", "lower", "computed from shapes, all rows"),
    "forward.bytes_valid": ("byte", "lower",
                            "computed from shapes, valid rows"),
    "forward.lora_s": ("s", "lower", "forwards with a LoRA adapter engaged"),
    "serve.request_self_s": (
        "s", "lower", "EstimatorService predict_* time not under a child "
        "span"),
    "serve.cache.hit_ratio": ("ratio", "higher",
                              "prediction cache hits / lookups"),
    "serve.cache.evictions": ("count", "lower",
                              "prediction cache LRU evictions"),
    "serve.cache.lookup_s": ("s", "lower", "LRUCache.get, every cache"),
    "serve.enc_cache.hit_ratio": ("ratio", "higher",
                                  "encoding memo hits / lookups"),
    "serve.pool.flush_size": ("plans", "higher",
                              "mean plans per pool drain (the program's "
                              "serve.pool.flush_size histogram)"),
    "serve.pool.wait_s_p50": ("s", "lower",
                              "queue wait, enqueue to drain pickup"),
    "serve.pool.wait_s_p95": ("s", "lower",
                              "queue wait, enqueue to drain pickup"),
    "serve.registry.activate_s": ("s", "lower", "ModelRegistry.activate"),
    "serve.registry.swaps": ("count", "lower", "ModelRegistry.activate calls"),
    "train.encode_once_s": ("s", "lower", "EncodedDataset.encode"),
    "train.step_s": ("s", "lower", "FusedQErrorStep.step"),
    "train.steps": ("count", "lower", "FusedQErrorStep.step calls"),
    "train.val_s": ("s", "lower", "Trainer._epoch_loss (validation)"),
    "nn.adam_s": ("s", "lower", "Adam.step"),
    "nn.backward_s": ("s", "lower", "Tensor.backward"),
    "encodecache.hits": ("count", "lower",
                         "on-disk EncodingCache hits, must stay 0"),
    "trace.overhead": ("ratio", "lower",
                       "untraced plans_per_s / traced plans_per_s"),
    "trace.spans": ("count", "lower", "spans recorded"),
    "trace.absent_targets": ("count", "lower",
                             "wrap targets that no longer exist"),
}

def forward_cost(batch: int, rows: int, square_rows: int, lora: bool,
                 input_dim: int, attention_dim: int, hidden1: int,
                 hidden2: int, ranks) -> tuple:
    """(flops, bytes) of one DACE forward, computed from shapes.

    ``rows`` is the number of node rows the forward computes on (B x n
    padded, or the valid rows only) and ``square_rows`` the attention
    score count (B x n^2, or the sum of per-plan n_i^2).  Every GEMM
    costs 2 flops per multiply-add; softmax and masking cost 5 flops per
    score; bias and ReLU one per output element.  Bytes assume float64
    weights read once and every intermediate written once and read
    once, plus a one-byte mask per score.
    """
    d, dk, h1, h2 = input_dim, attention_dim, hidden1, hidden2
    per_row = (2 * 3 * d * dk                  # Q, K, V projections
               + 2 * dk * h1 + 2 * h1          # MLP1 + bias + ReLU
               + 2 * h1 * h2 + 2 * h2          # MLP2 + bias + ReLU
               + 2 * h2 + 1)                   # MLP3 + bias
    weights = 3 * d * dk + dk * h1 + h1 + h1 * h2 + h2 + h2 + 1
    if lora:
        r1, r2, r3 = ranks
        per_row += 2 * (dk * r1 + r1 * h1 + h1 * r2 + r2 * h2 + h2 * r3 + r3)
        per_row += h1 + h2 + 1  # adding the delta
        weights += dk * r1 + r1 * h1 + h1 * r2 + r2 * h2 + h2 * r3 + r3
    per_score = 2 * dk + 5 + 2 * dk             # QK^T, softmax, AV
    flops = rows * per_row + square_rows * per_score
    row_floats = d + 2 * (3 * dk + dk + h1 + h2 + 1)
    nbytes = (BYTES_PER_FLOAT * (weights + rows * row_floats
                                 + 3 * square_rows)
              + square_rows)
    return flops, nbytes


def _percentile(values: List[float], q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def _outermost(spans: Iterable[tuple]) -> List[tuple]:
    """Spans with no same-name ancestor (ancestors looked up by id)."""
    spans = list(spans)
    by_id = {span[0]: span for span in spans}
    kept = []
    for span in spans:
        parent = span[4]
        nested = False
        while parent is not None:
            ancestor = by_id.get(parent)
            if ancestor is None:
                break
            if ancestor[1] == span[1]:
                nested = True
                break
            parent = ancestor[4]
        if not nested:
            kept.append(span)
    return kept


def span_table(spans: List[tuple]) -> Dict[str, dict]:
    """Per span name: calls, inclusive total (outermost) and self time."""
    child_time: Dict[int, float] = defaultdict(float)
    for span in spans:
        if span[4] is not None:
            child_time[span[4]] += span[3] - span[2]
    table: Dict[str, dict] = {}
    outer_ids = {span[0] for span in _outermost(spans)}
    for span in spans:
        row = table.setdefault(span[1], {"calls": 0, "total_s": 0.0,
                                         "self_s": 0.0})
        duration = span[3] - span[2]
        row["calls"] += 1
        row["self_s"] += duration - child_time.get(span[0], 0.0)
        if span[0] in outer_ids:
            row["total_s"] += duration
    return table


def _index(spans: List[tuple]) -> Dict[str, Dict[str, List[tuple]]]:
    """Spans grouped by name: every span, and the outermost ones."""
    index: Dict[str, Dict[str, List[tuple]]] = {"all": defaultdict(list),
                                                "outer": defaultdict(list)}
    for span in spans:
        index["all"][span[1]].append(span)
    for span in _outermost(spans):
        index["outer"][span[1]].append(span)
    return index


def _mean(total: Optional[float], count: Optional[float]) -> float:
    return total / count if total is not None and count else 0.0


def _ratio(hits: float, misses: float) -> float:
    total = hits + misses
    return hits / total if total else 0.0


def per_layer(
    spans: List[tuple],
    queue_waits: List[tuple],
    counters: Dict[str, Optional[float]],
    overhead: float,
    absent: List[str],
) -> Dict[str, float]:
    """Every :data:`PER_LAYER_METRICS` value for one traced run.

    ``counters`` holds the program's own counter and histogram deltas
    over the timed phase (prediction and encoding caches, pool drain
    sizes, the on-disk encoding cache); a metric the program no longer
    has is None and reads as 0.
    """
    timed = [span for span in spans if span[7] == "timed"]
    whole = _index(spans)
    part = _index(timed)

    def total(index, name):
        return sum(s[3] - s[2] for s in index["outer"].get(name, ()))

    def calls(index, name):
        return len(index["all"].get(name, ()))

    forwards = part["outer"].get("forward", [])
    padded = valid = flops = flops_valid = nbytes = nbytes_valid = 0
    lora_s = 0.0
    plans = 0
    for span in forwards:
        info = span[8]
        if info is None:
            continue
        b, n, rows, squares, lora = info[:5]
        dims = info[5:]
        plans += b
        padded += b * n
        valid += rows
        f, by = forward_cost(b, b * n, b * n * n, lora, *dims)
        fv, byv = forward_cost(b, rows, squares, lora, *dims)
        flops += f
        nbytes += by
        flops_valid += fv
        nbytes_valid += byv
        if lora:
            lora_s += span[3] - span[2]

    consumed_valid = valid
    consumed_padded = padded
    for span in part["all"].get("train.step", []):
        if span[8] is not None:
            b, n, rows, _ = span[8]
            consumed_padded += b * n
            consumed_valid += rows

    encoded = 0
    for span in part["outer"].get("featurize.encode", []):
        if span[8] is not None and span[8][0] in ("batch", "plans"):
            encoded += span[8][1]

    table = span_table(timed)
    waits = [wait for phase, wait in queue_waits if phase == "timed"]
    get = counters.get

    return {
        "engine.explain_s": total(whole, "engine.explain"),
        "engine.explain_calls": calls(whole, "engine.explain"),
        "engine.execute_s": total(whole, "engine.execute"),
        "featurize.catch_s": total(part, "featurize.catch"),
        "featurize.catch_calls": calls(part, "featurize.catch"),
        "featurize.fingerprint_s": total(part, "featurize.fingerprint"),
        "featurize.encode_s": total(part, "featurize.encode"),
        "featurize.encode_plans": encoded,
        "featurize.valid_row_ratio": _ratio(consumed_valid,
                                            consumed_padded - consumed_valid),
        "forward.s": total(part, "forward"),
        "forward.calls": len(forwards),
        "forward.plans_per_call": plans / len(forwards) if forwards else 0.0,
        "forward.padded_rows": padded,
        "forward.valid_rows": valid,
        "forward.flops": flops,
        "forward.flops_valid": flops_valid,
        "forward.bytes": nbytes,
        "forward.bytes_valid": nbytes_valid,
        "forward.lora_s": lora_s,
        "serve.request_self_s": table.get("serve.request", {}).get(
            "self_s", 0.0),
        "serve.cache.hit_ratio": _ratio(get("serve.cache.hits") or 0,
                                        get("serve.cache.misses") or 0),
        "serve.cache.evictions": get("serve.cache.evictions") or 0,
        "serve.cache.lookup_s": total(part, "serve.cache.get"),
        "serve.enc_cache.hit_ratio": _ratio(
            get("serve.enc_cache.hits") or 0,
            get("serve.enc_cache.misses") or 0),
        "serve.pool.flush_size": _mean(get("serve.pool.flush_size.sum"),
                                       get("serve.pool.flush_size.count")),
        "serve.pool.wait_s_p50": _percentile(waits, 50),
        "serve.pool.wait_s_p95": _percentile(waits, 95),
        "serve.registry.activate_s": total(part, "serve.registry.activate"),
        "serve.registry.swaps": calls(part, "serve.registry.activate"),
        "train.encode_once_s": total(whole, "train.encode_once"),
        "train.step_s": total(whole, "train.step"),
        "train.steps": calls(whole, "train.step"),
        "train.val_s": total(whole, "train.val"),
        "nn.adam_s": total(whole, "nn.adam"),
        "nn.backward_s": total(whole, "nn.backward"),
        "encodecache.hits": get("encodecache.hits") or 0,
        "trace.overhead": overhead,
        "trace.spans": len(spans),
        "trace.absent_targets": len(absent),
    }
