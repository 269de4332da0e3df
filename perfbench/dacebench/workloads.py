"""The workloads: serve-cold, serve-hot and train.

Every workload is a closed loop: a query optimizer blocks on its cost
estimate, so a client sends its next request only when the last one
returned.  All three share one pre-training routine, :func:`pretrain`:

1. ``DACE.fit`` on M1 labels of the five training databases, with fixed
   epochs (early stopping off) and the on-disk ``EncodingCache`` off;
2. zero-shot q-error on the held-out database, its plans sent as
   optimizer candidate sets of 1-8 plans through ``DACE.predict_plans``;
3. ``fine_tune_lora`` (through ``ModelRegistry.fine_tune``) on half of
   the held-out database's M2 labels, then q-error on the other half;
4. ``ModelRegistry.activate`` back to the base model.

Every workload runs it during set-up (the serving workloads serve the
model it builds); the train workload also runs it repeatedly as its
timed phase.

- ``serve-cold``: one client sends ``DACE().predict_plans`` requests of
  1-8 plans.  No plan is ever seen twice: plans derive from EXPLAIN
  output on databases the model never trained on, by seeded lognormal
  scaling of their estimates.  Catch, fingerprint, encode, padding and
  forward do almost all the work; the prediction cache only misses.
- ``serve-hot``: two client threads send single-plan ``predict_plan``
  calls to ``DACE(workers=2)``.  Plans are drawn Zipf(1.0) over a
  working set 1.5x the 4096-entry prediction cache; each request gets a
  fresh content-equal copy, made before the timer starts, as a DBMS
  re-plans into new objects.  Requests go in windows of
  ``hot_window``, with the clients quiescing between windows; every
  ``hot_swap_every`` windows ``ModelRegistry.activate`` toggles between
  the base model and the LoRA tag: cached predictions drop, encodings
  stay, and forwards under the LoRA tag take the non-fused path.  Swaps
  are rare enough for the cache to regain its steady state between them
  (see :mod:`dacebench.inputs`).  The cache, the coalescing queue, the
  registry swap and per-request overhead dominate.
- ``train``: :func:`pretrain` cycles, each from a fresh ``DACE``.  The
  fused training step, Adam and encode-once do the work in ``fit``;
  autograd, LoRA and the frozen base do it in fine-tuning.

Not workloads, on purpose: ``serve.fleet`` (``DACE(shards=...)``),
``MicroBatcher``, ``resilient=True`` and the experiment matrix.  The
first two are slated to fold into the pool, and benching them would pin
flags planned for removal.  The matrix's cells are engine work plus
training, which set-up and ``train`` already cover.

Every response is checked: it must equal, bit for bit, what an uncached
serial ``EstimatorService`` on the per-layer path returns for the same
plan under the same active adapter tag.  Those references are computed
outside every timed region.
"""

from __future__ import annotations

import gc
import threading
from contextlib import nullcontext
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro import DACE, TrainingConfig
from repro.serve import ModelRegistry
from repro.serve.service import EstimatorService

from dacebench.inputs import (
    Inputs, Sizes, derive_many, make_inputs, request_sizes,
)

BASE_TAG = ModelRegistry.BASE_TAG
ADAPTED_TAG = "credit/M2"
WORKLOADS = ("serve-cold", "serve-hot", "train")

# The program's own counters read around a timed phase.
COUNTERS = (
    "serve.cache.hits", "serve.cache.misses", "serve.cache.evictions",
    "serve.enc_cache.hits", "serve.enc_cache.misses", "encodecache.hits",
)
# The program's own histograms, read as NAME.count and NAME.sum.
HISTOGRAMS = ("serve.pool.flush_size",)

JOIN_TIMEOUT_S = 120.0


@dataclass
class Ledger:
    """Operations attempted and failed; a failure keeps its reason."""

    attempted: int = 0
    failed: int = 0
    reasons: List[str] = field(default_factory=list)

    def record(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.reasons) < 20:
                self.reasons.append(what)
        return ok

    @property
    def succeeded(self) -> int:
        return self.attempted - self.failed


@dataclass
class Window:
    """One timed stretch of closed-loop requests (a block, an epoch)."""

    plans: int
    wall_s: float
    latencies_s: List[float]


@dataclass
class Requests:
    """Timed windows of requests; metrics pool every window.

    Pooling, not a median over windows: on a shared machine the speed of
    a fixed loop flips between two levels ~40% apart for seconds at a
    time, and the pooled figure averages over those flips where a
    median of windows would jump between the levels.
    """

    windows: List[Window] = field(default_factory=list)

    def add(self, plans: int, wall_s: float, latencies_s: List[float]):
        self.windows.append(Window(plans, wall_s, list(latencies_s)))

    @property
    def wall_s(self) -> float:
        return sum(window.wall_s for window in self.windows)

    @property
    def plans(self) -> int:
        return sum(window.plans for window in self.windows)

    @property
    def latencies_s(self) -> List[float]:
        return [value for window in self.windows
                for value in window.latencies_s]

    def rate(self) -> float:
        """Plans per timed second."""
        wall = self.wall_s
        return self.plans / wall if wall else 0.0

    def latency_ms(self, percentile: float) -> float:
        return 1e3 * float(np.percentile(self.latencies_s, percentile))


def untraced(tracer):
    """Context in which the harness's own checking records no spans."""
    return tracer.paused() if tracer is not None else nullcontext()


def same_bits(got, want) -> bool:
    """Bit-for-bit equality of finite float64 values."""
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    return (got.shape == want.shape and bool(np.all(np.isfinite(got)))
            and got.tobytes() == want.tobytes())


def reference_service(dace: DACE) -> EstimatorService:
    """Uncached, serial, per-layer: the independent answer to check against."""
    return EstimatorService(
        dace.model, dace.encoder, batch_size=dace.training.batch_size,
        cache_size=0, fused=False,
    )


def counter_values(dace: DACE) -> Dict[str, Optional[float]]:
    """The program's counters by name; None when it has no such counter."""
    values: Dict[str, Optional[float]] = {}
    for name in COUNTERS:
        metric = dace.metrics.get(name)
        values[name] = None if metric is None else metric.value
    for name in HISTOGRAMS:
        metric = dace.metrics.get(name)
        values[f"{name}.count"] = None if metric is None else metric.count
        values[f"{name}.sum"] = None if metric is None else metric.sum
    return values


def counter_delta(before: dict, after: dict) -> Dict[str, Optional[float]]:
    return {
        name: None if value is None else value - (before[name] or 0)
        for name, value in after.items()
    }


def add_counters(total: dict, delta: dict) -> None:
    for name, value in delta.items():
        if value is not None:
            total[name] = (total.get(name) or 0) + value
        else:
            total.setdefault(name, None)


# ---------------------------------------------------------------------- #
# Pre-training (every set-up; the timed phase of train)
# ---------------------------------------------------------------------- #
@dataclass
class Evaluation:
    """Requests sent to price one labelled dataset, and their answers."""

    tag: str
    plans: list
    responses: List[np.ndarray]
    sizes: List[int]
    window: Window
    qerror: np.ndarray


@dataclass
class Trained:
    dace: DACE
    registry: ModelRegistry
    fit_s: float
    fit_plan_epochs: int
    finetune_s: float
    finetune_plan_epochs: int
    zero_shot: Evaluation
    adapted: Evaluation

    def losses_finite(self) -> bool:
        """Every training loss finite; per phase, every validation loss
        finite, or all NaN when the set was too small to split one off."""
        history = self.dace.trainer.history
        if not all(np.isfinite(epoch["train_loss"]) for epoch in history):
            return False
        for phase in (None, "fine_tune_lora"):
            val = np.array([epoch["val_loss"] for epoch in history
                            if epoch.get("phase") == phase])
            if not (np.all(np.isfinite(val)) or np.all(np.isnan(val))):
                return False
        return True


def evaluate(
    dace: DACE, dataset, tag: str, rng: np.random.Generator,
    set_request: Optional[Callable] = None,
) -> Evaluation:
    """Price ``dataset`` as optimizer candidate sets of 1-8 plans."""
    plans = [sample.plan for sample in dataset]
    sizes = request_sizes(len(plans), rng)
    responses: List[np.ndarray] = []
    latencies: List[float] = []
    start = perf_counter()
    offset = 0
    for number, size in enumerate(sizes):
        if set_request is not None:
            set_request(number)
        begin = perf_counter()
        answer = dace.predict_plans(plans[offset:offset + size])
        latencies.append(perf_counter() - begin)
        responses.append(answer)
        offset += size
    window = Window(len(plans), perf_counter() - start, latencies)
    predicted = np.concatenate(responses)
    actual = dataset.latencies()
    return Evaluation(tag, plans, responses, sizes, window,
                      np.maximum(predicted / actual, actual / predicted))


def training_config(sizes: Sizes) -> TrainingConfig:
    # Patience past every epoch count turns early stopping off, for
    # fine_tune_lora too (it inherits the patience).
    patience = max(sizes.epochs, sizes.finetune_epochs) + 1
    return TrainingConfig(epochs=sizes.epochs, patience=patience,
                          encode_cache=False)


def pretrain(
    inputs: Inputs, sizes: Sizes, seed: int, workers: Optional[int] = None,
    set_request: Optional[Callable] = None,
) -> Trained:
    rng = np.random.default_rng([seed, 1])
    dace = DACE(training=training_config(sizes), seed=seed, workers=workers)
    start = perf_counter()
    dace.fit(inputs.train)
    fit_s = perf_counter() - start
    fit_epochs = len(dace.trainer.history)
    zero_shot = evaluate(dace, inputs.held_out, BASE_TAG, rng, set_request)
    registry = ModelRegistry(dace)
    start = perf_counter()
    registry.fine_tune(ADAPTED_TAG, inputs.adapt,
                       epochs=sizes.finetune_epochs)
    finetune_s = perf_counter() - start
    finetune_epochs = len(dace.trainer.history) - fit_epochs
    adapted = evaluate(dace, inputs.adapted_eval, ADAPTED_TAG, rng,
                       set_request)
    registry.activate(BASE_TAG)
    return Trained(
        dace=dace, registry=registry,
        fit_s=fit_s, fit_plan_epochs=len(inputs.train) * fit_epochs,
        finetune_s=finetune_s,
        finetune_plan_epochs=len(inputs.adapt) * finetune_epochs,
        zero_shot=zero_shot, adapted=adapted,
    )


def add_evaluations(requests: Requests, trained: Trained) -> None:
    """Count a pre-training run's q-error evaluations as one window."""
    evaluations = (trained.zero_shot, trained.adapted)
    requests.add(sum(e.window.plans for e in evaluations),
                 sum(e.window.wall_s for e in evaluations),
                 [v for e in evaluations for v in e.window.latencies_s])


def check_trained(trained: Trained, ledger: Ledger) -> None:
    """Finite losses and q-errors; every evaluation answer bit-exact."""
    ledger.record(trained.losses_finite(), "non-finite training loss")
    reference = reference_service(trained.dace)
    for evaluation in (trained.zero_shot, trained.adapted):
        ledger.record(bool(np.all(np.isfinite(evaluation.qerror))),
                      f"non-finite q-error ({evaluation.tag})")
        trained.registry.activate(evaluation.tag)
        offset = 0
        for size, answer in zip(evaluation.sizes, evaluation.responses):
            want = reference.predict_plans(
                evaluation.plans[offset:offset + size])
            ledger.record(same_bits(answer, want),
                          f"evaluation answer differs ({evaluation.tag})")
            offset += size
    trained.registry.activate(BASE_TAG)


def setup(seed: int, sizes: Sizes, workers: Optional[int], repeats: int):
    """Set up ``repeats`` times; returns (inputs, runs, seconds each).

    Set-up is generating the inputs (planning and executing the labelled
    queries, explaining the serving base plans) and pre-training the
    model the serving workloads serve.  Every repeat makes the same
    inputs and model; ``runs`` holds each repeat's pre-training and the
    last one serves.
    """
    seconds: List[float] = []
    runs: List[Trained] = []
    for _ in range(repeats):
        inputs = None  # let the last repeat's plans be collected first
        gc.collect()
        start = perf_counter()
        inputs = make_inputs(sizes)
        runs.append(pretrain(inputs, sizes, seed, workers))
        seconds.append(perf_counter() - start)
    return inputs, runs, seconds


class TrainingSampler:
    """Pre-training cycles run between serving windows.

    One ~1 s fit measures whichever of a shared machine's speed levels it
    lands in, so the serving workloads sample training all through their
    run, one cycle after every ``train_every`` serving windows, not only in
    set-up.  The cycles build their own ``DACE`` and never touch the one
    being served; in a traced run their spans are tagged ``train``.
    """

    def __init__(self, inputs: Inputs, sizes: Sizes, seed: int,
                 ledger: Ledger, tracer=None) -> None:
        self.inputs, self.sizes, self.seed = inputs, sizes, seed
        self.ledger, self.tracer = ledger, tracer
        self.runs: List[Trained] = []

    def after_window(self, index: int) -> None:
        if (index + 1) % self.sizes.train_every:
            return
        tracer = self.tracer
        if tracer is not None:
            phase, tracer.phase = tracer.phase, "train"
        trained = pretrain(self.inputs, self.sizes, self.seed)
        if tracer is not None:
            tracer.phase = phase
        with untraced(tracer):
            check_trained(trained, self.ledger)
        self.runs.append(trained)


# ---------------------------------------------------------------------- #
# Timed phases
# ---------------------------------------------------------------------- #
@dataclass
class Phase:
    """What one timed phase measured."""

    requests: Requests
    counters: Dict[str, Optional[float]]
    trained: List[Trained] = field(default_factory=list)
    # Per block/epoch answers, kept for the determinism tests.
    answers: List[np.ndarray] = field(default_factory=list)


def serve_cold(
    trained: Trained, inputs: Inputs, sizes: Sizes, seed: int,
    seconds: float, ledger: Ledger, tracer=None, limit: Optional[int] = None,
    sampler: Optional[TrainingSampler] = None,
) -> Phase:
    dace = trained.dace
    rng = np.random.default_rng([seed, 2])
    reference = reference_service(dace)
    set_request = tracer.set_request if tracer is not None else None
    # A traced run repeats the phase with the same plans: start empty.
    dace.service.invalidate()
    before = counter_values(dace)
    requests = Requests()
    answers: List[np.ndarray] = []
    number = 0
    while requests.wall_s < seconds and (limit is None
                                         or len(answers) < limit):
        plans = derive_many(inputs.base_plans, sizes.cold_block, rng)
        sizes_ = request_sizes(len(plans), rng)
        got: List = []
        latencies: List[float] = []
        gc.collect()
        start = perf_counter()
        offset = 0
        for size in sizes_:
            if set_request is not None:
                set_request(number)
            number += 1
            begin = perf_counter()
            try:
                answer = dace.predict_plans(plans[offset:offset + size])
            except Exception as error:  # counted, not fatal
                answer = error
            latencies.append(perf_counter() - begin)
            got.append(answer)
            offset += size
        requests.add(len(plans), perf_counter() - start, latencies)
        with untraced(tracer):
            want = reference.predict_plans(plans)
        offset = 0
        for size, answer in zip(sizes_, got):
            ok = (not isinstance(answer, Exception)
                  and same_bits(answer, want[offset:offset + size]))
            ledger.record(ok, f"serve-cold answer differs: {answer!r:.80}")
            offset += size
        answers.append(np.concatenate([
            a if not isinstance(a, Exception) else np.full(s, np.nan)
            for a, s in zip(got, sizes_)
        ]))
        if sampler is not None:
            sampler.after_window(len(answers) - 1)
    return Phase(requests, counter_delta(before, counter_values(dace)),
                 answers=answers)


class _HotClients:
    """``clients`` threads sending single-plan requests, epoch by epoch.

    The main thread hands each client a list of fresh plan copies, then
    releases them through a barrier; the epoch ends when every client
    has sent its list.  Between epochs nothing is in flight, which is
    when the registry swaps adapters.
    """

    def __init__(self, dace: DACE, clients: int, tracer=None) -> None:
        self.dace = dace
        self.set_request = tracer.set_request if tracer is not None else None
        self.barrier = threading.Barrier(clients + 1)
        self.work: List = [None] * clients
        self.results: List = [None] * clients
        self.stop = False
        self.threads = [
            threading.Thread(target=self._client, args=(slot,),
                             name=f"perfbench-client-{slot}", daemon=True)
            for slot in range(clients)
        ]
        for thread in self.threads:
            thread.start()

    def _client(self, slot: int) -> None:
        predict = self.dace.predict_plan
        set_request = self.set_request
        while True:
            self.barrier.wait(timeout=JOIN_TIMEOUT_S)
            if self.stop:
                return
            plans, first = self.work[slot]
            values = np.empty(len(plans))
            latencies = []
            errors = []
            for index, plan in enumerate(plans):
                if set_request is not None:
                    set_request(first + index)
                begin = perf_counter()
                try:
                    values[index] = predict(plan)
                except Exception as error:  # counted, not fatal
                    values[index] = np.nan
                    errors.append(repr(error))
                latencies.append(perf_counter() - begin)
            self.results[slot] = (values, latencies, errors)
            self.barrier.wait(timeout=JOIN_TIMEOUT_S)

    def epoch(self, work: Sequence) -> float:
        """Run one epoch; returns its wall time."""
        for slot, item in enumerate(work):
            self.work[slot] = item
        self.barrier.wait(timeout=JOIN_TIMEOUT_S)
        start = perf_counter()
        self.barrier.wait(timeout=JOIN_TIMEOUT_S)
        return perf_counter() - start

    def close(self) -> None:
        self.stop = True
        try:
            self.barrier.wait(timeout=JOIN_TIMEOUT_S)
        except threading.BrokenBarrierError:
            pass
        for thread in self.threads:
            thread.join(timeout=JOIN_TIMEOUT_S)
        alive = [t.name for t in self.threads if t.is_alive()]
        if alive:
            raise RuntimeError(f"client threads did not stop: {alive}")


def hot_working_set(inputs: Inputs, sizes: Sizes, seed: int):
    rng = np.random.default_rng([seed, 3])
    working = derive_many(inputs.base_plans, sizes.hot_working_set, rng)
    weights = 1.0 / np.arange(1, len(working) + 1)
    return working, weights / weights.sum(), rng


def serve_hot(
    trained: Trained, inputs: Inputs, sizes: Sizes, seed: int,
    seconds: float, ledger: Ledger, tracer=None, limit: Optional[int] = None,
    sampler: Optional[TrainingSampler] = None,
) -> Phase:
    dace, registry = trained.dace, trained.registry
    working, weights, rng = hot_working_set(inputs, sizes, seed)
    clients = sizes.hot_clients
    per_client = sizes.hot_window // clients

    def draw(window: int):
        picks = rng.choice(len(working), size=(clients, per_client),
                           p=weights)
        first = window * clients * per_client
        work = [([working[k].clone() for k in row],
                 first + slot * per_client)
                for slot, row in enumerate(picks)]
        return picks, work

    # A traced run repeats the phase with the same plans: start empty.
    dace.service.invalidate()
    pool = _HotClients(dace, clients, tracer)
    requests = Requests()
    served = []  # (tag, picks, per-client results) per window
    before = None
    tag = registry.active_tag
    try:
        # Untimed warm-up windows on the base tag fill the prediction
        # cache and the encoding memo.
        if tracer is not None:
            phase, tracer.phase = tracer.phase, "warmup"
        for window in range(sizes.hot_warmup):
            picks, work = draw(window)
            gc.collect()
            pool.epoch(work)
            served.append((tag, picks, list(pool.results)))
        if tracer is not None:
            tracer.phase = phase
        before = counter_values(dace)
        timed = 0
        while requests.wall_s < seconds and (limit is None or timed < limit):
            window = sizes.hot_warmup + timed
            picks, work = draw(window)
            gc.collect()
            start = perf_counter()
            if window % sizes.hot_swap_every == 0:
                tag = ADAPTED_TAG if tag == BASE_TAG else BASE_TAG
                registry.activate(tag)
            wall_s = perf_counter() - start + pool.epoch(work)
            results = list(pool.results)
            requests.add(picks.size, wall_s, [
                value for _, latencies, _ in results for value in latencies
            ])
            served.append((tag, picks, results))
            timed += 1
            if sampler is not None:
                sampler.after_window(timed - 1)
    finally:
        pool.close()
    counters = counter_delta(before, counter_values(dace))

    reference = reference_service(dace)
    with untraced(tracer):
        expected = {}
        for tag in (BASE_TAG, ADAPTED_TAG):
            used = sorted({int(k) for t, picks, _ in served if t == tag
                           for k in picks.ravel()})
            registry.activate(tag)
            values = reference.predict_plans([working[k] for k in used])
            expected[tag] = dict(zip(used, values))
        registry.activate(BASE_TAG)
    answers = []
    for tag, picks, results in served:
        table = expected[tag]
        for row, (values, latencies, errors) in zip(picks, results):
            for reason in errors:
                ledger.record(False, f"serve-hot raised: {reason:.80}")
            for k, value in zip(row, values):
                if np.isnan(value) and errors:
                    continue  # already counted as raised
                ledger.record(same_bits(value, table[int(k)]),
                              f"serve-hot answer differs under {tag}")
            answers.append(values)
    return Phase(requests, counters, answers=answers)


def train(
    inputs: Inputs, sizes: Sizes, seed: int, seconds: float,
    ledger: Ledger, tracer=None, limit: Optional[int] = None,
) -> Phase:
    set_request = tracer.set_request if tracer is not None else None
    requests = Requests()
    cycles: List[Trained] = []
    counters: Dict[str, Optional[float]] = {}
    timed = 0.0
    while timed < seconds and (limit is None or len(cycles) < limit):
        gc.collect()
        start = perf_counter()
        trained = pretrain(inputs, sizes, seed, None, set_request)
        timed += perf_counter() - start
        add_counters(counters, counter_values(trained.dace))
        with untraced(tracer):
            check_trained(trained, ledger)
        if cycles:
            first = cycles[0]
            ledger.record(
                same_bits(trained.zero_shot.qerror, first.zero_shot.qerror)
                and same_bits(trained.adapted.qerror, first.adapted.qerror),
                "train cycle is not deterministic")
        add_evaluations(requests, trained)
        cycles.append(trained)
    return Phase(requests, counters, trained=cycles,
                 answers=[np.concatenate(t.zero_shot.responses
                                         + t.adapted.responses)
                          for t in cycles])
