"""Span tracing from outside the program.

:class:`Tracer` wraps public functions of each layer, found by dotted
name, in spans recorded by this package; the program is not edited.  A
span is ``(id, name, start, end, parent, request, thread, phase, info)``:
``parent`` is the enclosing span on the same thread, ``request`` the id
the harness set for the client call in flight on that thread (None on
pool threads, whose work is shared by many requests), and ``info`` a
small tuple of counts a hook derived from the call's arguments.

Wrapping happens at every binding site: the defining class or module,
and every loaded ``repro`` module that copied a function with
``from x import f``.  A target that no longer exists is reported in
:attr:`Tracer.absent` instead of failing the run, so the benchmark keeps
working while the code it traces is refactored away.

Spans stay in memory while the run lasts and are written by
:meth:`Tracer.dump` when it ends.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import itertools
import json
import sys
import threading
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

# (dotted target, span name).  Several targets may share a span name;
# per-layer totals count only the outermost span of a name.
TARGETS: Tuple[Tuple[str, str], ...] = (
    ("repro.engine.session.EngineSession.explain", "engine.explain"),
    ("repro.engine.executor.SimulatedExecutor.execute", "engine.execute"),
    ("repro.featurize.catcher.catch_plan", "featurize.catch"),
    ("repro.featurize.catcher.CaughtPlan.fingerprint",
     "featurize.fingerprint"),
    ("repro.featurize.encoder.PlanEncoder.encode_batch", "featurize.encode"),
    ("repro.featurize.encoder.PlanEncoder.encode_plans", "featurize.encode"),
    ("repro.featurize.encoder.PlanEncoder.encode_plan", "featurize.encode"),
    ("repro.core.model.DACEModel.infer", "forward"),
    ("repro.serve.fused.FusedInferStep.forward", "forward"),
    ("repro.serve.cache.LRUCache.get", "serve.cache.get"),
    ("repro.serve.cache.LRUCache.put", "serve.cache.put"),
    ("repro.serve.service.EstimatorService.predict_plan", "serve.request"),
    ("repro.serve.service.EstimatorService.predict_plans", "serve.request"),
    ("repro.serve.service.EstimatorService.predict_caught", "serve.request"),
    ("repro.serve.concurrent.ConcurrentEstimatorService._enqueue",
     "serve.pool.enqueue"),
    ("repro.serve.registry.ModelRegistry.activate",
     "serve.registry.activate"),
    ("repro.core.trainer.Trainer.fit", "train.fit"),
    ("repro.workloads.encoded.EncodedDataset.encode", "train.encode_once"),
    ("repro.workloads.encoded.EncodingCache.get_or_encode",
     "encodecache.lookup"),
    ("repro.core.fused.FusedQErrorStep.step", "train.step"),
    ("repro.core.trainer.Trainer._epoch_loss", "train.val"),
    ("repro.nn.optim.Adam.step", "nn.adam"),
    ("repro.nn.tensor.Tensor.backward", "nn.backward"),
)

Span = tuple  # (id, name, start, end, parent, request, thread, phase, info)


def _batch_shape(batch) -> tuple:
    """(B, padded n, valid rows, sum of per-plan n^2) of an EncodedBatch."""
    valid = batch.valid
    per_plan = valid.sum(axis=1)
    return (int(valid.shape[0]), int(valid.shape[1]), int(per_plan.sum()),
            int((per_plan * per_plan).sum()))


def _model_of(owner):
    return getattr(owner, "model", owner)


def _forward_info(args, kwargs, result) -> tuple:
    """Shape counts plus the dims the forward cost model needs."""
    model = _model_of(args[0])
    config = model.config
    lora = bool(getattr(model, "lora_enabled", False))
    return _batch_shape(args[1]) + (
        lora, config.input_dim, config.attention_dim, config.hidden1,
        config.hidden2, tuple(config.lora_ranks),
    )


def _step_info(args, kwargs, result) -> tuple:
    return _batch_shape(args[1])


def _plans_info(kind: str) -> Callable:
    def info(args, kwargs, result) -> tuple:
        return (kind, len(args[1]) if kind != "plan" else 1)
    return info


# Optional per-target hooks computing a span's info from the call.
_AFTER_HOOKS: Dict[str, Callable] = {
    "repro.core.model.DACEModel.infer": _forward_info,
    "repro.serve.fused.FusedInferStep.forward": _forward_info,
    "repro.core.fused.FusedQErrorStep.step": _step_info,
    "repro.featurize.encoder.PlanEncoder.encode_batch": _plans_info("batch"),
    "repro.featurize.encoder.PlanEncoder.encode_plans": _plans_info("plans"),
    "repro.featurize.encoder.PlanEncoder.encode_plan": _plans_info("plan"),
}


class _Patch:
    """One attribute replaced on one owner, restorable."""

    __slots__ = ("owner", "attr", "original", "had_own")

    def __init__(self, owner, attr: str, original, had_own: bool) -> None:
        self.owner = owner
        self.attr = attr
        self.original = original
        self.had_own = had_own


def resolve(dotted: str):
    """(owner, attribute, raw value) for a dotted name, or None if absent.

    The longest importable prefix is the module; the rest is walked with
    ``inspect.getattr_static`` so descriptors (classmethods, properties)
    come back unbound.  A class attribute resolves to the class in the
    MRO that defines it.
    """
    parts = dotted.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        attrs = parts[cut:]
        try:
            for attr in attrs[:-1]:
                owner = inspect.getattr_static(owner, attr)
            if inspect.isclass(owner):
                for klass in owner.__mro__:
                    if attrs[-1] in klass.__dict__:
                        return klass, attrs[-1], klass.__dict__[attrs[-1]]
                return None
            return owner, attrs[-1], inspect.getattr_static(owner, attrs[-1])
        except AttributeError:
            return None
    return None


class Tracer:
    """Records spans around the :data:`TARGETS` while installed."""

    def __init__(self, targets=TARGETS) -> None:
        self.targets = tuple(targets)
        self.spans: List[Span] = []
        self.absent: List[str] = []
        self.phase = "setup"
        # Queue wait per pooled request: enqueue -> drain pickup.
        self.queue_waits: List[Tuple[str, float]] = []
        self._enqueued: Dict[int, float] = {}
        self._ids = itertools.count()
        self._local = threading.local()
        self._paused = False
        self._patches: List[_Patch] = []

    # ------------------------------------------------------------------ #
    # Harness controls
    # ------------------------------------------------------------------ #
    def set_request(self, request_id) -> None:
        """Tag later spans on this thread with ``request_id``."""
        self._local.request = request_id

    @contextmanager
    def paused(self):
        """Record nothing inside (the harness's own reference checks)."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    # ------------------------------------------------------------------ #
    # Wrapping
    # ------------------------------------------------------------------ #
    def _wrap(self, fn: Callable, name: str, after: Optional[Callable],
              before: Optional[Callable]) -> Callable:
        tracer = self
        local = self._local
        spans = self.spans
        ids = self._ids

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer._paused:
                return fn(*args, **kwargs)
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span_id = next(ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = perf_counter()
            if before is not None:
                try:
                    before(args, start)
                except Exception:  # a hook must never fail the call
                    pass
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                info = None
                if after is not None:
                    try:
                        info = after(args, kwargs, result)
                    except Exception:  # a hook must never fail the call
                        info = None
                spans.append((
                    span_id, name, start, end, parent,
                    getattr(local, "request", None),
                    threading.get_ident(), tracer.phase, info,
                ))

        return traced

    def _enqueue_before(self, args, start: float) -> None:
        # Before the handle is visible to the drain, so no pickup can
        # race ahead of this record.
        caught = getattr(args[1], "_caught", None)
        if caught is not None:
            self._enqueued[id(caught)] = start

    def _drain_before(self, args, start: float) -> None:
        for caught in args[1]:
            enqueued = self._enqueued.pop(id(caught), None)
            if enqueued is not None:
                self.queue_waits.append((self.phase, start - enqueued))

    def _patch(self, owner, attr: str, value) -> None:
        had_own = attr in vars(owner)
        original = vars(owner)[attr] if had_own else None
        self._patches.append(_Patch(owner, attr, original, had_own))
        setattr(owner, attr, value)

    def install(self) -> "Tracer":
        """Wrap every present target; record the absent ones."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        self.absent = []
        for dotted, name in self.targets:
            found = resolve(dotted)
            if found is None:
                self.absent.append(dotted)
                continue
            owner, attr, raw = found
            after = _AFTER_HOOKS.get(dotted)
            before = {
                "repro.serve.concurrent.ConcurrentEstimatorService._enqueue":
                    self._enqueue_before,
                "repro.serve.service.EstimatorService.predict_caught":
                    self._drain_before,
            }.get(dotted)
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(self._wrap(raw.__func__, name, after,
                                               before))
            elif callable(raw):
                wrapped = self._wrap(raw, name, after, before)
            else:
                self.absent.append(dotted)
                continue
            self._patch(owner, attr, wrapped)
            if not inspect.isclass(owner):
                # `from x import f` copies: patch every loaded repro module
                # that bound the same function object.
                for module_name, module in list(sys.modules.items()):
                    if (module is owner or module is None
                            or not module_name.startswith("repro")):
                        continue
                    for key, value in list(vars(module).items()):
                        if value is raw:
                            self._patch(module, key, wrapped)
        return self

    def uninstall(self) -> None:
        """Restore every binding, newest first."""
        for patch in reversed(self._patches):
            if patch.had_own:
                setattr(patch.owner, patch.attr, patch.original)
            else:
                delattr(patch.owner, patch.attr)
        self._patches = []

    @contextmanager
    def installed_for(self, phase: str):
        self.phase = phase
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # ------------------------------------------------------------------ #
    def dump(self, path) -> None:
        """Write every span as one JSON object per line, gzip-compressed."""
        keys = ("id", "name", "start", "end", "parent", "request", "thread",
                "phase", "info")
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(dict(zip(keys, span))) + "\n")
