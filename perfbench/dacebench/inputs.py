"""Seeded benchmark inputs, made through the engine's public API.

Everything here is a function of ``--seed`` and :class:`Sizes`: the same
seed yields the same labelled plans and the same derived serving plans,
bit for bit.  The program under test only ever sees the generated plans.

The query statements are the same for every seed (``workload1``'s own,
statement offset 0), so the labelled plans are too.  The seed varies
the model initialization, the validation split and batch order, the
derived serving plans, the Zipf draws and the request sizes.  Holding
the statements fixed keeps seed-to-seed differences in plan sizes from
swamping the run-to-run spread the benchmark must stay within.

The five training databases and the held-out one are among the zoo's
cheapest to plan and execute (1.6-4.5 ms per labelled plan on a
2-CPU machine), which keeps set-up inside the run budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.catalog.zoo import load_database
from repro.engine.machines import M1, M2, MachineProfile
from repro.engine.plan import PlanNode
from repro.engine.session import EngineSession
from repro.workloads.dataset import DEFAULT_TIMEOUT_MS, PlanDataset, PlanSample
from repro.workloads.zeroshot import generate_queries

TRAIN_DATABASES = ("airline", "employee", "consumer", "seznam", "walmart")
HELD_OUT_DATABASE = "credit"
# Explained only (never labelled, never trained on): adds 17-node plans,
# so serving forwards span two padding buckets (16 and 24).
SERVE_ONLY_DATABASE = "geneea"

# Spread of the per-node lognormal factors applied to a base plan's
# estimates when deriving serving plans.
DERIVE_SIGMA = 0.5


@dataclass(frozen=True)
class Sizes:
    """Input and model sizes; the benchmark runs :data:`FULL`."""

    train_queries: int = 48        # per training database, labelled on M1
    held_out_queries: int = 80     # on the held-out database, M1 and M2
    serve_queries: int = 60        # explain-only, SERVE_ONLY_DATABASE
    epochs: int = 20               # DACE.fit, early stopping off
    finetune_epochs: int = 80      # fine_tune_lora
    cold_block: int = 4096         # serve-cold plans derived per block
    hot_working_set: int = 6144    # ~1.5x the 4096-entry prediction cache
    hot_window: int = 4096         # serve-hot requests per timed window
    hot_warmup: int = 4            # untimed windows before the first
    hot_swap_every: int = 10       # windows between adapter swaps
    hot_clients: int = 2
    train_every: int = 3           # serving windows per training cycle
    setup_repeats: int = 3


# The serve-hot swap schedule.  A swap drops every cached prediction, so
# the window after it starts cold.  A plain LRU model of the workload
# (Zipf(1.0) over 6144 plans, 4096 entries, 4096-request windows) puts
# the hit ratio at 0.67, 0.80, 0.86, 0.89, 0.91 in the five windows after
# a swap and at 0.93-0.94 from the sixth on, which is also its swap-free
# level.  Ten windows between swaps (40960 requests, 10x the cache) let
# the cache reach that steady state and keep a period's mean at 0.88.
# The schedule counts the four untimed warm-up windows, so the first
# timed swap falls on timed window 6: a 10-s run at 3.6k requests/s or
# more always times both adapters and at least one swap, with a hit
# ratio near 0.9.
FULL = Sizes()


@dataclass
class Inputs:
    """Labelled datasets plus the base plans serving plans derive from."""

    train: PlanDataset          # M1 labels, TRAIN_DATABASES
    held_out: PlanDataset       # M1 labels, zero-shot q-error
    adapt: PlanDataset          # M2 labels, first half: fine_tune_lora
    adapted_eval: PlanDataset   # M2 labels, second half: adapted q-error
    base_plans: List[PlanNode]  # EXPLAIN output, databases never trained on


def collect(
    name: str, queries: int, machine: MachineProfile, session_seed: int,
) -> PlanDataset:
    """Plan (``EngineSession.explain``) then execute ``workload1``'s queries.

    Plans past the statement timeout are dropped, as ``collect_workload``
    does.
    """
    session = EngineSession(load_database(name), machine, seed=session_seed)
    dataset = PlanDataset()
    for query in generate_queries(name, queries):
        plan = session.explain(query)
        session.executor.execute(plan, query)
        if plan.actual_time_ms <= DEFAULT_TIMEOUT_MS:
            dataset.append(PlanSample(plan=plan, query=query,
                                      database_name=name))
    return dataset


def make_inputs(sizes: Sizes = FULL) -> Inputs:
    """Every labelled dataset and base plan."""
    train = PlanDataset.merge(
        collect(name, sizes.train_queries, M1, 0)
        for name in TRAIN_DATABASES
    )
    held_out = collect(HELD_OUT_DATABASE, sizes.held_out_queries, M1, 0)
    # workload2 semantics: the same statements, labelled on M2.
    machine2 = collect(HELD_OUT_DATABASE, sizes.held_out_queries, M2, 1)
    half = len(machine2) // 2
    session = EngineSession(load_database(SERVE_ONLY_DATABASE), M1, seed=0)
    extra = [
        session.explain(query)
        for query in generate_queries(SERVE_ONLY_DATABASE,
                                      sizes.serve_queries)
    ]
    return Inputs(
        train=train,
        held_out=held_out,
        adapt=machine2[:half],
        adapted_eval=machine2[half:],
        base_plans=[sample.plan for sample in held_out] + extra,
    )


def derive(base: PlanNode, rng: np.random.Generator) -> PlanNode:
    """A new, unlabelled plan: ``base``'s tree with rescaled estimates.

    Every node's row and cost estimates are multiplied by independent
    lognormal factors, so derived plans are distinct (a fresh
    fingerprint) while keeping real plan shapes and magnitudes.
    """
    nodes = list(base.walk_dfs())
    factors = rng.lognormal(0.0, DERIVE_SIGMA, size=(len(nodes), 2)).tolist()
    position = iter(range(len(nodes)))

    def build(node: PlanNode) -> PlanNode:
        rows, cost = factors[next(position)]
        return PlanNode(
            node_type=node.node_type,
            est_rows=node.est_rows * rows,
            est_cost=node.est_cost * cost,
            est_startup_cost=node.est_startup_cost * cost,
            width=node.width,
            children=[build(child) for child in node.children],
            table=node.table,
            predicates=list(node.predicates),
            index_column=node.index_column,
            join=node.join,
        )

    return build(base)


def derive_many(
    bases: Sequence[PlanNode], count: int, rng: np.random.Generator
) -> List[PlanNode]:
    picks = rng.integers(len(bases), size=count)
    return [derive(bases[int(index)], rng) for index in picks]


def request_sizes(
    total: int, rng: np.random.Generator, largest: int = 8
) -> List[int]:
    """Split ``total`` plans into optimizer candidate sets of 1..largest.

    Sizes come in seeded permutations of 1..largest, so every seed sends
    the same mix of sizes (only the order differs) and per-request
    latency does not drift with the seed's luck of the draw.
    """
    sizes: List[int] = []
    remaining = total
    while remaining > 0:
        for size in rng.permutation(np.arange(1, largest + 1)).tolist():
            if remaining <= 0:
                break
            sizes.append(min(size, remaining))
            remaining -= sizes[-1]
    return sizes
