"""The four workloads: what is built, what each client asks, and why.

Everything random derives from one ``--seed``: the sky data, the
engine's samplers, the warm-up queries, the hot pool and every
client's stream.  The engine only ever receives generated batches and
``Query`` objects.

All four are **closed loops**: an exploratory session waits for each
answer before asking the next, so a slower system receives less load.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

import numpy as np

from repro import AggregateSpec, And, Between, Contract, Query, SciBorq, SciBorqServer
from repro.skyserver import (
    SkyGenerator,
    WorkloadGenerator,
    build_skyserver,
    create_skyserver_catalog,
)
from repro.skyserver.schema import DEC_RANGE, RA_RANGE

TABLE = "PhotoObjAll"
DEFAULT_ROWS = 1_000_000
WARMUP_QUERIES = 60
HOT_POOL_SIZE = 64
HOT_SHARE = 0.30
ZIPF_EXPONENT = 1.1
INGEST_EVERY = 20
INGEST_ROWS = 20_000
MAINTAIN_EVERY = 200
#: ``memory_pressure`` budget as a share of the hot footprint, which is
#: about 163 bytes per base row with the three-rung hierarchy below.
MEMORY_BUDGET_BYTES_PER_ROW = 60

# Purposes of the generators derived from ``--seed``.
_DATA, _ENGINE, _WARMUP, _HOT_POOL, _CLIENT = range(5)

#: Contracts of twenty consecutive queries of one client: 50 % session
#: default (silver), 25 % bronze, 20 % gold, 5 % exact.  Dealt in
#: shuffled blocks rather than drawn one by one, so every run holds the
#: same share of slow exact queries and the tail percentile does not
#: move with the luck of the draw.
_EXACT = Contract.exact()
_CONTRACT_BLOCK = [None] * 10 + [Contract.bronze()] * 5 + [Contract.gold()] * 4 + [_EXACT]


def _rng(seed: int, purpose: int, index: int = 0) -> np.random.Generator:
    return np.random.default_rng([seed, purpose, index])


def client_count() -> int:
    """Closed-loop clients: two, or one on a single-core box."""
    return max(1, min(2, os.cpu_count() or 1))


@dataclass(frozen=True)
class Op:
    """One client operation; ``contract=None`` means the session default."""

    query: Query
    contract: Optional[Contract]


class RecordingGenerator(SkyGenerator):
    """A sky generator that keeps the columns it handed out.

    The kept arrays are the benchmark's own ground truth: answers are
    checked against them with plain numpy, never against the engine's
    storage (which ``memory_pressure`` quantises and spills).
    """

    TRUTH_COLUMNS = ("ra", "dec", "mjd", "r_mag", "g_mag", "petro_rad")

    def __init__(self, rng) -> None:
        super().__init__(rng=rng)
        self._kept: Dict[str, List[np.ndarray]] = {c: [] for c in self.TRUTH_COLUMNS}

    def photoobj_batch(self, count: int) -> dict:
        batch = super().photoobj_batch(count)
        for name, parts in self._kept.items():
            parts.append(batch[name])
        return batch

    def truth(self) -> Dict[str, np.ndarray]:
        """Every generated row, in load order (row id == position)."""
        return {name: np.concatenate(parts) for name, parts in self._kept.items()}


@dataclass
class Built:
    """A loaded engine behind a default server, ready for clients."""

    engine: SciBorq
    server: SciBorqServer
    generator: RecordingGenerator
    sessions: list = field(default_factory=list)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    clients: int
    #: ``"submit"`` = pool-driven handles, ``"execute"`` = blocking.
    issue: str
    #: writes beside reads: ingest before every Nth query, maintain
    #: every Mth, on the client's own deterministic schedule
    ingest_every: int = 0
    maintain_every: int = 0
    #: server built with a byte budget of this many bytes per base row
    memory_budget_per_row: int = 0
    #: ``"explore"`` or ``"base_scan"``
    stream: str = "explore"
    #: whether a hot-pool query may be asked under ``Contract.exact()``.
    #: Off under memory pressure: the exact answer can then be served
    #: the selection an earlier bounded pass cached while the blocks
    #: were quantised, and returns rows outside the cone (README.md,
    #: "Known engine defect").
    hot_exact: bool = True


def workloads() -> Dict[str, Workload]:
    clients = client_count()
    return {
        w.name: w
        for w in (
            Workload(
                "explore_focal",
                "short focal-point queries, 30 % from a hot pool, mixed tiers, through "
                "pool-driven handles: rung scans plus per-query machinery; repeats use "
                "the recycler and the scan memo",
                clients,
                "submit",
            ),
            Workload(
                "base_scan",
                "unique unclustered predicates, alternately exact and 2 %: full block "
                "scans of the base table or the largest impression; every cache is "
                "bypassed, so a caching change must not move it",
                clients,
                "execute",
                stream="base_scan",
            ),
            # One client: with two, the governor's exclusive pass after
            # every answer makes the sessions wait on each other, no more
            # queries complete, and latency moved by a third between seeds.
            Workload(
                "memory_pressure",
                "client 0's explore_focal stream with a memory budget of a third of "
                "the hot footprint: tiering, dequantise and spill reads are the delta",
                1,
                "execute",
                memory_budget_per_row=MEMORY_BUDGET_BYTES_PER_ROW,
                hot_exact=False,
            ),
            Workload(
                "ingest_mixed",
                "one client mixing ingests and maintenance into the explore stream: "
                "invalidation and re-materialisation cost shows in the tail",
                1,
                "execute",
                ingest_every=INGEST_EVERY,
                maintain_every=MAINTAIN_EVERY,
            ),
        )
    }


# ----------------------------------------------------------------------
# building
# ----------------------------------------------------------------------
def build_engine(rows: int, seed: int) -> tuple[SciBorq, RecordingGenerator]:
    """Catalog, three-rung uniform hierarchy, and the load itself."""
    engine = SciBorq(
        create_skyserver_catalog(),
        interest_attributes={"ra": RA_RANGE, "dec": DEC_RANGE},
        rng=_rng(seed, _ENGINE),
    )
    engine.create_hierarchy(
        TABLE,
        policy="uniform",
        layer_sizes=(rows // 4, rows // 20, rows // 100),
    )
    generator = RecordingGenerator(_rng(seed, _DATA))
    build_skyserver(rows, generator=generator, loader=engine.loader)
    return engine, generator


def build(workload: Workload, rows: int, seed: int) -> Built:
    """Load the data, start a default server, open sessions, warm up.

    The warm-up is part of set-up: the first touch of each rung
    materialises its impression, a stall of seconds that would
    otherwise land on whichever timed query came first.
    """
    engine, generator = build_engine(rows, seed)
    kwargs = {}
    if workload.memory_budget_per_row:
        kwargs["memory_budget"] = workload.memory_budget_per_row * rows
    server = SciBorqServer(engine, **kwargs)
    built = Built(engine, server, generator)
    built.sessions = [
        server.open_session(f"client-{i}", contract="silver")
        for i in range(workload.clients)
    ]
    warmup = WorkloadGenerator(rng=_rng(seed, _WARMUP))
    for query in warmup.queries(WARMUP_QUERIES):
        built.sessions[0].execute(query, Contract.gold())
    return built


# ----------------------------------------------------------------------
# client streams
# ----------------------------------------------------------------------
def hot_pool(seed: int) -> List[Query]:
    """The queries every session keeps coming back to."""
    return list(WorkloadGenerator(rng=_rng(seed, _HOT_POOL)).queries(HOT_POOL_SIZE))


def explore_stream(seed: int, client: int, hot_exact: bool = True) -> Iterator[Op]:
    """SkyServer sessions: fresh focal-point queries and hot-pool repeats.

    With ``hot_exact=False`` an exact slot that drew a hot-pool query
    asks its fresh query instead; every other operation, and every
    random draw, is the same.
    """
    rng = _rng(seed, _CLIENT, client)
    fresh = WorkloadGenerator(rng=rng)
    pool = hot_pool(seed)
    zipf = 1.0 / np.arange(1, HOT_POOL_SIZE + 1) ** ZIPF_EXPONENT
    zipf /= zipf.sum()
    while True:
        for slot in rng.permutation(len(_CONTRACT_BLOCK)):
            query, contract = fresh.next_query(), _CONTRACT_BLOCK[slot]
            if rng.random() < HOT_SHARE:
                repeat = pool[rng.choice(HOT_POOL_SIZE, p=zipf)]
                if hot_exact or contract is not _EXACT:
                    query = repeat
            yield Op(query, contract)


def base_scan_stream(seed: int, client: int) -> Iterator[Op]:
    """Unique two-column range predicates on unclustered columns.

    Every other query is exact and passes over the base table.  The
    rest ask for 2 %, which the ladder meets on its largest or second
    largest impression, so their answers carry a sampling error to
    check and their scans are just as unique and unprunable.
    """
    rng = _rng(seed, _CLIENT, client)
    contracts = (Contract.exact(), Contract.within_error(0.02))
    index = 0
    while True:
        r_lo = float(rng.uniform(16.0, 20.0))
        p_lo = float(rng.uniform(0.5, 3.0))
        query = Query(
            table=TABLE,
            predicate=And(
                [
                    Between("r_mag", r_lo, r_lo + float(rng.uniform(0.5, 1.5))),
                    Between("petro_rad", p_lo, p_lo + float(rng.uniform(1.0, 3.0))),
                ]
            ),
            aggregates=[AggregateSpec("count"), AggregateSpec("avg", "g_mag")],
        )
        yield Op(query, contracts[index % 2])
        index += 1


def stream_for(workload: Workload, seed: int, client: int) -> Iterator[Op]:
    if workload.stream == "base_scan":
        return base_scan_stream(seed, client)
    return explore_stream(seed, client, workload.hot_exact)
