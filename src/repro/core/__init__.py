"""The core SciBORQ system: impressions, bounds, and the engine facade.

* :mod:`repro.core.impression` — an impression: a named, sized,
  policy-built sample of a base table with inclusion-probability
  metadata and cached materialisation.
* :mod:`repro.core.hierarchy` — the multi-layer collection: "each
  less detailed impression is derived from a previous more detailed
  one" (paper §3.1).
* :mod:`repro.core.policy` — Uniform / Biased / LastSeen construction
  policies and the hierarchy factory.
* :mod:`repro.core.builder` — the load observer that feeds every
  layer during (incremental) loads.
* :mod:`repro.core.quality` — population estimates with confidence
  intervals for queries answered from an impression.
* :mod:`repro.core.contracts` — first-class execution contracts:
  ``Contract.within_error(...) & Contract.within_budget(...)``.
* :mod:`repro.core.handle` — query handles: progressive, cancellable
  executions streaming one :class:`ProgressUpdate` per ladder rung.
* :mod:`repro.core.bounded` — the bounded query processor: error- and
  time-bounded execution with layer escalation (paper §3.2); its
  generator core ``run()`` feeds the handles.
* :mod:`repro.core.maintenance` — refresh layers from the layer
  below, decay interest, react to drift.
* :mod:`repro.core.engine` — :class:`SciBorq`, the one-stop facade.
* :mod:`repro.core.scheduler` — the shared-scan batch scheduler:
  concurrent queries scanning the same table convoy on one block
  scan, with per-query answers and charges identical to solo runs.
* :mod:`repro.core.server` / :mod:`repro.core.session` — the
  concurrent multi-session layer: one shared engine behind a
  readers-writer lock, per-user sessions with isolated cost
  accounting and default contracts.
* :mod:`repro.core.intelligence` — collaborative workload
  intelligence: the cross-session query log mined, on demand, into
  a persistable region-popularity model that recommends ladder entry
  points and seeds the next engine's interest model.
* :mod:`repro.core.monitor` — runtime contract monitoring: every
  settled query scored against its contract
  (:class:`ContractVerdict`), streamed into fleet SLA aggregates
  (:class:`SlaReport`) and tiered quality gates (:class:`GateSpec`).
"""

from repro.core.impression import Impression
from repro.core.hierarchy import ImpressionHierarchy
from repro.core.policy import (
    UniformPolicy,
    BiasedPolicy,
    LastSeenPolicy,
    build_hierarchy,
)
from repro.core.builder import ImpressionBuilder
from repro.core.quality import EstimatedResult, ImpressionEstimator
from repro.core.contracts import Contract
from repro.core.handle import ProgressUpdate, QueryHandle
from repro.core.bounded import (
    BoundedResult,
    ExecutionAttempt,
    BoundedQueryProcessor,
)
from repro.core.engine import EngineReport, SciBorq
from repro.core.monitor import (
    ContractMonitor,
    ContractVerdict,
    SlaBucket,
    SlaReport,
)
from repro.core.scheduler import SchedulerStats, SharedScanScheduler
from repro.core.session import Session, SessionStats
from repro.core.server import (
    SciBorqServer,
    ServerReport,
    ShutdownReport,
)
from repro.core.intelligence import WorkloadIntelligenceService
from repro.core.persistence import (
    load_hierarchy,
    load_intelligence,
    read_snapshot_metadata,
    save_hierarchy,
    save_intelligence,
)

__all__ = [
    "load_hierarchy",
    "load_intelligence",
    "read_snapshot_metadata",
    "save_hierarchy",
    "save_intelligence",
    "WorkloadIntelligenceService",
    "ShutdownReport",
    "Impression",
    "ImpressionHierarchy",
    "UniformPolicy",
    "BiasedPolicy",
    "LastSeenPolicy",
    "build_hierarchy",
    "ImpressionBuilder",
    "EstimatedResult",
    "ImpressionEstimator",
    "Contract",
    "ProgressUpdate",
    "QueryHandle",
    "BoundedResult",
    "ExecutionAttempt",
    "BoundedQueryProcessor",
    "SciBorq",
    "SciBorqServer",
    "SchedulerStats",
    "SharedScanScheduler",
    "Session",
    "SessionStats",
    "ContractMonitor",
    "ContractVerdict",
    "EngineReport",
    "ServerReport",
    "SlaBucket",
    "SlaReport",
]
