"""SciBORQ reproduction — Scientific data management with Bounds On
Runtime and Quality (Sidirourgos, Kersten & Boncz, CIDR 2011).

The package reproduces the paper's full system on a pure-Python
substrate:

* :mod:`repro.columnstore` — the MonetDB stand-in (vectorised column
  store with materialised intermediates, recycler, load pipeline);
* :mod:`repro.skyserver` — the synthetic SkyServer (schema, sky
  generator, cone-search workload);
* :mod:`repro.stats` — histograms, exact and binned KDE, Fisher's
  noncentral hypergeometric distribution, design-based estimators;
* :mod:`repro.workload` — query log, predicate sets, interest model,
  drift detection;
* :mod:`repro.sampling` — Algorithm R, Last Seen, biased reservoir
  and πps samplers;
* :mod:`repro.core` — impressions, hierarchies, bounded query
  processing, maintenance, and the :class:`~repro.core.engine.SciBorq`
  facade.

Quickstart::

    from repro import SciBorq, Contract, Query, AggregateSpec, RadialPredicate
    from repro.skyserver import create_skyserver_catalog, build_skyserver
    from repro.skyserver.schema import RA_RANGE, DEC_RANGE

    engine = SciBorq(create_skyserver_catalog(),
                     interest_attributes={"ra": RA_RANGE, "dec": DEC_RANGE},
                     rng=42)
    engine.create_hierarchy("PhotoObjAll", policy="uniform",
                            layer_sizes=(50_000, 5_000, 500))
    build_skyserver(600_000, loader=engine.loader, rng=43)

    query = Query(table="PhotoObjAll",
                  predicate=RadialPredicate("ra", "dec", 185.0, 0.0, 3.0),
                  aggregates=[AggregateSpec("count")])
    result = engine.execute(query, Contract.within_error(0.1))
    print(result.describe())

    for update in engine.submit(query, Contract.within_error(0.0)):
        print(update.describe())          # one update per ladder rung
"""

from repro.columnstore import (
    AggregateSpec,
    And,
    Between,
    Catalog,
    Comparison,
    Executor,
    JoinSpec,
    Loader,
    Not,
    Or,
    Query,
    RadialPredicate,
    Recycler,
    Table,
    TruePredicate,
)
from repro.core import (
    BiasedPolicy,
    BoundedQueryProcessor,
    BoundedResult,
    Contract,
    ContractMonitor,
    ContractVerdict,
    GateReport,
    GateSpec,
    Impression,
    ImpressionHierarchy,
    LastSeenPolicy,
    ProgressUpdate,
    QueryHandle,
    SciBorq,
    SciBorqServer,
    ServerReport,
    Session,
    SlaReport,
    UniformPolicy,
    build_hierarchy,
)
from repro.errors import (
    BudgetExceededError,
    QualityBoundError,
    SciborqError,
)
from repro.stats import Estimate

__version__ = "1.0.0"

__all__ = [
    "AggregateSpec",
    "And",
    "Between",
    "Catalog",
    "Comparison",
    "Executor",
    "JoinSpec",
    "Loader",
    "Not",
    "Or",
    "Query",
    "RadialPredicate",
    "Recycler",
    "Table",
    "TruePredicate",
    "BiasedPolicy",
    "BoundedQueryProcessor",
    "BoundedResult",
    "Contract",
    "ContractMonitor",
    "ContractVerdict",
    "GateReport",
    "GateSpec",
    "Impression",
    "ImpressionHierarchy",
    "LastSeenPolicy",
    "ProgressUpdate",
    "QueryHandle",
    "SciBorq",
    "SciBorqServer",
    "ServerReport",
    "Session",
    "SlaReport",
    "UniformPolicy",
    "build_hierarchy",
    "BudgetExceededError",
    "QualityBoundError",
    "SciborqError",
    "Estimate",
    "__version__",
]
