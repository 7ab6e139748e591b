"""Workload capture: the query log and the interest model.

"Biased sampling is steered by the observed interest in the data"
(paper §4).  The pipeline here is:

1. every executed query is recorded in the :class:`QueryLog`;
2. its predicates contribute *requested values* per attribute — the
   predicate set (:mod:`repro.workload.predicates`);
3. per-attribute Figure-5 histograms + the binned KDE ``f̆`` form the
   :class:`InterestModel`, whose ``mass`` method supplies the biased
   reservoir's acceptance weights;
4. a drift detector compares recent predicate values against the
   accumulated interest and signals when the focal points have moved,
   triggering decay/refocus (paper §3.1 "Adaptive").
"""

from repro.workload.log import QueryLog, QueryLogEntry, QueryOutcome
from repro.workload.predicates import PredicateSetCollector
from repro.workload.interest import (
    AttributeInterest,
    CoupledInterest,
    InterestModel,
)
from repro.workload.drift import DriftDetector

__all__ = [
    "QueryLog",
    "QueryLogEntry",
    "QueryOutcome",
    "PredicateSetCollector",
    "AttributeInterest",
    "CoupledInterest",
    "InterestModel",
    "DriftDetector",
]
