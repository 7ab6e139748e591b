"""The SkyServer stand-in: schema, synthetic sky, queries, workload.

The paper's motivating deployment is the Sloan Digital Sky Survey
SkyServer (paper §2.1): a fact table ``PhotoObjAll`` of billions of
astronomical observations, dimension tables joined by foreign keys,
the ``Galaxy`` view, and the ``fGetNearbyObjEq`` cone-search function
that dominates the public query logs.

We cannot ship the 4 TB SkyServer database, so this subpackage builds
a synthetic equivalent: object positions
drawn from a mixture of sky clusters plus uniform background, with
magnitudes, types, and observation times; a workload generator issuing
cone searches concentrated around configurable focal points.  The
experiments only depend on the marginal distributions of ``ra``/``dec``
in the base data and in the predicate set, which the generator
controls explicitly.
"""

from repro.skyserver.schema import (
    GALAXY,
    STAR,
    photoobj_schema,
    field_schema,
    frame_schema,
    photoz_schema,
    create_skyserver_catalog,
    RA_RANGE,
    DEC_RANGE,
)
from repro.skyserver.generator import SkyPatch, SkyGenerator, build_skyserver
from repro.skyserver.functions import f_get_nearby_obj_eq, nearby_query
from repro.skyserver.views import register_skyserver_views
from repro.skyserver.workload_gen import FocalPoint, WorkloadGenerator

__all__ = [
    "GALAXY",
    "STAR",
    "photoobj_schema",
    "field_schema",
    "frame_schema",
    "photoz_schema",
    "create_skyserver_catalog",
    "RA_RANGE",
    "DEC_RANGE",
    "SkyPatch",
    "SkyGenerator",
    "build_skyserver",
    "f_get_nearby_obj_eq",
    "nearby_query",
    "register_skyserver_views",
    "FocalPoint",
    "WorkloadGenerator",
]
