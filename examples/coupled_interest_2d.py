"""2-D coupled interest, from the paper's footnote 3.

Run:  python examples/coupled_interest_2d.py

The footnote-3 "more attractive" multi-dimensional histogram, which the
paper names but does not build: a workload probing (150,10) and
(205,40) should not boost the phantom cross-products (150,40) /
(205,10), but per-attribute marginals cannot tell them apart.  Each
model steers a 10k-tuple πps impression; the printout compares the
share of those tuples in the true targets and in the phantoms.
"""

import numpy as np

from repro import SciBorq
from repro.sampling.pps import systematic_pps_sample
from repro.skyserver import build_skyserver, create_skyserver_catalog
from repro.skyserver.schema import DEC_RANGE, RA_RANGE
from repro.workload.interest import CoupledInterest, InterestModel


def cone_share(ra, dec, ids, centre, radius=8.0):
    dx = ra[ids] - centre[0]
    dy = dec[ids] - centre[1]
    return float((dx * dx + dy * dy < radius * radius).mean())


def main() -> None:
    engine = SciBorq(
        create_skyserver_catalog(),
        interest_attributes={"ra": RA_RANGE, "dec": DEC_RANGE},
        rng=71,
    )
    build_skyserver(150_000, loader=engine.loader, rng=72)
    base = engine.catalog.table("PhotoObjAll")
    ra, dec = base["ra"], base["dec"]

    print("2-D coupled interest vs per-attribute marginals")
    rng = np.random.default_rng(73)
    workload_ra = np.concatenate(
        [rng.normal(150, 3, 200), rng.normal(205, 3, 200)]
    )
    workload_dec = np.concatenate(
        [rng.normal(10, 2, 200), rng.normal(40, 2, 200)]
    )
    marginal = InterestModel({"ra": RA_RANGE, "dec": DEC_RANGE}, bins=24)
    marginal.observe_values("ra", workload_ra)
    marginal.observe_values("dec", workload_dec)
    coupled = CoupledInterest("ra", "dec", RA_RANGE, DEC_RANGE, bins=24)
    coupled.observe_pairs(workload_ra, workload_dec)

    print("  10k-tuple πps impressions steered by each model:")
    for name, model in (("marginal", marginal), ("coupled ", coupled)):
        masses = np.maximum(
            model.mass({"ra": ra.copy(), "dec": dec.copy()}), 1e-6
        )
        picked, _ = systematic_pps_sample(masses, 10_000, rng=74)
        true_share = cone_share(ra, dec, picked, (150, 10)) + cone_share(
            ra, dec, picked, (205, 40)
        )
        phantom_share = cone_share(ra, dec, picked, (150, 40)) + cone_share(
            ra, dec, picked, (205, 10)
        )
        print(
            f"    {name}: true targets {true_share:.1%}, "
            f"phantom cross-products {phantom_share:.1%}"
        )


if __name__ == "__main__":
    main()
