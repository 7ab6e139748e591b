"""E15 (ablation) — the uniform floor under the biased acceptance.

The paper's Figure-6 probability (§4) can starve regions the
workload never visited, leaving out-of-focus queries with *unbounded*
error.  Our ``uniform_floor`` keeps a residual uniform component.
Sweep the floor and measure the inside/outside focal error trade —
floor 0 is the paper verbatim, higher floors buy outside coverage
with focal resolution.
"""

import numpy as np

from repro.sampling.pps import systematic_pps_sample
from repro.stats.estimators import ht_count

FLOORS = (0.0, 0.1, 0.5, 1.0)


def test_uniform_floor_tradeoff(benchmark, rng):
    n = 100_000
    x = rng.uniform(0, 100, n)
    focal = (x > 20) & (x < 30)  # 10% of the data, all the interest
    outside_band = (x > 60) & (x < 70)  # never queried

    def interest_mass(floor):
        return np.maximum(np.where(focal, 10.0, 0.0), floor)

    def run():
        rows = {}
        for floor in FLOORS:
            inside_err, outside_err = [], []
            for seed in range(8):
                ids, pis = systematic_pps_sample(
                    interest_mass(floor), 4_000, rng=100 + seed
                )
                m_in = focal[ids]
                m_out = outside_band[ids]
                inside = ht_count(pis[m_in]) if m_in.any() else None
                outside = ht_count(pis[m_out]) if m_out.any() else None
                inside_err.append(
                    inside.relative_error if inside else float("inf")
                )
                outside_err.append(
                    outside.relative_error if outside else float("inf")
                )
            rows[floor] = (
                float(np.median(inside_err)),
                float(np.median(outside_err)),
            )
        return rows

    rows = benchmark.pedantic(run, rounds=2, iterations=1)

    print("== E15: relative error bound vs uniform floor ==")
    print("  floor  inside-focal  outside-focal")
    for floor, (inside, outside) in rows.items():
        print(f"  {floor:<6g} {inside:<13.4g} {outside:.4g}")

    # floor 0 (the paper verbatim): outside queries are unanswerable
    assert rows[0.0][1] == float("inf")
    # any positive floor buys finite outside bounds
    for floor in FLOORS[1:]:
        assert np.isfinite(rows[floor][1])
    # raising the floor loosens focal bounds (monotone trade)
    inside_errors = [rows[f][0] for f in FLOORS]
    assert inside_errors[1] <= inside_errors[-1]
    # and tightens outside bounds
    outside_errors = [rows[f][1] for f in FLOORS[1:]]
    assert outside_errors == sorted(outside_errors, reverse=True)
