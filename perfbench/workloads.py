"""The inputs each benchmark workload hands to layersep.

Experiment workloads are slices of the full-size default plans (point level
``n=10000``, set level ``n=1000``, ``r`` in {0, 0.5, 0.8, 0.9}); each run is one
``layersep experiment`` invocation whose master seed is the workload seed.
The oracle workload is a fixed (d, k) grid of small hull instances, as in
acceptance criterion 2 but with k at most 8, repeated with r alternating
between 0 and 0.5, and with the points drawn from the workload seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from layersep import LayerSpec, sample_layer

R_GRID = (0.0, 0.5, 0.8, 0.9)


@dataclass(frozen=True)
class PlanWorkload:
    """One ``layersep experiment`` plan; cells are the (d, r) grid points."""

    mode: str
    d_values: tuple[int, ...]
    n: int
    trials: int
    r_values: tuple[float, ...] = R_GRID

    @property
    def cells(self) -> int:
        return len(self.d_values) * len(self.r_values)

    @property
    def total_trials(self) -> int:
        return self.cells * self.trials

    def argv(self, seed: int, workers: int, output: str) -> list[str]:
        return [
            "experiment",
            "--mode", self.mode,
            "--d", ",".join(str(d) for d in self.d_values),
            "--r", ",".join(repr(r) for r in self.r_values),
            "--n", str(self.n),
            "--trials", str(self.trials),
            "--seed", str(seed),
            "--workers", str(workers),
            "--output", output,
        ]


PLANS = {
    # sampling-bound: 30 odd dimensions x 4 radii x 2 trials, n = 10000
    "point_full": PlanWorkload("point", tuple(range(1, 60, 2)), 10000, 2),
    # LP-bound: cells of the set plan where the LP takes most of the time and
    # whose sets are separable, so no early exit makes their cost erratic
    "set_lp": PlanWorkload("set", (10, 11), 1000, 2, (0.8, 0.9)),
    # Fisher-bound: high d, where Fisher settles every point and no LP runs
    "set_fisher": PlanWorkload("set", tuple(range(30, 81, 10)), 1000, 2),
}

XVAL_D = range(1, 5)
# the oracle's cost grows about tenfold from k=8 to k=12 at d=4, so a few
# k > 8 instances would carry most of a pass and make its cost swing from
# seed to seed; many instances of similar cost average out instead
XVAL_K = range(1, 9)
XVAL_R = (0.0, 0.5)
XVAL_REPEATS = 3
# extra instances at the largest k whose query repeats a cloud point, the
# degenerate hull-membership case criterion 2 also covers
XVAL_DUPLICATES = 4
XVAL_WORKLOAD = "xval_exact"

WORKLOADS = (*PLANS, XVAL_WORKLOAD)


def pair_seed(seed: int, pair: int) -> int:
    """Seed of a timed run's pair of passes: the workload seed, then seeds drawn from it."""
    if pair == 0:
        return seed
    return int(np.random.SeedSequence((seed, pair)).generate_state(1, np.uint64)[0] >> 1)


def xval_instances(seed: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """``(x, others)`` pairs: each (d, k) XVAL_REPEATS times, r alternating, then the duplicates."""
    rng = np.random.default_rng(seed)
    instances = []
    for repeat in range(XVAL_REPEATS):
        for d in XVAL_D:
            for k in XVAL_K:
                r = XVAL_R[(d + k + repeat) % len(XVAL_R)]
                cloud = sample_layer(LayerSpec(d=d, r=r), k + 1, int(rng.integers(2**63)))
                instances.append((cloud.points[-1], cloud.points[:-1]))
    k = XVAL_K[-1]
    for i in range(XVAL_DUPLICATES):
        d = XVAL_D[i % len(XVAL_D)]
        cloud = sample_layer(LayerSpec(d=d, r=0.0), k, int(rng.integers(2**63)))
        others = cloud.points
        instances.append((others[int(rng.integers(k))].copy(), others))
    return instances
