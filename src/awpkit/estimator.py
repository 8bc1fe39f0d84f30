"""Sample-based discrepancy estimation with confidence radii.

For a node with known total mass ``w_star`` over ``n_leaves`` leaves, draws
are weights of leaves sampled uniformly with replacement from the node.
Writing W = w_star / n_leaves for the node average, the unbiased estimate
of the node discrepancy from m draws z_1..z_m is

    w_star + (n_leaves / m) * (sum_i |z_i - W| - sum_i z_i)

which is exact in expectation because E|Z - W| recovers the mean absolute
deviation and E Z recovers w_star / n_leaves.  The estimate is reported as
is, without clamping to [0, 2 * w_star].

Radii hold simultaneously over all sample sizes for each of k tracked
nodes: confidence delta is split as delta(m) = 3 * delta / (k * pi^2 * m^2)
across nodes and sample sizes (sum_m 1/m^2 = pi^2 / 6, two-sided).  The
variance-adaptive radius applies the same split so that both kinds share
one coverage guarantee; setting AWPKIT_STRICT_PAPER=1 in the environment
(or strict_paper=True) drops the split there and uses the plain per-use
confidence ln(2/delta).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import inf, log, pi, sqrt

from awpkit.tree import InvariantError

SAMPLE_TOL = 1e-12

RADIUS_MODES = ("hoeffding", "bernstein", "min")


@dataclass
class NodeStats:
    """Per-node sampling state: known mass, leaf count, draw count and the
    running sums that make the estimate and radii O(1) per update.

    Neither the draws' values nor their leaves are kept here.
    """

    node_id: int
    w_star: float
    n_leaves: int
    m: int = field(default=0, init=False)
    mean_weight: float = field(init=False, repr=False)   # w_star / n_leaves
    _sum_z: float = field(default=0.0, init=False, repr=False)
    _sum_dev: float = field(default=0.0, init=False, repr=False)   # sum |z - W|
    _sum_zp: float = field(default=0.0, init=False, repr=False)    # sum (|z - W| - z)
    _sum_zp2: float = field(default=0.0, init=False, repr=False)   # sum (|z - W| - z)^2

    def __post_init__(self):
        if self.w_star < 0.0:
            raise InvariantError(f"negative node mass {self.w_star!r}")
        if self.n_leaves < 1:
            raise InvariantError(f"node must cover at least one leaf, got {self.n_leaves}")
        self.mean_weight = self.w_star / self.n_leaves

    def push(self, value: float) -> None:
        value = float(value)
        if not (0.0 <= value <= self.w_star + SAMPLE_TOL):
            raise InvariantError(
                f"sample {value!r} outside [0, {self.w_star!r}] for node {self.node_id}"
            )
        self.m += 1
        dev = abs(value - self.mean_weight)
        zp = dev - value
        self._sum_z += value
        self._sum_dev += dev
        self._sum_zp += zp
        self._sum_zp2 += zp * zp


def estimate_discrepancy(stats: NodeStats) -> float:
    """Unbiased node-discrepancy estimate from the draws seen so far."""
    m = stats.m
    if m == 0:
        raise ValueError("no samples to estimate from")
    return stats.w_star + (stats.n_leaves / m) * (stats._sum_dev - stats._sum_z)


_PI_SQ = pi**2


def confidence_radius(
    stats: NodeStats,
    k: int,
    delta: float,
    mode: str = "min",
    *,
    strict_paper: bool = False,
) -> float:
    """Confidence radius of a node's discrepancy estimate.

    mode "hoeffding" is the range-based radius
    w_star * sqrt(2 ln(2/d) / m), and mode "bernstein" the
    variance-adaptive one: with V the unbiased variance of the centered
    draws |z - W| - z,

        n_leaves * sqrt(8 V ln(2/d) / m)  +  28 w_star ln(2/d) / (3 (m - 1))

    Here d is the split confidence delta(m) = 3 delta / (k pi^2 m^2), or,
    for the Bernstein radius under strict_paper, the raw delta.  Mode "min"
    takes the pointwise minimum of both.  Infinite before the first draw,
    and for the Bernstein radius also at m = 1, where the variance is
    undefined; zero for Hoeffding on a zero-mass node.

    The engine calls this once per draw, so both radii are computed in
    this one body, without helper calls.
    """
    if mode not in RADIUS_MODES:
        raise ValueError(f"unknown radius mode {mode!r}")
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    if not (0.0 < delta < 1.0):
        raise ValueError(f"delta must lie in (0, 1), got {delta!r}")
    m = stats.m
    if m == 0:
        return inf
    # ln(2 / delta(m)) with delta(m) = 3 delta / (k pi^2 m^2)
    log_term = log(2.0 * k * _PI_SQ * m * m / (3.0 * delta))
    hoeffding = stats.w_star * sqrt(2.0 * log_term / m)
    if mode == "hoeffding":
        return hoeffding
    if m == 1:
        bernstein = inf
    else:
        if strict_paper:
            log_term = log(2.0 / delta)
        # Pairwise-difference form reduced to O(m):
        # sum_{i<j} (a_i - a_j)^2 = m * sum a_i^2 - (sum a_i)^2, over m(m-1).
        var = (m * stats._sum_zp2 - stats._sum_zp**2) / (m * (m - 1))
        if var < 0.0:
            var = 0.0
        bernstein = stats.n_leaves * sqrt(8.0 * var * log_term / m) + (
            28.0 * stats.w_star * log_term / (3.0 * (m - 1))
        )
    if mode == "bernstein":
        return bernstein
    # min(hoeffding, bernstein), without the builtin's call cost.
    return bernstein if bernstein < hoeffding else hoeffding
