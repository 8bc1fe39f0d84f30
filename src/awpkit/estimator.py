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

What is kept, and for how long:
  - ``NodeStats.push`` folds each draw into the node's running sums and
    recomputes its estimate, which ``estimate_discrepancy`` returns; both
    live as long as the node's stats.
  - ``ConfidenceRadii`` checks (k, delta, mode) once and keeps, keyed by
    m, the Bernstein radius's log term, the Hoeffding factor
    sqrt(2 ln(2/delta(m)) / m) and whether Hoeffding must win at m, from
    the first radius at m for the object's life.  An engine run builds
    one from its config and drops it with the run; ``confidence_radius``
    builds one per call.  Each kept value is the float a fresh evaluation
    of the same expression gives, so every radius is too.

The Bernstein shortcut.  Bernstein's constant term
28 w_star L / (3 (m - 1)) grows with w_star exactly as the Hoeffding
radius w_star * factor does, and below a crossover sample size that
depends only on k and delta (m of about 900 to 1,000 at delta = 0.05)
its coefficient alone exceeds the Hoeffding factor.  There mode "min"
returns the Hoeffding radius without computing the variance or its
square root.  This is exact, not an approximation: with u = 2^-53,

  - the flag is set only when the float 28 L / (3 (m - 1)) is at least
    factor * (1 + 2^-40), so the real coefficient exceeds the factor by
    a relative 2^-41 or more;
  - for w_star >= 2^-900 no rounding below is subnormal, so each of the
    three roundings of the constant term T2 = fl(fl(fl(28 w_star) L) /
    (3 (m - 1))) loses a relative u at most (overflow only rounds up),
    and T2 >= w_star * factor * (1 + 2^-41) (1 - u)^3
    > w_star * factor * (1 + u) >= fl(w_star * factor), the Hoeffding
    radius;
  - the variance term is >= 0 (or nan), and rounding is monotone, so the
    Bernstein radius fl(variance term + T2) is >= T2 (or nan), and
    "bernstein < hoeffding" is false: ``min`` would have returned the
    same Hoeffding float.  At w_star = 0 both constant terms are 0 and
    the same holds without the flag; at m = 1 Bernstein is infinite.

Per draw, the engine makes two calls here: ``push``, then one
``ConfidenceRadii.radius``; the estimate is read from the stats.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import inf, log, nan, pi, sqrt

from awpkit.tree import MASS_TOL, InvariantError

RADIUS_MODES = ("hoeffding", "bernstein", "min")


@dataclass
class NodeStats:
    """Per-node sampling state: known mass, leaf count, draw count, the
    running sums that make the estimate and radii O(1) per update, and the
    estimate itself (nan before the first draw).

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
    estimate: float = field(default=nan, init=False, compare=False)

    def __post_init__(self):
        if self.w_star < 0.0:
            raise InvariantError(f"negative node mass {self.w_star!r}")
        if self.n_leaves < 1:
            raise InvariantError(f"node must cover at least one leaf, got {self.n_leaves}")
        self.mean_weight = self.w_star / self.n_leaves

    def push(self, value: float) -> None:
        value = float(value)
        if not (0.0 <= value <= self.w_star + MASS_TOL):
            raise InvariantError(
                f"sample {value!r} outside [0, {self.w_star!r}] for node {self.node_id}"
            )
        m = self.m = self.m + 1
        dev = abs(value - self.mean_weight)
        zp = dev - value
        sum_z = self._sum_z = self._sum_z + value
        sum_dev = self._sum_dev = self._sum_dev + dev
        self._sum_zp += zp
        self._sum_zp2 += zp * zp
        self.estimate = self.w_star + (self.n_leaves / m) * (sum_dev - sum_z)


def estimate_discrepancy(stats: NodeStats) -> float:
    """Unbiased node-discrepancy estimate from the draws seen so far."""
    if stats.m == 0:
        raise ValueError("no samples to estimate from")
    return stats.estimate


_PI_SQ = pi**2
# The smallest node mass for which the Bernstein shortcut's roundings stay
# normal (see the module docstring), and the flag's relative margin.
_SHORTCUT_MIN_MASS = 2.0**-900
_SHORTCUT_MARGIN = 1.0 + 2.0**-40


class ConfidenceRadii:
    """Confidence radii of k tracked nodes at confidence delta, for one run.

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

    The arguments are checked once, here.  The Bernstein log term, the
    Hoeffding factor sqrt(2 ln(2/delta(m)) / m) and, in mode "min", the
    flag that Bernstein's constant term alone beats the Hoeffding radius
    (the module docstring's shortcut) depend on m alone, so each is
    computed on the first radius at m and kept, keyed by m, for the
    object's life.
    """

    __slots__ = ("k", "delta", "mode", "strict_paper", "_strict_log", "_terms")

    def __init__(self, k: int, delta: float, mode: str = "min", *, strict_paper: bool = False):
        if mode not in RADIUS_MODES:
            raise ValueError(f"unknown radius mode {mode!r}")
        if k < 1:
            raise ValueError(f"k must be positive, got {k}")
        if not (0.0 < delta < 1.0):
            raise ValueError(f"delta must lie in (0, 1), got {delta!r}")
        self.k = k
        self.delta = delta
        self.mode = mode
        self.strict_paper = strict_paper
        self._strict_log = log(2.0 / delta)
        # m -> (Bernstein log term, Hoeffding factor, Hoeffding wins "min")
        self._terms: dict[int, tuple[float, float, bool]] = {}

    def _term(self, m: int) -> tuple[float, float, bool]:
        # ln(2 / delta(m)) with delta(m) = 3 delta / (k pi^2 m^2)
        log_term = log(2.0 * self.k * _PI_SQ * m * m / (3.0 * self.delta))
        factor = sqrt(2.0 * log_term / m)
        if self.strict_paper:
            log_term = self._strict_log
        hoeffding_wins = self.mode == "min" and (
            m == 1 or 28.0 * log_term / (3.0 * (m - 1)) >= factor * _SHORTCUT_MARGIN
        )
        return log_term, factor, hoeffding_wins

    def radius(self, stats: NodeStats) -> float:
        """The radius of stats' estimate after its m draws."""
        m = stats.m
        if m == 0:
            return inf
        term = self._terms.get(m)
        if term is None:
            term = self._terms[m] = self._term(m)
        log_term, factor, hoeffding_wins = term
        w_star = stats.w_star
        hoeffding = w_star * factor
        if hoeffding_wins and (w_star >= _SHORTCUT_MIN_MASS or w_star == 0.0):
            return hoeffding
        mode = self.mode
        if mode == "hoeffding":
            return hoeffding
        if m == 1:
            bernstein = inf
        else:
            # Pairwise-difference form reduced to O(m):
            # sum_{i<j} (a_i - a_j)^2 = m * sum a_i^2 - (sum a_i)^2, over m(m-1).
            # A float square past the float range raises rather than giving
            # inf, as a product would; ``**`` is kept for its bits.
            try:
                square = stats._sum_zp**2
            except OverflowError:
                square = inf
            var = (m * stats._sum_zp2 - square) / (m * (m - 1))
            if var < 0.0:
                var = 0.0
            bernstein = stats.n_leaves * sqrt(8.0 * var * log_term / m) + (
                28.0 * w_star * log_term / (3.0 * (m - 1))
            )
        if mode == "bernstein":
            return bernstein
        # min(hoeffding, bernstein), without the builtin's call cost.
        return bernstein if bernstein < hoeffding else hoeffding


def confidence_radius(
    stats: NodeStats,
    k: int,
    delta: float,
    mode: str = "min",
    *,
    strict_paper: bool = False,
) -> float:
    """Confidence radius of a node's discrepancy estimate; see
    ``ConfidenceRadii`` for the formulas.  Raises ValueError for an
    unknown mode, k < 1 or delta outside (0, 1)."""
    return ConfidenceRadii(k, delta, mode, strict_paper=strict_paper).radius(stats)
