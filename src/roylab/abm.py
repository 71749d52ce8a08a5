"""Finite-agent oracle for the continuum equilibria.

Each agent owns one advantage draw (inverse-transform sampled from the
group's quantile) and a current sector. Sequential best-response dynamics
visit agents in a seeded random order; an agent switches only when strictly
better off under the sector shares prevailing at that moment, and the
shares update immediately. Empty-sector conventions: an agent never enters
a nonempty sector that currently has no members of their own group (the
minority penalty diverges), while a completely empty sector carries no
composition term at all. A group with no composition preference (c = 0)
sorts on its draws alone, wherever its group is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import Composition, ModelParams, _draw_advantages

__all__ = [
    "AgentPopulation",
    "ConvergenceReport",
    "sample_population",
    "best_response_round",
    "run_to_convergence",
    "deviation_count",
]


@dataclass(frozen=True)
class AgentPopulation:
    is_w: np.ndarray      # bool, one entry per agent
    delta: np.ndarray     # advantage draws
    sector: np.ndarray    # int8, values 1 or 2
    n_w: int
    n_m: int
    seed: int

    @property
    def size(self) -> int:
        return self.n_w + self.n_m

    def shares(self) -> Composition:
        """Per-group empirical sector-1 fractions."""
        in1 = self.sector == 1
        r_w = float(np.count_nonzero(in1 & self.is_w)) / self.n_w
        r_m = float(np.count_nonzero(in1 & ~self.is_w)) / self.n_m
        return Composition(r_w, r_m)

    def summary_dict(self, rounds: int, converged: bool) -> dict:
        comp = self.shares()
        return {
            "N_w": self.n_w,
            "N_m": self.n_m,
            "seed": self.seed,
            "rounds": rounds,
            "converged": converged,
            "r_w": comp.r_w,
            "r_m": comp.r_m,
        }


@dataclass(frozen=True)
class ConvergenceReport:
    shares: Composition
    rounds: int
    converged: bool
    population: AgentPopulation
    share_history: list[tuple[float, float]]
    switches: list[int]   # switches made in each round


def sample_population(
    params: ModelParams,
    n_w: int,
    n_m: int,
    seed: int,
    init_comp: Composition | None = None,
) -> AgentPopulation:
    """Draw a finite population by inverse-transform sampling.

    Agents start in the sector their draw favors (sector 1 exactly when the
    advantage is positive) unless init_comp pins initial per-group fractions,
    in which case a seeded random subset of each group is placed in sector 1.
    """
    if n_w < 1 or n_m < 1:
        raise ValueError("need at least one agent of each group")
    rng = np.random.default_rng(seed)
    delta = _draw_advantages(params, n_w, n_m, rng)
    is_w = np.zeros(n_w + n_m, dtype=bool)
    is_w[:n_w] = True

    if init_comp is None:
        sector = np.where(delta > 0.0, 1, 2).astype(np.int8)
    else:
        sector = np.full(n_w + n_m, 2, dtype=np.int8)
        k_w = int(round(init_comp.r_w * n_w))
        k_m = int(round(init_comp.r_m * n_m))
        sector[rng.permutation(n_w)[:k_w]] = 1
        sector[n_w + rng.permutation(n_m)[:k_m]] = 1
    return AgentPopulation(is_w, delta, sector, n_w, n_m, seed)


def _masses(pop: AgentPopulation, params: ModelParams):
    w_w = params.mu_w / pop.n_w
    w_m = params.mu_m / pop.n_m
    in1 = pop.sector == 1
    m1w = w_w * np.count_nonzero(in1 & pop.is_w)
    m1m = w_m * np.count_nonzero(in1 & ~pop.is_w)
    m2w = params.mu_w - m1w
    m2m = params.mu_m - m1m
    return w_w, w_m, m1w, m1m, m2w, m2m


def best_response_round(
    pop: AgentPopulation, params: ModelParams, order_seed: int
) -> tuple[AgentPopulation, int]:
    """One sequential sweep in a seeded random order; returns (pop, switches).

    Shares update after every individual switch, so later agents in the
    order react to earlier moves within the same round. Each block of the
    visit order is screened once, with numpy, against the bars at the
    current masses widened by a slack; only the candidates the screen keeps
    are decided one by one on Python floats, with the masses and thresholds
    updated after every switch, and the screen restarts at the next agent
    once either threshold has drifted more than half the slack. An agent
    screened out had fl(key - bar) <= -slack, and its bar has since moved by
    at most slack / 2, so it would not have switched when visited either:
    the sweep makes exactly the decisions and mass updates of an
    agent-by-agent visit.
    """
    sigma = params.sigma
    c_w = params.pref_w.c
    c_m = params.pref_m.c

    if sigma == 0.0 or (c_w == 0.0 and c_m == 0.0):
        # no composition term: every agent sorts on the sign of their draw,
        # whatever the visit order
        sec = np.where(pop.delta > 0.0, 1, np.where(pop.delta < 0.0, 2, pop.sector))
        sec = sec.astype(np.int8)
        return (
            AgentPopulation(pop.is_w, pop.delta, sec, pop.n_w, pop.n_m, pop.seed),
            int(np.count_nonzero(sec != pop.sector)),
        )

    rng = np.random.default_rng(order_seed)
    order = rng.permutation(pop.size)
    # Per-agent state in visit order. An agent is visited once per round, so
    # the agents not yet visited keep their starting sector. A sector-2 agent
    # gains when its gap delta - threshold is > 0, a sector-1 agent when it
    # is < 0. With key = -delta and bar = -threshold for sector-1 agents,
    # key - bar is exactly the negated gap (IEEE negation, here a product
    # with -1, is exact), so one test key - bar > 0 gives the agent-by-agent
    # decision for both.
    key = (pop.delta * (2 * pop.sector - 3))[order]
    # 0: M in sector 1, 1: M in sector 2, 2: W in sector 1, 3: W in sector 2
    cls = (2 * pop.is_w.astype(np.int8) + (pop.sector == 2))[order]
    # Python floats carry the numpy scalars' bits, and inf - inf is a quiet nan
    w_w, w_m, m1w, m1m, m2w, m2m = map(float, _masses(pop, params))
    thr_w, thr_m = _thresholds(sigma, c_w, c_m, m1w, m1m, m2w, m2m)
    switchers = []
    lo, width = 0, _BLOCK

    while lo < key.size:
        hi = min(lo + width, key.size)
        slack = _slack(sigma, c_w, c_m, w_w, w_m, m1w, m1m, m2w, m2m, thr_w, thr_m)
        drift, thr_w0, thr_m0 = 0.5 * slack, thr_w, thr_m
        bar_of = np.array((-thr_m, thr_m, -thr_w, thr_w))
        cand = np.flatnonzero(key[lo:hi] - np.take(bar_of, cls[lo:hi]) > -slack) + lo
        lo, width = hi, 2 * width
        for k, kk, cl in zip(cand.tolist(), key[cand].tolist(), cls[cand].tolist()):
            thr = thr_w if cl >= 2 else thr_m
            if not kk - (thr if cl & 1 else -thr) > 0.0:
                continue
            wgt = w_w if cl >= 2 else w_m
            if cl == 3:
                m1w += wgt
                m2w -= wgt
            elif cl == 2:
                m1w -= wgt
                m2w += wgt
            elif cl == 1:
                m1m += wgt
                m2m -= wgt
            else:
                m1m -= wgt
                m2m += wgt
            switchers.append(k)
            thr_w, thr_m = _thresholds(sigma, c_w, c_m, m1w, m1m, m2w, m2m)
            # an inf or nan drift fails too: a threshold that turns or stays
            # infinite restarts the screen
            if not (abs(thr_w - thr_w0) <= drift and abs(thr_m - thr_m0) <= drift):
                lo, width = k + 1, _BLOCK
                break

    sec = pop.sector.copy()
    moved = order[switchers]
    sec[moved] = np.where(sec[moved] == 2, 1, 2)
    return (
        AgentPopulation(pop.is_w, pop.delta, sec, pop.n_w, pop.n_m, pop.seed),
        len(switchers),
    )


def _switch_threshold(
    sigma: float, c: float, own1: float, own2: float, tot1: float, tot2: float
) -> float:
    """sigma * (h1 - h2): the draw above which one group's agents prefer sector 1.

    h is the minority penalty c * total / own in each sector, 0 in an empty
    sector and infinite in a nonempty sector without the group. On the
    continuum this difference is the model's composition gain, which the
    per-group view model._Group evaluates on sector-1 fractions; here it is
    written on the population's sector masses, so it is also defined where
    a sector holds none of the group, or nobody at all. Without a
    composition term (sigma * c = 0) the threshold is 0 wherever the group
    is, as in model.h_eval and g_eval.
    """
    if sigma * c == 0.0:
        return 0.0
    if tot1 <= 0.0:
        h1 = 0.0
    elif own1 <= 0.0:
        h1 = math.inf
    else:
        h1 = c * tot1 / own1
    if tot2 <= 0.0:
        h2 = 0.0
    elif own2 <= 0.0:
        h2 = math.inf
    else:
        h2 = c * tot2 / own2
    return sigma * (h1 - h2)


def _thresholds(sigma, c_w, c_m, m1w, m1m, m2w, m2m) -> tuple[float, float]:
    """Both groups' switch thresholds at the given sector masses."""
    tot1 = m1w + m1m
    tot2 = m2w + m2m
    return (
        _switch_threshold(sigma, c_w, m1w, m2w, tot1, tot2),
        _switch_threshold(sigma, c_m, m1m, m2m, tot1, tot2),
    )


#: first block of the visit order screened at once; doubles while no restart
_BLOCK = 1024
#: screen slack in units of the largest threshold move that one switch makes
_SLACK = 16.0


def _slack(sigma, c_w, c_m, w_w, w_m, m1w, m1m, m2w, m2m, thr_w, thr_m) -> float:
    """Margin by which a screen widens the bars at the current masses.

    _SLACK times the largest move of either threshold after one W or one M
    agent switches either way; 0 when a threshold is, or would become, not
    finite. Any value >= 0 keeps the round exact: it only sets how many
    candidates are decided one by one and how often the screen restarts.
    """
    if not (math.isfinite(thr_w) and math.isfinite(thr_m)):
        return 0.0
    step = 0.0
    for d_w, d_m in ((w_w, 0.0), (-w_w, 0.0), (0.0, w_m), (0.0, -w_m)):
        t_w, t_m = _thresholds(sigma, c_w, c_m, m1w + d_w, m1m + d_m, m2w - d_w, m2m - d_m)
        step = max(step, abs(t_w - thr_w), abs(t_m - thr_m))
    return _SLACK * step if step < math.inf else 0.0


def run_to_convergence(
    pop: AgentPopulation, params: ModelParams, max_rounds: int = 1000
) -> ConvergenceReport:
    """Iterate sequential rounds until a full sweep makes no switch.

    Round r uses the order seed derived from (population seed, r), so a rerun
    with the same population is bit-identical.
    """
    if max_rounds < 1:
        raise ValueError("max_rounds must be at least 1")
    history = [_shares_tuple(pop)]
    switches = []
    converged = False
    rounds = 0
    for r in range(max_rounds):
        order_seed = int(np.random.SeedSequence([pop.seed & 0x7FFFFFFF, r]).generate_state(1)[0])
        pop, switched = best_response_round(pop, params, order_seed)
        rounds = r + 1
        history.append(_shares_tuple(pop))
        switches.append(switched)
        if switched == 0:
            converged = True
            break
    return ConvergenceReport(pop.shares(), rounds, converged, pop, history, switches)


def _shares_tuple(pop: AgentPopulation) -> tuple[float, float]:
    comp = pop.shares()
    return (comp.r_w, comp.r_m)


def deviation_count(pop: AgentPopulation, params: ModelParams) -> int:
    """Number of strictly improving unilateral switches at frozen shares.

    Zero exactly when a sequential round would make no switch, since a
    switch-free sweep never changes the shares it evaluates against.
    """
    w_w, w_m, m1w, m1m, m2w, m2m = _masses(pop, params)
    tot1 = m1w + m1m
    tot2 = m2w + m2m
    term_w = _switch_threshold(params.sigma, params.pref_w.c, m1w, m2w, tot1, tot2)
    term_m = _switch_threshold(params.sigma, params.pref_m.c, m1m, m2m, tot1, tot2)
    gap = np.where(pop.is_w, pop.delta - term_w, pop.delta - term_m)
    improving = np.where(pop.sector == 2, gap > 0.0, gap < 0.0)
    return int(np.count_nonzero(improving))
