"""Partial identification from realized incomes and observed compositions.

Only the chosen sector's income is observed, so the advantage distribution
is never point identified. Two families of moment inequalities bound it
anyway: a sector-1 member with income at most y must have an advantage
between the selection cutoff and y minus the minimum wage, and a sector-2
member with income at most y must have an advantage between the wage floor
minus y and the cutoff (their forgone income is at least the floor, their
realized one at most y). Integrating the cutoff over the known utility-noise
law turns each statement into a computable lower bound on a population
probability, and structural parameter vectors that violate any bound, or
that place no equilibrium at the observed composition, are rejected.
"""

from __future__ import annotations

import csv
import functools
import io
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .equilibrium import _census, solve_closed_form_beta1
from .model import (
    AdvantageSpec,
    Composition,
    ModelParams,
    PreferenceSpec,
    TypeId,
    _draw_advantages,
    _Group,
    _groups,
    advantage_cdf,
)

__all__ = [
    "NoiseSpec",
    "ObservedData",
    "CandidateParams",
    "GridAxis",
    "GridSpec",
    "Violation",
    "IdentifiedSet",
    "empirical_joint_cdf",
    "g_star",
    "lhs_moment",
    "check_inequalities",
    "equilibrium_consistent",
    "identified_set",
    "default_y_grid",
    "simulate_observed_data",
]

#: inequalities are violations only beyond this slack
SLACK_TOL = -1e-9

#: an accepted candidate has an equilibrium within this L-infinity distance
#: of the observed composition
CONSISTENCY_TOL = 0.01

_QUAD_NODES = 64
_QUAD_SPAN = 8.0  # integration half-width in noise scales


@dataclass(frozen=True)
class NoiseSpec:
    """Law of the additive utility noise in the selection rule."""

    family: str = "degenerate"
    scale: float = 0.0

    def __post_init__(self):
        if self.family not in ("degenerate", "logistic", "gaussian"):
            raise ValueError(f"unknown noise family {self.family!r}")
        if self.scale < 0.0:
            raise ValueError("noise scale must be nonnegative")
        if self.family == "degenerate" and self.scale != 0.0:
            raise ValueError("degenerate noise requires scale 0")
        if self.family != "degenerate" and self.scale == 0.0:
            raise ValueError(f"{self.family} noise requires a positive scale")

    def quadrature(self) -> tuple[np.ndarray, np.ndarray]:
        """Nodes and weights approximating integration against the noise law.

        Computed once per spec; the arrays are read-only.
        """
        return self._quadrature

    @functools.cached_property
    def _quadrature(self) -> tuple[np.ndarray, np.ndarray]:
        if self.family == "degenerate":
            return _read_only(np.array([0.0]), np.array([1.0]))
        x, w = np.polynomial.legendre.leggauss(_QUAD_NODES)
        half = _QUAD_SPAN * self.scale
        nodes = x * half
        if self.family == "logistic":
            z = np.exp(-np.abs(nodes) / self.scale)
            dens = z / (self.scale * (1.0 + z) ** 2)
        else:
            dens = np.exp(-0.5 * (nodes / self.scale) ** 2) / (
                self.scale * math.sqrt(2.0 * math.pi)
            )
        weights = w * half * dens
        return _read_only(nodes, weights)


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    for a in arrays:
        a.flags.writeable = False
    return arrays


@dataclass(frozen=True)
class ObservedData:
    """Realized incomes by group and sector plus the aggregate observables."""

    is_w: np.ndarray
    sector: np.ndarray
    income: np.ndarray
    observed_comp: Composition
    pop_ratio: float
    min_wage: float
    _cells: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self):
        if self.income.size == 0:
            raise ValueError("observed dataset is empty")
        if self.pop_ratio <= 0.0:
            raise ValueError("population ratio must be positive")
        if self.min_wage < 0.0:
            raise ValueError("minimum wage must be nonnegative")
        if np.any(self.income < self.min_wage - 1e-12):
            raise ValueError("incomes below the minimum wage are inconsistent")
        for w in (True, False):
            for s in (1, 2):
                vals = np.sort(self.income[(self.is_w == w) & (self.sector == s)])
                self._cells[(w, s)] = vals

    @property
    def size(self) -> int:
        return int(self.income.size)

    def cell(self, t: TypeId, sector: int) -> np.ndarray:
        return self._cells[(t is TypeId.W, sector)]

    def share(self, t: TypeId) -> float:
        """Population share of a group implied by the mass ratio."""
        r = self.pop_ratio
        return r / (1.0 + r) if t is TypeId.W else 1.0 / (1.0 + r)

    def to_csv(self) -> str:
        out = io.StringIO()
        out.write("type,sector,income\n")
        for w, s, y in zip(self.is_w, self.sector, self.income):
            out.write(f"{'w' if w else 'm'},{int(s)},{format(float(y), '.17g')}\n")
        return out.getvalue()

    def sidecar_dict(self) -> dict:
        return {
            "r_w_star": self.observed_comp.r_w,
            "r_m_star": self.observed_comp.r_m,
            "pop_ratio": self.pop_ratio,
            "min_wage": self.min_wage,
        }

    @classmethod
    def from_csv(cls, text: str, sidecar: dict) -> "ObservedData":
        rows = list(csv.reader(io.StringIO(text)))
        if not rows or rows[0] != ["type", "sector", "income"]:
            raise ValueError("expected header 'type,sector,income'")
        is_w, sector, income = [], [], []
        for k, row in enumerate(rows[1:], start=2):
            if len(row) != 3 or row[0] not in ("w", "m") or row[1] not in ("1", "2"):
                raise ValueError(f"malformed data row {k}: {row}")
            try:
                y = float(row[2])
            except ValueError as exc:
                raise ValueError(f"malformed income in row {k}: {row[2]!r}") from exc
            is_w.append(row[0] == "w")
            sector.append(int(row[1]))
            income.append(y)
        return cls(
            is_w=np.array(is_w, dtype=bool),
            sector=np.array(sector, dtype=np.int8),
            income=np.array(income, dtype=float),
            observed_comp=Composition(sidecar["r_w_star"], sidecar["r_m_star"]),
            pop_ratio=float(sidecar["pop_ratio"]),
            min_wage=float(sidecar["min_wage"]),
        )


@dataclass(frozen=True)
class CandidateParams:
    """One structural parameter vector on the identification grid."""

    re_w: float
    re_m: float
    c_w: float
    c_m: float
    C_w: float
    C_m: float
    beta: float = 1.0

    def to_model_params(self, pop_ratio: float) -> ModelParams:
        adv_w, adv_m = self._advs
        return ModelParams(
            mu_w=float(pop_ratio),
            mu_m=1.0,
            pref_w=PreferenceSpec(float(self.c_w)),
            pref_m=PreferenceSpec(float(self.c_m)),
            adv_w=adv_w,
            adv_m=adv_m,
        )

    def adv(self, t: TypeId) -> AdvantageSpec:
        return self._advs[0 if t is TypeId.W else 1]

    @functools.cached_property
    def _advs(self) -> tuple[AdvantageSpec, AdvantageSpec]:
        """The (W, M) advantage laws, built and certified once per candidate."""
        beta = float(self.beta)
        return (
            AdvantageSpec(float(self.C_w), float(self.re_w), beta),
            AdvantageSpec(float(self.C_m), float(self.re_m), beta),
        )


@dataclass(frozen=True)
class GridAxis:
    lo: float
    hi: float
    count: int

    def values(self) -> np.ndarray:
        if self.count < 1:
            raise ValueError("axis needs at least one point")
        if self.count == 1:
            return np.array([self.lo])
        return np.linspace(self.lo, self.hi, self.count)


@dataclass(frozen=True)
class GridSpec:
    re_w: GridAxis
    re_m: GridAxis
    c_w: GridAxis
    c_m: GridAxis
    C_w: GridAxis
    C_m: GridAxis
    beta: float = 1.0

    def candidates(self):
        axes = [
            self.re_w.values(),
            self.re_m.values(),
            self.c_w.values(),
            self.c_m.values(),
            self.C_w.values(),
            self.C_m.values(),
        ]
        for re_w, re_m, c_w, c_m, C_w, C_m in itertools.product(*axes):
            yield CandidateParams(
                float(re_w), float(re_m), float(c_w), float(c_m),
                float(C_w), float(C_m), self.beta,
            )


@dataclass(frozen=True)
class Violation:
    t: TypeId
    y: float
    side: int
    slack: float


@dataclass
class IdentifiedSet:
    grid_spec: GridSpec
    accepted: list[CandidateParams]
    diagnostics: list[dict]


def empirical_joint_cdf(
    data: ObservedData, y: float, sector: int, t: TypeId, tail: bool = False
) -> float:
    """Fraction of all samples in a group-sector cell at or below y.

    With tail=True the strict upper tail (income > y) is counted instead;
    both are normalized by the full sample size, so group weights enter as
    empirical shares.
    """
    cell = data.cell(t, sector)
    k = int(np.searchsorted(cell, y, side="right"))
    count = cell.size - k if tail else k
    return count / data.size


def g_star(candidate: CandidateParams, data: ObservedData) -> tuple[float, float]:
    """Net composition gains at the observed composition under a candidate."""
    comp = data.observed_comp
    if not comp.interior:
        raise ValueError(
            "observed composition on the boundary makes the selection cutoffs infinite"
        )
    r = data.pop_ratio
    # the views _groups(candidate.to_model_params(r)) holds, bit for bit,
    # without building ModelParams for every candidate
    g_w = _Group(candidate.C_w, candidate.re_w, candidate.beta, candidate.c_w * (1.0 / r))
    g_m = _Group(candidate.C_m, candidate.re_m, candidate.beta, candidate.c_m * r)
    return float(g_w.penalty(comp.r_w, comp.r_m)), float(g_m.penalty(comp.r_m, comp.r_w))


def _g_star_for(candidate: CandidateParams, data: ObservedData, t: TypeId) -> float:
    gw, gm = g_star(candidate, data)
    return gw if t is TypeId.W else gm


def lhs_moment(
    candidate: CandidateParams,
    t: TypeId,
    y: float,
    side: int,
    noise: NoiseSpec,
    data: ObservedData,
) -> float:
    """Model-implied lower bound at one income threshold.

    Side 1 integrates max(0, F(y - w_min) - F(g* + xi)) over the noise law;
    side 2 integrates max(0, F(g* + xi) - F(w_min - y)). Both carry the
    group's population share so they compare against joint empirical
    frequencies.
    """
    if y < data.min_wage:
        raise ValueError("income thresholds below the minimum wage are vacuous")
    if side not in (1, 2):
        raise ValueError("side must be 1 or 2")
    adv = candidate.adv(t)
    gs = _g_star_for(candidate, data, t)
    nodes, weights = noise.quadrature()
    f_cut = advantage_cdf(adv, gs + nodes)
    if side == 1:
        f_y = advantage_cdf(adv, y - data.min_wage)
        integrand = np.maximum(0.0, f_y - f_cut)
    else:
        f_y = advantage_cdf(adv, data.min_wage - y)
        integrand = np.maximum(0.0, f_cut - f_y)
    return data.share(t) * float(np.dot(weights, integrand))


def check_inequalities(
    candidate: CandidateParams,
    data: ObservedData,
    y_grid,
    noise: NoiseSpec,
) -> list[Violation]:
    """All (group, threshold, side) cells where a bound fails beyond SLACK_TOL.

    Side 1 requires the model mass of advantages in (cutoff, y - w_min] to
    cover the empirical frequency of (income <= y, sector 1); side 2
    requires the mass in (w_min - y, cutoff] to cover the frequency of
    (income <= y, sector 2). Both low-income events pin the forgone income
    down to the wage floor, which is what makes the advantage interval
    observable.
    """
    y_grid = np.asarray(y_grid, dtype=float)
    if y_grid.size == 0:
        raise ValueError("y_grid must be nonempty")
    if np.any(y_grid < data.min_wage):
        raise ValueError("y_grid values must be at least the minimum wage")
    nodes, weights = noise.quadrature()
    violations = []
    for t in (TypeId.W, TypeId.M):
        adv = candidate.adv(t)
        share = data.share(t)
        f_cut = advantage_cdf(adv, _g_star_for(candidate, data, t) + nodes)
        f_low = advantage_cdf(adv, y_grid - data.min_wage)
        lhs1 = share * np.maximum(0.0, f_low[:, None] - f_cut[None, :]) @ weights
        cell1 = data.cell(t, 1)
        rhs1 = np.searchsorted(cell1, y_grid, side="right") / data.size
        f_hi = advantage_cdf(adv, data.min_wage - y_grid)
        lhs2 = share * np.maximum(0.0, f_cut[None, :] - f_hi[:, None]) @ weights
        cell2 = data.cell(t, 2)
        rhs2 = np.searchsorted(cell2, y_grid, side="right") / data.size
        for side, slack_arr in ((1, lhs1 - rhs1), (2, lhs2 - rhs2)):
            for y, slack in zip(y_grid, slack_arr):
                if slack < SLACK_TOL:
                    violations.append(Violation(t, float(y), side, float(slack)))
    return violations


def equilibrium_consistent(candidate: CandidateParams, data: ObservedData, tol: float) -> bool:
    """Whether some equilibrium of the candidate sits near the observed state.

    Answers for the default census of enumerate_equilibria, restricted to
    the box of L-infinity radius tol around the observed composition: the
    same scans, run only on the axis intervals that meet the box, so the
    verdict is the full census's verdict.
    """
    params = candidate.to_model_params(data.pop_ratio)
    obs = data.observed_comp
    box = ((obs.r_w - tol, obs.r_w + tol), (obs.r_m - tol, obs.r_m + tol))
    return bool(_census(params, box=box))


def default_y_grid(data: ObservedData, n: int = 50) -> np.ndarray:
    """Evenly spaced interior quantiles of the pooled income sample.

    The top quantiles are avoided deliberately: with power-tailed advantage
    laws the bounds bind exactly there (the model-implied slack decays like
    the advantage density at the threshold), so with a fixed rejection slack
    and no sampling-uncertainty correction, sampling noise alone would flag
    the generating parameters. Thresholds up to the 85th percentile carry
    the identifying power without that failure mode.
    """
    qs = np.linspace(0.02, 0.85, n)
    grid = np.quantile(data.income, qs)
    return np.maximum(grid, data.min_wage)


def identified_set(
    grid: GridSpec,
    data: ObservedData,
    noise: NoiseSpec,
    y_grid,
) -> IdentifiedSet:
    """Grid search for parameter vectors surviving all rejection criteria.

    A candidate is accepted when every moment inequality holds on the
    threshold grid and some equilibrium of the implied model's default
    census lies within CONSISTENCY_TOL of the observed composition.
    Diagnostics record the worst slack and the consistency verdict for
    every candidate in deterministic grid order.
    """
    accepted = []
    diagnostics = []
    for cand in grid.candidates():
        violations = check_inequalities(cand, data, y_grid, noise)
        worst = min((v.slack for v in violations), default=0.0)
        ok_eq = equilibrium_consistent(cand, data, CONSISTENCY_TOL)
        ok = not violations and ok_eq
        if ok:
            accepted.append(cand)
        diagnostics.append(
            {
                "candidate": cand,
                "worst_slack": worst,
                "n_violations": len(violations),
                "equilibrium_ok": ok_eq,
                "accepted": ok,
            }
        )
    return IdentifiedSet(grid_spec=grid, accepted=accepted, diagnostics=diagnostics)


def simulate_observed_data(
    params: ModelParams,
    n_total: int,
    seed: int,
    noise: NoiseSpec = NoiseSpec(),
    min_wage: float = 1.0,
    base_scale: float | None = None,
    comp: Composition | None = None,
) -> ObservedData:
    """Generate a synthetic dataset consistent with the model's premises.

    Potential incomes are built as base + max(delta, 0) in sector 1 and
    base + max(-delta, 0) in sector 2 with base = min_wage + an exponential
    level draw, so the advantage law is exact, both potential incomes
    respect the wage floor, and only the advantage law matters for the
    bounds. Sector choice follows the noisy cutoff rule at the equilibrium
    composition, which defaults to the closed form for unit tail exponent.
    """
    if comp is None:
        comp = solve_closed_form_beta1(params).point.comp
    if not comp.interior:
        raise ValueError("simulation requires an interior equilibrium composition")
    rng = np.random.default_rng(seed)
    r = params.pop_ratio
    n_w = int(round(n_total * r / (1.0 + r)))
    n_m = n_total - n_w

    if base_scale is None:
        base_scale = 4.0 * max(params.adv_w.C, params.adv_m.C)

    is_w = np.zeros(n_total, dtype=bool)
    is_w[:n_w] = True
    delta = _draw_advantages(params, n_w, n_m, rng)
    if noise.family == "degenerate":
        xi = np.zeros(n_total)
    elif noise.family == "logistic":
        v = np.clip(rng.random(n_total), 1e-15, 1 - 1e-15)
        xi = noise.scale * np.log(v / (1.0 - v))
    else:
        xi = noise.scale * rng.standard_normal(n_total)
    g_w, g_m = _groups(params)
    cutoff = np.where(is_w, g_w.penalty(comp.r_w, comp.r_m), g_m.penalty(comp.r_m, comp.r_w))
    sector = np.where(delta > cutoff + xi, 1, 2).astype(np.int8)
    base = min_wage + rng.exponential(base_scale, size=n_total)
    income = np.where(sector == 1, base + np.maximum(delta, 0.0),
                      base + np.maximum(-delta, 0.0))
    return ObservedData(
        is_w=is_w,
        sector=sector,
        income=income,
        observed_comp=comp,
        pop_ratio=r,
        min_wage=min_wage,
    )
