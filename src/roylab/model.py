"""Structural primitives of the two-group, two-sector selection model.

Two groups (W and M) sort between two sectors. Each individual draws a
sector-1 income advantage from a group-specific location-scale family and
weighs it against a hyperbolic disutility of being a small minority of
their own group in a sector. Everything downstream (equilibrium solvers,
dynamics, the agent-based oracle, identification) consumes the functions
defined here.

All values are immutable after construction; every function is pure.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

__all__ = [
    "TypeId",
    "PreferenceSpec",
    "AdvantageSpec",
    "ModelParams",
    "Composition",
    "SectorShares",
    "h_eval",
    "g_eval",
    "advantage_quantile",
    "advantage_cdf",
    "gammas",
    "sector_shares",
    "make_params",
]


class TypeId(enum.Enum):
    """The two population groups."""

    W = "w"
    M = "m"


@dataclass(frozen=True)
class PreferenceSpec:
    """Hyperbolic composition-preference strength.

    The disutility of an own-group share u in a sector is c / u, so c = 0
    means composition-indifferent and the penalty diverges as the group
    vanishes from a sector.
    """

    c: float

    def __post_init__(self) -> None:
        if not (self.c >= 0.0) or not math.isfinite(self.c):
            raise ValueError(f"preference strength c must be finite and >= 0, got {self.c}")


# Grid used to certify that the quantile map is strictly increasing.
_MONOTONE_GRID = np.arange(1, 502) / 502.0


@dataclass(frozen=True)
class AdvantageSpec:
    """Location-scale family for the sector-1 income advantage.

    The quantile map is C * (r_e - (1 - p)) / ((1 - p) * p) ** beta: zero at
    p = 1 - r_e (so a fraction r_e of the group gains from sector 1), scale C,
    and tails of order u ** -beta at both ends. Strict monotonicity over
    (0, 1) is certified numerically at construction since it can fail for
    extreme tail exponents.
    """

    C: float
    r_e: float
    beta: float

    def __post_init__(self) -> None:
        if not (self.C > 0.0) or not math.isfinite(self.C):
            raise ValueError(f"advantage scale C must be finite and > 0, got {self.C}")
        if not (0.0 < self.r_e < 1.0):
            raise ValueError(f"efficient share r_e must lie in (0, 1), got {self.r_e}")
        if not (self.beta > 0.0) or not math.isfinite(self.beta):
            raise ValueError(f"tail exponent beta must be finite and > 0, got {self.beta}")
        q = advantage_quantile(self, _MONOTONE_GRID)
        if not np.all(np.diff(q) > 0.0):
            raise ValueError(
                f"quantile map is not strictly increasing for C={self.C}, "
                f"r_e={self.r_e}, beta={self.beta}"
            )


@dataclass(frozen=True)
class ModelParams:
    """All structural primitives: masses, preferences, advantage laws, scale.

    sigma is a global multiplier on the composition-preference term; sigma = 0
    removes composition effects entirely and recovers pure income sorting.
    """

    mu_w: float
    mu_m: float
    pref_w: PreferenceSpec
    pref_m: PreferenceSpec
    adv_w: AdvantageSpec
    adv_m: AdvantageSpec
    sigma: float = 1.0

    def __post_init__(self) -> None:
        if not (self.mu_w > 0.0 and math.isfinite(self.mu_w)):
            raise ValueError(f"mass mu_w must be finite and > 0, got {self.mu_w}")
        if not (self.mu_m > 0.0 and math.isfinite(self.mu_m)):
            raise ValueError(f"mass mu_m must be finite and > 0, got {self.mu_m}")
        if not (self.sigma >= 0.0 and math.isfinite(self.sigma)):
            raise ValueError(f"preference scale sigma must be finite and >= 0, got {self.sigma}")

    @property
    def pop_ratio(self) -> float:
        """Ratio of group masses mu_w / mu_m."""
        return self.mu_w / self.mu_m

    def with_values(self, **kw) -> "ModelParams":
        """Return a copy with flat fields (c_w, C_m, re_w, beta, mu_w, ...) replaced."""
        d = self.to_dict()
        d.update(kw)
        return make_params(**d)

    def to_dict(self) -> dict:
        return {
            "mu_w": self.mu_w,
            "mu_m": self.mu_m,
            "c_w": self.pref_w.c,
            "c_m": self.pref_m.c,
            "C_w": self.adv_w.C,
            "C_m": self.adv_m.C,
            "beta": self.adv_w.beta,
            "re_w": self.adv_w.r_e,
            "re_m": self.adv_m.r_e,
            "sigma": self.sigma,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ModelParams":
        known = {"mu_w", "mu_m", "c_w", "c_m", "C_w", "C_m", "beta", "re_w", "re_m", "sigma"}
        unknown = set(d) - known
        if unknown:
            raise ValueError(f"unknown parameter keys: {sorted(unknown)}")
        missing = known - set(d) - {"sigma"}
        if missing:
            raise ValueError(f"missing parameter keys: {sorted(missing)}")
        return make_params(**d)


def make_params(
    mu_w: float = 1.0,
    mu_m: float = 1.0,
    c_w: float = 0.0,
    c_m: float = 0.0,
    C_w: float = 1.0,
    C_m: float = 1.0,
    beta: float = 1.0,
    re_w: float = 0.5,
    re_m: float = 0.5,
    sigma: float = 1.0,
) -> ModelParams:
    """Build ModelParams from flat values (the JSON wire layout)."""
    return ModelParams(
        mu_w=float(mu_w),
        mu_m=float(mu_m),
        pref_w=PreferenceSpec(float(c_w)),
        pref_m=PreferenceSpec(float(c_m)),
        adv_w=AdvantageSpec(float(C_w), float(re_w), float(beta)),
        adv_m=AdvantageSpec(float(C_m), float(re_m), float(beta)),
        sigma=float(sigma),
    )


@dataclass(frozen=True)
class Composition:
    """State of the system: the fraction of each group currently in sector 1."""

    r_w: float
    r_m: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.r_w <= 1.0) or not (0.0 <= self.r_m <= 1.0):
            raise ValueError(f"composition ({self.r_w}, {self.r_m}) outside the unit square")

    @property
    def interior(self) -> bool:
        return 0.0 < self.r_w < 1.0 and 0.0 < self.r_m < 1.0

    def sector_masses(self, params: ModelParams) -> tuple[float, float, float, float]:
        """Masses (sector1-W, sector1-M, sector2-W, sector2-M)."""
        return (
            params.mu_w * self.r_w,
            params.mu_m * self.r_m,
            params.mu_w * (1.0 - self.r_w),
            params.mu_m * (1.0 - self.r_m),
        )


class SectorShares(NamedTuple):
    """Within-sector group shares; NaN marks an empty sector."""

    w_in_1: float
    m_in_1: float
    w_in_2: float
    m_in_2: float


def h_eval(pref: PreferenceSpec, u: float) -> float:
    """Minority disutility c / u at own-group share u.

    Raises on u <= 0; boundary limits are the business of g_eval.
    """
    if u <= 0.0:
        raise ValueError(f"own-group share must be > 0, got {u}")
    if pref.c == 0.0:
        return 0.0
    return pref.c / u


def _clip(v, lo, hi):
    """np.clip(v, lo, hi) of an array v, keeping a Python float a Python float.

    On a float it gives np.clip's value bit for bit: NaN and -0.0 pass.
    """
    if isinstance(v, float):
        return lo if v < lo else hi if v > hi else v
    return v.clip(lo, hi)


def _where(cond, a, b):
    """np.where(cond, a, b), keeping a Python bool's pick a Python scalar."""
    return (a if cond else b) if isinstance(cond, bool) else np.where(cond, a, b)


def _gain(k, x, y):
    """Net composition gain k * (y - x) / (x * (1 - x)) on the open square.

    x is the own-group sector-1 fraction, y the other group's, and k the
    preference weight c * z, z being the ratio of the other group's mass to
    the own group's. Vectorized; no domain checks.
    """
    return k * (y - x) / (x * (1.0 - x))


def g_eval(pref: PreferenceSpec, x: float, y: float, z: float) -> float:
    """Net composition gain of sector 1 over sector 2 for one group.

    Evaluates h at the own-group share in each sector and returns the
    difference (sector 1 minus sector 2). On the open square this is the
    closed form c * z * (y - x) / (x * (1 - x)); at x = 0 or x = 1 the
    one-sided limit is returned, using signed infinity where it diverges.
    """
    if not (0.0 <= x <= 1.0):
        raise ValueError(f"own-group fraction x must lie in [0, 1], got {x}")
    if not (0.0 <= y <= 1.0):
        raise ValueError(f"other-group fraction y must lie in [0, 1], got {y}")
    if not (z > 0.0):
        raise ValueError(f"mass ratio z must be > 0, got {z}")
    if pref.c == 0.0:
        return 0.0
    if x == 0.0:
        # vanishing own presence in sector 1: infinite penalty unless the
        # other group is absent from sector 1 as well
        return math.inf if y > 0.0 else -pref.c * z
    if x == 1.0:
        return -math.inf if y < 1.0 else pref.c * z
    return _gain(pref.c * z, x, y)


def advantage_quantile(adv: AdvantageSpec, p):
    """Quantile of the sector-1 advantage at probability p in (0, 1).

    Strictly increasing, zero at p = 1 - r_e, with infinite tails at both
    ends. Accepts scalars or arrays.
    """
    p_arr = np.asarray(p, dtype=float)
    if np.any(p_arr <= 0.0) or np.any(p_arr >= 1.0):
        raise ValueError("quantile argument p must lie strictly inside (0, 1)")
    # numerator written as p - (1 - r_e) so the zero at p = 1 - r_e is exact;
    # the denominator in p itself, so it stays positive for p below 1.1e-16
    out = adv.C * (p_arr - (1.0 - adv.r_e)) / (p_arr * (1.0 - p_arr)) ** adv.beta
    if np.isscalar(p) or p_arr.ndim == 0:
        return float(out)
    return out


def _draw_advantages(params: ModelParams, n_w: int, n_m: int, rng) -> np.ndarray:
    """n_w advantage draws of group W, then n_m of group M, by inverse transform.

    Takes n_w + n_m uniforms from rng in one call, which leaves rng where
    two calls of n_w and n_m would, and clips them off 0 and 1 so the
    quantile stays finite.
    """
    u = np.clip(rng.random(n_w + n_m), 1e-15, 1.0 - 1e-15)
    return np.concatenate([advantage_quantile(params.adv_w, u[:n_w]),
                           advantage_quantile(params.adv_m, u[n_w:])])


def advantage_cdf(adv: AdvantageSpec, d):
    """Probability that the advantage is at most d, by inverting the quantile.

    At unit tail exponent the inverse is the root of a quadratic in p, taken
    in closed form; other exponents bisect in probability space. d = 0 maps
    to 1 - r_e exactly, +-inf to 1 and 0, and NaN to NaN. Accepts scalars or
    arrays.
    """
    d_arr = np.asarray(d, dtype=float)
    scalar = np.isscalar(d) or d_arr.ndim == 0
    d_arr = np.atleast_1d(d_arr).astype(float)
    out = np.full_like(d_arr, math.nan)

    out[np.isposinf(d_arr)] = 1.0
    out[np.isneginf(d_arr)] = 0.0
    exact_zero = d_arr == 0.0
    out[exact_zero] = 1.0 - adv.r_e

    todo = np.isfinite(d_arr) & ~exact_zero
    if np.any(todo):
        invert = _cdf_unit_tail if adv.beta == 1.0 else _cdf_bisect
        out[todo] = invert(adv, d_arr[todo])

    if scalar:
        return float(out[0])
    return out.reshape(np.shape(d))


def _cdf_unit_tail(adv: AdvantageSpec, dv: np.ndarray) -> np.ndarray:
    """Exact CDF at beta = 1 for finite nonzero advantages dv.

    The quantile equals d where a p^2 + b p - c = 0 with a = d, b = C - d and
    c = C (1 - r_e), all divided by C + |d| so squaring cannot overflow. The
    root in (0, 1) is written in whichever of its two forms adds terms of
    equal sign, so neither cancels; the denominator of the chosen form is
    positive.
    """
    s = adv.C + np.abs(dv)
    a = dv / s
    b = (adv.C - dv) / s
    c = adv.C * (1.0 - adv.r_e) / s
    sq = np.sqrt(b * b + 4.0 * a * c)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(b >= 0.0, 2.0 * c / (b + sq), (sq - b) / (2.0 * a))


def _cdf_bisect(adv: AdvantageSpec, dv: np.ndarray) -> np.ndarray:
    """CDF for finite nonzero advantages dv by bisection, for any beta.

    Bracketed bisection in probability space to 1e-12, with geometric
    bracket expansion toward 0 and 1 for values deep in the tails. The
    expansion toward 1 stops at the largest double below 1; where the
    quantile there is still below d the CDF is 1 to double precision.
    """
    lo = np.full(dv.shape, 0.25)
    hi = np.full(dv.shape, 0.75)
    for _ in range(600):
        mask = advantage_quantile(adv, lo) > dv
        if not np.any(mask):
            break
        lo[mask] *= 0.5
    top = np.nextafter(1.0, 0.0)
    for _ in range(600):
        mask = advantage_quantile(adv, hi) < dv
        if not np.any(mask & (hi < top)):
            break
        hi[mask] = np.minimum(1.0 - 0.5 * (1.0 - hi[mask]), top)
    beyond = advantage_quantile(adv, hi) < dv
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        below = advantage_quantile(adv, mid) < dv
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return np.where(beyond, 1.0, 0.5 * (lo + hi))


def gammas(params: ModelParams) -> tuple[float, float]:
    """Relative strength of composition preferences versus income dispersion.

    Returns ((mu_m / mu_w) * (c_w / C_w) * sigma, (mu_w / mu_m) * (c_m / C_m)
    * sigma); these two numbers govern the interior-versus-corner
    equilibrium regimes.
    """
    g_w = (params.mu_m / params.mu_w) * (params.pref_w.c / params.adv_w.C) * params.sigma
    g_m = (params.mu_w / params.mu_m) * (params.pref_m.c / params.adv_m.C) * params.sigma
    return g_w, g_m


def sector_shares(comp: Composition, params: ModelParams) -> SectorShares:
    """Within-sector group shares implied by a composition.

    Shares within each nonempty sector sum to one; both shares of an empty
    sector are NaN.
    """
    m1w, m1m, m2w, m2m = comp.sector_masses(params)
    tot1 = m1w + m1m
    tot2 = m2w + m2m
    if tot1 > 0.0:
        w1, m1 = m1w / tot1, m1m / tot1
    else:
        w1 = m1 = math.nan
    if tot2 > 0.0:
        w2, m2 = m2w / tot2, m2m / tot2
    else:
        w2 = m2 = math.nan
    return SectorShares(w1, m1, w2, m2)


class _Group(NamedTuple):
    """One group's side of the model: the same equations for W and M.

    C, r_e and beta are the group's advantage law and k = sigma * c * z its
    preference weight, z being the other group's mass over its own. Methods
    take the own sector-1 fraction x, which must be interior, and the
    partner's fraction y, which may sit at 0 or 1; numpy arrays and Python
    floats both work.
    """

    C: float
    r_e: float
    beta: float
    k: float

    def advantage(self, x):
        """Advantage quantile of the group's marginal member at own fraction x."""
        return self.C * (self.r_e - x) / (x * (1.0 - x)) ** self.beta

    def penalty(self, x, y):
        """Net composition gain of sector 1 over sector 2, weighted by k."""
        return _gain(self.k, x, y)

    def component(self, x, y):
        """The group's residual: zero when its marginal member is indifferent."""
        return self.advantage(x) - self.penalty(x, y)

    def d_own(self, x, y):
        """Exact partial derivative of the component in the own fraction x."""
        u = x * (1.0 - x)
        s = 1.0 - 2.0 * x
        return (
            -self.C * u ** -self.beta * (1.0 + self.beta * (self.r_e - x) * s / u)
            + self.k * (1.0 + (y - x) * s / u) / u
        )

    def rest(self, x):
        """The partner fraction at which the component vanishes; needs k > 0.

        The component has the sign of rest(x) - y, so the rest curve is the
        group's nullcline.
        """
        return x + self.C * (self.r_e - x) * (x * (1.0 - x)) ** (1.0 - self.beta) / self.k

    def d_partner(self, x):
        """Exact partial derivative of the component in the partner fraction."""
        return -self.k / (x * (1.0 - x))

    def corner(self, at_one: bool, y):
        """Leading tail coefficients (advantage, penalty) at the clamp x = 1 or 0.

        At distance d from the clamp the marginal advantage grows like
        advantage_coef * d ** -beta and the penalty like penalty_coef / d.
        """
        if at_one:
            return self.C * (1.0 - self.r_e), self.k * (1.0 - y)
        return self.C * self.r_e, self.k * y

    def holds(self, at_one: bool, y):
        """Analytic corner verdict: the penalty outgrows the tail at the clamp.

        Vectorized over partner fractions y, so the dynamics also use it as
        the predicate that freezes a coordinate on its face; a Python float
        y gives a Python bool.
        """
        q_coef, g_coef = self.corner(at_one, y)
        if self.beta == 1.0:
            return q_coef <= g_coef
        # a tail d ** -beta loses to the penalty's 1 / d for beta < 1 and wins for beta > 1
        return (g_coef > 0.0) & (self.beta < 1.0)

    def stiffness(self, x):
        """Upper scale of the partials, clipped away from the walls; 0 on a face.

        The partials grow like C / (u(1-u))**(beta+1) from the advantage and
        like k / (u(1-u)) from the penalty. A coordinate sitting exactly on
        its face is frozen there, so it contributes nothing.
        """
        xc = _clip(x, 0.01, 0.99)
        u = xc * (1.0 - xc)
        s = self.C * u ** -(self.beta + 1.0) + self.k / u
        return _where((x == 0.0) | (x == 1.0), 0.0, s)


def _groups(params: ModelParams) -> tuple[_Group, _Group]:
    """The (W, M) views; group i's own fraction is coordinate i of a composition."""
    return (
        _Group(params.adv_w.C, params.adv_w.r_e, params.adv_w.beta,
               params.sigma * params.pref_w.c * (params.mu_m / params.mu_w)),
        _Group(params.adv_m.C, params.adv_m.r_e, params.adv_m.beta,
               params.sigma * params.pref_m.c * (params.mu_w / params.mu_m)),
    )
