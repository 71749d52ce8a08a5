"""Policy experiments: taxes, quotas, subsidies, amenity and participation shifts.

A flat tax at rate tau shrinks every sector-1 advantage draw to (1 - tau)
of itself, which is a pure rescaling of the advantage scales and therefore
amplifies the relative weight of composition preferences. Quotas act on the
state (a one-time clamp of both fractions) with structural parameters held
fixed; the other policies act on parameters and leave the state alone.
"""

from __future__ import annotations

from dataclasses import dataclass

from .dynamics import SNAP_RADIUS, _nearest, integrate, nudge_and_settle
from .equilibrium import EquilibriumPoint, efficient_composition, enumerate_equilibria
from .model import Composition, ModelParams, gammas

__all__ = [
    "FlatTax",
    "Quota",
    "Subsidy",
    "AmenityShift",
    "Participation",
    "PolicyReport",
    "ThresholdReport",
    "CornerRegimeError",
    "DataInconsistentError",
    "apply_tax",
    "tax_equilibrium",
    "apply_policy",
    "contrarian_threshold",
    "compare",
    "sweep_rows",
    "MATCH_RADIUS",
]

#: nearest-neighbor radius for matching equilibria across policy regimes
MATCH_RADIUS = 0.05


class CornerRegimeError(ValueError):
    """The requested closed form is outside the interior post-tax region."""


class DataInconsistentError(ValueError):
    """An observed composition does not sit at any model equilibrium."""


@dataclass(frozen=True)
class FlatTax:
    tau: float

    def __post_init__(self):
        if not (0.0 <= self.tau < 1.0):
            raise ValueError(f"tax rate must lie in [0, 1), got {self.tau}")


@dataclass(frozen=True)
class Quota:
    floor: float

    def __post_init__(self):
        if not (0.0 <= self.floor < 0.5):
            raise ValueError(f"quota floor must lie in [0, 0.5), got {self.floor}")


@dataclass(frozen=True)
class Subsidy:
    """Multiplies the advantage scales (sector-1 income support)."""

    scale_C_w: float = 1.0
    scale_C_m: float = 1.0

    def __post_init__(self):
        if self.scale_C_w <= 0.0 or self.scale_C_m <= 0.0:
            raise ValueError("subsidy scales must be positive")


@dataclass(frozen=True)
class AmenityShift:
    """Multiplies the composition-preference strengths (workplace culture)."""

    scale_c_w: float = 1.0
    scale_c_m: float = 1.0

    def __post_init__(self):
        if self.scale_c_w < 0.0 or self.scale_c_m < 0.0:
            raise ValueError("amenity scales must be nonnegative")


@dataclass(frozen=True)
class Participation:
    """Replaces the W group's mass (labor force participation change)."""

    new_mu_w: float

    def __post_init__(self):
        if self.new_mu_w <= 0.0:
            raise ValueError("participation mass must be positive")


Policy = FlatTax | Quota | Subsidy | AmenityShift | Participation


@dataclass
class PolicyReport:
    before: list[EquilibriumPoint]
    after: list[EquilibriumPoint]
    settled_after: EquilibriumPoint
    segregation_before: float
    segregation_after: float
    tipped: bool
    disappeared: list[EquilibriumPoint]

    def to_json_dict(self) -> dict:
        return {
            "before": [e.to_json_dict() for e in self.before],
            "after": [e.to_json_dict() for e in self.after],
            "settled_after": self.settled_after.to_json_dict(),
            "segregation_before": self.segregation_before,
            "segregation_after": self.segregation_after,
            "tipped": self.tipped,
            "disappeared": [e.to_json_dict() for e in self.disappeared],
        }


@dataclass(frozen=True)
class ThresholdReport:
    condition_value: float
    corner_exists: bool


def apply_tax(params: ModelParams, tau: float) -> ModelParams:
    """Scale both advantage laws by (1 - tau); preferences are untouched."""
    if not (0.0 <= tau < 1.0):
        raise ValueError(f"tax rate must lie in [0, 1), got {tau}")
    return params.with_values(
        C_w=(1.0 - tau) * params.adv_w.C, C_m=(1.0 - tau) * params.adv_m.C
    )


def tax_equilibrium(params: ModelParams, tau: float) -> Composition:
    """Post-tax interior equilibrium in closed form (unit tail exponent).

    Identical to the untaxed closed form applied to the taxed parameters;
    outside the interior region the caller must fall back to the full
    closed-form case analysis on apply_tax output.
    """
    if params.adv_w.beta != 1.0 or params.adv_m.beta != 1.0:
        raise ValueError("tax closed form requires tail exponent beta = 1")
    g_w, g_m = gammas(params)
    re_w, re_m = params.adv_w.r_e, params.adv_m.r_e
    gamma_bar = max(g_w * re_m / re_w + g_m, g_w + g_m * (1.0 - re_w) / (1.0 - re_m))
    if gamma_bar >= 1.0 - tau:
        raise CornerRegimeError(
            f"post-tax regime is not interior: gamma_bar={gamma_bar} >= 1 - tau={1.0 - tau}"
        )
    spread = (re_m - re_w) / ((1.0 - tau) - g_w - g_m)
    return Composition(re_w - g_w * spread, re_m + g_m * spread)


def apply_policy(params: ModelParams, policy: Policy) -> tuple[ModelParams, float | None]:
    """New parameters and, for quotas only, the state clamp to apply.

    Quotas leave the structural parameters untouched and return their floor;
    every other policy transforms parameters and returns None.
    """
    if isinstance(policy, FlatTax):
        return apply_tax(params, policy.tau), None
    if isinstance(policy, Quota):
        return params, policy.floor
    if isinstance(policy, Subsidy):
        return (
            params.with_values(
                C_w=policy.scale_C_w * params.adv_w.C,
                C_m=policy.scale_C_m * params.adv_m.C,
            ),
            None,
        )
    if isinstance(policy, AmenityShift):
        return (
            params.with_values(
                c_w=policy.scale_c_w * params.pref_w.c,
                c_m=policy.scale_c_m * params.pref_m.c,
            ),
            None,
        )
    if isinstance(policy, Participation):
        return params.with_values(mu_w=policy.new_mu_w), None
    raise TypeError(f"unknown policy {policy!r}")


def contrarian_threshold(params: ModelParams) -> ThresholdReport:
    """Existence test for the stable corner that excludes the advantaged group.

    With unit tail exponent, the corner at (0, re_m / (1 - gamma_m)) survives
    exactly when gamma_w * re_m exceeds (1 - gamma_m) * re_w while the M
    fraction stays interior; the signed distance to that threshold is
    returned alongside the verdict.
    """
    if params.adv_w.beta != 1.0 or params.adv_m.beta != 1.0:
        raise ValueError("threshold analysis requires tail exponent beta = 1")
    g_w, g_m = gammas(params)
    re_w, re_m = params.adv_w.r_e, params.adv_m.r_e
    condition_value = g_w * re_m - (1.0 - g_m) * re_w
    corner_exists = condition_value > 0.0 and g_m < 1.0 - re_m
    return ThresholdReport(condition_value, corner_exists)


def _segregation(comp: Composition) -> float:
    return abs(comp.r_w - comp.r_m)


def compare(params: ModelParams, policy: Policy, observed: Composition) -> PolicyReport:
    """Equilibrium sets before and after a policy, and where the system lands.

    The observed composition must sit at a pre-policy equilibrium. Quotas
    settle by clamping the observed state and integrating under unchanged
    parameters; parameter policies integrate from the observed state under
    the new parameters. Both equilibrium sets come from the default census.
    Pre-policy equilibria with no post-policy counterpart within
    MATCH_RADIUS are reported as disappeared.
    """
    before = enumerate_equilibria(params)
    origin, d = _nearest(before, observed)
    if origin is None or d > SNAP_RADIUS:
        raise DataInconsistentError(
            f"observed composition ({observed.r_w}, {observed.r_m}) is not near "
            f"any pre-policy equilibrium (closest at distance {d:.3g})"
        )

    new_params, clamp = apply_policy(params, policy)
    after = before if new_params == params else enumerate_equilibria(new_params)

    if clamp is not None:
        nudge = nudge_and_settle(params, observed, clamp, equilibria=after)
        settled, tipped = nudge.settled, nudge.tipped
    else:
        traj = integrate(new_params, observed, equilibria=after)
        if traj.converged_to is None:
            raise DataInconsistentError(
                "post-policy dynamics did not settle onto an enumerated equilibrium"
            )
        settled = traj.converged_to
        tipped = (
            max(
                abs(settled.comp.r_w - origin.comp.r_w),
                abs(settled.comp.r_m - origin.comp.r_m),
            )
            > SNAP_RADIUS
        )
    disappeared = [
        eq for eq in before if _nearest(after, eq.comp)[1] > MATCH_RADIUS
    ]
    return PolicyReport(
        before=before,
        after=after,
        settled_after=settled,
        segregation_before=_segregation(origin.comp),
        segregation_after=_segregation(settled.comp),
        tipped=tipped,
        disappeared=disappeared,
    )


def sweep_rows(
    params: ModelParams,
    param_name: str,
    values,
    observed: Composition | None = None,
) -> list[dict]:
    """Re-enumerate equilibria along a 1-D parameter sweep.

    Each row carries the parameter value, equilibrium and stable counts of
    the default census, the settled composition reached from `observed`
    (efficient composition when omitted), and a tipped flag meaning the
    settled point jumped by more than MATCH_RADIUS relative to the previous
    sweep point.
    """
    rows = []
    prev_settled = None
    for v in values:
        pt = params.with_values(**{param_name: float(v)})
        eqs = enumerate_equilibria(pt)
        stable = [e for e in eqs if e.stability in ("stable", "boundary-stable")]
        start = observed if observed is not None else efficient_composition(pt)
        traj = integrate(pt, start, equilibria=eqs)
        settled = traj.converged_to.comp if traj.converged_to else traj.terminal
        tipped = prev_settled is not None and (
            max(
                abs(settled.r_w - prev_settled.r_w),
                abs(settled.r_m - prev_settled.r_m),
            )
            > MATCH_RADIUS
        )
        rows.append(
            {
                "value": float(v),
                "n_equilibria": len(eqs),
                "n_stable": len(stable),
                "settled_r_w": settled.r_w,
                "settled_r_m": settled.r_m,
                "tipped": tipped,
            }
        )
        prev_settled = settled
    return rows
