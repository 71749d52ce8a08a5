"""Reference computations for the benchmark's checks, written apart from roylab.

Everything here follows from the model statement in the README and the
docstrings of `roylab.model`, and imports nothing from roylab:

- group g (W or M) has mass mu_g and draws a sector-1 income advantage with
  quantile Q_g(p) = C_g (p - (1 - re_g)) / ((1 - p) p) ** beta;
- a member pays sigma * c_g / u in a sector where its own group's share is u;
- at a composition (x, y) of sector-1 fractions the marginal W member has
  advantage Q_w(1 - x), and the net penalty gap of sector 1 over sector 2 is
  sigma * c_w * z_w * (y - x) / (x (1 - x)) with z_w = mu_m / mu_w (the same
  for M with the roles swapped).

The flow of the best-response dynamics is the residual itself, so the
stability of an interior rest point is read off the eigenvalues of the
analytic Jacobian below.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

#: rest-curve bracketing grid: sign changes on a 5e-6 lattice, then bisection
_REST_GRID = np.linspace(0.0, 1.0, 200_001)[1:-1]


@dataclass(frozen=True)
class Params:
    """Flat model parameters, in the JSON layout of the bundled configs."""

    mu_w: float = 1.0
    mu_m: float = 1.0
    c_w: float = 0.0
    c_m: float = 0.0
    C_w: float = 1.0
    C_m: float = 1.0
    beta: float = 1.0
    re_w: float = 0.5
    re_m: float = 0.5
    sigma: float = 1.0

    def group(self, g: str) -> tuple[float, float, float, float]:
        """(C, re, c, z) of group 'w' or 'm'; z is the other group's mass over its own."""
        if g == "w":
            return self.C_w, self.re_w, self.c_w, self.mu_m / self.mu_w
        return self.C_m, self.re_m, self.c_m, self.mu_w / self.mu_m

    def gamma(self, g: str) -> float:
        """Preference weight sigma * c * z / C of one group."""
        C, _, c, z = self.group(g)
        return self.sigma * c * z / C

    def taxed(self, tau: float) -> "Params":
        """A flat tax tau shrinks every advantage draw to (1 - tau) of itself."""
        return replace(self, C_w=(1.0 - tau) * self.C_w, C_m=(1.0 - tau) * self.C_m)


# ---------------------------------------------------------------------------
# interior residual and its analytic Jacobian
# ---------------------------------------------------------------------------


def phi(p: Params, g: str, v, u):
    """Residual of group g's equation at own fraction v, partner fraction u."""
    C, re, c, z = p.group(g)
    s = v * (1.0 - v)
    return C * (re - v) * s ** -p.beta - p.sigma * c * z * (u - v) / s


def dphi_own(p: Params, g: str, v, u):
    """Derivative of phi in the group's own fraction v."""
    C, re, c, z = p.group(g)
    s = v * (1.0 - v)
    ds = 1.0 - 2.0 * v
    dq = C * (-(s ** -p.beta) - p.beta * (re - v) * ds * s ** (-p.beta - 1.0))
    dg = (-s - (u - v) * ds) / (s * s)
    return dq - p.sigma * c * z * dg


def dphi_partner(p: Params, g: str, v):
    """Derivative of phi in the partner's fraction."""
    _, _, c, z = p.group(g)
    return -p.sigma * c * z / (v * (1.0 - v))


def residual(p: Params, x, y):
    """(e_w, e_m) at the interior composition (x, y)."""
    return phi(p, "w", x, y), phi(p, "m", y, x)


def jacobian(p: Params, x: float, y: float) -> np.ndarray:
    """Analytic Jacobian of (e_w, e_m) in (x, y): the flow Jacobian."""
    return np.array(
        [
            [dphi_own(p, "w", x, y), dphi_partner(p, "w", x)],
            [dphi_partner(p, "m", y), dphi_own(p, "m", y, x)],
        ]
    )


def interior_label(p: Params, x: float, y: float, zero_tol: float = 1e-8) -> str | None:
    """Stability from the eigenvalue signs of the analytic Jacobian.

    None when a real part lies within zero_tol of zero, where the sign does
    not decide the label.
    """
    reals = np.linalg.eigvals(jacobian(p, x, y)).real
    if np.any(np.abs(reals) < zero_tol):
        return None
    if np.all(reals < 0.0):
        return "stable"
    if np.all(reals > 0.0):
        return "unstable"
    return "saddle"


# ---------------------------------------------------------------------------
# edges, corners and vertices
# ---------------------------------------------------------------------------

#: edge kind -> (free group, clamped group, clamped value)
EDGES = {
    "edge-w0": ("m", "w", 0.0),
    "edge-w1": ("m", "w", 1.0),
    "edge-m0": ("w", "m", 0.0),
    "edge-m1": ("w", "m", 1.0),
}


def edge_residual(p: Params, kind: str, v):
    """Residual of the free coordinate's equation along one edge."""
    free, _, clamp = EDGES[kind]
    return phi(p, free, v, clamp)


def clamp_holds(p: Params, g: str, at_one: bool, partner: float) -> bool:
    """Analytic corner test for group g clamped at 0 or 1.

    A small mass d leaving the clamp gains an advantage of order C * d ** -beta
    (coefficient C * re at 0, C * (1 - re) at 1) and pays a penalty gap of
    order sigma * c * z * presence / d, where presence is the partner's share
    in the sector the group has left. The clamp holds when the penalty wins
    for every small d: always for beta < 1 if the penalty is there, never
    for beta > 1, and by the coefficients at beta = 1.
    """
    C, re, c, z = p.group(g)
    presence = (1.0 - partner) if at_one else partner
    penalty = p.sigma * c * z * presence
    if penalty <= 0.0:
        return False
    if p.beta < 1.0:
        return True
    if p.beta > 1.0:
        return False
    return C * ((1.0 - re) if at_one else re) <= penalty


def corner_holds(p: Params, r_w: float, r_m: float) -> bool:
    """Corner test on every clamped coordinate of a boundary composition."""
    ok = True
    if r_w in (0.0, 1.0):
        ok = ok and clamp_holds(p, "w", r_w == 1.0, r_m)
    if r_m in (0.0, 1.0):
        ok = ok and clamp_holds(p, "m", r_m == 1.0, r_w)
    return ok


def edge_label(p: Params, kind: str, v: float) -> str:
    """Boundary-stable when the free coordinate flows back and the clamp holds."""
    free, clamped, clamp = EDGES[kind]
    holds = clamp_holds(p, clamped, clamp == 1.0, v)
    return "boundary-stable" if dphi_own(p, free, v, clamp) < 0.0 and holds else "saddle"


def kind_of(r_w: float, r_m: float) -> str:
    w_clamped = r_w in (0.0, 1.0)
    m_clamped = r_m in (0.0, 1.0)
    if w_clamped and m_clamped:
        return "vertex"
    if w_clamped:
        return "edge-w0" if r_w == 0.0 else "edge-w1"
    if m_clamped:
        return "edge-m0" if r_m == 0.0 else "edge-m1"
    return "interior"


# ---------------------------------------------------------------------------
# closed-form census from the rest curves
# ---------------------------------------------------------------------------


def _rest_curve(p: Params, g: str):
    """(value, slope) of group g's rest curve as functions of its own fraction.

    phi(g, v, u) * v (1 - v) / (sigma c z) = curve(v) - u, so the group's flow
    has the sign of curve(v) - partner, with
    curve(v) = v + (re - v) (v (1 - v)) ** (1 - beta) / gamma.
    """
    _, re, _, _ = p.group(g)
    k = p.gamma(g)
    b = p.beta

    def value(v):
        return v + (re - v) * (v * (1.0 - v)) ** (1.0 - b) / k

    def slope(v):
        s = v * (1.0 - v)
        return 1.0 + ((1.0 - b) * (re - v) * (1.0 - 2.0 * v) * s ** -b - s ** (1.0 - b)) / k

    return value, slope


def _bracketed_roots(f) -> list[float]:
    with np.errstate(all="ignore"):
        vals = f(_REST_GRID)
    finite = np.isfinite(vals)
    flips = finite[:-1] & finite[1:] & (np.sign(vals[:-1]) * np.sign(vals[1:]) < 0)
    roots = []
    for i in np.nonzero(flips)[0]:
        lo, hi, sign_lo = float(_REST_GRID[i]), float(_REST_GRID[i + 1]), np.sign(vals[i])
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if np.sign(f(mid)) == sign_lo:
                lo = mid
            else:
                hi = mid
        roots.append(0.5 * (lo + hi))
    return roots


def rest_curve_census(p: Params) -> list[tuple[float, float, str, str]]:
    """Sorted (r_w, r_m, kind, stability) of every rest point.

    Needs sigma * c * z > 0 for both groups. Interior points are the
    crossings of the two rest curves; with a = y_W' and b = x_M' there, the
    flow Jacobian is a positive diagonal times [[a, -1], [-1, b]], so a
    crossing is a saddle when a b < 1, unstable when both slopes are positive
    and stable otherwise. Edge points are roots of the free group's curve
    minus the clamped value that pass the corner test; vertices are kept
    when both clamps hold, and are then attracting along both edges.
    """
    y_w, dy_w = _rest_curve(p, "w")
    x_m, dx_m = _rest_curve(p, "m")
    points = []

    def crossing_gap(x):
        y = y_w(x)
        inside = (y > 0.0) & (y < 1.0)
        with np.errstate(invalid="ignore"):
            return np.where(inside, x_m(np.where(inside, y, 0.5)) - x, np.nan)

    for x in _bracketed_roots(crossing_gap):
        y = float(y_w(x))
        a, b = dy_w(x), dx_m(y)
        if a * b < 1.0:
            label = "saddle"
        elif a > 0.0 and b > 0.0:
            label = "unstable"
        else:
            label = "stable"
        points.append((x, y, "interior", label))

    for kind, (free, clamped, clamp) in EDGES.items():
        curve, slope = (x_m, dx_m) if free == "m" else (y_w, dy_w)
        for v in _bracketed_roots(lambda t: curve(t) - clamp):
            if not clamp_holds(p, clamped, clamp == 1.0, v):
                continue
            label = "boundary-stable" if slope(v) < 0.0 else "saddle"
            r_w, r_m = (clamp, v) if free == "m" else (v, clamp)
            points.append((r_w, r_m, kind, label))

    for vx in (0.0, 1.0):
        for vy in (0.0, 1.0):
            if clamp_holds(p, "w", vx == 1.0, vy) and clamp_holds(p, "m", vy == 1.0, vx):
                points.append((vx, vy, "vertex", "boundary-stable"))
    return sorted(points)


# ---------------------------------------------------------------------------
# unit tail exponent
# ---------------------------------------------------------------------------


def beta1_equilibria(p: Params) -> list[tuple[float, float, str]]:
    """Every equilibrium at beta = 1, from the linear rest equations.

    With beta = 1 group g's equation reads re_g - v = gamma_g (u - v), which
    is linear. The four regions of the closed form are the interior solution
    and the clamped solutions on each edge and vertex; a clamped one counts
    when its free coordinate lies inside (0, 1) and the corner test holds.
    """
    if p.beta != 1.0:
        raise ValueError("closed form needs beta = 1")
    g_w, g_m = p.gamma("w"), p.gamma("m")
    out = []
    det = 1.0 - g_w - g_m
    if det != 0.0:
        # (1 - g_w) x + g_w y = re_w and g_m x + (1 - g_m) y = re_m
        x = (p.re_w * (1.0 - g_m) - g_w * p.re_m) / det
        y = (p.re_m * (1.0 - g_w) - g_m * p.re_w) / det
        if 0.0 < x < 1.0 and 0.0 < y < 1.0:
            out.append((x, y, "interior"))
    for clamp in (0.0, 1.0):
        # W clamped: M solves re_m - y = g_m (clamp - y)
        y = (p.re_m - g_m * clamp) / (1.0 - g_m)
        if 0.0 < y < 1.0 and clamp_holds(p, "w", clamp == 1.0, y):
            out.append((clamp, y, "edge-w0" if clamp == 0.0 else "edge-w1"))
        x = (p.re_w - g_w * clamp) / (1.0 - g_w)
        if 0.0 < x < 1.0 and clamp_holds(p, "m", clamp == 1.0, x):
            out.append((x, clamp, "edge-m0" if clamp == 0.0 else "edge-m1"))
    for vx in (0.0, 1.0):
        for vy in (0.0, 1.0):
            if clamp_holds(p, "w", vx == 1.0, vy) and clamp_holds(p, "m", vy == 1.0, vx):
                out.append((vx, vy, "vertex"))
    return sorted(out)


def unique_interior_region(p: Params) -> bool:
    """Both groups interior at beta = 1, re_w < re_m and gamma_w + gamma_m < 1.

    The W fraction stays positive while gamma_w re_m / re_w + gamma_m < 1,
    and the M fraction stays below one while
    gamma_w + gamma_m (1 - re_w) / (1 - re_m) < 1.
    """
    g_w, g_m = p.gamma("w"), p.gamma("m")
    return (
        p.beta == 1.0
        and p.re_w < p.re_m
        and g_w + g_m < 1.0
        and g_w * p.re_m / p.re_w + g_m < 1.0
        and g_w + g_m * (1.0 - p.re_w) / (1.0 - p.re_m) < 1.0
    )


def contrarian_corner_exists(p: Params) -> bool:
    """Whether the corner that excludes W from sector 1 is an equilibrium (beta = 1)."""
    return any(kind == "edge-w0" for _, _, kind in beta1_equilibria(p))


def advantage_cdf_beta1(C: float, re: float, d) -> np.ndarray:
    """Exact advantage CDF at beta = 1.

    Q(p) = d reads d p**2 + (C - d) p - C (1 - re) = 0, whose root in (0, 1)
    is taken in the form that does not cancel: 2 C (1 - re) / (b + sqrt(D))
    when b = C - d >= 0, and (sqrt(D) - b) / (2 d) otherwise.
    """
    d = np.asarray(d, dtype=float)
    b = C - d
    disc = np.sqrt(b * b + 4.0 * d * C * (1.0 - re))
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(b >= 0.0, 2.0 * C * (1.0 - re) / (b + disc), (disc - b) / (2.0 * d))
    return out


def quantile(C: float, re: float, beta: float, prob):
    """Advantage quantile Q(p) of the model statement."""
    prob = np.asarray(prob, dtype=float)
    return C * (prob - (1.0 - re)) / ((1.0 - prob) * prob) ** beta


# ---------------------------------------------------------------------------
# finite populations
# ---------------------------------------------------------------------------


def profitable_deviations(p: Params, is_w, delta, sector) -> int:
    """Agents who gain strictly by switching sector at the current shares.

    Each agent carries mass mu_g / n_g. The penalty of a sector is c * total
    / own when both are positive, zero in an empty sector, zero for c = 0,
    and infinite for c > 0 in a nonempty sector without the group. As in
    the sequential round, an agent compares sectors at the shares in place
    before its own move.
    """
    is_w = np.asarray(is_w, dtype=bool)
    in1 = np.asarray(sector) == 1
    masses = {}
    for g, members, mu in (("w", is_w, p.mu_w), ("m", ~is_w, p.mu_m)):
        wgt = mu / np.count_nonzero(members)
        masses[g] = (wgt * np.count_nonzero(members & in1), wgt * np.count_nonzero(members & ~in1))
    tot1 = masses["w"][0] + masses["m"][0]
    tot2 = masses["w"][1] + masses["m"][1]

    def penalty(c: float, own: float, tot: float) -> float:
        if c == 0.0 or tot <= 0.0:
            return 0.0
        return math.inf if own <= 0.0 else c * tot / own

    count = 0
    for g, members in (("w", is_w), ("m", ~is_w)):
        _, _, c, _ = p.group(g)
        own1, own2 = masses[g]
        term = 0.0 if p.sigma == 0.0 else p.sigma * (penalty(c, own1, tot1) - penalty(c, own2, tot2))
        gain = np.asarray(delta)[members] - term
        count += int(np.count_nonzero(np.where(in1[members], gain < 0.0, gain > 0.0)))
    return count


# ---------------------------------------------------------------------------
# moment inequalities at unit tail exponent, degenerate noise
# ---------------------------------------------------------------------------


def moment_slacks_beta1(cand: dict, cells: dict, n_total: int, r_obs, pop_ratio: float,
                        min_wage: float, y_grid) -> dict:
    """Slack of each moment inequality of one candidate, by (group, side), over y_grid.

    cand has re_w, re_m, c_w, c_m, C_w, C_m. cells maps (group, sector) to
    the sorted incomes of that cell. A sector-1 member with income at most
    y has an advantage in (cutoff, y - w_min], a sector-2 member one in
    (w_min - y, cutoff], where the cutoff is the net composition gain at the
    observed shares; each bound is weighted by the group's population share.
    """
    x, y_obs = r_obs
    y_grid = np.asarray(y_grid, dtype=float)
    slacks = {}
    for g, share, own, partner, z in (
        ("w", pop_ratio / (1.0 + pop_ratio), x, y_obs, 1.0 / pop_ratio),
        ("m", 1.0 / (1.0 + pop_ratio), y_obs, x, pop_ratio),
    ):
        C, re, c = cand[f"C_{g}"], cand[f"re_{g}"], cand[f"c_{g}"]
        cutoff = c * z * (partner - own) / (own * (1.0 - own))
        f_cut = advantage_cdf_beta1(C, re, cutoff)
        lhs1 = share * np.maximum(0.0, advantage_cdf_beta1(C, re, y_grid - min_wage) - f_cut)
        lhs2 = share * np.maximum(0.0, f_cut - advantage_cdf_beta1(C, re, min_wage - y_grid))
        rhs1 = np.searchsorted(cells[(g, 1)], y_grid, side="right") / n_total
        rhs2 = np.searchsorted(cells[(g, 2)], y_grid, side="right") / n_total
        slacks[(g, 1)] = lhs1 - rhs1
        slacks[(g, 2)] = lhs2 - rhs2
    return slacks
