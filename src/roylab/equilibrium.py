"""Equilibrium computation: residuals, solvers, corner tests, enumeration.

A composition is an equilibrium when no small mass of either group gains
from switching sectors. Interior points must zero the residual system;
clamped coordinates must instead pass a tail-versus-minority-penalty
comparison (verify_corner). This module provides a closed form for unit
tail exponent, the least amplified equilibrium (the greatest census point
of Q = [0, re_w] x [re_m, 1]), damped Newton from seeds, full enumeration
over the square, and Jacobian-based stability labels. The equations it
solves are the model's: each group's advantage, composition gain, rest
curve, exact partials and corner test come from the per-group view
model._Group.

The enumeration is one-dimensional. With k > 0 a group's equation is zero
exactly on its rest curve, the explicit graph partner = own + C (r_e - own)
(own (1 - own)) ** (1 - beta) / k, so interior equilibria are the crossings
of the two curves and edge points are the roots of one equation along a
wall. Every scan runs on one wall-aware axis and bisects each sign change
down to adjacent floats.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .model import Composition, ModelParams, _Group, _groups, gammas

__all__ = [
    "Residual",
    "EquilibriumPoint",
    "ClosedFormResult",
    "ConsistencyError",
    "residual",
    "residual_arrays",
    "efficient_composition",
    "solve_closed_form_beta1",
    "solve_monotone_iteration",
    "solve_from_seed",
    "verify_corner",
    "enumerate_equilibria",
    "classify_stability",
]

INTERIOR = "interior"
EDGE_W0 = "edge-w0"
EDGE_W1 = "edge-w1"
EDGE_M0 = "edge-m0"
EDGE_M1 = "edge-m1"
VERTEX = "vertex"

STABLE = "stable"
SADDLE = "saddle"
UNSTABLE = "unstable"
BOUNDARY_STABLE = "boundary-stable"
DEGENERATE = "degenerate"

#: real parts closer to zero than this are treated as inconclusive
_EIG_ZERO_TOL = 1e-8

#: census resolution wherever none is given: the roots are bisected to
#: adjacent floats, so a denser axis finds the same points
_CENSUS_GRID = 64

#: census points closer than this in L-infinity distance are one point
_MERGE_RADIUS = 1e-9


class ConsistencyError(RuntimeError):
    """Two computations of one fact disagree: the analytic and numeric
    corner tests, or the census and the existence of a least amplified
    equilibrium."""


@dataclass(frozen=True)
class Residual:
    """Gap between the marginal advantage and the net composition gain."""

    e_w: float
    e_m: float

    @property
    def norm(self) -> float:
        return max(abs(self.e_w), abs(self.e_m))


@dataclass(frozen=True)
class EquilibriumPoint:
    """An equilibrium composition with its location class and stability label.

    eigenvalues holds the two flow-Jacobian eigenvalues for interior points,
    the single tangential derivative for edge points, and None for vertices
    (the transverse linearization diverges at clamped coordinates).
    """

    comp: Composition
    kind: str
    stability: str
    eigenvalues: tuple[complex, ...] | None
    residual_norm: float

    def to_json_dict(self) -> dict:
        eigs = []
        if self.eigenvalues is not None:
            eigs = [{"re": ev.real, "im": ev.imag} for ev in self.eigenvalues]
        return {
            "r_w": self.comp.r_w,
            "r_m": self.comp.r_m,
            "kind": self.kind,
            "stability": self.stability,
            "eigenvalues": eigs,
            "residual_norm": self.residual_norm,
        }


#: edge kind -> (index of the free coordinate, value of the clamped one)
_EDGES = {EDGE_W0: (1, 0.0), EDGE_W1: (1, 1.0), EDGE_M0: (0, 0.0), EDGE_M1: (0, 1.0)}


def residual_arrays(params: ModelParams, x, y):
    """Residual components on interior points; vectorized over x, y arrays.

    The marginal member of each group is indifferent when the advantage
    quantile at the current participation equals the composition penalty gap:
    e_w zeroes C_w * (re_w - x) / (x(1-x))**beta against the W penalty term,
    and e_m does the same for the M group at fraction y.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    g_w, g_m = _groups(params)
    return g_w.component(x, y), g_m.component(y, x)


def residual(params: ModelParams, comp: Composition) -> Residual:
    """Residual of the interior equilibrium system at a composition.

    Zero in both components exactly when the composition solves the interior
    consistency conditions. Boundary compositions are rejected; their
    equilibrium status is decided by verify_corner instead.
    """
    if not comp.interior:
        raise ValueError(
            f"residual is defined on the open square; got ({comp.r_w}, {comp.r_m})"
        )
    e_w, e_m = residual_arrays(params, comp.r_w, comp.r_m)
    return Residual(float(e_w), float(e_m))


def efficient_composition(params: ModelParams) -> Composition:
    """Composition under pure income sorting: the fraction with a positive draw."""
    return Composition(params.adv_w.r_e, params.adv_m.r_e)


# ---------------------------------------------------------------------------
# closed form for unit tail exponent
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClosedFormResult:
    """Closed-form equilibrium plus which parameter region selected it."""

    point: EquilibriumPoint
    case: int
    on_boundary: bool


def solve_closed_form_beta1(params: ModelParams) -> ClosedFormResult:
    """Closed-form unique equilibrium for unit tail exponent.

    With beta = 1 the interior system is linear in the composition, which
    yields four parameter regions: an interior solution, two one-sided
    corner regions, and full segregation of both groups. Regions are tested
    in that order with the printed weak/strict inequalities; landing exactly
    on a region boundary sets on_boundary rather than being resolved
    silently.
    """
    if params.adv_w.beta != 1.0 or params.adv_m.beta != 1.0:
        raise ValueError("closed form requires tail exponent beta = 1")
    re_w, re_m = params.adv_w.r_e, params.adv_m.r_e
    if not (0.0 < re_w < re_m < 1.0):
        raise ValueError(
            f"closed form requires 0 < re_w < re_m < 1, got ({re_w}, {re_m})"
        )
    g_w, g_m = gammas(params)
    if not g_w + g_m < 1.0:
        raise ValueError(
            f"closed form requires gamma_w + gamma_m < 1, got {g_w + g_m}"
        )

    spread = re_m - re_w
    cond_a = g_w * re_m / re_w + g_m          # pushes group W out of sector 1
    cond_b = g_w + g_m * (1.0 - re_w) / (1.0 - re_m)  # pushes group M out of sector 2
    boundary_values = []

    if max(cond_a, cond_b) < 1.0:
        r_w = re_w - g_w / (1.0 - g_w - g_m) * spread
        r_m = re_m + g_m / (1.0 - g_w - g_m) * spread
        comp, kind, case = Composition(r_w, r_m), INTERIOR, 1
    elif cond_a >= 1.0 and g_m < 1.0 - re_m:
        boundary_values = [cond_a - 1.0]
        comp, kind, case = Composition(0.0, re_m / (1.0 - g_m)), EDGE_W0, 2
    elif g_w < re_w and cond_b >= 1.0:
        boundary_values = [cond_b - 1.0]
        comp, kind, case = Composition((re_w - g_w) / (1.0 - g_w), 1.0), EDGE_M1, 3
    elif g_w >= re_w and g_m >= 1.0 - re_m:
        boundary_values = [g_w - re_w, g_m - (1.0 - re_m)]
        comp, kind, case = Composition(0.0, 1.0), VERTEX, 4
    else:
        raise ConsistencyError(
            f"no closed-form region matched (gamma=({g_w}, {g_m}), re=({re_w}, {re_m}))"
        )

    point = _rest_point(params, comp, kind)
    return ClosedFormResult(point, case, any(v == 0.0 for v in boundary_values))


def _rest_point(params: ModelParams, comp: Composition, kind: str) -> EquilibriumPoint:
    """The labelled rest point, with the residual norm over its free
    coordinates only (zero for vertices)."""
    stability, eigs = classify_stability(params, comp, kind)
    if kind == INTERIOR:
        norm = residual(params, comp).norm
    elif kind in _EDGES:
        free, clamp = _EDGES[kind]
        norm = abs(_groups(params)[free].component((comp.r_w, comp.r_m)[free], clamp))
    else:
        norm = 0.0
    return EquilibriumPoint(comp, kind, stability, eigs, norm)


# ---------------------------------------------------------------------------
# the least amplified equilibrium
# ---------------------------------------------------------------------------


def solve_monotone_iteration(params: ModelParams) -> EquilibriumPoint:
    """The least amplified equilibrium: the greatest census point of Q.

    Q = [0, re_w] x [re_m, 1] holds the amplified compositions, ordered by
    falling r_w and rising r_m. Re-solving each group's equation against
    the partner's last value, from the efficient composition (re_w, re_m),
    maps Q into itself monotonically, so by Tarski's fixed-point theorem Q
    holds an equilibrium and a greatest one, which that iteration reaches:
    the census point of Q with the largest r_w and the smallest r_m. A Q
    without census points, or without one that dominates the others, is a
    census fault and raises ConsistencyError.
    """
    re_w, re_m = params.adv_w.r_e, params.adv_m.r_e
    if re_w > re_m:
        raise ValueError(f"monotone iteration requires re_w <= re_m, got ({re_w}, {re_m})")
    in_q = _census(params, box=((0.0, re_w), (re_m, 1.0)))
    if not in_q:
        raise ConsistencyError(f"the census holds no equilibrium in [0, {re_w}] x [{re_m}, 1]")
    px, py, kind = max(in_q, key=lambda p: (p[0], -p[1]))
    # no point of Q has a larger r_w, nor the same r_w with a smaller r_m
    if any(qy < py for _, qy, _ in in_q):
        raise ConsistencyError(
            f"no census point of [0, {re_w}] x [{re_m}, 1] dominates the others"
        )
    return _rest_point(params, Composition(px, py), kind)


# ---------------------------------------------------------------------------
# Newton from a seed
# ---------------------------------------------------------------------------

_OPEN_EPS = 1e-12


def _newton_batch(params: ModelParams, x0, y0, tol: float, max_iter: int = 80):
    """Damped Newton with the exact Jacobian on a batch of seeds.

    Returns (x, y, ok): seeds whose iterates left the open square or stalled
    have ok = False. Runs all seeds in lockstep with numpy; converged points
    are polished to machine level so duplicates from different seeds agree
    far below the merge radius.
    """
    x = np.array(x0, dtype=float).ravel().copy()
    y = np.array(y0, dtype=float).ravel().copy()
    alive = (x > _OPEN_EPS) & (x < 1 - _OPEN_EPS) & (y > _OPEN_EPS) & (y < 1 - _OPEN_EPS)
    # residual floor below which a point is frozen as converged; well under
    # tol so duplicates from different seeds coincide to ~1e-13 in position
    floor = min(1e-13, tol * 1e-2)

    def norm2(a, b):
        return a * a + b * b

    for _ in range(max_iter):
        if not np.any(alive):
            break
        xc = np.clip(x, _OPEN_EPS, 1 - _OPEN_EPS)
        yc = np.clip(y, _OPEN_EPS, 1 - _OPEN_EPS)
        ew, em = residual_arrays(params, xc, yc)
        alive &= np.maximum(np.abs(ew), np.abs(em)) > floor
        j11, j12, j21, j22 = _flow_jacobian(params, xc, yc)
        det = j11 * j22 - j12 * j21
        bad = (np.abs(det) < 1e-300) | ~np.isfinite(det)
        det = np.where(bad, 1.0, det)
        dx = (-ew * j22 + em * j12) / det
        dy = (-em * j11 + ew * j21) / det
        alive &= ~bad & np.isfinite(dx) & np.isfinite(dy)

        base = norm2(ew, em)
        lam = np.ones_like(x)
        accepted = np.zeros_like(alive)
        for _ in range(25):
            trial_x = x + lam * dx
            trial_y = y + lam * dy
            inside = (
                (trial_x > _OPEN_EPS) & (trial_x < 1 - _OPEN_EPS)
                & (trial_y > _OPEN_EPS) & (trial_y < 1 - _OPEN_EPS)
            )
            tew, tem = residual_arrays(
                params,
                np.clip(trial_x, _OPEN_EPS, 1 - _OPEN_EPS),
                np.clip(trial_y, _OPEN_EPS, 1 - _OPEN_EPS),
            )
            improved = inside & (norm2(tew, tem) <= base * (1 - 1e-4 * lam))
            take = alive & ~accepted & improved
            x = np.where(take, trial_x, x)
            y = np.where(take, trial_y, y)
            accepted |= take
            if np.all(accepted | ~alive):
                break
            lam = np.where(accepted, lam, lam * 0.5)
        # full steps that left the square with no acceptable damped fallback
        stalled = alive & ~accepted & (lam < 1e-6)
        alive &= ~stalled

    ew, em = residual_arrays(params, np.clip(x, _OPEN_EPS, 1 - _OPEN_EPS),
                             np.clip(y, _OPEN_EPS, 1 - _OPEN_EPS))
    ok = (
        (np.maximum(np.abs(ew), np.abs(em)) < tol)
        & (x > _OPEN_EPS) & (x < 1 - _OPEN_EPS)
        & (y > _OPEN_EPS) & (y < 1 - _OPEN_EPS)
    )
    return x, y, ok


def solve_from_seed(
    params: ModelParams, seed: Composition, tol: float = 1e-10
) -> EquilibriumPoint | None:
    """Find an interior equilibrium by damped Newton from one seed.

    When the Newton iterates leave the open square or stall, a Gauss-Seidel
    sweep takes over: it alternately moves each coordinate to the root of
    its own scalar equation nearest to it, against the other coordinate.
    Returns None when that sweep loses its roots, leaves the open square
    or ends off the equilibrium tolerance.
    """
    if not seed.interior:
        raise ValueError("seed must be interior")
    x, y, ok = _newton_batch(params, [seed.r_w], [seed.r_m], tol)
    if ok[0]:
        comp = Composition(float(x[0]), float(y[0]))
    else:
        comp = _gauss_seidel(params, seed)
        if comp is None or residual(params, comp).norm >= tol:
            return None
    return _rest_point(params, comp, INTERIOR)


def _gauss_seidel(params: ModelParams, seed: Composition) -> Composition | None:
    """The coordinate-wise sweep of solve_from_seed; None when it fails."""
    groups = _groups(params)
    r = [seed.r_w, seed.r_m]
    for _ in range(200):
        step = 0.0
        for i, g in enumerate(groups):
            roots = _roots_along(g, r[1 - i], _axis(_CENSUS_GRID))
            if not roots:
                return None
            new = min(roots, key=lambda v: abs(v - r[i]))
            step = max(step, abs(new - r[i]))
            r[i] = new
        if step < 1e-14:
            break
    if not (0 < r[0] < 1 and 0 < r[1] < 1):
        return None
    return Composition(r[0], r[1])


# ---------------------------------------------------------------------------
# corner verification
# ---------------------------------------------------------------------------


def _corner_numeric_consistent(g: _Group, at_one: bool, other: float, analytic: bool) -> bool:
    """Check the clamp inequality on d = 1e-2 .. 1e-8 against the analytic verdict.

    The comparison is on the trend of the penalty-to-advantage ratio, which
    is scale invariant: a slowly diverging tail may not dominate within the
    tested window even though it does asymptotically, but its direction of
    travel is already visible.
    """
    if g.corner(at_one, other)[1] <= 0.0:
        # penalty does not diverge: the exact margin at small d settles it;
        # a mass d stepping off the clamp must not gain
        e = g.component(1.0 - 1e-8 if at_one else 1e-8, other)
        return analytic == ((e if at_one else -e) >= 0.0)
    ratios = []
    for d in 10.0 ** -np.arange(2, 9):
        x = 1.0 - d if at_one else d
        q = g.advantage(x)
        ratios.append(g.penalty(x, other) / q if q != 0.0 else math.inf)
    first, last = ratios[0], ratios[-1]
    if g.beta != 1.0:
        trend_up = last > first * (1.0 + 1e-9)
        return trend_up == analytic
    # unit exponent: the ratio converges to penalty_coef / advantage_coef
    level_ok = last >= 1.0 - 1e-6
    return level_ok == analytic


def verify_corner(params: ModelParams, candidate: Composition) -> bool:
    """Decide whether the clamped coordinates of a candidate pass the corner test.

    For each coordinate sitting at 0 or 1, the advantage tail (order
    d ** -beta) is compared with the minority penalty (order d ** -1): the
    clamp survives when the penalty dominates for all small deviating masses.
    The analytic exponent/coefficient comparison is authoritative away from
    beta = 1; the exact inequality is also evaluated on d = 1e-2 .. 1e-8 and
    a contradictory trend raises ConsistencyError.
    """
    coords = (candidate.r_w, candidate.r_m)
    clamped = [i for i in (0, 1) if coords[i] in (0.0, 1.0)]
    if not clamped:
        raise ValueError("verify_corner needs at least one coordinate at 0 or 1")
    groups = _groups(params)
    for i in clamped:
        g, at_one, other = groups[i], coords[i] == 1.0, coords[1 - i]
        analytic = bool(g.holds(at_one, other))
        if not _corner_numeric_consistent(g, at_one, other, analytic):
            raise ConsistencyError(
                f"corner tests disagree for {'wm'[i]} clamp at "
                f"{'1' if at_one else '0'} with partner at {other}"
            )
        if not analytic:
            return False
    return True


# ---------------------------------------------------------------------------
# stability
# ---------------------------------------------------------------------------


def _flow_jacobian(params: ModelParams, x, y):
    """Exact Jacobian of (e_w, e_m) in (r_w, r_m) on interior points, vectorized.

    Returns the entries (j11, j12, j21, j22) in row order.
    """
    g_w, g_m = _groups(params)
    return g_w.d_own(x, y), g_w.d_partner(x), g_m.d_partner(y), g_m.d_own(y, x)


def _eig2(j11: float, j12: float, j21: float, j22: float) -> tuple[complex, complex]:
    tr = j11 + j22
    det = j11 * j22 - j12 * j21
    disc = tr * tr - 4.0 * det
    root = math.sqrt(disc) if disc >= 0.0 else complex(0.0, math.sqrt(-disc))
    return (complex(tr + root) / 2.0, complex(tr - root) / 2.0)


def classify_stability(
    params: ModelParams, comp: Composition, kind: str
) -> tuple[str, tuple[complex, ...] | None]:
    """Stability label and eigenvalues of one rest point.

    Interior points use the two eigenvalues of the exact flow Jacobian:
    both real parts negative is stable, opposite signs a saddle, both
    positive unstable, and a real part within 1e-8 of zero is reported as
    degenerate rather than guessed. Edge points combine the exact derivative
    along the free coordinate with the corner test on the clamped one;
    vertices require inflow along both adjacent edges.
    """
    if kind == INTERIOR:
        eigs = _eig2(*_flow_jacobian(params, comp.r_w, comp.r_m))
        reals = [ev.real for ev in eigs]
        if any(abs(r) < _EIG_ZERO_TOL for r in reals):
            return DEGENERATE, eigs
        if all(r < 0 for r in reals):
            return STABLE, eigs
        if all(r > 0 for r in reals):
            return UNSTABLE, eigs
        return SADDLE, eigs

    coords = (comp.r_w, comp.r_m)
    if kind in _EDGES:
        free, clamp = _EDGES[kind]
        d = _groups(params)[free].d_own(coords[free], clamp)
        eigs = (complex(d),)
        if abs(d) < _EIG_ZERO_TOL:
            return DEGENERATE, eigs
        corner_holds = verify_corner(params, comp)
        if d < 0 and corner_holds:
            return BOUNDARY_STABLE, eigs
        return SADDLE, eigs

    if kind == VERTEX:
        # flow of the free coordinate along each adjacent edge, just inside
        for i, g in enumerate(_groups(params)):
            at_zero = coords[i] == 0.0
            e = g.component(1e-6 if at_zero else 1.0 - 1e-6, coords[1 - i])
            if not (e < 0 if at_zero else e > 0):
                return SADDLE, None
        return BOUNDARY_STABLE, None

    raise ValueError(f"unknown equilibrium kind {kind!r}")


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------


def enumerate_equilibria(params: ModelParams, grid_n: int = _CENSUS_GRID) -> list[EquilibriumPoint]:
    """All equilibria found on the closed square, sorted lexicographically.

    Every scan runs on one axis: 64 * grid_n uniform points plus 400
    geometric points toward each wall, from 1e-14 to 2.5e-4. Interior
    points are the sign changes of X_M(Y_W(x)) - x, the M rest curve after
    the W one, kept when Y_W(x) lies in (0, 1); a group with k = 0 rests
    on the line own = r_e, along which the other group's equation is
    solved. Edge candidates are the roots of the free coordinate's equation
    along each edge, kept when the clamped coordinate passes the corner
    test; a candidate whose corner tests contradict each other is dropped
    with a warning. Vertices are kept when both clamps pass. Vertices,
    then edge points, then interior points merge at L-infinity distance
    1e-9; no other crossing is dropped, whatever its residual norm.
    Since every root is bisected to adjacent floats, grid_n sets the scan
    density only; below 16 it is rejected.
    """
    points = [_rest_point(params, Composition(px, py), kind)
              for px, py, kind in _census(params, grid_n)]
    points.sort(key=lambda p: (p.comp.r_w, p.comp.r_m))
    return points


def _census(params: ModelParams, grid_n: int = _CENSUS_GRID, box=((0.0, 1.0), (0.0, 1.0))):
    """The rest points of enumerate_equilibria inside box, as (r_w, r_m, kind).

    box holds the closed (lo, hi) range of each coordinate. Each scan runs
    only on the axis intervals that meet its range, and walls and vertices
    out of range are skipped, so a smaller box returns the full census's
    points inside it, up to the merge of two points within _MERGE_RADIUS
    that straddle its border.
    """
    if grid_n < 16:
        raise ValueError(f"grid_n must be at least 16, got {grid_n}")
    windows = [_window(_axis(grid_n), lo, hi) for lo, hi in box]

    def inside(px: float, py: float) -> bool:
        return box[0][0] <= px <= box[0][1] and box[1][0] <= py <= box[1][1]

    found: list[tuple[float, float, str]] = []

    def _push(px: float, py: float, kind: str):
        if all(max(abs(px - qx), abs(py - qy)) >= _MERGE_RADIUS for qx, qy, _ in found):
            found.append((px, py, kind))

    # vertices before edge roots, and both before interior crossings, so a
    # root found a hair from a clamp cannot displace the point on it
    for vx, vy in ((0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)):
        if inside(vx, vy) and _corner_filter(params, Composition(vx, vy)):
            _push(vx, vy, VERTEX)

    groups = _groups(params)
    for edge_kind, (free, clamp) in _EDGES.items():
        if not box[1 - free][0] <= clamp <= box[1 - free][1]:
            continue
        for root in _roots_along(groups[free], clamp, windows[free]):
            px, py = (root, clamp) if free == 0 else (clamp, root)
            if _corner_filter(params, Composition(px, py)):
                _push(px, py, edge_kind)

    for px, py in _rest_crossings(*groups, *windows):
        _push(px, py, INTERIOR)
    return [p for p in found if inside(p[0], p[1])]


#: the partner curve is evaluated this far inside the square at least
_PARTNER_CLIP = 1e-15


def _rest_crossings(g_w: _Group, g_m: _Group, axis_w, axis_m) -> list[tuple[float, float]]:
    """Interior crossings of the two rest curves, scanned along axis_w.

    A group with k = 0 rests on the vertical line own = r_e, so the other
    group's equation is solved along that line, on its own axis.
    """
    if g_w.k == 0.0:
        return [(g_w.r_e, y) for y in _roots_along(g_m, g_w.r_e, axis_m)]
    if g_m.k == 0.0:
        return [(x, g_m.r_e) for x in _roots_along(g_w, g_m.r_e, axis_w)]

    def gap(x):
        return g_m.rest(np.clip(g_w.rest(x), _PARTNER_CLIP, 1.0 - _PARTNER_CLIP)) - x

    xs = _crossings(gap, axis_w)
    ys = g_w.rest(xs)
    keep = (ys > 0.0) & (ys < 1.0)
    return list(zip(xs[keep].tolist(), ys[keep].tolist()))


@functools.lru_cache(maxsize=8)
def _axis(grid_n: int) -> np.ndarray:
    """Scan axis of the census: 64 * grid_n uniform interior points plus
    400 geometric points from 1e-14 to 2.5e-4 toward each wall; read-only."""
    uniform = np.linspace(0.0, 1.0, 64 * grid_n + 2)[1:-1]
    wall = 10.0 ** np.linspace(-14.0, math.log10(2.5e-4), 400)
    # numpy's sort would map about 256 KB more of its library into memory
    axis = np.array(sorted(np.concatenate([wall, uniform, 1.0 - wall]).tolist()))
    axis.flags.writeable = False
    return axis


def _window(axis: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """The points of the axis intervals that meet [lo, hi]."""
    start = max(int(np.searchsorted(axis, lo, side="left")) - 1, 0)
    return axis[start:int(np.searchsorted(axis, hi, side="right")) + 1]


def _crossings(f, axis: np.ndarray) -> np.ndarray:
    """Ascending roots of a vectorized f on an ascending axis: every sign
    change, bisected down to adjacent floats, and every exact zero at an
    axis point but the last.

    Each bracket returns its end with the smaller |f|.
    """
    vals = f(axis)
    sign = np.sign(vals)
    i = np.nonzero((sign[:-1] * sign[1:] < 0) | (sign[:-1] == 0.0))[0]
    lo, hi = axis[i], axis[i + 1]
    f_lo, f_hi = vals[i], vals[i + 1]
    while lo.size:
        mid = lo + 0.5 * (hi - lo)
        split = (mid > lo) & (mid < hi) & (f_lo != 0.0)
        if not split.any():
            break
        f_mid = f(mid)
        left = split & (np.sign(f_mid) == np.sign(f_lo))
        right = split & ~left
        lo, f_lo = np.where(left, mid, lo), np.where(left, f_mid, f_lo)
        hi, f_hi = np.where(right, mid, hi), np.where(right, f_mid, f_hi)
    return np.where(np.abs(f_lo) < np.abs(f_hi), lo, hi)


def _roots_along(g: _Group, other: float, axis: np.ndarray) -> list[float]:
    """All roots of one group's equation on the axis at a fixed partner fraction.

    Along an edge the partner sits at its clamp; the Gauss-Seidel sweep of
    solve_from_seed holds it at its current value.
    """
    return _crossings(lambda v: g.component(v, other), axis).tolist()


def _corner_filter(params: ModelParams, cand: Composition) -> bool:
    try:
        return verify_corner(params, cand)
    except ConsistencyError as exc:
        warnings.warn(f"dropping boundary candidate {cand}: {exc}", stacklevel=2)
        return False
