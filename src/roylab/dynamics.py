"""Best-response dynamics on the unit square of compositions.

The state moves in the direction of the equilibrium residual: a group's
sector-1 fraction rises while the marginal member still gains from
switching in and falls otherwise. The square is forward invariant: at a
clamped face the outward component is switched off exactly when the corner
test says the minority penalty dominates the advantage tail, which matches
the rest-point semantics of the boundary equilibria.

Integration uses fixed-step RK4 on a time-rescaled copy of the field: the
raw velocity is multiplied by 1 / (1 + (speed + stiffness) / V_CAP), where
stiffness bounds the local Jacobian scale of the residual. Multiplying a
field by a smooth positive scalar reparametrizes time along each orbit
without changing orbits, rest points, stability, or basins, and it keeps
fixed-step RK4 inside its stability region near strongly attracting rest
points (fat-tailed advantage laws produce Jacobian norms in the hundreds,
far beyond what an unscaled step of 0.01 tolerates).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .equilibrium import _CENSUS_GRID, EquilibriumPoint, _axis, enumerate_equilibria
from .model import Composition, ModelParams, _Group, _groups

__all__ = [
    "Trajectory",
    "PhasePortrait",
    "BasinMap",
    "NudgeResult",
    "IntegrationError",
    "flow",
    "integrate",
    "phase_portrait",
    "basins",
    "nudge_and_settle",
    "SNAP_RADIUS",
]

#: terminal states within this distance of an enumerated equilibrium snap to it
SNAP_RADIUS = 1e-4

#: speed limit of the integrated field; orbit-preserving reparametrization
V_CAP = 50.0

#: offset used to evaluate the inflow rate at a face where the clamp fails
_FACE_OFFSET = 1e-6

_STOP_SPEED = 1e-10
_STOP_RUNS = 10


class IntegrationError(RuntimeError):
    """A step produced a non-finite state; carries the last finite state."""

    def __init__(self, message: str, last: tuple[float, float]):
        super().__init__(message)
        self.last = last


@dataclass
class Trajectory:
    times: np.ndarray
    states: np.ndarray  # shape (k, 2)
    terminal: Composition
    converged: bool
    converged_to: EquilibriumPoint | None = None


@dataclass
class PhasePortrait:
    axis: np.ndarray                 # n grid coordinates, shared by both axes
    velocity: np.ndarray             # (n, n, 2); [i, j] is the flow at (axis[i], axis[j])
    nullcline_w: list[np.ndarray] = field(default_factory=list)
    nullcline_m: list[np.ndarray] = field(default_factory=list)
    equilibria: list[EquilibriumPoint] = field(default_factory=list)


@dataclass
class BasinMap:
    resolution: int
    labels: np.ndarray               # (n, n) indices into equilibria; -1 unresolved
    equilibria: list[EquilibriumPoint]

    def cell_centers(self) -> np.ndarray:
        c = (np.arange(self.resolution) + 0.5) / self.resolution
        return c


@dataclass
class NudgeResult:
    post_nudge: Composition
    settled: EquilibriumPoint
    tipped: bool


def _field(groups: tuple[_Group, _Group], x, y):
    """Raw flow on the closed square, vectorized.

    Interior coordinates move at the residual rate. A coordinate sitting on
    its face is frozen when the corner test holds there and otherwise moves
    inward at the rate found a small offset inside the wall.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    g_w, g_m = groups
    return _coordinate_rate(g_w, x, y), _coordinate_rate(g_m, y, x)


def _coordinate_rate(g: _Group, own, partner):
    """Flow of one group's fraction `own` against the partner's fractions."""
    v = np.asarray(g.component(np.clip(own, _FACE_OFFSET, 1.0 - _FACE_OFFSET), partner))
    for at_one in (False, True):
        on_face = own == (1.0 if at_one else 0.0)
        if np.any(on_face):
            inward = np.minimum(v, 0.0) if at_one else np.maximum(v, 0.0)
            v = np.where(on_face & g.holds(at_one, partner), 0.0, np.where(on_face, inward, v))
    return v


def _field_capped(groups: tuple[_Group, _Group], x, y):
    vx, vy = _field(groups, x, y)
    speed = np.hypot(vx, vy)
    stiffness = groups[0].stiffness(x) + groups[1].stiffness(y)
    scale = 1.0 / (1.0 + (speed + stiffness) / V_CAP)
    return vx * scale, vy * scale


def flow(params: ModelParams, comp: Composition) -> np.ndarray:
    """Raw velocity of the best-response dynamics at one composition."""
    vx, vy = _field(_groups(params), comp.r_w, comp.r_m)
    return np.array([float(vx), float(vy)])


def _nearest(equilibria, comp: Composition) -> tuple[EquilibriumPoint | None, float]:
    """The equilibrium nearest to comp in the L-infinity norm, and its
    distance; the first of equally near ones, and (None, inf) for none."""
    best, best_d = None, float("inf")
    for eq in equilibria or []:
        d = max(abs(comp.r_w - eq.comp.r_w), abs(comp.r_m - eq.comp.r_m))
        if d < best_d:
            best, best_d = eq, d
    return best, best_d


def _rk4_step(groups: tuple[_Group, _Group], x, y, dt: float):
    """One RK4 step of the capped field from scalars or arrays x, y.

    Each stage is projected onto the unit square; the new state is returned
    unprojected, for the caller to check and clip.
    """
    k1x, k1y = _field_capped(groups, x, y)
    k2x, k2y = _field_capped(
        groups, np.clip(x + 0.5 * dt * k1x, 0.0, 1.0), np.clip(y + 0.5 * dt * k1y, 0.0, 1.0)
    )
    k3x, k3y = _field_capped(
        groups, np.clip(x + 0.5 * dt * k2x, 0.0, 1.0), np.clip(y + 0.5 * dt * k2y, 0.0, 1.0)
    )
    k4x, k4y = _field_capped(
        groups, np.clip(x + dt * k3x, 0.0, 1.0), np.clip(y + dt * k3y, 0.0, 1.0)
    )
    return (
        x + dt / 6.0 * (k1x + 2 * k2x + 2 * k3x + k4x),
        y + dt / 6.0 * (k1y + 2 * k2y + 2 * k3y + k4y),
    )


def integrate(
    params: ModelParams,
    init: Composition,
    t_end: float = 500.0,
    dt: float = 0.01,
    equilibria: list[EquilibriumPoint] | None = None,
) -> Trajectory:
    """Fixed-step RK4 trajectory from an initial composition.

    Every step is projected back onto the unit square. Integration stops
    early once the raw speed stays below 1e-10 for ten consecutive steps;
    the terminal snaps to a supplied equilibrium within SNAP_RADIUS. A step
    that leaves a non-finite state raises IntegrationError.

    The state is kept in Python floats: numpy arithmetic on scalars costs a
    fraction of the same operation on a one-element array, so one
    trajectory runs the shared step here rather than in _integrate_batch.
    """
    if dt > t_end:
        raise ValueError("dt must not exceed t_end")
    groups = _groups(params)
    n_steps = int(round(t_end / dt))
    xs = [init.r_w]
    ys = [init.r_m]
    x, y = init.r_w, init.r_m
    quiet = 0

    for k in range(n_steps):
        x, y = map(float, _rk4_step(groups, x, y, dt))
        if not (np.isfinite(x) and np.isfinite(y)):
            raise IntegrationError(
                f"non-finite state after step {k + 1}", (xs[-1], ys[-1])
            )
        x = min(max(x, 0.0), 1.0)
        y = min(max(y, 0.0), 1.0)
        xs.append(x)
        ys.append(y)
        vx, vy = _field(groups, x, y)
        if max(abs(float(vx)), abs(float(vy))) < _STOP_SPEED:
            quiet += 1
            if quiet >= _STOP_RUNS:
                break
        else:
            quiet = 0

    terminal = Composition(x, y)
    nearest, d = _nearest(equilibria, terminal)
    return Trajectory(
        times=np.arange(len(xs)) * dt,
        states=np.column_stack([xs, ys]),
        terminal=terminal,
        converged=quiet >= _STOP_RUNS,
        converged_to=nearest if d <= SNAP_RADIUS else None,
    )


def _integrate_batch(params: ModelParams, x0, y0, t_end: float, dt: float):
    """Terminal states of many trajectories, advanced in lockstep.

    Stops each trajectory as integrate does; one whose step goes non-finite
    keeps its last finite state and stops there.
    """
    groups = _groups(params)
    x = np.array(x0, dtype=float).ravel().copy()
    y = np.array(y0, dtype=float).ravel().copy()
    active = np.ones(x.shape, dtype=bool)
    quiet = np.zeros(x.shape, dtype=int)
    n_steps = int(round(t_end / dt))

    for _ in range(n_steps):
        if not np.any(active):
            break
        ax, ay = x[active], y[active]
        nx, ny = _rk4_step(groups, ax, ay, dt)
        nx = np.clip(nx, 0.0, 1.0)
        ny = np.clip(ny, 0.0, 1.0)
        bad = ~(np.isfinite(nx) & np.isfinite(ny))
        nx = np.where(bad, ax, nx)
        ny = np.where(bad, ay, ny)
        x[active] = nx
        y[active] = ny
        vx, vy = _field(groups, nx, ny)
        slow = np.maximum(np.abs(vx), np.abs(vy)) < _STOP_SPEED
        q = quiet[active]
        q = np.where(slow, q + 1, 0)
        quiet[active] = q
        still = active.copy()
        still[active] = (q < _STOP_RUNS) & ~bad
        active = still
    return x, y, quiet >= _STOP_RUNS


# ---------------------------------------------------------------------------
# phase portraits and nullclines
# ---------------------------------------------------------------------------


def _nullcline(g: _Group, own_axis: int, axis: np.ndarray) -> list[np.ndarray]:
    """One group's rest curve as polylines inside the square.

    own_axis is the coordinate holding the group's own fraction. The curve
    partner = g.rest(own) is sampled on the census axis and split where the
    partner leaves [0, 1]; with k = 0 it is the line own = r_e.
    """
    if g.k == 0.0:
        runs = [(np.full(2, g.r_e), np.array([0.0, 1.0]))]
    else:
        partner = g.rest(axis)
        idx = np.flatnonzero((partner >= 0.0) & (partner <= 1.0))
        runs = [
            (axis[run], partner[run])
            for run in np.split(idx, np.flatnonzero(np.diff(idx) > 1) + 1)
            if run.size > 1
        ]
    return [np.column_stack(run if own_axis == 0 else run[::-1]) for run in runs]


def phase_portrait(
    params: ModelParams,
    n: int,
    equilibria: list[EquilibriumPoint] | None = None,
) -> PhasePortrait:
    """Vector field on an n x n grid, nullclines, and the equilibrium set.

    The nullclines are the two rest curves on the default census axis; the
    equilibria default to the default census.
    """
    if n < 16:
        raise ValueError(f"portrait resolution must be at least 16, got {n}")
    axis = np.linspace(0.0, 1.0, n)
    gx, gy = np.meshgrid(axis, axis, indexing="ij")
    g_w, g_m = _groups(params)
    vx, vy = _field((g_w, g_m), gx, gy)
    vel = np.stack([vx, vy], axis=-1)
    if equilibria is None:
        equilibria = enumerate_equilibria(params)
    return PhasePortrait(
        axis=axis,
        velocity=vel,
        nullcline_w=_nullcline(g_w, 0, _axis(_CENSUS_GRID)),
        nullcline_m=_nullcline(g_m, 1, _axis(_CENSUS_GRID)),
        equilibria=equilibria,
    )


def basins(
    params: ModelParams,
    n: int,
    t_end: float = 500.0,
    dt: float = 0.01,
    equilibria: list[EquilibriumPoint] | None = None,
) -> BasinMap:
    """Attraction basins on an n x n lattice of cell centers.

    All cells integrate in one lockstep batch; the equilibria default to the
    default census. A cell whose terminal state lies farther than
    SNAP_RADIUS from every equilibrium, for instance after a non-finite
    step, is labelled -1.
    """
    if n < 16:
        raise ValueError(f"basin resolution must be at least 16, got {n}")
    if equilibria is None:
        equilibria = enumerate_equilibria(params)
    centers = (np.arange(n) + 0.5) / n
    gx, gy = np.meshgrid(centers, centers, indexing="ij")
    tx, ty, _ = _integrate_batch(params, gx.ravel(), gy.ravel(), t_end, dt)
    labels = np.full(tx.shape, -1, dtype=int)
    for k in range(tx.size):
        eq, d = _nearest(equilibria, Composition(float(tx[k]), float(ty[k])))
        if d <= SNAP_RADIUS:
            labels[k] = equilibria.index(eq)
    return BasinMap(resolution=n, labels=labels.reshape(n, n), equilibria=equilibria)


def _clamp(start: Composition, floor) -> Composition:
    """start with both fractions clamped into [floor, 1 - floor] (see nudge_and_settle)."""
    if np.isscalar(floor):
        f_w = f_m = float(floor)
    else:
        f_w, f_m = map(float, floor)
    for f in (f_w, f_m):
        if not (0.0 <= f < 0.5):
            raise ValueError(f"floor must lie in [0, 0.5), got {f}")
    return Composition(
        min(max(start.r_w, f_w), 1.0 - f_w),
        min(max(start.r_m, f_m), 1.0 - f_m),
    )


def nudge_and_settle(
    params: ModelParams,
    start: Composition,
    floor,
    equilibria: list[EquilibriumPoint] | None = None,
) -> NudgeResult:
    """Clamp both fractions into [floor, 1 - floor], then let dynamics settle.

    floor may be a scalar or a (floor_w, floor_m) pair; values in [0, 0.5).
    The tipping flag compares the settled point with the equilibrium nearest
    to the starting composition.
    """
    post = _clamp(start, floor)
    if equilibria is None:
        equilibria = enumerate_equilibria(params)
    traj = integrate(params, post, equilibria=equilibria)
    if traj.converged_to is None:
        raise IntegrationError(
            "dynamics did not settle onto an enumerated equilibrium",
            (traj.terminal.r_w, traj.terminal.r_m),
        )
    origin, _ = _nearest(equilibria, start)
    tipped = (
        max(
            abs(traj.converged_to.comp.r_w - origin.comp.r_w),
            abs(traj.converged_to.comp.r_m - origin.comp.r_m),
        )
        > SNAP_RADIUS
    )
    return NudgeResult(post_nudge=post, settled=traj.converged_to, tipped=tipped)
