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

One trajectory (integrate, and through it the quota settles and the
preference sweep) evaluates the field on Python floats; a batch (basins)
and the phase portrait evaluate it on numpy arrays. The two fields run the
same _Group formulas and agree bit for bit. Both RK4 loops evaluate the raw
field at each new state for the stop test and reuse it, capped, as the
next step's first stage.

A basin cell stops as soon as it enters a certified trap of a stable
equilibrium, and its terminal is that equilibrium. Each component falls in
the partner's fraction (d_partner = -k / (x(1 - x)) <= 0), so the flow is
competitive, and cooperative in (x, -y): an interior box is forward
invariant when the raw field points strictly into it at its two order
corners (x1, y2) and (x2, y1). An edge point's trap is a segment of its
face on which the clamp holds at both ends and the free group's component
points strictly inward. In a planar cooperative flow every bounded orbit
converges to an equilibrium (Hirsch, SIAM J. Math. Anal. 1982; Smith,
Monotone Dynamical Systems, 1995, ch. 3), so a forward invariant box that
holds one equilibrium captures every orbit that enters it, whatever its
size. Each trap therefore doubles from a box of half-width SNAP_RADIUS / 2
while it keeps its certificate and holds no other supplied equilibrium,
and the census of the final box must return its equilibrium alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .equilibrium import (
    _CENSUS_GRID,
    _EDGES,
    _MERGE_RADIUS,
    BOUNDARY_STABLE,
    INTERIOR,
    STABLE,
    EquilibriumPoint,
    _axis,
    _census,
    _flow_jacobian,
    enumerate_equilibria,
)
from .model import Composition, ModelParams, _clip, _Group, _groups

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

#: half-width of the first box tried around a stable equilibrium; a trap doubles from it
_TRAP_START = SNAP_RADIUS / 2


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
    labels: np.ndarray               # (n, n) indices into equilibria; -1 neither captured nor snapped
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
    v = np.asarray(g.component(own.clip(_FACE_OFFSET, 1.0 - _FACE_OFFSET), partner))
    for at_one in (False, True):
        on_face = own == (1.0 if at_one else 0.0)
        if on_face.any():
            inward = np.minimum(v, 0.0) if at_one else np.maximum(v, 0.0)
            v = np.where(on_face & g.holds(at_one, partner), 0.0, np.where(on_face, inward, v))
    return v


def _cap(groups: tuple[_Group, _Group], x, y, vx, vy):
    """The raw flow (vx, vy) at (x, y) times 1 / (1 + (speed + stiffness) / V_CAP).

    Python floats give Python floats. The speed is np.hypot's on both:
    math.hypot rounds differently in the last bit. Where the raw speed is
    infinite (the advantage factor underflows at a face for beta above
    about 54) and the stiffness finite, the product is its limit
    V_CAP * v / |v| (_speed_limit) instead of inf * 0.
    """
    speed = np.hypot(vx, vy)
    if isinstance(vx, float):
        speed = float(speed)
        infinite = speed == math.inf
    else:
        infinite = np.fmax.reduce(speed, axis=None, initial=0.0) == math.inf
    stiffness = groups[0].stiffness(x) + groups[1].stiffness(y)
    scale = 1.0 / (1.0 + (speed + stiffness) / V_CAP)
    if infinite:
        return _speed_limit(vx, vy, speed, stiffness, scale)
    return vx * scale, vy * scale


def _speed_limit(vx, vy, speed, stiffness, scale):
    """_cap where some raw speed is infinite: V_CAP times the direction of
    v's infinite components where the stiffness is finite and neither
    component is NaN, v * scale elsewhere."""
    with np.errstate(invalid="ignore"):
        ux = np.where(np.isinf(vx), np.sign(vx), 0.0)
        uy = np.where(np.isinf(vy), np.sign(vy), 0.0)
        norm = np.hypot(ux, uy)
        limit = np.isinf(speed) & np.isfinite(stiffness) & ~(np.isnan(vx) | np.isnan(vy))
        kx = np.where(limit, V_CAP * ux / norm, vx * scale)
        ky = np.where(limit, V_CAP * uy / norm, vy * scale)
    return (float(kx), float(ky)) if isinstance(vx, float) else (kx, ky)


def _field_capped(groups: tuple[_Group, _Group], x, y):
    return _cap(groups, x, y, *_field(groups, x, y))


def _point_rate(g: _Group, own: float, partner: float) -> float:
    """_coordinate_rate at one state in Python floats."""
    v = g.component(_clip(own, _FACE_OFFSET, 1.0 - _FACE_OFFSET), partner)
    if own == 0.0:
        return 0.0 if g.holds(False, partner) else max(v, 0.0)
    if own == 1.0:
        return 0.0 if g.holds(True, partner) else min(v, 0.0)
    return v


def _point_field(groups: tuple[_Group, _Group], x: float, y: float) -> tuple[float, float]:
    """_field at one state in Python floats, bit for bit.

    Where float arithmetic raises instead of giving inf (an advantage
    factor (x(1 - x)) ** beta that underflows to 0 at large beta), the
    numpy field gives the value, and the settle stops on it as before.
    """
    g_w, g_m = groups
    try:
        return _point_rate(g_w, x, y), _point_rate(g_m, y, x)
    except ArithmeticError:
        with np.errstate(all="ignore"):
            vx, vy = _field(groups, x, y)
        return float(vx), float(vy)


def _point_cap(groups: tuple[_Group, _Group], x: float, y: float, vx: float, vy: float):
    """_cap at one state in Python floats, bit for bit.

    A stiffness that overflows a float (beta above about 153, past the
    laws AdvantageSpec certifies) is taken from numpy, as in _point_field.
    """
    try:
        return _cap(groups, x, y, vx, vy)
    except OverflowError:
        with np.errstate(all="ignore"):
            kx, ky = _cap(groups, np.asarray(x), np.asarray(y), vx, vy)
        return float(kx), float(ky)


def _point_capped(groups: tuple[_Group, _Group], x: float, y: float) -> tuple[float, float]:
    return _point_cap(groups, x, y, *_point_field(groups, x, y))


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


def _rk4_step(capped, x, y, k1, dt: float):
    """One RK4 step of the capped field from Python floats or arrays x, y.

    capped(x, y) evaluates the field at a stage; k1 is its value at (x, y),
    which the caller has from its stop test. Each stage is projected onto
    the unit square; the new state is returned unprojected, for the caller
    to check and clip.
    """
    k1x, k1y = k1
    k2x, k2y = capped(_clip(x + 0.5 * dt * k1x, 0.0, 1.0), _clip(y + 0.5 * dt * k1y, 0.0, 1.0))
    k3x, k3y = capped(_clip(x + 0.5 * dt * k2x, 0.0, 1.0), _clip(y + 0.5 * dt * k2y, 0.0, 1.0))
    k4x, k4y = capped(_clip(x + dt * k3x, 0.0, 1.0), _clip(y + dt * k3y, 0.0, 1.0))
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

    The state and the field stay in Python floats (_point_field), which
    give the numpy field's values bit for bit at a fraction of the cost of
    numpy calls on one-element values; _integrate_batch runs the same step
    on arrays.
    """
    if dt > t_end:
        raise ValueError("dt must not exceed t_end")
    groups = _groups(params)
    n_steps = int(round(t_end / dt))
    x, y = float(init.r_w), float(init.r_m)
    xs = [x]
    ys = [y]
    capped = partial(_point_capped, groups)
    vx, vy = _point_field(groups, x, y)
    quiet = 0

    for k in range(n_steps):
        x, y = _rk4_step(capped, x, y, _point_cap(groups, x, y, vx, vy), dt)
        if not (math.isfinite(x) and math.isfinite(y)):
            raise IntegrationError(
                f"non-finite state after step {k + 1}", (xs[-1], ys[-1])
            )
        x = _clip(x, 0.0, 1.0)
        y = _clip(y, 0.0, 1.0)
        xs.append(x)
        ys.append(y)
        vx, vy = _point_field(groups, x, y)
        if max(abs(vx), abs(vy)) < _STOP_SPEED:
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


def _integrate_batch(params: ModelParams, x0, y0, t_end: float, dt: float, traps=None):
    """Terminal states of many trajectories, advanced in lockstep.

    Stops each trajectory as integrate does; one whose step goes non-finite
    keeps its last finite state and stops there. The stop test's field at
    the cells that stay active is their next first stage.

    traps holds rows (x1, x2, y1, y2, r_w, r_m) from _traps. A cell whose
    new state lies in the closed box of a row stops there as done, with the
    row's equilibrium (r_w, r_m) as its terminal.
    """
    groups = _groups(params)
    x = np.array(x0, dtype=float).ravel().copy()
    y = np.array(y0, dtype=float).ravel().copy()
    active = np.ones(x.shape, dtype=bool)
    quiet = np.zeros(x.shape, dtype=int)
    captured = np.zeros(x.shape, dtype=bool)
    trapping = traps is not None and len(traps) > 0
    if trapping:
        x1, x2, y1, y2 = traps[:, :4].T[:, :, None]
    n_steps = int(round(t_end / dt))
    capped = partial(_field_capped, groups)
    k1 = capped(x, y)

    for _ in range(n_steps):
        if not active.any():
            break
        ax, ay = x[active], y[active]
        nx, ny = _rk4_step(capped, ax, ay, k1, dt)
        nx = nx.clip(0.0, 1.0)
        ny = ny.clip(0.0, 1.0)
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
        go_on = (q < _STOP_RUNS) & ~bad
        if trapping:
            inside = (nx >= x1) & (nx <= x2) & (ny >= y1) & (ny <= y2)
            caught = go_on & inside.any(axis=0)
            if caught.any():
                which = inside.argmax(axis=0)[caught]
                cells = np.flatnonzero(active)[caught]
                x[cells] = traps[which, 4]
                y[cells] = traps[which, 5]
                captured[cells] = True
                go_on &= ~caught
        k1 = _cap(groups, nx[go_on], ny[go_on], vx[go_on], vy[go_on])
        still = active.copy()
        still[active] = go_on
        active = still
    return x, y, (quiet >= _STOP_RUNS) | captured


def _box_traps(groups: tuple[_Group, _Group], x1: float, x2: float, y1: float, y2: float) -> bool:
    """Corner test: the raw field points strictly into the box at (x1, y2) and (x2, y1).

    These are the order corners of the cooperative flow in (x, -y); by the
    Kamke comparison every orbit from the box stays between theirs, and
    theirs move into the box, so the box is forward invariant.
    """
    vx, vy = _field(groups, np.array([x1, x2]), np.array([y2, y1]))
    return bool(vx[0] > 0.0 and vy[0] < 0.0 and vx[1] < 0.0 and vy[1] > 0.0)


def _aspect(j11: float, j12: float, j21: float, j22: float) -> float:
    """A ratio ry / rx in (|j21| / |j22|, |j11| / |j12|), their geometric mean when finite.

    At a stable node the linear field J d points into the box of that
    aspect at both order corners; the interval is empty at a saddle.
    """
    lo = abs(j21) / abs(j22) if j22 else math.inf
    hi = abs(j11) / abs(j12) if j12 else math.inf
    if 0.0 < lo and hi < math.inf:
        return math.sqrt(lo) * math.sqrt(hi)
    return min(max(1.0, 2.0 * lo), 0.5 * hi)


def _first_half_widths(params: ModelParams, kind: str, ex: float, ey: float) -> tuple[float, float]:
    """Half-widths (rx, ry) of the first box tried around a stable equilibrium.

    An interior box has the aspect that the exact Jacobian picks, its longer
    side _TRAP_START; an edge segment has _TRAP_START along its face and no
    width across it.
    """
    if kind in _EDGES:
        return (0.0, _TRAP_START) if _EDGES[kind][0] == 1 else (_TRAP_START, 0.0)
    # on numpy scalars a partial that overflows is inf, not an OverflowError
    ratio = _aspect(*map(float, _flow_jacobian(params, np.float64(ex), np.float64(ey))))
    return (_TRAP_START, ratio * _TRAP_START) if ratio <= 1.0 else (_TRAP_START / ratio, _TRAP_START)


def _certified(groups, kind: str, box) -> bool:
    """The trap certificate of box (x1, x2, y1, y2) around an equilibrium of this kind.

    An interior box keeps to [_FACE_OFFSET, 1 - _FACE_OFFSET], where the
    raw field is the residual itself, and must pass the corner test
    (_box_traps). An edge trap is a segment of its face whose free range
    keeps to the same bounds: the clamp must hold at both ends (holds is
    monotone in the partner at beta = 1 and constant otherwise) and the
    free group's component must be positive at the lower end and negative
    at the upper one.
    """
    if kind == INTERIOR:
        return _FACE_OFFSET <= min(box) and max(box) <= 1.0 - _FACE_OFFSET and _box_traps(groups, *box)
    free, face = _EDGES[kind]
    ends = np.array(box[2 * free:2 * free + 2])
    if not (_FACE_OFFSET <= ends[0] and ends[1] <= 1.0 - _FACE_OFFSET):
        return False
    if not np.all(groups[1 - free].holds(face == 1.0, ends)):
        return False
    rate = groups[free].component(ends, face)
    return bool(rate[0] > 0.0 and rate[1] < 0.0)


def _trap(params: ModelParams, groups, equilibria: list[EquilibriumPoint], i: int):
    """(x1, x2, y1, y2) of the largest certified trap around equilibria[i], or None.

    The box starts at _first_half_widths and doubles while it passes the
    certificate and holds no other supplied equilibrium. The census of the
    final box must then return equilibria[i] alone, so that a partial list
    cannot let a trap hold a second equilibrium.
    """
    eq = equilibria[i]
    ex, ey = eq.comp.r_w, eq.comp.r_m
    rx, ry = _first_half_widths(params, eq.kind, ex, ey)
    trap = None
    while True:
        box = (ex - rx, ex + rx, ey - ry, ey + ry)
        if not _certified(groups, eq.kind, box) or any(
            j != i and box[0] <= other.comp.r_w <= box[1] and box[2] <= other.comp.r_m <= box[3]
            for j, other in enumerate(equilibria)
        ):
            break
        trap = box
        rx, ry = 2.0 * rx, 2.0 * ry
    if trap is None:
        return None
    points = _census(params, box=(trap[:2], trap[2:]))
    alone = len(points) == 1 and max(abs(points[0][0] - ex), abs(points[0][1] - ey)) < _MERGE_RADIUS
    return trap if alone else None


def _traps(params: ModelParams, equilibria: list[EquilibriumPoint]) -> np.ndarray:
    """Certified traps of the stable interior and edge equilibria.

    One row (x1, x2, y1, y2, r_w, r_m) per trap (_trap). Vertices get none,
    and neither does an equilibrium whose first box fails the certificate
    or holds another equilibrium, or whose final box's census does not
    return it alone. The certificates run without numpy warnings; a NaN
    fails every strict sign test.
    """
    groups = _groups(params)
    rows = []
    with np.errstate(all="ignore"):
        for i, eq in enumerate(equilibria):
            if (eq.kind, eq.stability) == (INTERIOR, STABLE) or (
                eq.kind in _EDGES and eq.stability == BOUNDARY_STABLE
            ):
                box = _trap(params, groups, equilibria, i)
                if box is not None:
                    rows.append((*box, eq.comp.r_w, eq.comp.r_m))
    return np.array(rows, dtype=float).reshape(-1, 6)


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
    default census.

    A cell stops early once it enters a certified trap of a stable interior
    or edge equilibrium (_traps), and takes that equilibrium as its
    terminal. An interior trap is a box at whose order corners (x1, y2) and
    (x2, y1) the raw field points strictly inward, which makes it forward
    invariant for this competitive flow; an edge trap is a segment of the
    face on which the clamp holds and the free component points inward at
    both ends. The census of each trap returns its equilibrium alone, so
    the flow from any point of it converges to that equilibrium, and the
    label is proved, not read off a settle. A cell that is not captured and
    whose terminal state lies farther than SNAP_RADIUS from every
    equilibrium at t_end, for instance after a non-finite step, is labelled
    -1.
    """
    if n < 16:
        raise ValueError(f"basin resolution must be at least 16, got {n}")
    if equilibria is None:
        equilibria = enumerate_equilibria(params)
    centers = (np.arange(n) + 0.5) / n
    gx, gy = np.meshgrid(centers, centers, indexing="ij")
    tx, ty, _ = _integrate_batch(params, gx.ravel(), gy.ravel(), t_end, dt, _traps(params, equilibria))
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
