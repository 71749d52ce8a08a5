import collections
import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from roylab import dynamics
from roylab.model import Composition, ModelParams, make_params
from roylab.equilibrium import _groups, enumerate_equilibria
from roylab.dynamics import (
    basins,
    flow,
    integrate,
    nudge_and_settle,
    phase_portrait,
)

SEVENTEEN = dict(c_w=0.011, c_m=0.011, beta=0.05, re_w=0.4, re_m=0.6)
FAT_TAILS = dict(c_w=3.5, c_m=3.5, beta=2.0, re_w=0.7, re_m=0.5)


@pytest.fixture(scope="module")
def seventeen():
    p = make_params(**SEVENTEEN)
    return p, enumerate_equilibria(p, grid_n=64)


@pytest.fixture(scope="module")
def fat_unique():
    p = make_params(mu_w=1.0, **FAT_TAILS)
    return p, enumerate_equilibria(p, grid_n=32)


# ---------------------------------------------------------------------------
# flow
# ---------------------------------------------------------------------------


def test_flow_vanishes_at_every_equilibrium(seventeen, fat_unique):
    for p, eqs in (seventeen, fat_unique):
        for eq in eqs:
            v = flow(p, eq.comp)
            assert np.max(np.abs(v)) < 1e-6, (eq.kind, eq.comp)


def test_flow_without_scale_points_at_efficient_composition():
    p = make_params(c_w=0.5, c_m=0.5, beta=1.0, re_w=0.4, re_m=0.6, sigma=0.0)
    v = flow(p, Composition(0.2, 0.8))
    assert v[0] > 0 and v[1] < 0
    v2 = flow(p, Composition(0.6, 0.4))
    assert v2[0] < 0 and v2[1] > 0


def test_flow_blocks_outward_component_at_sticky_face(seventeen):
    p, _ = seventeen
    # thin tails with opposing presence: the W clamp holds, flow cannot exit
    v = flow(p, Composition(0.0, 0.5))
    assert v[0] == 0.0


def test_flow_inflow_at_face_when_tail_wins():
    p = make_params(mu_w=1.0, **FAT_TAILS)
    v = flow(p, Composition(0.0, 0.5))
    assert v[0] > 0.0


# ---------------------------------------------------------------------------
# integrate
# ---------------------------------------------------------------------------


def test_trajectory_stays_at_stable_equilibrium(fat_unique):
    p, eqs = fat_unique
    eq = eqs[0]
    traj = integrate(p, eq.comp, t_end=20.0, equilibria=eqs)
    drift = np.max(np.abs(traj.states - [eq.comp.r_w, eq.comp.r_m]))
    assert drift < 1e-8


def test_perturbed_stable_equilibrium_returns(fat_unique):
    p, eqs = fat_unique
    eq = eqs[0]
    init = Composition(eq.comp.r_w + 1e-3, eq.comp.r_m - 1e-3)
    traj = integrate(p, init, equilibria=eqs)
    assert traj.converged_to is not None
    assert traj.converged_to.comp == eq.comp


def test_forward_invariance_exact(seventeen):
    p, eqs = seventeen
    for init in (Composition(0.004, 0.7), Composition(0.97, 0.98), Composition(0.5, 0.01)):
        traj = integrate(p, init, t_end=50.0, equilibria=eqs)
        assert np.all(traj.states >= 0.0)
        assert np.all(traj.states <= 1.0)


def test_halving_dt_moves_terminal_less_than_1e6(seventeen, fat_unique):
    for (p, eqs), init in (
        (seventeen, Composition(0.1, 0.9)),
        (fat_unique, Composition(0.4, 0.4)),
    ):
        t1 = integrate(p, init, dt=0.01, equilibria=eqs)
        t2 = integrate(p, init, dt=0.005, equilibria=eqs)
        d = max(
            abs(t1.terminal.r_w - t2.terminal.r_w),
            abs(t1.terminal.r_m - t2.terminal.r_m),
        )
        assert d < 1e-6


def test_integrate_validates_step():
    p = make_params(**SEVENTEEN)
    with pytest.raises(ValueError):
        integrate(p, Composition(0.5, 0.5), t_end=1.0, dt=2.0)


def reference_integrate(params, init, t_end=500.0, dt=0.01):
    """integrate's RK4 loop as it was written before the step was shared with basins."""
    groups = _groups(params)
    n_steps = int(round(t_end / dt))
    xs = [init.r_w]
    ys = [init.r_m]
    ts = [0.0]
    x, y = init.r_w, init.r_m
    quiet = 0
    for k in range(n_steps):
        k1 = dynamics._field_capped(groups, x, y)
        x2, y2 = np.clip(x + 0.5 * dt * k1[0], 0.0, 1.0), np.clip(y + 0.5 * dt * k1[1], 0.0, 1.0)
        k2 = dynamics._field_capped(groups, x2, y2)
        x3, y3 = np.clip(x + 0.5 * dt * k2[0], 0.0, 1.0), np.clip(y + 0.5 * dt * k2[1], 0.0, 1.0)
        k3 = dynamics._field_capped(groups, x3, y3)
        x4, y4 = np.clip(x + dt * k3[0], 0.0, 1.0), np.clip(y + dt * k3[1], 0.0, 1.0)
        k4 = dynamics._field_capped(groups, x4, y4)
        x = x + dt / 6.0 * float(k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
        y = y + dt / 6.0 * float(k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
        assert np.isfinite(x) and np.isfinite(y)
        x = min(max(x, 0.0), 1.0)
        y = min(max(y, 0.0), 1.0)
        xs.append(x)
        ys.append(y)
        ts.append((k + 1) * dt)
        vx, vy = dynamics._field(groups, x, y)
        if max(abs(float(vx)), abs(float(vy))) < dynamics._STOP_SPEED:
            quiet += 1
            if quiet >= dynamics._STOP_RUNS:
                break
        else:
            quiet = 0
    return np.array(ts), np.column_stack([xs, ys]), Composition(x, y), quiet >= dynamics._STOP_RUNS


BUNDLED = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.json"))


@pytest.mark.parametrize("config", BUNDLED, ids=lambda path: path.stem)
def test_integrate_matches_scalar_loop_and_batch(config):
    p = ModelParams.from_dict(json.loads(config.read_text())["params"])
    starts = ((0.2, 0.8), (0.5, 0.5), (0.9, 0.1), (0.0, 1.0))
    bx, by, bdone = dynamics._integrate_batch(p, *zip(*starts), 500.0, 0.01)
    for k, start in enumerate(starts):
        traj = integrate(p, Composition(*start))
        times, states, terminal, converged = reference_integrate(p, Composition(*start))
        assert np.array_equal(traj.times, times)
        assert np.array_equal(traj.states, states)
        assert traj.terminal == terminal
        assert traj.converged == converged
        # the batch loop runs the same step on arrays, where numpy's vector
        # power may round differently from the scalar one in the last bit
        assert bdone[k] == converged
        assert abs(bx[k] - terminal.r_w) < 1e-12 and abs(by[k] - terminal.r_m) < 1e-12


def test_non_finite_step_raises_with_last_finite_state(monkeypatch):
    p = make_params(**FAT_TAILS)
    field = dynamics._field_capped
    calls = []

    def poisoned(groups, x, y):
        # the fourth stage of the third step returns NaN
        calls.append(None)
        vx, vy = field(groups, x, y)
        return (vx * np.nan, vy) if len(calls) == 12 else (vx, vy)

    monkeypatch.setattr(dynamics, "_field_capped", poisoned)
    clean = reference_integrate(p, Composition(0.5, 0.5), t_end=0.02)[1][-1]
    calls.clear()
    with pytest.raises(dynamics.IntegrationError, match="after step 3") as exc:
        integrate(p, Composition(0.5, 0.5), t_end=1.0)
    assert exc.value.last == tuple(clean)


# ---------------------------------------------------------------------------
# quota nudges
# ---------------------------------------------------------------------------


def test_zero_floor_from_equilibrium_stays(fat_unique):
    p, eqs = fat_unique
    res = nudge_and_settle(p, eqs[0].comp, 0.0, equilibria=eqs)
    assert res.settled.comp == eqs[0].comp
    assert not res.tipped


def test_ten_percent_floor_tips_every_corner_to_interior(seventeen):
    p, eqs = seventeen
    interior = [e for e in eqs if e.kind == "interior" and e.stability == "stable"]
    assert len(interior) == 1
    target = interior[0].comp
    for corner in (Composition(0.0, 1.0), Composition(0.0, 0.6274571659501982)):
        res = nudge_and_settle(p, corner, 0.1, equilibria=eqs)
        assert res.tipped
        assert res.settled.comp == target
        assert res.settled.comp.r_w < 0.4 < 0.6 < res.settled.comp.r_m


def test_nudge_from_origin_with_floor(seventeen):
    p, eqs = seventeen
    res = nudge_and_settle(p, Composition(0.0, 0.0), 0.1, equilibria=eqs)
    assert res.post_nudge == Composition(0.1, 0.1)
    assert res.settled.kind == "interior"


def test_equally_near_equilibria_resolve_to_the_first(fat_unique):
    # trajectories, nudges and basins share one nearest-equilibrium rule
    p, (only,) = fat_unique
    twins = [only, dataclasses.replace(only)]
    assert integrate(p, only.comp, equilibria=twins).converged_to is twins[0]
    assert nudge_and_settle(p, only.comp, 0.0, equilibria=twins).settled is twins[0]
    assert set(basins(p, 16, equilibria=twins).labels.ravel().tolist()) == {0}


def test_floor_validation(seventeen):
    p, eqs = seventeen
    with pytest.raises(ValueError):
        nudge_and_settle(p, Composition(0.5, 0.5), 0.5, equilibria=eqs)


# ---------------------------------------------------------------------------
# portraits and nullclines
# ---------------------------------------------------------------------------


def test_nullclines_are_straight_lines_without_scale():
    p = make_params(c_w=0.5, c_m=0.5, beta=1.0, re_w=0.4, re_m=0.6, sigma=0.0)
    pp = phase_portrait(p, 16, equilibria=enumerate_equilibria(p, grid_n=16))
    w_pts = np.vstack(pp.nullcline_w)
    m_pts = np.vstack(pp.nullcline_m)
    assert np.max(np.abs(w_pts[:, 0] - 0.4)) < 1e-6
    assert np.max(np.abs(m_pts[:, 1] - 0.6)) < 1e-6


def test_portrait_velocity_small_at_equilibria(fat_unique):
    p, eqs = fat_unique
    pp = phase_portrait(p, 16, equilibria=eqs)
    assert pp.equilibria == eqs
    # nearest grid node to the unique equilibrium has modest speed
    eq = eqs[0].comp
    i = int(np.argmin(np.abs(pp.axis - eq.r_w)))
    j = int(np.argmin(np.abs(pp.axis - eq.r_m)))
    assert np.hypot(*pp.velocity[i, j]) < np.median(np.hypot(
        pp.velocity[..., 0], pp.velocity[..., 1]
    ))


def test_single_interior_intersection_for_unit_exponent():
    p = make_params(c_w=0.1, c_m=0.1, beta=1.0, re_w=0.4, re_m=0.6)
    eqs = enumerate_equilibria(p, grid_n=16)
    pp = phase_portrait(p, 16, equilibria=eqs)
    assert len(pp.equilibria) == 1
    # the two nullcline families pass within grid tolerance of the equilibrium
    for polys in (pp.nullcline_w, pp.nullcline_m):
        pts = np.vstack(polys)
        d = np.min(np.max(np.abs(pts - [0.375, 0.625]), axis=1))
        assert d < 0.02


# ---------------------------------------------------------------------------
# basins
# ---------------------------------------------------------------------------


def test_single_equilibrium_catches_every_cell(fat_unique):
    p, eqs = fat_unique
    bm = basins(p, 16, equilibria=eqs)
    assert set(bm.labels.ravel().tolist()) == {0}


def test_seventeen_regime_has_seven_nonempty_basins(seventeen):
    p, eqs = seventeen
    bm = basins(p, 64, equilibria=eqs)
    counts = collections.Counter(bm.labels.ravel().tolist())
    assert counts.get(-1, 0) == 0
    used = sorted(k for k in counts if k >= 0)
    assert len(used) == 7
    for k in used:
        assert eqs[k].stability in ("stable", "boundary-stable")


def test_two_basins_in_bistable_regime():
    p = make_params(mu_w=0.8, **FAT_TAILS)
    eqs = enumerate_equilibria(p, grid_n=32)
    bm = basins(p, 16, equilibria=eqs)
    used = sorted(set(bm.labels.ravel().tolist()) - {-1})
    assert len(used) == 2
    for k in used:
        assert eqs[k].stability == "stable"
