import collections
import dataclasses
import json
import types
from pathlib import Path

import numpy as np
import pytest

from roylab import dynamics
from roylab.model import Composition, ModelParams, make_params
from roylab.equilibrium import _flow_jacobian, _groups, enumerate_equilibria
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
    cap = dynamics._point_cap
    calls = []

    def poisoned(groups, x, y, vx, vy):
        # integrate caps the field once per stage: the fourth stage of the
        # third step returns NaN
        calls.append(None)
        kx, ky = cap(groups, x, y, vx, vy)
        return (kx * np.nan, ky) if len(calls) == 12 else (kx, ky)

    monkeypatch.setattr(dynamics, "_point_cap", poisoned)
    clean = reference_integrate(p, Composition(0.5, 0.5), t_end=0.02)[1][-1]
    with pytest.raises(dynamics.IntegrationError, match="after step 3") as exc:
        integrate(p, Composition(0.5, 0.5), t_end=1.0)
    assert exc.value.last == tuple(clean)


# the float field against the numpy one: faces, vertices, points 1e-7 from a
# wall, the face offset itself and a few interior values
_WALLS = (0.0, 1e-7, dynamics._FACE_OFFSET, 0.013, 0.25, 0.5, 0.77,
          1.0 - dynamics._FACE_OFFSET, 1.0 - 1e-7, 1.0)
FIELD_LATTICE = [(x, y) for x in _WALLS for y in _WALLS]


def field_params():
    from test_acceptance import ordered_family_draw

    rng = np.random.default_rng(1004)
    configs = [ModelParams.from_dict(json.loads(path.read_text())["params"]) for path in BUNDLED]
    draws = [ordered_family_draw(rng) for _ in range(50)]
    betas = [make_params(c_w=0.5, c_m=0.3, beta=b, re_w=0.4, re_m=0.6) for b in (0.3, 1.0, 2.5, 41.0)]
    return configs + draws + betas


def bits(values):
    return np.array(values, dtype=float).view(np.uint64)


def test_float_field_is_the_numpy_field_bit_for_bit():
    for p in field_params():
        groups = _groups(p)
        raw = [dynamics._point_field(groups, x, y) for x, y in FIELD_LATTICE]
        capped = [dynamics._point_capped(groups, x, y) for x, y in FIELD_LATTICE]
        assert all(type(v) is float for pair in raw + capped for v in pair)
        numpy_raw = [tuple(map(float, dynamics._field(groups, x, y))) for x, y in FIELD_LATTICE]
        numpy_capped = [tuple(map(float, dynamics._field_capped(groups, x, y))) for x, y in FIELD_LATTICE]
        assert np.array_equal(bits(raw), bits(numpy_raw)), p
        assert np.array_equal(bits(capped), bits(numpy_capped)), p


def large_beta_params(beta):
    if beta < 130:
        return make_params(c_w=0.5, c_m=0.5, beta=beta, re_w=0.5, re_m=0.5)
    # AdvantageSpec certifies its quantile map only below beta = 130; the
    # dynamics read nothing of a law but C, r_e and beta
    law = types.SimpleNamespace(C=1.0, r_e=0.5, beta=float(beta))
    return dataclasses.replace(make_params(c_w=0.5, c_m=0.5), adv_w=law, adv_m=law)


def settle_outcome(params, start):
    try:
        traj = integrate(params, Composition(*start), t_end=5.0)
    except dynamics.IntegrationError as exc:
        return str(exc), exc.last
    return traj.states


@pytest.mark.parametrize("beta", [55, 60, 80, 200])
def test_float_settle_matches_numpy_at_large_beta(beta, monkeypatch):
    # (x(1 - x)) ** beta underflows to 0 at the face offset, and beyond
    # beta = 153 u ** -(beta + 1) overflows in the stiffness; Python floats
    # raise there, where numpy gives the inf that ends the settle
    p = large_beta_params(beta)
    starts = ((0.0, 0.3), (1e-7, 0.5), (1.0, 1.0), (0.5, 0.5))
    got = [settle_outcome(p, start) for start in starts]
    with monkeypatch.context() as m, np.errstate(all="ignore"):
        m.setattr(dynamics, "_point_field", lambda groups, x, y: tuple(
            map(float, dynamics._field(groups, x, y))))
        m.setattr(dynamics, "_point_cap", lambda groups, *state: tuple(
            map(float, dynamics._cap(groups, *map(np.asarray, state)))))
        want = [settle_outcome(p, start) for start in starts]
    for start, g, w in zip(starts, got, want):
        if isinstance(w, np.ndarray):
            assert np.array_equal(g, w), start
        else:
            assert g == w, start
    assert want[0] == ("non-finite state after step 1", (0.0, 0.3))


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


# ---------------------------------------------------------------------------
# capture: basins against the full settle
# ---------------------------------------------------------------------------


def config_params(name):
    path = Path(__file__).resolve().parents[1] / "configs" / f"{name}.json"
    return ModelParams.from_dict(json.loads(path.read_text())["params"])


def full_settle_basins(params, n, **kw):
    """basins with no trap: every cell runs until it is quiet or t_end."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(dynamics, "_traps", lambda params, equilibria: None)
        return basins(params, n, **kw)


def assert_capture_matches_full_settle(params, n, **kw):
    eqs = enumerate_equilibria(params)
    want = full_settle_basins(params, n, equilibria=eqs, **kw).labels
    got = basins(params, n, equilibria=eqs, **kw).labels
    assert np.array_equal(got, want), np.argwhere(got != want)
    return want


@pytest.mark.parametrize("n", [16, 32])
@pytest.mark.parametrize("config", BUNDLED, ids=lambda path: path.stem)
def test_capture_labels_match_the_full_settle(config, n):
    assert_capture_matches_full_settle(config_params(config.stem), n)


@pytest.mark.parametrize("t_end", [0.5, 5.0, 12.0])
@pytest.mark.parametrize("name", ["fig4-rescaled", "fig5-left"])
def test_capture_keeps_the_labels_of_a_short_settle(name, t_end):
    # a cell that the full settle leaves at -1 when t_end cuts it off is
    # never captured, and a captured one keeps its label at any t_end
    want = assert_capture_matches_full_settle(config_params(name), 32, t_end=t_end)
    if t_end < 12.0:
        assert (want == -1).sum() > 900


CAPTURE_BETAS = (0.05, 0.5, 1.0, 1.5, 2.0)


def capture_draws(count, seed=20):
    """Random parameters cycling through beta below, at and above 1."""
    rng = np.random.default_rng(seed)
    draws = []
    while len(draws) < count:
        beta = CAPTURE_BETAS[len(draws) % len(CAPTURE_BETAS)]
        try:
            draws.append(make_params(
                mu_w=rng.uniform(0.6, 1.0), c_w=10 ** rng.uniform(-2.5, 0.0),
                c_m=10 ** rng.uniform(-2.5, 0.0), beta=beta,
                re_w=rng.uniform(0.2, 0.8), re_m=rng.uniform(0.2, 0.8),
            ))
        except ValueError:
            # a law whose quantile map is not monotone is outside the family
            pass
    return draws


CAPTURE_DRAWS = capture_draws(20)


@pytest.mark.parametrize("draw", range(len(CAPTURE_DRAWS)))
def test_capture_labels_match_the_full_settle_on_random_draws(draw):
    assert_capture_matches_full_settle(CAPTURE_DRAWS[draw], 16)


def test_traps_are_certified_where_basins_spend_their_time():
    # without a trap the differential tests above would compare the full
    # settle with itself
    for name in ("fig4-rescaled", "fig5-left"):
        p = config_params(name)
        assert len(dynamics._traps(p, enumerate_equilibria(p))) >= 1, name
    per_draw = [len(dynamics._traps(p, enumerate_equilibria(p))) for p in CAPTURE_DRAWS]
    for k, beta in enumerate(CAPTURE_BETAS):
        assert sum(per_draw[k::len(CAPTURE_BETAS)]) >= 1, beta


def trap_cases():
    cases = [config_params(path.stem) for path in BUNDLED]
    return cases + [make_params(**SEVENTEEN), make_params(mu_w=0.8, **FAT_TAILS)] + CAPTURE_DRAWS


def test_every_trap_lies_within_snap_radius_of_its_equilibrium():
    count = 0
    for p in trap_cases():
        for x1, x2, y1, y2, ex, ey in dynamics._traps(p, enumerate_equilibria(p)):
            assert x1 <= ex <= x2 and y1 <= ey <= y2
            assert max(ex - x1, x2 - ex, ey - y1, y2 - ey) < dynamics.SNAP_RADIUS
            assert 0.0 <= min(x1, y1) and max(x2, y2) <= 1.0
            count += 1
    assert count >= 40


def rest_point_boxes(params, eq):
    """Boxes around an interior rest point: the Jacobian's aspect and eight decades around 1."""
    j = _flow_jacobian(params, eq.comp.r_w, eq.comp.r_m)
    r = dynamics._TRAP_RADIUS
    for ratio in [dynamics._aspect(*j), *np.logspace(-4, 4, 17)]:
        rx, ry = (r, ratio * r) if ratio <= 1.0 else (r / ratio, r)
        yield eq.comp.r_w - rx, eq.comp.r_w + rx, eq.comp.r_m - ry, eq.comp.r_m + ry


def test_corner_test_rejects_saddles_and_unstable_nodes(seventeen):
    p, eqs = seventeen
    groups = _groups(p)
    unstable = [e for e in eqs if e.stability in ("saddle", "unstable")]
    assert {e.kind for e in unstable} >= {"interior", "edge-w0", "edge-m0", "edge-m1", "edge-w1"}
    assert {e.stability for e in unstable if e.kind == "interior"} == {"saddle", "unstable"}
    for eq in unstable:
        if eq.kind == "interior":
            for box in rest_point_boxes(p, eq):
                assert not dynamics._box_traps(groups, *box), (eq.comp, box)
        # the certificate, not the label, decides: relabelled stable, no
        # such point gets a trap
        label = "stable" if eq.kind == "interior" else "boundary-stable"
        assert len(dynamics._traps(p, [dataclasses.replace(eq, stability=label)])) == 0, eq.comp


def test_a_box_whose_corners_rest_is_not_certified():
    # both corners of a box of no width sit on a stable vertex, where the
    # field is exactly zero: a trap needs strict inflow at its corners
    p = config_params("fig4")
    groups = _groups(p)
    vertex = Composition(0.0, 1.0)
    assert [e.stability for e in enumerate_equilibria(p) if e.comp == vertex] == ["boundary-stable"]
    assert tuple(flow(p, vertex)) == (0.0, 0.0)
    assert not dynamics._box_traps(groups, 0.0, 0.0, 1.0, 1.0)


def test_equilibria_closer_than_the_guard_get_no_trap(fat_unique):
    p, (only,) = fat_unique
    assert len(dynamics._traps(p, [only])) == 1
    for gap, traps in ((3.0, 0), (5.0, 1)):
        near = dataclasses.replace(
            only,
            comp=Composition(only.comp.r_w + gap * dynamics.SNAP_RADIUS, only.comp.r_m),
            stability="saddle",
        )
        assert len(dynamics._traps(p, [only, near])) == traps, gap
    assert len(dynamics._traps(p, [only, dataclasses.replace(only)])) == 0
