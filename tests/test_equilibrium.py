import json
from pathlib import Path

import numpy as np
import pytest

from roylab.model import Composition, ModelParams, make_params
from roylab.equilibrium import (
    BOUNDARY_STABLE,
    SADDLE,
    STABLE,
    UNSTABLE,
    classify_stability,
    efficient_composition,
    enumerate_equilibria,
    residual,
    solve_closed_form_beta1,
    solve_from_seed,
    solve_monotone_iteration,
    verify_corner,
)

BENCH = dict(c_w=0.1, c_m=0.1, beta=1.0, re_w=0.4, re_m=0.6)

# one tenth of the headline preference strength: the regime with 17 equilibria
SEVENTEEN = dict(c_w=0.011, c_m=0.011, beta=0.05, re_w=0.4, re_m=0.6)


def stable_points(eqs):
    return [e for e in eqs if e.stability in (STABLE, BOUNDARY_STABLE)]


# ---------------------------------------------------------------------------
# residual
# ---------------------------------------------------------------------------


def test_residual_zero_at_shared_efficient_composition():
    p = make_params(c_w=0.5, c_m=0.5, beta=1.0, re_w=0.5, re_m=0.5)
    r = residual(p, Composition(0.5, 0.5))
    assert r.e_w == 0.0 and r.e_m == 0.0


def test_residual_zero_at_closed_form_point():
    p = make_params(**BENCH)
    r = residual(p, Composition(0.375, 0.625))
    assert abs(r.e_w) < 1e-10 and abs(r.e_m) < 1e-10


def test_residual_zero_at_efficient_composition_without_scale():
    p = make_params(c_w=0.4, c_m=0.4, beta=1.0, re_w=0.3, re_m=0.7, sigma=0.0)
    r = residual(p, efficient_composition(p))
    assert r.e_w == 0.0 and r.e_m == 0.0


def test_residual_rejects_boundary():
    p = make_params(**BENCH)
    with pytest.raises(ValueError):
        residual(p, Composition(0.0, 0.5))


def test_efficient_composition_matches_cdf_complement():
    from roylab.model import advantage_cdf

    p = make_params(c_w=0.9, c_m=0.2, beta=0.8, re_w=0.35, re_m=0.65)
    eff = efficient_composition(p)
    assert eff.r_w == 0.35 and eff.r_m == 0.65
    assert 1.0 - advantage_cdf(p.adv_w, 0.0) == pytest.approx(0.35, abs=1e-9)


# ---------------------------------------------------------------------------
# closed form
# ---------------------------------------------------------------------------


def test_closed_form_zero_gamma_returns_efficient():
    p = make_params(beta=1.0, re_w=0.4, re_m=0.6)
    res = solve_closed_form_beta1(p)
    assert res.case == 1
    assert res.point.comp == Composition(0.4, 0.6)


def test_closed_form_interior_benchmark():
    res = solve_closed_form_beta1(make_params(**BENCH))
    assert res.point.comp.r_w == pytest.approx(0.375, abs=1e-12)
    assert res.point.comp.r_m == pytest.approx(0.625, abs=1e-12)
    assert res.point.stability == STABLE


def test_closed_form_one_sided_corner():
    res = solve_closed_form_beta1(
        make_params(c_w=0.4, c_m=0.2, beta=1.0, re_w=0.2, re_m=0.6)
    )
    assert res.case == 2
    assert res.point.comp.r_w == 0.0
    assert res.point.comp.r_m == pytest.approx(0.75, abs=1e-12)


def test_closed_form_full_segregation():
    res = solve_closed_form_beta1(
        make_params(c_w=0.35, c_m=0.25, beta=1.0, re_w=0.3, re_m=0.8)
    )
    assert res.case == 4
    assert res.point.comp == Composition(0.0, 1.0)


def test_closed_form_precondition_errors():
    with pytest.raises(ValueError, match="beta"):
        solve_closed_form_beta1(make_params(beta=2.0, re_w=0.4, re_m=0.6))
    with pytest.raises(ValueError, match="re_w < re_m"):
        solve_closed_form_beta1(make_params(beta=1.0, re_w=0.6, re_m=0.4))
    with pytest.raises(ValueError, match="gamma"):
        solve_closed_form_beta1(
            make_params(c_w=0.6, c_m=0.5, beta=1.0, re_w=0.4, re_m=0.6)
        )


def test_closed_form_flags_region_boundary():
    # gamma_w * re_m / re_w + gamma_m = 0.25 * 2 + 0.5 lands exactly on 1
    res = solve_closed_form_beta1(
        make_params(c_w=0.25, c_m=0.5, beta=1.0, re_w=0.2, re_m=0.4)
    )
    assert res.case == 2
    assert res.on_boundary
    assert res.point.comp.r_m == pytest.approx(0.8, abs=1e-12)


def test_closed_form_respects_sigma_scaling():
    p = make_params(c_w=0.2, c_m=0.2, beta=1.0, re_w=0.4, re_m=0.6, sigma=0.5)
    res = solve_closed_form_beta1(p)
    assert res.point.comp.r_w == pytest.approx(0.375, abs=1e-12)
    assert res.point.comp.r_m == pytest.approx(0.625, abs=1e-12)


# ---------------------------------------------------------------------------
# the least amplified equilibrium
# ---------------------------------------------------------------------------


def test_monotone_without_scale_returns_efficient():
    p = make_params(c_w=0.3, c_m=0.3, beta=1.0, re_w=0.35, re_m=0.7, sigma=0.0)
    pt = solve_monotone_iteration(p)
    assert pt.comp == Composition(0.35, 0.7)


def test_monotone_matches_closed_form():
    pt = solve_monotone_iteration(make_params(**BENCH))
    assert pt.comp.r_w == pytest.approx(0.375, abs=1e-9)
    assert pt.comp.r_m == pytest.approx(0.625, abs=1e-9)


def test_monotone_identical_groups_stays_at_parity():
    p = make_params(c_w=0.2, c_m=0.2, beta=1.0, re_w=0.5, re_m=0.5)
    pt = solve_monotone_iteration(p)
    assert pt.comp.r_w == pytest.approx(0.5, abs=1e-12)
    assert pt.comp.r_m == pytest.approx(0.5, abs=1e-12)


def test_monotone_amplification_ordering():
    rng = np.random.default_rng(7)
    for _ in range(25):
        re_w = rng.uniform(0.15, 0.45)
        re_m = rng.uniform(re_w + 0.05, 0.9)
        beta = rng.uniform(0.3, 2.2)
        c = rng.uniform(0.01, 0.3)
        p = make_params(c_w=c, c_m=c, beta=beta, re_w=re_w, re_m=re_m)
        pt = solve_monotone_iteration(p)
        assert pt.comp.r_w <= re_w + 1e-9
        assert pt.comp.r_m >= re_m - 1e-9


def test_monotone_slides_to_vertex_when_preferences_dominate():
    # strong preferences with thin tails: both coordinates hit their clamps
    p = make_params(c_w=0.11, c_m=0.11, beta=0.05, re_w=0.4, re_m=0.6)
    pt = solve_monotone_iteration(p)
    assert pt.comp == Composition(0.0, 1.0)
    assert pt.kind == "vertex"


def test_monotone_reports_a_census_without_a_greatest_point_in_q(monkeypatch):
    import roylab.equilibrium as eq

    p = make_params(**BENCH)
    with pytest.raises(ValueError, match="re_w <= re_m"):
        solve_monotone_iteration(p.with_values(re_w=0.6, re_m=0.4))

    # the census of Q = [0, 0.4] x [0.6, 1]: no point, then two that
    # neither dominates
    for points in ([], [(0.3, 0.7, "interior"), (0.2, 0.6, "interior")]):
        monkeypatch.setattr(eq, "_census", lambda params, box, pts=points: pts)
        with pytest.raises(eq.ConsistencyError):
            solve_monotone_iteration(p)


# ---------------------------------------------------------------------------
# solve_from_seed
# ---------------------------------------------------------------------------


def test_seed_at_exact_equilibrium_returns_it():
    p = make_params(**BENCH)
    pt = solve_from_seed(p, Composition(0.375, 0.625))
    assert pt is not None
    assert pt.comp.r_w == pytest.approx(0.375, abs=1e-12)


def test_seed_from_center_finds_closed_form():
    p = make_params(**BENCH)
    pt = solve_from_seed(p, Composition(0.5, 0.5))
    assert pt is not None
    assert pt.comp.r_w == pytest.approx(0.375, abs=1e-10)
    assert pt.comp.r_m == pytest.approx(0.625, abs=1e-10)


def test_seed_requires_interior():
    with pytest.raises(ValueError):
        solve_from_seed(make_params(**BENCH), Composition(0.0, 0.5))


def test_seed_in_corner_basin_rejects_or_lands_on_known_interior():
    p = make_params(**SEVENTEEN)
    interior = {
        (round(e.comp.r_w, 8), round(e.comp.r_m, 8))
        for e in enumerate_equilibria(p, grid_n=64)
        if e.kind == "interior"
    }
    pt = solve_from_seed(p, Composition(0.004, 0.996))
    if pt is not None:
        assert (round(pt.comp.r_w, 8), round(pt.comp.r_m, 8)) in interior


def test_seed_where_newton_stalls_is_rescued_by_scalar_sweep():
    # fat tails: from a seed on the W = 0 wall damped Newton stalls near
    # (0.38, 0.75), where the residual norm has a local minimum but no root;
    # the Gauss-Seidel sweep still reaches the unique equilibrium
    from roylab.equilibrium import _newton_batch

    p = make_params(c_w=3.5, c_m=3.5, beta=2.0, re_w=0.7, re_m=0.5)
    assert not _newton_batch(p, [1e-6], [0.5], 1e-10)[2][0]
    (only,) = enumerate_equilibria(p, grid_n=32)
    pt = solve_from_seed(p, Composition(1e-6, 0.5))
    assert pt is not None and pt.stability == STABLE
    assert max(abs(pt.comp.r_w - only.comp.r_w), abs(pt.comp.r_m - only.comp.r_m)) < 1e-12


# ---------------------------------------------------------------------------
# verify_corner
# ---------------------------------------------------------------------------


def test_corner_unit_exponent_threshold():
    # strong W preferences keep the W group out of its advantaged sector
    p = make_params(c_w=0.9, c_m=0.4, beta=1.0, re_w=0.7, re_m=0.5)
    r_m_star = 0.5 / (1.0 - 0.4)
    assert verify_corner(p, Composition(0.0, r_m_star)) is True
    # weaker preferences fail the coefficient comparison
    p2 = make_params(c_w=0.8, c_m=0.4, beta=1.0, re_w=0.7, re_m=0.5)
    assert verify_corner(p2, Composition(0.0, r_m_star)) is False


def test_corner_fat_tails_never_segregate():
    p = make_params(c_w=3.5, c_m=3.5, beta=2.0, re_w=0.7, re_m=0.5)
    assert verify_corner(p, Composition(0.0, 0.4)) is False
    assert verify_corner(p, Composition(0.0, 1.0)) is False


def test_corner_thin_tails_allow_segregation():
    p = make_params(c_w=0.5, c_m=0.5, beta=0.5, re_w=0.4, re_m=0.6)
    assert verify_corner(p, Composition(0.0, 0.5)) is True


def test_corner_requires_opposing_presence():
    p = make_params(c_w=0.5, c_m=0.5, beta=0.5, re_w=0.4, re_m=0.6)
    assert verify_corner(p, Composition(0.0, 0.0)) is False


def test_corner_zero_preference_strength_fails():
    p = make_params(c_w=0.0, c_m=0.5, beta=0.5, re_w=0.4, re_m=0.6)
    assert verify_corner(p, Composition(0.0, 0.5)) is False


def test_corner_rejects_interior_candidate():
    p = make_params(**BENCH)
    with pytest.raises(ValueError):
        verify_corner(p, Composition(0.4, 0.6))


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------


def test_enumerate_unique_for_unit_exponent_benchmark():
    eqs = enumerate_equilibria(make_params(**BENCH), grid_n=16)
    assert len(eqs) == 1
    assert eqs[0].comp.r_w == pytest.approx(0.375, abs=1e-10)
    assert eqs[0].stability == STABLE


def test_enumerate_without_scale_returns_efficient_only():
    p = make_params(c_w=0.3, c_m=0.2, beta=0.7, re_w=0.3, re_m=0.8, sigma=0.0)
    eqs = enumerate_equilibria(p, grid_n=16)
    assert len(eqs) == 1
    assert eqs[0].comp.r_w == pytest.approx(0.3, abs=1e-10)
    assert eqs[0].comp.r_m == pytest.approx(0.8, abs=1e-10)


def test_enumerate_seventeen_regime():
    eqs = enumerate_equilibria(make_params(**SEVENTEEN), grid_n=64)
    assert len(eqs) == 17
    stables = stable_points(eqs)
    assert len(stables) == 7
    interior_stable = [e for e in stables if e.kind == "interior"]
    boundary_stable = [e for e in stables if e.kind != "interior"]
    assert len(interior_stable) == 1
    assert len(boundary_stable) == 6
    pt = interior_stable[0].comp
    assert pt.r_w < 0.4 < 0.6 < pt.r_m
    assert max(abs(pt.r_w - 0.4), abs(pt.r_m - 0.6)) < 0.05


def test_enumerate_grid_floor():
    with pytest.raises(ValueError):
        enumerate_equilibria(make_params(**BENCH), grid_n=8)


@pytest.mark.parametrize(
    "kw, expected",
    [
        (dict(c_w=0.4, c_m=0.2, re_w=0.2, re_m=0.6), (0.0, 0.75)),       # W-at-0 edge region
        (dict(c_w=0.35, c_m=0.25, re_w=0.3, re_m=0.8), (0.0, 1.0)),      # full segregation
        (dict(c_w=0.1, c_m=0.62, re_w=0.4, re_m=0.6), (1.0 / 3.0, 1.0)),  # M-at-1 edge region
    ],
)
def test_enumerate_unique_in_every_closed_form_region(kw, expected):
    # the unit-exponent regions with moderate total preference weight hold a
    # single equilibrium; enumeration confirms this without the closed form
    p = make_params(beta=1.0, **kw)
    eqs = enumerate_equilibria(p, grid_n=16)
    assert len(eqs) == 1
    cf = solve_closed_form_beta1(p).point
    assert max(
        abs(eqs[0].comp.r_w - cf.comp.r_w), abs(eqs[0].comp.r_m - cf.comp.r_m)
    ) < 1e-9
    if expected is not None:
        assert eqs[0].comp.r_w == pytest.approx(expected[0], abs=1e-9)
        assert eqs[0].comp.r_m == pytest.approx(expected[1], abs=1e-9)


def test_enumerate_matches_sign_grid_oracle():
    # every cell of a dense sign grid where both components flip holds an
    # enumerated equilibrium within two cells
    p = make_params(c_w=3.5, c_m=3.5, beta=2.0, re_w=0.7, re_m=0.5, mu_w=0.8)
    from roylab.equilibrium import residual_arrays

    eqs = enumerate_equilibria(p, grid_n=32)
    pts = np.array([[e.comp.r_w, e.comp.r_m] for e in eqs])
    n = 201
    xs = np.linspace(1e-6, 1 - 1e-6, n)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    ew, em = residual_arrays(p, X, Y)
    sw, sm = np.sign(ew), np.sign(em)
    flip_w = (sw[:-1, :-1] * sw[1:, :-1] < 0) | (sw[:-1, :-1] * sw[:-1, 1:] < 0)
    flip_m = (sm[:-1, :-1] * sm[1:, :-1] < 0) | (sm[:-1, :-1] * sm[:-1, 1:] < 0)
    cell = 2.0 / (n - 1)
    for i, j in zip(*np.nonzero(flip_w & flip_m)):
        cx, cy = xs[i] + cell / 4, xs[j] + cell / 4
        d = np.max(np.abs(pts - [cx, cy]), axis=1).min()
        assert d < 2 * cell


# ---------------------------------------------------------------------------
# stability classification
# ---------------------------------------------------------------------------


def test_parity_point_saddle_when_preferences_steep():
    p = make_params(c_w=1.0, c_m=1.0, beta=1.0, re_w=0.5, re_m=0.5)
    label, eigs = classify_stability(p, Composition(0.5, 0.5), "interior")
    assert label == SADDLE
    assert len(eigs) == 2


def test_parity_point_stable_when_preferences_shallow():
    p = make_params(c_w=0.25, c_m=0.25, beta=1.0, re_w=0.5, re_m=0.5)
    label, _ = classify_stability(p, Composition(0.5, 0.5), "interior")
    assert label == STABLE


def test_efficient_point_stable_without_scale():
    p = make_params(c_w=0.4, c_m=0.4, beta=1.0, re_w=0.4, re_m=0.6, sigma=0.0)
    label, eigs = classify_stability(p, Composition(0.4, 0.6), "interior")
    assert label == STABLE
    assert all(ev.real < 0 for ev in eigs)


# ---------------------------------------------------------------------------
# solver cross-agreement and regime properties (sampled)
# ---------------------------------------------------------------------------


def _interior_region_draw(rng):
    re_w = rng.uniform(0.1, 0.55)
    re_m = rng.uniform(re_w + 0.05, 0.92)
    while True:
        g_w = rng.uniform(0.01, 0.6)
        g_m = rng.uniform(0.01, 0.6)
        cond_a = g_w * re_m / re_w + g_m
        cond_b = g_w + g_m * (1 - re_w) / (1 - re_m)
        if g_w + g_m < 0.9 and max(cond_a, cond_b) < 0.97:
            return make_params(c_w=g_w, c_m=g_m, beta=1.0, re_w=re_w, re_m=re_m)


def test_solver_cross_agreement_sampled():
    rng = np.random.default_rng(11)
    for _ in range(40):
        p = _interior_region_draw(rng)
        cf = solve_closed_form_beta1(p).point.comp
        mono = solve_monotone_iteration(p).comp
        newt = solve_from_seed(p, Composition(0.5, 0.5)).comp
        for other in (mono, newt):
            assert abs(cf.r_w - other.r_w) < 1e-8
            assert abs(cf.r_m - other.r_m) < 1e-8


def unique_scale_by_halving(p, grid_n=16, max_halvings=30):
    """Largest sigma = 2**-k at which enumeration is a singleton at four
    geometric scales sigma, sigma/2, sigma/4, sigma/8; None if none found.

    An equilibrium can sit exponentially close to a corner at intermediate
    scales (tail exponent barely above one), where no grid resolves it, so
    all four scales are verified before accepting a candidate.
    """
    sigma_hat = 1.0
    for _ in range(max_halvings):
        counts = [
            len(enumerate_equilibria(p.with_values(sigma=sigma_hat * k), grid_n=grid_n))
            for k in (1.0, 0.5, 0.25, 0.125)
        ]
        if counts == [1, 1, 1, 1]:
            return sigma_hat
        sigma_hat *= 0.5
    return None


def test_small_scale_uniqueness_sampled():
    rng = np.random.default_rng(13)
    for _ in range(10):
        re_w = rng.uniform(0.2, 0.45)
        re_m = rng.uniform(re_w + 0.1, 0.85)
        c = rng.uniform(0.5, 3.0)
        beta = rng.uniform(1.1, 2.4)
        p = make_params(c_w=c, c_m=c, beta=beta, re_w=re_w, re_m=re_m)
        assert unique_scale_by_halving(p) is not None


# ---------------------------------------------------------------------------
# analytic partials against the central differences they replace
# ---------------------------------------------------------------------------


def central_difference_jacobian(params, x, y, step=1e-6):
    """The flow Jacobian as classify_stability took it before the exact partials."""
    from roylab.equilibrium import residual_arrays

    hx = min(step, x / 2, (1.0 - x) / 2)
    hy = min(step, y / 2, (1.0 - y) / 2)
    ew_xp, em_xp = residual_arrays(params, x + hx, y)
    ew_xm, em_xm = residual_arrays(params, x - hx, y)
    ew_yp, em_yp = residual_arrays(params, x, y + hy)
    ew_ym, em_ym = residual_arrays(params, x, y - hy)
    return np.array(
        [
            [(ew_xp - ew_xm) / (2 * hx), (ew_yp - ew_ym) / (2 * hy)],
            [(em_xp - em_xm) / (2 * hx), (em_yp - em_ym) / (2 * hy)],
        ],
        dtype=float,
    )


@pytest.mark.parametrize("beta", [0.05, 0.5, 1.0, 1.7, 2.4])
def test_exact_flow_jacobian_matches_central_differences(beta):
    from roylab.equilibrium import _flow_jacobian

    # unequal masses, strengths and scales, so no entry is symmetric by accident
    p = make_params(mu_w=0.8, mu_m=1.3, c_w=0.35, c_m=0.9, C_w=1.4, C_m=0.6,
                    beta=beta, re_w=0.3, re_m=0.65)
    axis = np.concatenate([[0.01, 0.02, 0.05], np.linspace(0.1, 0.9, 9), [0.95, 0.98, 0.99]])
    for x in axis:
        for y in axis:
            exact = np.reshape(_flow_jacobian(p, x, y), (2, 2))
            ref = central_difference_jacobian(p, x, y)
            scale = np.abs(ref).max(axis=1, keepdims=True)
            assert np.all(np.abs(exact - ref) <= 1e-6 * np.abs(ref) + 1e-9 * scale), (x, y)


def test_edge_derivative_matches_central_difference():
    from roylab.equilibrium import _EDGES, _groups

    # the edge points of the 17-point census, where only the free coordinate moves
    p = make_params(**SEVENTEEN)
    edges = [e for e in enumerate_equilibria(p, grid_n=64) if e.kind in _EDGES]
    assert len(edges) == 8
    for e in edges:
        free, clamp = _EDGES[e.kind]
        g = _groups(p)[free]
        v = (e.comp.r_w, e.comp.r_m)[free]
        h = min(1e-6, v / 2, (1.0 - v) / 2)
        ref = (g.component(v + h, clamp) - g.component(v - h, clamp)) / (2 * h)
        assert e.eigenvalues[0].real == pytest.approx(ref, rel=1e-6)


# ---------------------------------------------------------------------------
# the rest-curve census against the lattice-seeded Newton census it replaces
# ---------------------------------------------------------------------------

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def _bisect(f, lo: float, hi: float, want_sign_low: float, iters: int = 90) -> float:
    f_lo = f(lo)
    if f_lo * want_sign_low < 0.0:
        lo, hi = hi, lo
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if f(mid) * want_sign_low >= 0.0:
            lo = mid
        else:
            hi = mid
        if abs(hi - lo) < 1e-15:
            break
    return 0.5 * (lo + hi)


def lattice_census(params, grid_n, tol=1e-10):
    """enumerate_equilibria as it was before the rest-curve census.

    Damped Newton from every cell centre of a grid_n x grid_n lattice and
    from the centres of cells where both residual components change sign;
    edge roots from a 4001-point scan of each edge; edge roots merge before
    vertices, and both before interior points, at distance 10 * tol.
    """
    from roylab.equilibrium import (
        _EDGES, _corner_filter, _groups, _newton_batch, residual_arrays,
    )

    centers = (np.arange(grid_n) + 0.5) / grid_n
    gx, gy = np.meshgrid(centers, centers, indexing="ij")
    seeds_x, seeds_y = [gx.ravel()], [gy.ravel()]
    lat = np.linspace(1e-6, 1.0 - 1e-6, grid_n + 1)
    lx, ly = np.meshgrid(lat, lat, indexing="ij")
    ew, em = residual_arrays(params, lx, ly)

    def flips(s):
        return (
            (s[:-1, :-1] * s[1:, :-1] < 0)
            | (s[:-1, :-1] * s[:-1, 1:] < 0)
            | (s[:-1, :-1] * s[1:, 1:] < 0)
        )

    ii, jj = np.nonzero(flips(np.sign(ew)) & flips(np.sign(em)))
    seeds_x.append((lat[ii] + lat[ii + 1]) / 2.0)
    seeds_y.append((lat[jj] + lat[jj + 1]) / 2.0)
    x, y, ok = _newton_batch(params, np.concatenate(seeds_x), np.concatenate(seeds_y), tol)

    found = []

    def push(px, py, kind):
        if all(max(abs(px - qx), abs(py - qy)) >= 10.0 * tol for qx, qy, _ in found):
            found.append((px, py, kind))

    def edge_roots(g, other):
        t = np.linspace(1e-9, 1.0 - 1e-9, 4001)
        vals = g.component(t, other)
        roots = [
            _bisect(lambda v: g.component(v, other), float(t[i]), float(t[i + 1]),
                    want_sign_low=np.sign(vals[i]))
            for i in np.nonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0)[0]
        ]
        return sorted(roots + [float(v) for v in t[vals == 0.0]])

    groups = _groups(params)
    for kind, (free, clamp) in _EDGES.items():
        for root in edge_roots(groups[free], clamp):
            px, py = (root, clamp) if free == 0 else (clamp, root)
            if _corner_filter(params, Composition(px, py)):
                push(px, py, kind)
    for vx in (0.0, 1.0):
        for vy in (0.0, 1.0):
            if _corner_filter(params, Composition(vx, vy)):
                push(vx, vy, "vertex")
    for px, py in zip(x[ok], y[ok]):
        push(float(px), float(py), "interior")

    points = []
    for px, py, kind in found:
        comp = Composition(px, py)
        label, _ = classify_stability(params, comp, kind)
        points.append((px, py, kind, label))
    return sorted(points)


def criterion_4_draws():
    from test_acceptance import ordered_family_draw

    rng = np.random.default_rng(1004)
    return [ordered_family_draw(rng) for _ in range(500)]


def census_inputs(name):
    """(params, grid_n) of the criterion-4 draws, the thin-tail steps or the configs."""
    if name == "criterion-4":
        return [(p, 24) for p in criterion_4_draws()]
    if name == "thin-tail":
        return [
            (make_params(c_w=c, c_m=c, beta=0.05, re_w=0.4, re_m=0.6), 64)
            for c in (0.011, 0.0438, 0.044, 0.056, 0.062, 0.098, 0.11)
        ]
    configs = [json.loads(path.read_text()) for path in sorted(CONFIG_DIR.glob("*.json"))]
    assert len(configs) == 4
    return [(ModelParams.from_dict(cfg["params"]), cfg["resolution"]) for cfg in configs]


@pytest.mark.filterwarnings("ignore:dropping boundary candidate")
@pytest.mark.parametrize("inputs", ["criterion-4", "thin-tail", "configs"])
def test_rest_curve_census_keeps_every_lattice_point(inputs):
    extra = 0
    for p, grid_n in census_inputs(inputs):
        new = [(e.comp.r_w, e.comp.r_m, e.kind, e.stability)
               for e in enumerate_equilibria(p, grid_n=grid_n)]
        old = lattice_census(p, grid_n)
        matched = set()
        for ox, oy, kind, label in old:
            hits = [i for i, (nx, ny, nkind, nlabel) in enumerate(new)
                    if max(abs(nx - ox), abs(ny - oy)) <= 1e-12
                    and (nkind, nlabel) == (kind, label)]
            assert hits, (p, grid_n, (ox, oy, kind, label), new)
            matched.update(hits)
        unmatched = [row for i, row in enumerate(new) if i not in matched]
        assert all(row[2] == "interior" for row in unmatched), (p, grid_n, unmatched)
        extra += len(unmatched)
    if inputs != "criterion-4":
        # the thin-tail steps and the configs hold no wall-hugging point
        assert extra == 0


def rest_slope(C, r_e, beta, k, v):
    """Derivative of the rest curve v + C (r_e - v) (v (1 - v)) ** (1 - beta) / k."""
    s = v * (1.0 - v)
    return 1.0 + C * ((1.0 - beta) * (r_e - v) * (1.0 - 2.0 * v) * s ** -beta - s ** (1.0 - beta)) / k


@pytest.mark.filterwarnings("ignore:dropping boundary candidate")
def test_slope_rule_matches_the_interior_labels():
    # the flow Jacobian at a crossing is a positive diagonal times
    # [[a, -1], [-1, b]] with a = Y_W', b = X_M': a saddle iff a b < 1,
    # unstable iff both slopes are positive, stable otherwise
    checked = 0
    for p, grid_n in census_inputs("configs") + census_inputs("criterion-4"):
        k_w = p.sigma * p.pref_w.c * p.mu_m / p.mu_w
        k_m = p.sigma * p.pref_m.c * p.mu_w / p.mu_m
        for e in enumerate_equilibria(p, grid_n=grid_n):
            if e.kind != "interior" or e.stability == "degenerate":
                continue
            a = rest_slope(p.adv_w.C, p.adv_w.r_e, p.adv_w.beta, k_w, e.comp.r_w)
            b = rest_slope(p.adv_m.C, p.adv_m.r_e, p.adv_m.beta, k_m, e.comp.r_m)
            if a * b < 1.0:
                want = SADDLE
            elif a > 0.0 and b > 0.0:
                want = UNSTABLE
            else:
                want = STABLE
            assert e.stability == want, (p, e, a, b)
            checked += 1
    assert checked > 500


def criterion_5_draws():
    from test_acceptance import fat_tail_family_draw

    rng = np.random.default_rng(1005)
    return [fat_tail_family_draw(rng) for _ in range(100)]


@pytest.mark.filterwarnings("ignore:dropping boundary candidate")
def test_census_does_not_depend_on_grid_n():
    # every root is bisected to adjacent floats, so the axis density moves
    # no point: the evidence for one default census below enumerate_equilibria
    inputs = [p for p, _ in census_inputs("configs") + census_inputs("thin-tail")]
    inputs += criterion_4_draws()[:100]
    inputs += [p.with_values(sigma=s) for p in criterion_5_draws() for s in (1.0, 0.5, 0.25, 0.125)]
    for p in inputs:
        coarse = enumerate_equilibria(p, grid_n=16)
        fine = enumerate_equilibria(p, grid_n=64)
        assert [(e.kind, e.stability) for e in coarse] == [(e.kind, e.stability) for e in fine], p
        for a, b in zip(coarse, fine):
            assert max(abs(a.comp.r_w - b.comp.r_w), abs(a.comp.r_m - b.comp.r_m)) <= 1e-14, (p, a, b)


# ---------------------------------------------------------------------------
# the greatest census point of Q against the monotone iteration it replaces
# ---------------------------------------------------------------------------


class ConvergenceError(RuntimeError):
    """An iterative solver ran out of iterations; carries the last iterate."""

    def __init__(self, message: str, last: tuple[float, float]):
        super().__init__(message)
        self.last = last


_MONOTONE_SWEEPS = 10_000


def monotone_reference(params: ModelParams, tol: float = 1e-10):
    """solve_monotone_iteration as it was before it read the census.

    Starting from the efficient composition, each sweep re-solves the two
    scalar equations against the partner's previous value: the W fraction
    only falls and the M fraction only rises, so the limit straddles the
    efficient compositions. When a scalar equation loses its interior root
    the coordinate slides to its clamp (0 for W, 1 for M) and the iteration
    continues along the edge.
    """
    from roylab.equilibrium import INTERIOR, _groups, _rest_point

    re_w, re_m = params.adv_w.r_e, params.adv_m.r_e
    if re_w > re_m:
        raise ValueError(f"monotone iteration requires re_w <= re_m, got ({re_w}, {re_m})")
    if params.sigma == 0.0:
        return _rest_point(params, efficient_composition(params), INTERIOR)

    g_w, g_m = _groups(params)
    r_w, r_m = re_w, re_m
    for _ in range(_MONOTONE_SWEEPS):
        try:
            new_w = _scalar_solve(g_w, r_m, r_w, toward_one=False)
            new_m = _scalar_solve(g_m, r_w, r_m, toward_one=True)
        except ConvergenceError as exc:
            raise ConvergenceError(str(exc), (r_w, r_m)) from None
        step = max(abs(new_w - r_w), abs(new_m - r_m))
        r_w, r_m = new_w, new_m
        if step < tol:
            return _finish_monotone(params, r_w, r_m, tol)
    raise ConvergenceError(
        f"monotone iteration did not converge in {_MONOTONE_SWEEPS} sweeps", (r_w, r_m)
    )


def _finish_monotone(params, r_w: float, r_m: float, tol: float):
    from roylab.equilibrium import (
        EDGE_M1, EDGE_W0, INTERIOR, VERTEX, ConsistencyError, _rest_point,
    )

    w_clamped = r_w <= 0.0
    m_clamped = r_m >= 1.0
    if w_clamped and m_clamped:
        comp, kind = Composition(0.0, 1.0), VERTEX
    elif w_clamped:
        comp, kind = Composition(0.0, r_m), EDGE_W0
    elif m_clamped:
        comp, kind = Composition(r_w, 1.0), EDGE_M1
    else:
        comp, kind = Composition(r_w, r_m), INTERIOR
    if kind != INTERIOR and not verify_corner(params, comp):
        raise ConsistencyError(
            f"monotone iteration slid to {comp} but the corner test rejects it"
        )
    return _rest_point(params, comp, kind)


_SCAN_FLOOR = 1e-15


def _descending_grid(upper: float) -> np.ndarray:
    parts = [np.linspace(upper, upper * 1e-3, 800)]
    if upper * 1e-3 > _SCAN_FLOOR:
        parts.append(np.geomspace(upper * 1e-3, _SCAN_FLOOR, 300))
    return np.concatenate(parts)


def _scalar_solve(g, y: float, start: float, toward_one: bool) -> float:
    """Root of one group's equation nearest `start` on the side of its clamp.

    The monotone iteration moves W toward its clamp at 0 and M toward its
    clamp at 1, so the scan runs from `start` toward that clamp. When no
    interior root survives above the scan floor, the coordinate slides to
    its clamp only if the corner test approves of full exclusion; otherwise
    a root exists closer to the wall than floats resolve and a
    ConvergenceError reports the impasse.
    """
    clamp = 1.0 if toward_one else 0.0
    room = 1.0 - start if toward_one else start
    if room <= 0.0:
        return clamp
    if g.component(start, y) == 0.0:
        return start
    if room > _SCAN_FLOOR:
        # the residual at the previous iterate has the sign that points at
        # the clamp; the root is where that sign first flips
        steps = np.clip(_descending_grid(room), _SCAN_FLOOR, None)
        grid = 1.0 - steps if toward_one else steps
        vals = g.component(grid, y)
        flipped = np.nonzero(vals < 0.0 if toward_one else vals > 0.0)[0]
        if flipped.size:
            i = flipped[0]
            near = float(grid[i - 1]) if i > 0 else start
            return _bisect(lambda v: g.component(v, y), float(grid[i]), near, want_sign_low=+1.0)
    if g.holds(toward_one, y):
        return clamp
    raise ConvergenceError(
        f"equation root lies closer to {clamp:g} than the scan resolves", (start, y)
    )


@pytest.mark.filterwarnings("ignore:dropping boundary candidate")
def test_monotone_limit_is_the_greatest_census_point_in_the_ordered_quadrant():
    # Tarski: started at the top (re_w, re_m) of Q = [0, re_w] x [re_m, 1],
    # ordered by falling r_w and rising r_m, the monotone iteration reaches
    # the greatest fixed point in Q, which solve_monotone_iteration reads
    # off the census
    for p in criterion_4_draws():
        top = solve_monotone_iteration(p)
        mono = monotone_reference(p)
        assert mono.kind == top.kind, (p, mono, top)
        gap = max(abs(mono.comp.r_w - top.comp.r_w), abs(mono.comp.r_m - top.comp.r_m))
        assert gap <= 1e-9, (p, mono, top)
