import numpy as np
import pytest

from roylab.model import Composition, make_params
from roylab.equilibrium import (
    BOUNDARY_STABLE,
    SADDLE,
    STABLE,
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
# monotone iteration
# ---------------------------------------------------------------------------


def test_monotone_without_scale_returns_efficient():
    p = make_params(c_w=0.3, c_m=0.3, beta=1.0, re_w=0.35, re_m=0.7, sigma=0.0)
    pt = solve_monotone_iteration(p)
    assert pt.comp == Composition(0.35, 0.7)


def test_monotone_matches_closed_form():
    pt = solve_monotone_iteration(make_params(**BENCH), tol=1e-12)
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
        mono = solve_monotone_iteration(p, tol=1e-12).comp
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
