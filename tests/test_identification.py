import numpy as np
import pytest

from roylab.equilibrium import enumerate_equilibria, solve_closed_form_beta1
from roylab.model import (
    Composition,
    TypeId,
    _groups,
    advantage_cdf,
    advantage_quantile,
    make_params,
)
from roylab.identification import (
    CandidateParams,
    GridAxis,
    GridSpec,
    NoiseSpec,
    ObservedData,
    check_inequalities,
    default_y_grid,
    empirical_joint_cdf,
    equilibrium_consistent,
    g_star,
    identified_set,
    lhs_moment,
    simulate_observed_data,
)

TRUTH = make_params(c_w=0.1, c_m=0.1, beta=1.0, re_w=0.4, re_m=0.6)
TRUTH_CAND = CandidateParams(re_w=0.4, re_m=0.6, c_w=0.1, c_m=0.1, C_w=1.0, C_m=1.0)


def tiny_data():
    return ObservedData(
        is_w=np.array([True, True, False, False]),
        sector=np.array([1, 2, 1, 2], dtype=np.int8),
        income=np.array([2.0, 3.0, 4.0, 5.0]),
        observed_comp=Composition(0.375, 0.625),
        pop_ratio=1.0,
        min_wage=1.0,
    )


# ---------------------------------------------------------------------------
# empirical probabilities
# ---------------------------------------------------------------------------


def test_empirical_joint_cdf_hand_counts():
    d = tiny_data()
    assert empirical_joint_cdf(d, 2.0, 1, TypeId.W) == 0.25
    assert empirical_joint_cdf(d, 1.5, 1, TypeId.W) == 0.0
    assert empirical_joint_cdf(d, 10.0, 2, TypeId.M) == 0.25
    assert empirical_joint_cdf(d, 4.5, 2, TypeId.M, tail=True) == 0.25
    assert empirical_joint_cdf(d, 5.0, 2, TypeId.M, tail=True) == 0.0


def test_empty_dataset_rejected():
    with pytest.raises(ValueError):
        ObservedData(
            is_w=np.array([], dtype=bool),
            sector=np.array([], dtype=np.int8),
            income=np.array([]),
            observed_comp=Composition(0.5, 0.5),
            pop_ratio=1.0,
            min_wage=0.0,
        )


def test_csv_round_trip():
    d = tiny_data()
    back = ObservedData.from_csv(d.to_csv(), d.sidecar_dict())
    assert np.array_equal(back.is_w, d.is_w)
    assert np.array_equal(back.sector, d.sector)
    assert np.allclose(back.income, d.income)
    assert back.observed_comp == d.observed_comp


def test_csv_malformed_row_reports_line():
    d = tiny_data()
    text = d.to_csv() + "x,9,1.0\n"
    with pytest.raises(ValueError, match="row 6"):
        ObservedData.from_csv(text, d.sidecar_dict())


# ---------------------------------------------------------------------------
# selection cutoffs
# ---------------------------------------------------------------------------


def test_g_star_zero_cases():
    d = tiny_data()
    zero_pref = CandidateParams(0.4, 0.6, 0.0, 0.0, 1.0, 1.0)
    assert g_star(zero_pref, d) == (0.0, 0.0)
    balanced = ObservedData(
        is_w=d.is_w, sector=d.sector, income=d.income,
        observed_comp=Composition(0.5, 0.5), pop_ratio=1.0, min_wage=1.0,
    )
    assert g_star(TRUTH_CAND, balanced) == (0.0, 0.0)


def test_g_star_benchmark_value():
    d = tiny_data()
    cand = CandidateParams(0.4, 0.6, 1.0, 0.0, 1.0, 1.0)
    gw, _ = g_star(cand, d)
    assert gw == pytest.approx(0.25 / 0.234375, abs=1e-12)


def frozen_gain(c, z, x, y):
    """The composition gain as model.g_interior computed it, before the
    per-group view of model.py took over the cutoffs."""
    return c * z * (y - x) / (x * (1.0 - x))


def frozen_simulate(params, n_total, seed, noise, min_wage=1.0):
    """(is_w, sector, income) of simulate_observed_data as written before it
    shared the advantage sampler and the per-group view."""
    comp = solve_closed_form_beta1(params).point.comp
    rng = np.random.default_rng(seed)
    r = params.pop_ratio
    n_w = int(round(n_total * r / (1.0 + r)))
    gw = frozen_gain(params.sigma * params.pref_w.c, 1.0 / r, comp.r_w, comp.r_m)
    gm = frozen_gain(params.sigma * params.pref_m.c, r, comp.r_m, comp.r_w)
    base_scale = 4.0 * max(params.adv_w.C, params.adv_m.C)
    is_w = np.zeros(n_total, dtype=bool)
    is_w[:n_w] = True
    u = np.clip(rng.random(n_total), 1e-15, 1.0 - 1e-15)
    delta = np.concatenate([advantage_quantile(params.adv_w, u[:n_w]),
                            advantage_quantile(params.adv_m, u[n_w:])])
    if noise.family == "degenerate":
        xi = np.zeros(n_total)
    elif noise.family == "logistic":
        v = np.clip(rng.random(n_total), 1e-15, 1 - 1e-15)
        xi = noise.scale * np.log(v / (1.0 - v))
    else:
        xi = noise.scale * rng.standard_normal(n_total)
    cutoff = np.where(is_w, gw, gm)
    sector = np.where(delta > cutoff + xi, 1, 2).astype(np.int8)
    base = min_wage + rng.exponential(base_scale, size=n_total)
    income = np.where(sector == 1, base + np.maximum(delta, 0.0),
                      base + np.maximum(-delta, 0.0))
    return is_w, sector, income


#: mass pairs with pop_ratio 1, 1.5 and 0.7 / 1.3
MASSES = [(1.0, 1.0), (1.5, 1.0), (0.7, 1.3)]


def cutoff_params(mu_w, mu_m):
    return make_params(mu_w=mu_w, mu_m=mu_m, c_w=0.1, c_m=0.15, C_w=1.3, C_m=0.9,
                       re_w=0.4, re_m=0.6, sigma=0.7)


@pytest.mark.parametrize("mu_w, mu_m", MASSES)
def test_cutoffs_equal_the_frozen_gain(mu_w, mu_m):
    p = cutoff_params(mu_w, mu_m)
    r = p.pop_ratio
    rng = np.random.default_rng(5)
    xs, ys = rng.uniform(0.01, 0.99, (2, 1000))
    # g_star weighs the candidate's c_w by 1 / r and c_m by r, as before
    for x, y, c_w, c_m in zip(xs[:200].tolist(), ys[:200].tolist(),
                              *rng.uniform(0.01, 1.5, (2, 200)).tolist()):
        cand = CandidateParams(0.4, 0.6, c_w, c_m, 1.3, 0.9)
        want = (frozen_gain(c_w, 1.0 / r, x, y), frozen_gain(c_m, r, y, x))
        assert g_star(cand, observed_at(x, y, r)) == want
    # simulate_observed_data reads the views of _groups, whose W weight takes
    # mu_m / mu_w where the old cutoff took 1 / (mu_w / mu_m)
    g_w, g_m = _groups(p)
    assert np.array_equal(g_m.penalty(ys, xs), frozen_gain(p.sigma * p.pref_m.c, r, ys, xs))
    want_w = frozen_gain(p.sigma * p.pref_w.c, 1.0 / r, xs, ys)
    if 1.0 / r == mu_m / mu_w:
        assert np.array_equal(g_w.penalty(xs, ys), want_w)
    else:
        # one ulp apart in the weight, so a few ulps apart in the gain
        assert np.allclose(g_w.penalty(xs, ys), want_w, rtol=1e-15, atol=0.0)


@pytest.mark.parametrize("mu_w, mu_m", MASSES)
def test_simulated_data_equal_the_frozen_sampler(mu_w, mu_m):
    p = cutoff_params(mu_w, mu_m)
    for noise in (NoiseSpec(), NoiseSpec("logistic", 0.05), NoiseSpec("gaussian", 0.1)):
        # two agents hold one W draw at each of these mass ratios
        for n_total, seed in ((2, 0), (3, 1), (5000, 2), (5000, 3)):
            got = simulate_observed_data(p, n_total, seed, noise=noise)
            is_w, sector, income = frozen_simulate(p, n_total, seed, noise)
            assert np.array_equal(got.is_w, is_w)
            assert np.array_equal(got.sector, sector)
            assert np.array_equal(got.income, income)


def test_g_star_boundary_composition_rejected():
    d = tiny_data()
    corner = ObservedData(
        is_w=d.is_w, sector=d.sector, income=d.income,
        observed_comp=Composition(0.0, 0.625), pop_ratio=1.0, min_wage=1.0,
    )
    with pytest.raises(ValueError):
        g_star(TRUTH_CAND, corner)


# ---------------------------------------------------------------------------
# moment sides
# ---------------------------------------------------------------------------


def test_lhs_moment_degenerate_at_wage_floor():
    d = tiny_data()
    got = lhs_moment(TRUTH_CAND, TypeId.W, d.min_wage, 1, NoiseSpec(), d)
    adv = TRUTH_CAND.adv(TypeId.W)
    gs = g_star(TRUTH_CAND, d)[0]
    expected = 0.5 * max(0.0, advantage_cdf(adv, 0.0) - advantage_cdf(adv, gs))
    assert got == pytest.approx(expected, abs=1e-12)


def test_lhs_moment_large_threshold_limit():
    d = tiny_data()
    got = lhs_moment(TRUTH_CAND, TypeId.W, 1e9, 1, NoiseSpec(), d)
    adv = TRUTH_CAND.adv(TypeId.W)
    gs = g_star(TRUTH_CAND, d)[0]
    assert got == pytest.approx(0.5 * (1.0 - advantage_cdf(adv, gs)), abs=1e-6)


@pytest.mark.parametrize("noise", [NoiseSpec("logistic", 0.3), NoiseSpec("gaussian", 0.5)])
def test_quadrature_matches_monte_carlo(noise):
    d = tiny_data()
    rng = np.random.default_rng(5)
    n = 1_000_000
    candidates = [TRUTH_CAND] + [
        CandidateParams(
            re_w=rng.uniform(0.2, 0.6),
            re_m=rng.uniform(0.4, 0.8),
            c_w=rng.uniform(0.0, 0.4),
            c_m=rng.uniform(0.0, 0.4),
            C_w=rng.uniform(0.5, 2.0),
            C_m=rng.uniform(0.5, 2.0),
        )
        for _ in range(9)
    ]
    for cand in candidates:
        adv = cand.adv(TypeId.W)
        gs = g_star(cand, d)[0]
        u = np.clip(rng.random(n), 1e-15, 1 - 1e-15)
        delta = advantage_quantile(adv, u)
        if noise.family == "logistic":
            v = np.clip(rng.random(n), 1e-15, 1 - 1e-15)
            xi = noise.scale * np.log(v / (1.0 - v))
        else:
            xi = noise.scale * rng.standard_normal(n)
        for y in (2.0, 5.0):
            mc1 = 0.5 * np.mean((delta > gs + xi) & (delta <= y - d.min_wage))
            got1 = lhs_moment(cand, TypeId.W, y, 1, noise, d)
            assert abs(got1 - mc1) < 2e-3
            mc2 = 0.5 * np.mean((delta > d.min_wage - y) & (delta <= gs + xi))
            got2 = lhs_moment(cand, TypeId.W, y, 2, noise, d)
            assert abs(got2 - mc2) < 2e-3


def test_moment_sides_monotone_in_threshold():
    # both sides of each bound move the same way in y, so a threshold grid
    # samples the constraints where they bind
    data = simulate_observed_data(TRUTH, 5000, seed=3)
    ys = default_y_grid(data, 25)
    for t in (TypeId.W, TypeId.M):
        side1 = [lhs_moment(TRUTH_CAND, t, float(y), 1, NoiseSpec(), data) for y in ys]
        side2 = [lhs_moment(TRUTH_CAND, t, float(y), 2, NoiseSpec(), data) for y in ys]
        assert all(a <= b + 1e-12 for a, b in zip(side1, side1[1:]))
        assert all(a <= b + 1e-12 for a, b in zip(side2, side2[1:]))
        rhs1 = [empirical_joint_cdf(data, float(y), 1, t) for y in ys]
        rhs2 = [empirical_joint_cdf(data, float(y), 2, t) for y in ys]
        assert all(a <= b + 1e-12 for a, b in zip(rhs1, rhs1[1:]))
        assert all(a <= b + 1e-12 for a, b in zip(rhs2, rhs2[1:]))


# ---------------------------------------------------------------------------
# inequality checks and the identified set
# ---------------------------------------------------------------------------


def test_truth_passes_its_own_inequalities():
    data = simulate_observed_data(TRUTH, 20_000, seed=11)
    violations = check_inequalities(TRUTH_CAND, data, default_y_grid(data), NoiseSpec())
    assert violations == []


def test_truth_never_rejected_in_fifty_replications():
    for seed in range(50):
        data = simulate_observed_data(TRUTH, 100_000, seed=seed)
        violations = check_inequalities(
            TRUTH_CAND, data, default_y_grid(data), NoiseSpec()
        )
        assert violations == [], f"seed {seed}: {violations[:3]}"


def test_shifted_location_is_violated():
    data = simulate_observed_data(TRUTH, 20_000, seed=11)
    shifted = CandidateParams(0.7, 0.6, 0.1, 0.1, 1.0, 1.0)
    violations = check_inequalities(shifted, data, default_y_grid(data), NoiseSpec())
    assert len(violations) > 0


def test_empty_cell_is_never_violated():
    # no W agents in sector 1: the side-1 bound for W is vacuous at every y
    d = ObservedData(
        is_w=np.array([True, False, False]),
        sector=np.array([2, 1, 2], dtype=np.int8),
        income=np.array([2.0, 3.0, 4.0]),
        observed_comp=Composition(0.375, 0.625),
        pop_ratio=1.0,
        min_wage=1.0,
    )
    violations = check_inequalities(TRUTH_CAND, d, [1.0, 2.0, 5.0], NoiseSpec())
    assert all(not (v.t is TypeId.W and v.side == 1) for v in violations)


def test_equilibrium_consistency_verdicts():
    data = simulate_observed_data(TRUTH, 2000, seed=2)
    assert equilibrium_consistent(TRUTH_CAND, data, tol=1e-3)
    corner_regime = CandidateParams(0.2, 0.6, 0.4, 0.2, 1.0, 1.0)
    assert not equilibrium_consistent(corner_regime, data, tol=0.05)
    assert equilibrium_consistent(corner_regime, data, tol=1.0)


def census_consistent(candidate, data, tol):
    """The census version of equilibrium_consistent, kept as its oracle; at
    grid 16, so it also shows that the verdict does not depend on the grid."""
    params = candidate.to_model_params(data.pop_ratio)
    return any_within(enumerate_equilibria(params, grid_n=16), data.observed_comp, tol)


def any_within(points, comp, tol):
    return any(
        max(abs(p.comp.r_w - comp.r_w), abs(p.comp.r_m - comp.r_m)) <= tol for p in points
    )


def observed_at(r_w, r_m, pop_ratio):
    # the consistency check reads only the observed composition and mass ratio
    return ObservedData(
        is_w=np.array([True, False]),
        sector=np.array([1, 2], dtype=np.int8),
        income=np.array([1.0, 1.0]),
        observed_comp=Composition(r_w, r_m),
        pop_ratio=pop_ratio,
        min_wage=1.0,
    )


def test_consistency_matches_census_on_criterion_8_grid():
    data = simulate_observed_data(TRUTH, 100_000, seed=801)
    grid = GridSpec(
        re_w=GridAxis(0.3, 0.5, 3),
        re_m=GridAxis(0.5, 0.7, 3),
        c_w=GridAxis(0.05, 0.15, 3),
        c_m=GridAxis(0.05, 0.15, 3),
        C_w=GridAxis(0.8, 1.2, 3),
        C_m=GridAxis(0.8, 1.2, 3),
    )
    cands = list(grid.candidates())
    local = [equilibrium_consistent(c, data, 0.01) for c in cands]
    census = [census_consistent(c, data, 0.01) for c in cands]
    assert local == census
    assert sum(local) == 20


CONSISTENCY_TOLS = (1e-3, 0.01, 0.05, 0.2, 1.0)


def random_consistency_draws(n_candidates, seed):
    """Candidates with beta in {0.5, 1, 1.5, 2} and unequal masses, each drawn
    with every radius in CONSISTENCY_TOLS. Each draw observes a point near
    one of the candidate's census equilibria, near a wall, or anywhere."""
    rng = np.random.default_rng(seed)
    k = 0
    while k < n_candidates:
        try:
            cand = CandidateParams(
                re_w=float(rng.uniform(0.05, 0.95)),
                re_m=float(rng.uniform(0.05, 0.95)),
                c_w=float(rng.uniform(0.0, 1.5)),
                c_m=float(rng.uniform(0.0, 1.5)),
                C_w=float(rng.uniform(0.3, 3.0)),
                C_m=float(rng.uniform(0.3, 3.0)),
                beta=float(rng.choice([0.5, 1.0, 1.5, 2.0])),
            )
            cand.adv(TypeId.W)
        except ValueError:
            continue  # a quantile map that is not monotone
        pop_ratio = float(np.exp(rng.uniform(-1.2, 1.2)))
        census = enumerate_equilibria(cand.to_model_params(pop_ratio), grid_n=16)
        for j, tol in enumerate(CONSISTENCY_TOLS):
            obs = rng.uniform(0.0, 1.0, 2)
            kind = (k + j) % 3
            if kind == 0 and census:
                eq = census[rng.integers(len(census))].comp
                obs = np.array([eq.r_w, eq.r_m]) + rng.uniform(-1.5, 1.5, 2) * tol
            elif kind == 1:
                wall = rng.uniform(0.0, 1.5 * tol)
                obs[rng.integers(2)] = wall if rng.integers(2) else 1.0 - wall
            obs = np.clip(obs, 0.0, 1.0)
            yield cand, observed_at(float(obs[0]), float(obs[1]), pop_ratio), tol, census
        k += 1


@pytest.mark.filterwarnings("ignore:dropping boundary candidate")
def test_consistency_matches_census_on_random_draws():
    verdicts = {True: 0, False: 0}
    for cand, data, tol, census in random_consistency_draws(100, seed=7):
        want = any_within(census, data.observed_comp, tol)
        got = equilibrium_consistent(cand, data, tol)
        verdicts[got] += 1
        assert got == want, (cand, data, tol)
    assert sum(verdicts.values()) == 500
    assert verdicts[True] > 100 and verdicts[False] > 100


def test_identified_set_round_trip_small_grid():
    data = simulate_observed_data(TRUTH, 30_000, seed=19)
    grid = GridSpec(
        re_w=GridAxis(0.3, 0.5, 3),
        re_m=GridAxis(0.5, 0.7, 3),
        c_w=GridAxis(0.1, 0.1, 1),
        c_m=GridAxis(0.1, 0.1, 1),
        C_w=GridAxis(1.0, 1.0, 1),
        C_m=GridAxis(1.0, 1.0, 1),
    )
    res = identified_set(grid, data, NoiseSpec(), default_y_grid(data))
    assert TRUTH_CAND in res.accepted
    assert len(res.diagnostics) == 9
    # rejected candidates carry a recorded reason
    for row in res.diagnostics:
        if not row["accepted"]:
            assert row["n_violations"] > 0 or not row["equilibrium_ok"]


def test_identified_set_empty_off_support_grid():
    data = simulate_observed_data(TRUTH, 30_000, seed=19)
    grid = GridSpec(
        re_w=GridAxis(0.85, 0.9, 2),
        re_m=GridAxis(0.05, 0.1, 2),
        c_w=GridAxis(0.0, 0.0, 1),
        c_m=GridAxis(0.0, 0.0, 1),
        C_w=GridAxis(1.0, 1.0, 1),
        C_m=GridAxis(1.0, 1.0, 1),
    )
    res = identified_set(grid, data, NoiseSpec(), default_y_grid(data))
    assert res.accepted == []


def test_degenerate_single_point_grid_accepts_truth():
    data = simulate_observed_data(TRUTH, 30_000, seed=23)
    grid = GridSpec(
        re_w=GridAxis(0.4, 0.4, 1),
        re_m=GridAxis(0.6, 0.6, 1),
        c_w=GridAxis(0.1, 0.1, 1),
        c_m=GridAxis(0.1, 0.1, 1),
        C_w=GridAxis(1.0, 1.0, 1),
        C_m=GridAxis(1.0, 1.0, 1),
    )
    res = identified_set(grid, data, NoiseSpec(), default_y_grid(data))
    assert res.accepted == list(grid.candidates())


def test_doubling_sample_never_grows_accepted_box():
    grid = GridSpec(
        re_w=GridAxis(0.3, 0.5, 5),
        re_m=GridAxis(0.6, 0.6, 1),
        c_w=GridAxis(0.1, 0.1, 1),
        c_m=GridAxis(0.1, 0.1, 1),
        C_w=GridAxis(1.0, 1.0, 1),
        C_m=GridAxis(1.0, 1.0, 1),
    )

    def accepted_box(n):
        data = simulate_observed_data(TRUTH, n, seed=29)
        res = identified_set(grid, data, NoiseSpec(), default_y_grid(data))
        vals = [c.re_w for c in res.accepted]
        return (min(vals), max(vals)) if vals else None

    small = accepted_box(10_000)
    large = accepted_box(20_000)
    assert small is not None and large is not None
    assert small[0] <= large[0] and large[1] <= small[1]


def test_noise_spec_validation():
    with pytest.raises(ValueError):
        NoiseSpec("degenerate", 0.5)
    with pytest.raises(ValueError):
        NoiseSpec("logistic", 0.0)
    with pytest.raises(ValueError):
        NoiseSpec("cauchy", 1.0)


def test_quadrature_is_computed_once_and_read_only():
    for noise in (NoiseSpec(), NoiseSpec("logistic", 0.3), NoiseSpec("gaussian", 0.5)):
        nodes, weights = noise.quadrature()
        assert noise.quadrature()[0] is nodes
        with pytest.raises(ValueError):
            nodes[0] = 1.0
        with pytest.raises(ValueError):
            weights *= 2.0


def test_candidate_builds_its_advantage_laws_once():
    cand = CandidateParams(0.4, 0.6, 0.1, 0.2, 1.0, 1.2)
    assert cand.adv(TypeId.W) is cand.adv(TypeId.W)
    params = cand.to_model_params(1.5)
    assert params.adv_w is cand.adv(TypeId.W) and params.adv_m is cand.adv(TypeId.M)
    assert params == make_params(
        mu_w=1.5, c_w=0.1, c_m=0.2, C_w=1.0, C_m=1.2, re_w=0.4, re_m=0.6
    )
