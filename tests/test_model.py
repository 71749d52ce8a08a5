import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from roylab.model import (
    AdvantageSpec,
    Composition,
    ModelParams,
    PreferenceSpec,
    _cdf_bisect,
    advantage_cdf,
    advantage_quantile,
    g_eval,
    gammas,
    h_eval,
    make_params,
    sector_shares,
)


# ---------------------------------------------------------------------------
# h
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "c, u, expected",
    [
        (1.0, 1.0, 1.0),
        (0.0, 0.3, 0.0),
        (2.0, 0.5, 4.0),
    ],
)
def test_h_eval(c, u, expected):
    assert h_eval(PreferenceSpec(c), u) == expected


def test_h_eval_rejects_nonpositive_share():
    with pytest.raises(ValueError):
        h_eval(PreferenceSpec(1.0), 0.0)
    with pytest.raises(ValueError):
        h_eval(PreferenceSpec(1.0), -0.2)


def test_preference_spec_rejects_negative_strength():
    with pytest.raises(ValueError):
        PreferenceSpec(-0.1)


# ---------------------------------------------------------------------------
# g
# ---------------------------------------------------------------------------


def test_g_zero_on_diagonal():
    assert g_eval(PreferenceSpec(1.0), 0.5, 0.5, 2.0) == 0.0


def test_g_closed_form_value():
    got = g_eval(PreferenceSpec(1.0), 0.4, 0.6, 1.0)
    assert got == pytest.approx(0.2 / 0.24, abs=1e-12)


def test_g_boundary_markers():
    assert g_eval(PreferenceSpec(1.0), 0.0, 0.5, 1.0) == math.inf
    assert g_eval(PreferenceSpec(1.0), 1.0, 0.5, 1.0) == -math.inf
    # both groups absent from sector 1: finite one-sided limit
    assert g_eval(PreferenceSpec(1.0), 0.0, 0.0, 2.0) == -2.0
    assert g_eval(PreferenceSpec(1.0), 1.0, 1.0, 2.0) == 2.0


def test_g_domain_errors():
    with pytest.raises(ValueError):
        g_eval(PreferenceSpec(1.0), -0.1, 0.5, 1.0)
    with pytest.raises(ValueError):
        g_eval(PreferenceSpec(1.0), 0.5, 1.2, 1.0)


def test_g_zero_strength_is_identically_zero():
    assert g_eval(PreferenceSpec(0.0), 0.0, 0.7, 1.0) == 0.0


@settings(max_examples=100, deadline=None)
@given(
    x=st.floats(0.01, 0.99),
    z=st.floats(0.05, 20.0),
    c=st.floats(0.0, 5.0),
)
def test_g_vanishes_when_groups_sort_identically(x, z, c):
    assert g_eval(PreferenceSpec(c), x, x, z) == 0.0


def test_g_strictly_monotone_on_interior_grid():
    pref = PreferenceSpec(0.7)
    xs = np.linspace(0.05, 0.95, 41)
    for y in (0.2, 0.5, 0.8):
        vals = [g_eval(pref, float(x), y, 1.3) for x in xs]
        assert all(a > b for a, b in zip(vals, vals[1:]))  # decreasing in x
    ys = np.linspace(0.0, 1.0, 41)
    for x in (0.2, 0.5, 0.8):
        vals = [g_eval(pref, x, float(y), 1.3) for y in ys]
        assert all(a < b for a, b in zip(vals, vals[1:]))  # increasing in y


# ---------------------------------------------------------------------------
# advantage quantile / cdf
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "C, r_e, beta, p, expected",
    [
        (1.0, 0.5, 1.0, 0.5, 0.0),
        (1.0, 0.5, 1.0, 0.75, 0.25 / (0.25 * 0.75)),
        (2.0, 0.4, 1.0, 0.6, 0.0),
    ],
)
def test_advantage_quantile_values(C, r_e, beta, p, expected):
    assert advantage_quantile(AdvantageSpec(C, r_e, beta), p) == pytest.approx(
        expected, abs=1e-12
    )


def test_advantage_quantile_rejects_endpoints():
    adv = AdvantageSpec(1.0, 0.5, 1.0)
    for p in (0.0, 1.0, -0.1, 1.1):
        with pytest.raises(ValueError):
            advantage_quantile(adv, p)


def test_quantile_zero_at_efficient_share_exactly():
    for r_e in (0.1, 0.37, 0.5, 0.9):
        for beta in (0.05, 0.5, 1.0, 2.0):
            adv = AdvantageSpec(3.0, r_e, beta)
            assert advantage_quantile(adv, 1.0 - r_e) == 0.0


def test_advantage_spec_rejects_nonmonotone_quantile():
    # large tail exponent with an off-center location breaks monotonicity
    with pytest.raises(ValueError):
        AdvantageSpec(1.0, 0.6, 60.0)


def test_advantage_cdf_at_zero_is_exact():
    adv = AdvantageSpec(1.0, 0.5, 1.0)
    assert advantage_cdf(adv, 0.0) == 0.5
    adv2 = AdvantageSpec(2.0, 0.37, 0.8)
    assert advantage_cdf(adv2, 0.0) == 1.0 - 0.37


def test_advantage_cdf_inverts_quantile():
    adv = AdvantageSpec(1.0, 0.5, 1.0)
    assert advantage_cdf(adv, 4.0 / 3.0) == pytest.approx(0.75, abs=1e-9)


def test_advantage_cdf_limits():
    adv = AdvantageSpec(1.0, 0.5, 1.0)
    assert advantage_cdf(adv, 1e12) == pytest.approx(1.0, abs=1e-6)
    assert advantage_cdf(adv, -1e12) == pytest.approx(0.0, abs=1e-6)
    assert advantage_cdf(adv, math.inf) == 1.0
    assert advantage_cdf(adv, -math.inf) == 0.0


def test_quantile_cdf_round_trip_grid():
    # 1000-point grid round trip to 1e-9, over several member specs
    ps = np.linspace(0.001, 0.999, 1000)
    for C, r_e, beta in [(1.0, 0.5, 1.0), (2.0, 0.4, 0.05), (0.7, 0.6, 2.0)]:
        adv = AdvantageSpec(C, r_e, beta)
        back = advantage_cdf(adv, advantage_quantile(adv, ps))
        assert np.max(np.abs(back - ps)) < 1e-9


@settings(max_examples=60, deadline=None)
@given(
    p=st.floats(0.001, 0.999),
    r_e=st.floats(0.1, 0.9),
    beta=st.floats(0.05, 2.5),
    C=st.floats(0.1, 10.0),
)
# the quantile is flat at p = 0.75 here: in doubles it is not increasing on
# about [0.749993, 0.750007], so no inversion gets p back to 1e-9 there
@example(p=0.75, r_e=0.1, beta=2.5, C=1.0)
def test_quantile_cdf_round_trip_random(p, r_e, beta, C):
    # the round trip is stated in d = q(p), where it is well conditioned
    # wherever q is flat: q(cdf(d)) = d to 1e-9 relative, or to 1e-12 of the
    # quantile's scale C / (p(1 - p)) ** beta where d is near 0
    adv = AdvantageSpec(C, r_e, beta)
    d = advantage_quantile(adv, p)
    back = advantage_quantile(adv, advantage_cdf(adv, d))
    assert back == pytest.approx(d, rel=1e-9, abs=1e-12 * C / (p * (1.0 - p)) ** beta)


def test_unit_tail_cdf_matches_bisection():
    # the closed form at beta = 1 against the bisection it replaced there
    rng = np.random.default_rng(17)
    mags = np.geomspace(1e-12, 1e8, 401)
    d = np.concatenate([mags, -mags, rng.standard_normal(2000)])
    for C in (0.8, 1.0, 1.2, 3.0):
        for r_e in np.arange(1, 10) / 10.0:
            adv = AdvantageSpec(C, float(r_e), 1.0)
            assert np.max(np.abs(advantage_cdf(adv, d) - _cdf_bisect(adv, d))) < 1e-12


OFF_UNIT_BETAS = (0.05, 0.5, 0.999, 1.001, 1.5, 2.0)


def test_cdf_off_unit_tail_is_the_bisection():
    # up to 1e300 the bracket reaches the largest double below 1 on thin
    # tails; the CDF is then 1 there, and never leaves [0, 1] or falls
    mags = np.geomspace(1e-6, 1e300, 50)
    d = np.sort(np.concatenate([-mags, [0.3, 2.0], mags]))
    for beta in OFF_UNIT_BETAS:
        adv = AdvantageSpec(1.3, 0.35, beta)
        got = advantage_cdf(adv, d)
        assert np.array_equal(got, _cdf_bisect(adv, d))
        assert np.all((got >= 0.0) & (got <= 1.0))
        assert np.all(np.diff(got) >= 0.0)
    assert advantage_cdf(AdvantageSpec(1.0, 0.5, 0.05), 5.0) == 1.0


def test_lower_tail_below_one_ulp_of_one():
    # 1 - p rounds to 1 for p < 1.1e-16: a quantile written in u = 1 - p
    # divides by zero there, and the CDF off the unit tail stalls at 5.55e-17
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for beta in OFF_UNIT_BETAS:
            adv = AdvantageSpec(1.3, 0.35, beta)
            q = advantage_quantile(adv, 1e-17)
            assert math.isfinite(q) and q < 0.0
            low = advantage_cdf(adv, -1e300)
            assert not math.isnan(low) and low < 5.55e-17


def test_advantage_cdf_maps_nan_to_nan():
    for beta in (1.0, 1.5):
        adv = AdvantageSpec(1.0, 0.4, beta)
        got = advantage_cdf(adv, np.array([np.nan, 0.5, np.nan]))
        assert np.isnan(got[0]) and np.isnan(got[2])
        assert got[1] == advantage_cdf(adv, 0.5)
        assert math.isnan(advantage_cdf(adv, math.nan))


def test_unit_tail_cdf_in_range_for_huge_arguments():
    adv = AdvantageSpec(1.0, 0.4, 1.0)
    low, high = advantage_cdf(adv, np.array([-1e300, 1e300]))
    assert low == pytest.approx(0.6e-300, rel=1e-12)
    assert high == 1.0


# ---------------------------------------------------------------------------
# params, gammas, shares
# ---------------------------------------------------------------------------


def test_gammas_symmetric_benchmark():
    p = make_params(c_w=0.11, c_m=0.11, beta=0.05, re_w=0.4, re_m=0.6)
    assert gammas(p) == (0.11, 0.11)


def test_gammas_mass_ratio():
    p = make_params(mu_w=1.0, mu_m=2.0, c_w=1.0, C_w=4.0, c_m=0.0)
    g_w, _ = gammas(p)
    assert g_w == 0.5


def test_gammas_zero_preferences():
    p = make_params(re_w=0.3, re_m=0.7)
    assert gammas(p) == (0.0, 0.0)


def test_sector_shares_symmetric():
    p = make_params(re_w=0.4, re_m=0.6)
    s = sector_shares(Composition(0.5, 0.5), p)
    assert s.w_in_1 == pytest.approx(0.5)
    assert s.w_in_1 + s.m_in_1 == pytest.approx(1.0)
    assert s.w_in_2 + s.m_in_2 == pytest.approx(1.0)


def test_sector_shares_asymmetric():
    p = make_params(re_w=0.4, re_m=0.6)
    s = sector_shares(Composition(0.2, 0.8), p)
    assert s.w_in_1 == pytest.approx(0.2)


def test_sector_shares_empty_group_and_sector():
    p = make_params(re_w=0.4, re_m=0.6)
    s = sector_shares(Composition(0.0, 0.5), p)
    assert s.w_in_1 == 0.0
    empty = sector_shares(Composition(0.0, 0.0), p)
    assert math.isnan(empty.w_in_1) and math.isnan(empty.m_in_1)


def test_composition_validation():
    with pytest.raises(ValueError):
        Composition(-0.01, 0.5)
    with pytest.raises(ValueError):
        Composition(0.5, 1.01)


def test_composition_sector_masses_conserve_population():
    p = make_params(mu_w=1.4, mu_m=0.6)
    m = Composition(0.3, 0.8).sector_masses(p)
    assert all(v >= 0 for v in m)
    assert sum(m) == pytest.approx(p.mu_w + p.mu_m)


def test_params_dict_round_trip():
    p = make_params(mu_w=1.2, mu_m=0.8, c_w=0.3, c_m=0.2, C_w=1.5, C_m=2.0,
                    beta=0.7, re_w=0.35, re_m=0.65, sigma=0.9)
    assert ModelParams.from_dict(p.to_dict()) == p


def test_params_dict_sigma_defaults_to_one():
    d = make_params().to_dict()
    del d["sigma"]
    assert ModelParams.from_dict(d).sigma == 1.0


def test_params_dict_rejects_unknown_keys():
    d = make_params().to_dict()
    d["mystery"] = 3
    with pytest.raises(ValueError):
        ModelParams.from_dict(d)


def test_params_validation():
    with pytest.raises(ValueError):
        make_params(mu_w=0.0)
    with pytest.raises(ValueError):
        make_params(sigma=-1.0)
    with pytest.raises(ValueError):
        make_params(re_w=1.0)
