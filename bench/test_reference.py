"""The benchmark's reference code against figures known from the model.

Run with `python -m pytest bench/test_reference.py`; nothing here imports
roylab, so the reference stays an independent check on it.
"""

import numpy as np

from reference import (
    Params,
    advantage_cdf_beta1,
    beta1_equilibria,
    contrarian_corner_exists,
    edge_residual,
    interior_label,
    jacobian,
    profitable_deviations,
    quantile,
    residual,
    rest_curve_census,
)

THIN = dict(beta=0.05, re_w=0.4, re_m=0.6)
BENCH = dict(c_w=0.1, c_m=0.1, beta=1.0, re_w=0.4, re_m=0.6)

FIG4_CENSUS = [
    (0.0, 1.0, "vertex", "boundary-stable"),
    (0.61812, 0.11502, "interior", "saddle"),
    (0.81340, 0.18660, "interior", "unstable"),
    (0.88498, 0.38188, "interior", "saddle"),
    (1.0, 0.0, "vertex", "boundary-stable"),
]


def test_fig4_census_matches_the_published_points():
    p = Params(c_w=0.11, c_m=0.11, **THIN)
    got = rest_curve_census(p)
    assert [row[2:] for row in got] == [row[2:] for row in FIG4_CENSUS]
    for g, want in zip(got, FIG4_CENSUS):
        assert abs(g[0] - want[0]) < 1e-5 and abs(g[1] - want[1]) < 1e-5
    for x, y, kind, label in got:
        if kind == "interior":
            assert max(abs(e) for e in residual(p, x, y)) < 1e-8
            assert interior_label(p, x, y) == label


def test_thin_tail_census_steps():
    steps = {0.011: 17, 0.0438: 17, 0.044: 13, 0.056: 11, 0.062: 9, 0.098: 5, 0.11: 5}
    for c, count in steps.items():
        census = rest_curve_census(Params(c_w=c, c_m=c, **THIN))
        assert len(census) == count, c
    stable = [r for r in rest_curve_census(Params(c_w=0.011, c_m=0.011, **THIN))
              if r[3] in ("stable", "boundary-stable")]
    assert len(stable) == 7


def test_edge_points_zero_the_edge_equation():
    p = Params(c_w=0.011, c_m=0.011, **THIN)
    for r_w, r_m, kind, _ in rest_curve_census(p):
        if kind.startswith("edge"):
            v = r_m if kind in ("edge-w0", "edge-w1") else r_w
            lo, hi = edge_residual(p, kind, v - 1e-9), edge_residual(p, kind, v + 1e-9)
            assert lo * hi <= 0.0


def test_closed_form_spot_value():
    ((x, y, kind),) = beta1_equilibria(Params(**BENCH))
    assert kind == "interior"
    assert abs(x - 0.375) < 1e-12 and abs(y - 0.625) < 1e-12


def test_taxed_thirds_at_half_tax():
    ((x, y, kind),) = beta1_equilibria(Params(**BENCH).taxed(0.5))
    assert kind == "interior"
    assert abs(x - 1.0 / 3.0) < 1e-12 and abs(y - 2.0 / 3.0) < 1e-12


def test_contrarian_threshold_at_084():
    # gamma_w re_m = (1 - gamma_m) re_w at c_w = 0.6 * 0.7 / 0.5 = 0.84
    base = dict(c_m=0.4, beta=1.0, re_w=0.7, re_m=0.5)
    assert not contrarian_corner_exists(Params(c_w=0.83, **base))
    assert contrarian_corner_exists(Params(c_w=0.85, **base))
    ((x, y, kind), *_) = beta1_equilibria(Params(c_w=0.9, **base))
    assert (x, kind) == (0.0, "edge-w0") and abs(y - 0.5 / 0.6) < 1e-15


def test_inverse_cdf_inverts_the_quantile():
    prob = np.concatenate([np.geomspace(1e-9, 0.5, 200), 1.0 - np.geomspace(1e-9, 0.5, 200)])
    for C, re in ((1.0, 0.4), (0.8, 0.7), (1.2, 0.5)):
        back = advantage_cdf_beta1(C, re, quantile(C, re, 1.0, prob))
        # 1 - prob carries the rounding of prob itself, hence the absolute floor
        assert np.all(np.abs(back - prob) <= 1e-9 * np.minimum(prob, 1.0 - prob) + 4e-16)
        assert advantage_cdf_beta1(C, re, 0.0) == 1.0 - re


def test_analytic_jacobian_matches_differences():
    p = Params(mu_w=1.3, c_w=0.7, c_m=0.4, C_w=0.9, beta=1.7, re_w=0.3, re_m=0.8, sigma=0.8)
    x, y, h = 0.31, 0.62, 1e-6
    num = np.column_stack([
        (np.array(residual(p, x + h, y)) - np.array(residual(p, x - h, y))) / (2 * h),
        (np.array(residual(p, x, y + h)) - np.array(residual(p, x, y - h))) / (2 * h),
    ])
    assert np.allclose(jacobian(p, x, y), num, rtol=1e-6)


def test_profitable_deviations_by_hand():
    p = Params(c_w=0.1, c_m=0.1, re_w=0.4, re_m=0.6)
    is_w = np.array([True, True, False, False])
    sector = np.array([1, 2, 1, 2])
    # shares are all 1/2, so the penalty gap is zero and the sign of the draw decides
    assert profitable_deviations(p, is_w, np.array([1.0, -1.0, 1.0, -1.0]), sector) == 0
    assert profitable_deviations(p, is_w, np.array([-1.0, 1.0, 1.0, -1.0]), sector) == 2
    # a group with c = 0 pays nothing to enter a sector it is absent from
    p0 = Params(c_w=0.0, c_m=0.1, re_w=0.4, re_m=0.6)
    sector = np.array([2, 2, 1, 2])
    assert profitable_deviations(p0, is_w, np.array([0.5, -0.5, 1.0, -1.0]), sector) == 1
