import numpy as np
import pytest

from roylab.model import Composition, make_params, gammas
from roylab.equilibrium import enumerate_equilibria, solve_closed_form_beta1
from roylab.policy import (
    AmenityShift,
    CornerRegimeError,
    DataInconsistentError,
    FlatTax,
    Participation,
    Quota,
    Subsidy,
    apply_policy,
    apply_tax,
    compare,
    contrarian_threshold,
    sweep_rows,
    tax_equilibrium,
)

BENCH = dict(c_w=0.1, c_m=0.1, beta=1.0, re_w=0.4, re_m=0.6)
SEVENTEEN = dict(c_w=0.011, c_m=0.011, beta=0.05, re_w=0.4, re_m=0.6)
FAT_TAILS = dict(c_w=3.5, c_m=3.5, beta=2.0, re_w=0.7, re_m=0.5)


# ---------------------------------------------------------------------------
# flat tax
# ---------------------------------------------------------------------------


def test_zero_tax_is_identity():
    p = make_params(**BENCH)
    assert apply_tax(p, 0.0) == p


def test_tax_rescales_preference_weight():
    p = make_params(**BENCH)
    taxed = apply_tax(p, 0.5)
    assert gammas(taxed) == pytest.approx((0.2, 0.2))


def test_tax_moves_benchmark_to_thirds():
    p = make_params(**BENCH)
    comp = tax_equilibrium(p, 0.5)
    assert comp.r_w == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert comp.r_m == pytest.approx(2.0 / 3.0, abs=1e-12)


def test_tax_equilibrium_equals_closed_form_on_taxed_params():
    p = make_params(**BENCH)
    for tau in (0.1, 0.3, 0.5):
        direct = tax_equilibrium(p, tau)
        via_params = solve_closed_form_beta1(apply_tax(p, tau)).point.comp
        assert abs(direct.r_w - via_params.r_w) < 1e-12
        assert abs(direct.r_m - via_params.r_m) < 1e-12


def test_tax_orderings_and_monotonicity():
    p = make_params(**BENCH)
    base = solve_closed_form_beta1(p).point.comp
    prev_w, prev_m = base.r_w, base.r_m
    for tau in (0.1, 0.3, 0.5):
        comp = tax_equilibrium(p, tau)
        assert comp.r_w < base.r_w < base.r_m < comp.r_m
        assert comp.r_w < prev_w and comp.r_m > prev_m
        prev_w, prev_m = comp.r_w, comp.r_m


def test_tax_corner_regime_signaled():
    p = make_params(c_w=0.3, c_m=0.3, beta=1.0, re_w=0.4, re_m=0.6)
    with pytest.raises(CornerRegimeError):
        tax_equilibrium(p, 0.6)


def test_heavy_tax_confines_group_to_sector_two():
    # redistribution strong enough that the advantaged-in-2 group leaves 1
    p = make_params(c_w=0.4, c_m=0.2, beta=1.0, re_w=0.2, re_m=0.6)
    res = solve_closed_form_beta1(apply_tax(p, 0.3))
    assert res.point.comp.r_w == 0.0


def test_tax_validation():
    p = make_params(**BENCH)
    with pytest.raises(ValueError):
        apply_tax(p, 1.0)
    with pytest.raises(ValueError):
        FlatTax(-0.1)


# ---------------------------------------------------------------------------
# policy application
# ---------------------------------------------------------------------------


def test_amenity_identity():
    p = make_params(**BENCH)
    new, clamp = apply_policy(p, AmenityShift(1.0, 1.0))
    assert new == p and clamp is None


def test_subsidy_halves_preference_weight():
    p = make_params(**BENCH)
    new, _ = apply_policy(p, Subsidy(2.0, 2.0))
    g = gammas(new)
    assert g == pytest.approx((0.05, 0.05))


def test_quota_returns_clamp_and_keeps_params():
    p = make_params(**BENCH)
    new, clamp = apply_policy(p, Quota(0.1))
    assert new == p and clamp == 0.1


def test_participation_replaces_mass():
    p = make_params(mu_w=0.8, **FAT_TAILS)
    new, _ = apply_policy(p, Participation(1.0))
    assert new.mu_w == 1.0


# ---------------------------------------------------------------------------
# contrarian threshold
# ---------------------------------------------------------------------------


def test_threshold_condition_value_and_verdict():
    p = make_params(c_w=0.9, c_m=0.4, beta=1.0, re_w=0.7, re_m=0.5)
    rep = contrarian_threshold(p)
    assert rep.condition_value == pytest.approx(0.9 * 0.5 - 0.6 * 0.7)
    assert rep.corner_exists is True


def test_threshold_boundary_is_not_existence():
    # exactly on the threshold: condition value zero, corner does not exist
    p = make_params(c_w=0.6, c_m=0.4, beta=1.0, re_w=0.5, re_m=0.5)
    rep = contrarian_threshold(p)
    assert rep.condition_value == 0.0
    assert rep.corner_exists is False


def test_threshold_zero_preference_never_exists():
    p = make_params(c_w=0.0, c_m=0.4, beta=1.0, re_w=0.7, re_m=0.5)
    assert contrarian_threshold(p).corner_exists is False


def test_threshold_flip_matches_enumeration():
    # sweeping the W preference strength across the threshold flips the
    # presence of the stable one-sided corner exactly once
    c_m = 0.4
    re_w, re_m = 0.7, 0.5
    r_m_star = re_m / (1.0 - c_m)
    crossing = (1.0 - c_m) * re_w / re_m  # c_w value where the corner appears
    present = []
    for c_w in np.linspace(0.7, 1.0, 13):
        p = make_params(c_w=float(c_w), c_m=c_m, beta=1.0, re_w=re_w, re_m=re_m)
        eqs = enumerate_equilibria(p, grid_n=16)
        hit = any(
            e.kind == "edge-w0"
            and abs(e.comp.r_m - r_m_star) < 1e-9
            and e.stability == "boundary-stable"
            for e in eqs
        )
        assert hit == contrarian_threshold(p).corner_exists
        present.append(hit)
    flips = sum(1 for a, b in zip(present, present[1:]) if a != b)
    assert flips == 1
    assert present[-1] and not present[0]
    assert 0.7 < crossing < 1.0


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------


def test_identity_policy_reports_no_tipping():
    p = make_params(**BENCH)
    rep = compare(p, AmenityShift(1.0, 1.0), Composition(0.375, 0.625))
    assert not rep.tipped
    assert rep.before == rep.after
    assert rep.disappeared == []
    assert rep.segregation_before == pytest.approx(0.25)


def test_quota_compare_tips_corner_to_interior():
    p = make_params(**SEVENTEEN)
    rep = compare(p, Quota(0.1), Composition(0.0, 1.0))
    assert rep.tipped
    assert rep.settled_after.kind == "interior"
    assert rep.segregation_after < rep.segregation_before


def test_participation_rise_removes_weakly_contrarian_equilibrium():
    p = make_params(mu_w=0.8, **FAT_TAILS)
    eqs = enumerate_equilibria(p, grid_n=32)
    weakly = [
        e for e in eqs if e.stability == "stable" and e.comp.r_w < e.comp.r_m
    ]
    assert len(weakly) == 1
    rep = compare(p, Participation(1.0), weakly[0].comp)
    assert any(
        max(abs(d.comp.r_w - weakly[0].comp.r_w), abs(d.comp.r_m - weakly[0].comp.r_m)) < 1e-9
        for d in rep.disappeared
    )
    assert rep.settled_after.comp.r_w > rep.settled_after.comp.r_m
    assert rep.tipped


def test_compare_rejects_observed_far_from_equilibria():
    p = make_params(**BENCH)
    with pytest.raises(DataInconsistentError):
        compare(p, FlatTax(0.1), Composition(0.2, 0.9))


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------


def test_sweep_counts_change_at_threshold():
    c_m = 0.4
    rows = sweep_rows(
        make_params(c_w=0.7, c_m=c_m, beta=1.0, re_w=0.7, re_m=0.5),
        "c_w",
        np.linspace(0.7, 1.0, 13),
    )
    stable_counts = [r["n_stable"] for r in rows]
    changes = sum(1 for a, b in zip(stable_counts, stable_counts[1:]) if a != b)
    assert changes == 1
    assert stable_counts[-1] == stable_counts[0] + 1
