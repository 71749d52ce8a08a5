"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criterion 1 is exercised twice, in the thin-tail regime (tail exponent 0.05,
efficient fractions 0.4 and 0.6, unit masses and scales).

At the stated preference strength 0.11 the model holds 5 equilibria, not 17:
the W rest curve r_m = r_w + (0.4 - r_w) * (r_w (1 - r_w))**0.95 / 0.11
peaks at 0.5289 (near r_w = 0.238) on r_w < 0.4, below the efficient M
fraction 0.6, so there is no amplified interior point; the edge equations
have no roots; and the rest curves cross three times (two saddles and an
unstable node), which together with the two segregated vertices is the
whole census. The criterion-1 test at 0.11 checks the census at that stated
strength against a closed-form reference built from the rest curves alone:
same count, kinds, locations within 1e-6 and stability labels.

Edges w0 and m1 acquire roots only below strength 0.04385, edges w1 and m0
only below 0.09732. At grid 64 the census therefore steps through 17, 13,
11, 9 and 5 points at strengths 0.0438, 0.044, 0.056, 0.062 and 0.098. The
companion test asserts the full 17-equilibria / 7-stable structure (6
boundary attractors plus one interior point with small amplification),
which holds at one tenth of the stated strength and throughout
(0.004, 0.04385). The choice rule is homogeneous of degree one in the
strength and the advantage scale, so strength 0.11 at scale 10 is the same
model as the companion.
"""

import math
import time

import numpy as np

from roylab.model import Composition, make_params
from roylab.equilibrium import (
    BOUNDARY_STABLE,
    SADDLE,
    STABLE,
    UNSTABLE,
    enumerate_equilibria,
    solve_closed_form_beta1,
    solve_from_seed,
    solve_monotone_iteration,
    verify_corner,
)
from roylab.abm import deviation_count, run_to_convergence, sample_population
from roylab.identification import (
    CandidateParams,
    GridAxis,
    GridSpec,
    NoiseSpec,
    check_inequalities,
    default_y_grid,
    equilibrium_consistent,
    identified_set,
    simulate_observed_data,
)
from roylab.policy import apply_tax, contrarian_threshold, tax_equilibrium


def report(criterion: str, ok: bool, detail: str):
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def stable_of(eqs):
    return [e for e in eqs if e.stability in (STABLE, BOUNDARY_STABLE)]


def interior_region_draw(rng):
    """Random parameters in the unique-interior-equilibrium regime."""
    while True:
        re_w = rng.uniform(0.1, 0.55)
        re_m = rng.uniform(re_w + 0.05, 0.92)
        g_w = rng.uniform(0.01, 0.6)
        g_m = rng.uniform(0.01, 0.6)
        cond_a = g_w * re_m / re_w + g_m
        cond_b = g_w + g_m * (1 - re_w) / (1 - re_m)
        if g_w + g_m < 0.9 and max(cond_a, cond_b) < 0.97:
            return make_params(c_w=g_w, c_m=g_m, beta=1.0, re_w=re_w, re_m=re_m)


# ---------------------------------------------------------------------------
# criterion 1: low-beta enumeration census
# ---------------------------------------------------------------------------


THIN_BETA, THIN_RE_W, THIN_RE_M = 0.05, 0.4, 0.6


def census(c: float):
    params = make_params(c_w=c, c_m=c, beta=THIN_BETA, re_w=THIN_RE_W, re_m=THIN_RE_M)
    t0 = time.perf_counter()
    eqs = enumerate_equilibria(params, grid_n=64)
    elapsed = time.perf_counter() - t0
    return eqs, elapsed


def census_checks(eqs, elapsed):
    stables = stable_of(eqs)
    interior_stable = [e for e in stables if e.kind == "interior"]
    boundary_stable = [e for e in stables if e.kind != "interior"]
    ok = (
        len(eqs) == 17
        and len(stables) == 7
        and len(boundary_stable) == 6
        and len(interior_stable) == 1
        and elapsed < 60.0
    )
    detail = (
        f"{len(eqs)} equilibria, {len(stables)} stable "
        f"({len(boundary_stable)} boundary, {len(interior_stable)} interior), "
        f"{elapsed:.1f}s"
    )
    if interior_stable:
        pt = interior_stable[0].comp
        amp_ok = pt.r_w < 0.4 < 0.6 < pt.r_m and max(
            abs(pt.r_w - 0.4), abs(pt.r_m - 0.6)
        ) < 0.05
        ok = ok and amp_ok
        detail += f", interior at ({pt.r_w:.4f}, {pt.r_m:.4f})"
    return ok, detail


# Closed-form reference census for the thin-tail regime, built from the rest
# curves alone (no roylab.equilibrium). At unit masses and scales the W
# equation holds where r_m = y_W(r_w) and the M equation where
# r_w = x_M(r_m), with
#     y_W(x) = x + (re_w - x) * (x (1 - x))**(1 - beta) / c
# and x_M the same with re_m. The W flow has the sign of y_W(r_w) - r_m and
# the M flow the sign of x_M(r_m) - r_w, each times a positive factor, so
# at a crossing the flow Jacobian has determinant proportional to
# y_W' x_M' - 1 and trace a positive mix of y_W' and x_M'.

_REF_GRID = np.linspace(0.0, 1.0, 200_001)[1:-1]


def _rest_curve(re: float, c: float, beta: float = THIN_BETA):
    """(value, slope) of one group's rest curve as functions of its own fraction."""

    def value(v):
        return v + (re - v) * (v * (1.0 - v)) ** (1.0 - beta) / c

    def slope(v):
        s = v * (1.0 - v)
        return 1.0 + (
            (1.0 - beta) * (re - v) * (1.0 - 2.0 * v) * s ** -beta - s ** (1.0 - beta)
        ) / c

    return value, slope


def _bracketed_roots(f) -> list[float]:
    """Roots of f on (0, 1): sign changes on a 5e-6 grid, then bisection."""
    vals = f(_REF_GRID)
    finite = np.isfinite(vals)
    flips = finite[:-1] & finite[1:] & (np.sign(vals[:-1]) * np.sign(vals[1:]) < 0)
    roots = []
    for i in np.nonzero(flips)[0]:
        lo, hi, sign_lo = float(_REF_GRID[i]), float(_REF_GRID[i + 1]), np.sign(vals[i])
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if np.sign(f(mid)) == sign_lo:
                lo = mid
            else:
                hi = mid
        roots.append(0.5 * (lo + hi))
    return roots


def _clamp_holds(clamp: float, partner: float) -> bool:
    """Corner test for a coordinate clamped at 0 or 1 with tail exponent < 1.

    Near the clamp the minority penalty c / u grows like 1 / d while the
    advantage tail grows only like d ** -beta, so the clamp holds exactly
    when the penalty is there at all: the partner group must be present in
    the sector the clamped group has left.
    """
    assert THIN_BETA < 1.0
    return partner > 0.0 if clamp == 0.0 else partner < 1.0


def closed_form_census(c: float) -> list[tuple[float, float, str, str]]:
    """Sorted (r_w, r_m, kind, stability) of every rest point at strength c."""
    y_w, dy_w = _rest_curve(THIN_RE_W, c)
    x_m, dx_m = _rest_curve(THIN_RE_M, c)
    points = []

    def crossing_gap(x):
        y = y_w(x)
        inside = (y > 0.0) & (y < 1.0)
        with np.errstate(invalid="ignore"):
            return np.where(inside, x_m(np.where(inside, y, 0.5)) - x, np.nan)

    for x in _bracketed_roots(crossing_gap):
        y = y_w(x)
        a, b = dy_w(x), dx_m(y)
        if a * b < 1.0:
            stability = SADDLE
        elif a > 0.0 and b > 0.0:
            stability = UNSTABLE
        else:
            stability = STABLE
        points.append((x, y, "interior", stability))

    # along an edge the free coordinate flows like its rest curve minus the
    # clamped value, so it is stable along the edge when that curve falls
    edges = (
        ("edge-w0", x_m, dx_m, 0.0, "m"),
        ("edge-w1", x_m, dx_m, 1.0, "m"),
        ("edge-m0", y_w, dy_w, 0.0, "w"),
        ("edge-m1", y_w, dy_w, 1.0, "w"),
    )
    for kind, curve, slope, clamp, free in edges:
        for v in _bracketed_roots(lambda t: curve(t) - clamp):
            if not _clamp_holds(clamp, v):
                continue
            stability = BOUNDARY_STABLE if slope(v) < 0.0 else SADDLE
            r_w, r_m = (clamp, v) if free == "m" else (v, clamp)
            points.append((r_w, r_m, kind, stability))

    eps = 1e-6
    for vx in (0.0, 1.0):
        for vy in (0.0, 1.0):
            if not (_clamp_holds(vx, vy) and _clamp_holds(vy, vx)):
                continue
            # inflow along both adjacent edges, evaluated just inside
            x0 = eps if vx == 0.0 else 1.0 - eps
            y0 = eps if vy == 0.0 else 1.0 - eps
            m_in = (x_m(y0) - vx > 0.0) == (vy == 1.0)
            w_in = (y_w(x0) - vy > 0.0) == (vx == 1.0)
            stability = BOUNDARY_STABLE if m_in and w_in else SADDLE
            points.append((vx, vy, "vertex", stability))
    return sorted(points)


def w_rest_curve_peak(c: float) -> tuple[float, float]:
    """(r_w, r_m) at the top of the W rest curve over the amplified side r_w < re_w."""
    y_w, _ = _rest_curve(THIN_RE_W, c)
    x = _REF_GRID[_REF_GRID < THIN_RE_W]
    i = int(np.argmax(y_w(x)))
    return float(x[i]), float(y_w(x[i]))


def rows_match(got, reference, tol: float) -> tuple[bool, float]:
    """Same count, kinds and labels in sorted order, locations within tol.

    Rows are (r_w, r_m, kind, stability); returns (verdict, worst gap).
    """
    if len(got) != len(reference):
        return False, math.inf
    gap = max(
        (max(abs(g[0] - r[0]), abs(g[1] - r[1])) for g, r in zip(got, reference)),
        default=0.0,
    )
    labels_ok = all(tuple(g[2:]) == tuple(r[2:]) for g, r in zip(got, reference))
    return labels_ok and gap <= tol, gap


def census_rows(eqs):
    return [(e.comp.r_w, e.comp.r_m, e.kind, e.stability) for e in eqs]


#: the closed-form census at strength 0.11, to five decimals
STATED_CENSUS = [
    (0.0, 1.0, "vertex", BOUNDARY_STABLE),
    (0.61812, 0.11502, "interior", SADDLE),
    (0.81340, 0.18660, "interior", UNSTABLE),
    (0.88498, 0.38188, "interior", SADDLE),
    (1.0, 0.0, "vertex", BOUNDARY_STABLE),
]


def test_criterion_1_seventeen_equilibria_as_stated():
    eqs, elapsed = census(0.11)
    reference = closed_form_census(0.11)
    ref_ok, _ = rows_match(reference, STATED_CENSUS, tol=1e-5)
    match_ok, gap = rows_match(census_rows(eqs), reference, tol=1e-6)
    peak_x, peak_y = w_rest_curve_peak(0.11)
    # no amplified interior point can exist, which rules out the 17-point census
    peak_ok = peak_y < THIN_RE_M and abs(peak_y - 0.5289) < 1e-4 and abs(peak_x - 0.238) < 1e-3
    stables = stable_of(eqs)
    ok = ref_ok and match_ok and peak_ok and elapsed < 60.0
    report(
        "criterion 1 (preference strength 0.11, as stated)",
        ok,
        f"{len(eqs)} equilibria, {len(stables)} stable; closed-form reference "
        f"{len(reference)} points (as stated: {ref_ok}), worst location gap {gap:.1e}; "
        f"W rest curve peaks at r_m = {peak_y:.4f} (r_w = {peak_x:.3f}) < {THIN_RE_M}; "
        f"{elapsed:.1f}s",
    )


def test_criterion_1_companion_seventeen_equilibria_rescaled():
    eqs, elapsed = census(0.011)
    ok, detail = census_checks(eqs, elapsed)
    report("criterion 1 companion (preference strength 0.011)", ok, detail)


def test_criterion_1_census_steps_match_closed_form_reference():
    steps = {0.011: 17, 0.0438: 17, 0.044: 13, 0.056: 11, 0.062: 9, 0.098: 5, 0.11: 5}
    counts, worst, ok = {}, 0.0, True
    for c, expected in steps.items():
        eqs, _ = census(c)
        reference = closed_form_census(c)
        match_ok, gap = rows_match(census_rows(eqs), reference, tol=1e-6)
        counts[c] = len(reference)
        worst = max(worst, gap)
        ok = ok and match_ok and len(reference) == expected
    report(
        "criterion 1 steps (census = closed-form reference across the edge thresholds)",
        ok,
        f"counts {counts}; worst location gap {worst:.1e}",
    )


# ---------------------------------------------------------------------------
# criterion 2: participation tipping at fat tails
# ---------------------------------------------------------------------------


def test_criterion_2_participation_tipping():
    t0 = time.perf_counter()
    base = dict(c_w=3.5, c_m=3.5, C_w=1.0, C_m=1.0, beta=2.0, re_w=0.7, re_m=0.5, mu_m=1.0)
    p_low = make_params(mu_w=0.8, **base)
    p_high = make_params(mu_w=1.0, **base)
    eqs_low = enumerate_equilibria(p_low, grid_n=32)
    eqs_high = enumerate_equilibria(p_high, grid_n=32)

    low_stable = stable_of(eqs_low)
    weakly_contrarian_low = [e for e in low_stable if e.comp.r_w < e.comp.r_m]
    advantaged_low = [e for e in low_stable if e.comp.r_w > e.comp.r_m]
    high_stable = stable_of(eqs_high)
    weakly_contrarian_high = [e for e in high_stable if e.comp.r_w < e.comp.r_m]
    advantaged_high = [e for e in high_stable if e.comp.r_w > e.comp.r_m]

    no_segregation = True
    for params in (p_low, p_high):
        for cand in (
            Composition(0.0, 0.5), Composition(1.0, 0.5),
            Composition(0.5, 0.0), Composition(0.5, 1.0),
            Composition(0.0, 1.0), Composition(1.0, 0.0),
            Composition(0.0, 0.0), Composition(1.0, 1.0),
        ):
            if verify_corner(params, cand):
                no_segregation = False
    all_interior = all(e.kind == "interior" for e in eqs_low + eqs_high)

    elapsed = time.perf_counter() - t0
    ok = (
        len(weakly_contrarian_low) >= 1
        and len(advantaged_low) >= 1
        and len(weakly_contrarian_high) == 0
        and len(advantaged_high) >= 1
        and no_segregation
        and all_interior
        and elapsed < 60.0
    )
    report(
        "criterion 2 (participation rise removes the weakly contrarian point)",
        ok,
        f"mass 0.8: {len(weakly_contrarian_low)} contrarian + {len(advantaged_low)} advantaged stable; "
        f"mass 1.0: {len(weakly_contrarian_high)} contrarian + {len(advantaged_high)} advantaged; "
        f"no segregated corners: {no_segregation}; {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# criterion 3: three solvers agree on 1000 draws
# ---------------------------------------------------------------------------


def test_criterion_3_solver_agreement_thousand_draws():
    rng = np.random.default_rng(1003)
    worst = 0.0
    for _ in range(1000):
        p = interior_region_draw(rng)
        cf = solve_closed_form_beta1(p).point.comp
        mono = solve_monotone_iteration(p).comp
        newt = solve_from_seed(p, Composition(0.5, 0.5)).comp
        for other in (mono, newt):
            worst = max(worst, abs(cf.r_w - other.r_w), abs(cf.r_m - other.r_m))
    spot = solve_closed_form_beta1(
        make_params(c_w=0.1, c_m=0.1, beta=1.0, re_w=0.4, re_m=0.6)
    ).point.comp
    spot_ok = abs(spot.r_w - 0.375) < 1e-12 and abs(spot.r_m - 0.625) < 1e-12
    ok = worst < 1e-8 and spot_ok
    report(
        "criterion 3 (closed form = monotone = damped Newton, 1000 draws)",
        ok,
        f"worst pairwise gap {worst:.2e}; spot value (0.375, 0.625): {spot_ok}",
    )


# ---------------------------------------------------------------------------
# criterion 4: amplification on 500 draws
# ---------------------------------------------------------------------------


def ordered_family_draw(rng):
    """Random valid parameters with the W group less drawn to sector 1.

    Extreme locations with fat tails can break quantile monotonicity, which
    construction rejects; such draws are simply outside the family and are
    redrawn.
    """
    while True:
        re_w = rng.uniform(0.1, 0.6)
        re_m = rng.uniform(re_w + 0.03, 0.93)
        beta = rng.choice([rng.uniform(0.3, 0.95), 1.0, rng.uniform(1.05, 2.5)])
        c = rng.uniform(0.01, 1.5)
        mu_w = rng.uniform(0.5, 2.0)
        try:
            return make_params(
                mu_w=mu_w, c_w=c, c_m=c, beta=float(beta), re_w=re_w, re_m=re_m
            )
        except ValueError:
            continue


def test_criterion_4_amplification_five_hundred_draws():
    rng = np.random.default_rng(1004)
    failures = 0
    enumeration_misses = 0
    for _ in range(500):
        p = ordered_family_draw(rng)
        re_w, re_m = p.adv_w.r_e, p.adv_m.r_e
        eqs = enumerate_equilibria(p, grid_n=24)
        ordered = [
            e for e in eqs
            if e.comp.r_w <= re_w + 1e-9 and e.comp.r_m >= re_m - 1e-9
        ]
        if not ordered:
            # Tarski puts an equilibrium in [0, re_w] x [re_m, 1]; a census
            # without one has missed it
            enumeration_misses += 1
            failures += 1
        strictly_inside = [
            e for e in eqs
            if re_w + 1e-12 < e.comp.r_w < e.comp.r_m < re_m - 1e-12
        ]
        if strictly_inside:
            failures += 1
    ok = failures == 0
    report(
        "criterion 4 (amplification ordering on 500 draws)",
        ok,
        f"{failures} failures; {enumeration_misses} draws with no amplified census point",
    )


# ---------------------------------------------------------------------------
# criterion 5: uniqueness at small preference scale
# ---------------------------------------------------------------------------


def unique_scale_by_halving(p, grid_n=16, max_halvings=40):
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


def fat_tail_family_draw(rng):
    """Criterion-5 family: tail exponent above one; invalid laws are redrawn."""
    while True:
        re_w = rng.uniform(0.15, 0.5)
        re_m = rng.uniform(re_w + 0.05, 0.9)
        c = rng.uniform(0.2, 3.0)
        beta = rng.uniform(1.1, 2.5)
        try:
            return make_params(c_w=c, c_m=c, beta=beta, re_w=re_w, re_m=re_m)
        except ValueError:
            continue


def test_criterion_5_small_scale_uniqueness_hundred_draws():
    rng = np.random.default_rng(1005)
    failures = 0
    for _ in range(100):
        p = fat_tail_family_draw(rng)
        if unique_scale_by_halving(p) is None:
            failures += 1
    ok = failures == 0
    report(
        "criterion 5 (a positive scale threshold restores uniqueness, 100 draws)",
        ok,
        f"{failures} draws without a uniqueness scale",
    )


# ---------------------------------------------------------------------------
# criterion 6: flat-tax comparative statics
# ---------------------------------------------------------------------------


def test_criterion_6_tax_comparative_statics():
    p = make_params(c_w=0.1, c_m=0.1, beta=1.0, re_w=0.4, re_m=0.6)
    base = solve_closed_form_beta1(p).point.comp
    ok = True
    worst_gap = 0.0
    prev_w, prev_m = base.r_w, base.r_m
    for tau in (0.1, 0.3, 0.5):
        taxed = tax_equilibrium(p, tau)
        via_params = solve_closed_form_beta1(apply_tax(p, tau)).point.comp
        worst_gap = max(
            worst_gap,
            abs(taxed.r_w - via_params.r_w),
            abs(taxed.r_m - via_params.r_m),
        )
        ok = ok and taxed.r_w < base.r_w and taxed.r_m > base.r_m
        ok = ok and taxed.r_w < prev_w and taxed.r_m > prev_m
        prev_w, prev_m = taxed.r_w, taxed.r_m
    ok = ok and worst_gap < 1e-12
    report(
        "criterion 6 (redistribution widens the equilibrium spread)",
        ok,
        f"orderings hold at tau in {{0.1, 0.3, 0.5}}; closed-form route gap {worst_gap:.1e}",
    )


# ---------------------------------------------------------------------------
# criterion 7: finite-agent oracle at 100k per group
# ---------------------------------------------------------------------------


def test_criterion_7_oracle_twenty_draws():
    rng = np.random.default_rng(1007)
    t0 = time.perf_counter()
    n = 100_000
    tol = 5.0 / np.sqrt(n)
    worst = 0.0
    deviations = 0
    for k in range(20):
        p = interior_region_draw(rng)
        target = solve_closed_form_beta1(p).point.comp
        pop = sample_population(p, n, n, seed=9000 + k)
        rep = run_to_convergence(pop, p)
        assert rep.converged
        worst = max(
            worst,
            abs(rep.shares.r_w - target.r_w),
            abs(rep.shares.r_m - target.r_m),
        )
        deviations += deviation_count(rep.population, p)
    elapsed = time.perf_counter() - t0
    ok = worst < tol and deviations == 0 and elapsed < 120.0
    report(
        "criterion 7 (agent-based oracle matches the continuum, 20 draws)",
        ok,
        f"worst share gap {worst:.4f} < {tol:.4f}; "
        f"{deviations} profitable deviations; {elapsed:.0f}s",
    )


# ---------------------------------------------------------------------------
# criterion 8: identification round trip
# ---------------------------------------------------------------------------


def test_criterion_8_identification_round_trip():
    truth_params = make_params(c_w=0.1, c_m=0.1, beta=1.0, re_w=0.4, re_m=0.6)
    truth = CandidateParams(0.4, 0.6, 0.1, 0.1, 1.0, 1.0)
    data = simulate_observed_data(truth_params, 100_000, seed=801)
    y_grid = default_y_grid(data)
    noise = NoiseSpec()

    grid = GridSpec(
        re_w=GridAxis(0.3, 0.5, 3),
        re_m=GridAxis(0.5, 0.7, 3),
        c_w=GridAxis(0.05, 0.15, 3),
        c_m=GridAxis(0.05, 0.15, 3),
        C_w=GridAxis(0.8, 1.2, 3),
        C_m=GridAxis(0.8, 1.2, 3),
    )
    result = identified_set(grid, data, noise, y_grid)
    truth_in = truth in result.accepted
    truth_violations = len(check_inequalities(truth, data, y_grid, noise))

    shifted = CandidateParams(0.7, 0.6, 0.1, 0.1, 1.0, 1.0)
    shifted_rejected = (
        len(check_inequalities(shifted, data, y_grid, noise)) > 0
        or not equilibrium_consistent(shifted, data, tol=0.01)
    )
    ok = truth_in and truth_violations == 0 and shifted_rejected
    report(
        "criterion 8 (identified set contains the truth, rejects the shifted candidate)",
        ok,
        f"truth accepted: {truth_in} with {truth_violations} violations; "
        f"{len(result.accepted)}/{len(result.diagnostics)} candidates accepted; "
        f"location-shifted candidate rejected: {shifted_rejected}",
    )


# ---------------------------------------------------------------------------
# criterion 9: contrarian threshold flip
# ---------------------------------------------------------------------------


def test_criterion_9_contrarian_threshold_flip():
    c_m, re_w, re_m = 0.4, 0.7, 0.5
    r_m_star = re_m / (1.0 - c_m)
    presence = []
    r_m_gap = 0.0
    for c_w in np.linspace(0.75, 0.93, 10):
        p = make_params(c_w=float(c_w), c_m=c_m, beta=1.0, re_w=re_w, re_m=re_m)
        predicted = contrarian_threshold(p).corner_exists
        eqs = enumerate_equilibria(p, grid_n=16)
        found = [
            e for e in eqs
            if e.kind == "edge-w0" and e.stability == BOUNDARY_STABLE
        ]
        assert (len(found) > 0) == predicted
        presence.append(predicted)
        for e in found:
            r_m_gap = max(r_m_gap, abs(e.comp.r_m - r_m_star))
    flips = sum(1 for a, b in zip(presence, presence[1:]) if a != b)
    ok = flips == 1 and (not presence[0]) and presence[-1] and r_m_gap < 1e-9
    report(
        "criterion 9 (corner existence flips once across the preference threshold)",
        ok,
        f"{flips} flip(s); corner composition error {r_m_gap:.1e}",
    )
