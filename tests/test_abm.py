import math

import numpy as np
import pytest

from roylab import abm
from roylab.equilibrium import solve_closed_form_beta1
from roylab.model import Composition, advantage_quantile, make_params
from roylab.abm import (
    AgentPopulation,
    best_response_round,
    deviation_count,
    run_to_convergence,
    sample_population,
)

BENCH = dict(c_w=0.1, c_m=0.1, beta=1.0, re_w=0.4, re_m=0.6)


def test_same_seed_gives_identical_population():
    p = make_params(**BENCH)
    a = sample_population(p, 500, 400, seed=3)
    b = sample_population(p, 500, 400, seed=3)
    assert np.array_equal(a.delta, b.delta)
    assert np.array_equal(a.sector, b.sector)
    c = sample_population(p, 500, 400, seed=4)
    assert not np.array_equal(a.delta, c.delta)


def test_positive_draw_fraction_concentrates_at_efficient_share():
    p = make_params(**BENCH)
    pop = sample_population(p, 100_000, 100_000, seed=11)
    frac_w = np.mean(pop.delta[pop.is_w] > 0)
    frac_m = np.mean(pop.delta[~pop.is_w] > 0)
    assert abs(frac_w - 0.4) < 0.01
    assert abs(frac_m - 0.6) < 0.01


def test_single_agent_population_is_valid():
    p = make_params(**BENCH)
    pop = sample_population(p, 1, 1, seed=0)
    assert pop.size == 2
    assert len(pop.is_w) == len(pop.delta) == len(pop.sector) == 2
    assert int(np.count_nonzero(pop.is_w)) == 1
    assert set(pop.sector.tolist()) <= {1, 2}
    assert pop.shares().r_w in (0.0, 1.0)


def test_population_counts_match_contents():
    p = make_params(**BENCH)
    pop = sample_population(p, 120, 80, seed=5)
    assert int(np.count_nonzero(pop.is_w)) == pop.n_w == 120
    assert int(np.count_nonzero(~pop.is_w)) == pop.n_m == 80
    assert set(np.unique(pop.sector)) <= {1, 2}


def test_init_comp_places_requested_fractions():
    p = make_params(**BENCH)
    pop = sample_population(p, 1000, 1000, seed=9, init_comp=Composition(0.25, 0.75))
    comp = pop.shares()
    assert comp.r_w == pytest.approx(0.25, abs=1e-9)
    assert comp.r_m == pytest.approx(0.75, abs=1e-9)


def frozen_sample(params, n_w, n_m, seed, init_comp=None):
    """(delta, sector) of sample_population as written before it shared the
    advantage sampler: one clipped uniform block per group."""
    rng = np.random.default_rng(seed)
    u_w = np.clip(rng.random(n_w), 1e-15, 1.0 - 1e-15)
    u_m = np.clip(rng.random(n_m), 1e-15, 1.0 - 1e-15)
    delta = np.concatenate(
        [advantage_quantile(params.adv_w, u_w), advantage_quantile(params.adv_m, u_m)]
    )
    if init_comp is None:
        return delta, np.where(delta > 0.0, 1, 2).astype(np.int8)
    sector = np.full(n_w + n_m, 2, dtype=np.int8)
    sector[rng.permutation(n_w)[:int(round(init_comp.r_w * n_w))]] = 1
    sector[n_w + rng.permutation(n_m)[:int(round(init_comp.r_m * n_m))]] = 1
    return delta, sector


@pytest.mark.parametrize("beta", [0.6, 1.0, 1.8])
def test_population_equals_the_frozen_sampler(beta):
    # init_comp draws its placement after the advantages, so it also checks
    # that the generator ends where the two old calls left it
    p = make_params(**dict(BENCH, beta=beta, C_w=1.3, C_m=0.8))
    for seed in (0, 5, 11):
        for n_w, n_m in ((1, 1), (1, 500), (300, 200)):
            for init in (None, Composition(0.2, 0.7)):
                pop = sample_population(p, n_w, n_m, seed, init_comp=init)
                delta, sector = frozen_sample(p, n_w, n_m, seed, init)
                assert np.array_equal(pop.delta, delta)
                assert np.array_equal(pop.sector, sector)


def test_pure_income_round_sorts_by_sign():
    p = make_params(**dict(BENCH, c_w=0.0, c_m=0.0))
    pop = sample_population(p, 2000, 2000, seed=2, init_comp=Composition(0.9, 0.1))
    pop2, switched = best_response_round(pop, p, order_seed=1)
    assert switched > 0
    assert np.array_equal(pop2.sector == 1, pop2.delta > 0)


def test_equilibrated_population_makes_no_switches():
    p = make_params(**BENCH)
    pop = sample_population(p, 5000, 5000, seed=21)
    rep = run_to_convergence(pop, p)
    assert rep.converged
    _, switched = best_response_round(rep.population, p, order_seed=999)
    assert switched == 0
    assert deviation_count(rep.population, p) == 0


def test_convergence_to_continuum_equilibrium():
    p = make_params(**BENCH)
    pop = sample_population(p, 40_000, 40_000, seed=17)
    rep = run_to_convergence(pop, p)
    assert rep.converged
    tol = 5.0 / np.sqrt(40_000)
    assert abs(rep.shares.r_w - 0.375) < tol
    assert abs(rep.shares.r_m - 0.625) < tol


def test_run_is_bit_reproducible():
    p = make_params(**BENCH)
    reps = [
        run_to_convergence(sample_population(p, 3000, 3000, seed=33), p)
        for _ in range(2)
    ]
    assert reps[0].share_history == reps[1].share_history
    assert np.array_equal(reps[0].population.sector, reps[1].population.sector)


def test_segregated_corner_is_absorbing_for_thin_tails():
    p = make_params(c_w=0.011, c_m=0.011, beta=0.05, re_w=0.4, re_m=0.6)
    pop = sample_population(p, 2000, 2000, seed=7, init_comp=Composition(0.0, 1.0))
    rep = run_to_convergence(pop, p)
    assert rep.converged and rep.rounds == 1
    assert rep.shares.r_w == 0.0 and rep.shares.r_m == 1.0


def test_indifferent_group_enters_a_sector_without_its_members():
    # c_w = 0: W agents sort on their draws alone, so they leave the empty
    # W side of sector 1 although it holds M agents
    p = make_params(**dict(BENCH, c_w=0.0))
    pop = sample_population(p, 100_000, 100_000, seed=1, init_comp=Composition(0.0, 0.5))
    rep = run_to_convergence(pop, p)
    assert rep.converged
    assert deviation_count(rep.population, p) == 0
    target = solve_closed_form_beta1(p).point.comp
    tol = 5.0 / np.sqrt(100_000)
    assert abs(rep.shares.r_w - target.r_w) < tol
    assert abs(rep.shares.r_m - target.r_m) < tol


def test_summary_dict_layout():
    p = make_params(**BENCH)
    pop = sample_population(p, 50, 60, seed=1)
    d = pop.summary_dict(rounds=3, converged=True)
    assert set(d) == {"N_w", "N_m", "seed", "rounds", "converged", "r_w", "r_m"}
    assert d["N_w"] == 50 and d["N_m"] == 60 and d["seed"] == 1


# ---------------------------------------------------------------------------
# differential check of the event-driven round against the agent-by-agent one
# ---------------------------------------------------------------------------


def reference_round(pop, params, order_seed):
    """Agent-by-agent sequential sweep: the semantics best_response_round replays.

    Visits every agent in the seeded order, recomputes both minority
    penalties from the current masses and switches on a strict gain. A group
    without a composition term (sigma * c = 0) has threshold 0 everywhere.
    """
    rng = np.random.default_rng(order_seed)
    order = rng.permutation(pop.size).tolist()

    sec = pop.sector.tolist()
    dl = pop.delta.tolist()
    iw = pop.is_w.tolist()
    w_w, w_m, m1w, m1m, m2w, m2m = abm._masses(pop, params)
    sigma = params.sigma
    c_w = params.pref_w.c
    c_m = params.pref_m.c
    inf = math.inf
    switched = 0

    if sigma == 0.0 or (c_w == 0.0 and c_m == 0.0):
        for i in order:
            want = 1 if dl[i] > 0.0 else (2 if dl[i] < 0.0 else sec[i])
            if want != sec[i]:
                sec[i] = want
                switched += 1
        return (
            AgentPopulation(pop.is_w, pop.delta, np.array(sec, dtype=np.int8),
                            pop.n_w, pop.n_m, pop.seed),
            switched,
        )

    for i in order:
        w_agent = iw[i]
        c = c_w if w_agent else c_m
        wgt = w_w if w_agent else w_m
        own1 = m1w if w_agent else m1m
        own2 = m2w if w_agent else m2m
        tot1 = m1w + m1m
        tot2 = m2w + m2m
        threshold = 0.0
        if sigma * c != 0.0:
            if tot1 <= 0.0:
                h1 = 0.0
            elif own1 <= 0.0:
                h1 = inf
            else:
                h1 = c * tot1 / own1
            if tot2 <= 0.0:
                h2 = 0.0
            elif own2 <= 0.0:
                h2 = inf
            else:
                h2 = c * tot2 / own2
            threshold = sigma * (h1 - h2)
        gap = dl[i] - threshold
        if sec[i] == 2:
            if gap > 0.0:
                sec[i] = 1
                switched += 1
                if w_agent:
                    m1w += wgt
                    m2w -= wgt
                else:
                    m1m += wgt
                    m2m -= wgt
        else:
            if gap < 0.0:
                sec[i] = 2
                switched += 1
                if w_agent:
                    m1w -= wgt
                    m2w += wgt
                else:
                    m1m -= wgt
                    m2m += wgt

    return (
        AgentPopulation(pop.is_w, pop.delta, np.array(sec, dtype=np.int8),
                        pop.n_w, pop.n_m, pop.seed),
        switched,
    )


FAST_ROUND = abm.best_response_round


def run_recorded(monkeypatch, round_fn, pop, params, max_rounds):
    """run_to_convergence driven by round_fn; also returns each round's switches."""
    switches = []

    def recording(p, prm, order_seed):
        out = round_fn(p, prm, order_seed)
        switches.append(out[1])
        return out

    monkeypatch.setattr(abm, "best_response_round", recording)
    rep = abm.run_to_convergence(pop, params, max_rounds=max_rounds)
    monkeypatch.undo()
    return rep, switches


ROUND_CASES = {
    "small": (BENCH, 7, 5, None, 1000),
    "medium": (BENCH, 10_000, 10_000, None, 1000),
    "medium, mixed start": (BENCH, 8000, 6000, Composition(0.5, 0.5), 1000),
    "capped rounds": (BENCH, 6000, 6000, Composition(0.9, 0.1), 3),
    "fat tails, unequal masses": (
        dict(mu_w=0.8, c_w=3.5, c_m=3.5, beta=2.0, re_w=0.7, re_m=0.5), 3000, 2000, None, 1000
    ),
    "thin tails, segregated start": (
        dict(c_w=0.011, c_m=0.011, beta=0.05, re_w=0.4, re_m=0.6), 2000, 2000,
        Composition(0.0, 1.0), 1000,
    ),
    "sigma = 0": (dict(BENCH, sigma=0.0), 500, 400, Composition(0.9, 0.1), 1000),
    "c = 0": (dict(BENCH, c_w=0.0, c_m=0.0), 500, 400, Composition(0.9, 0.1), 1000),
    "one group indifferent": (dict(BENCH, c_w=0.0), 800, 600, Composition(0.0, 0.0), 1000),
    "c_w = 0, start (0, 0.5)": (dict(BENCH, c_w=0.0), 500, 500, Composition(0.0, 0.5), 1000),
    "sector 1 empty": (BENCH, 400, 300, Composition(0.0, 0.0), 1000),
    "sector 2 empty": (BENCH, 400, 300, Composition(1.0, 1.0), 1000),
    "one agent per group": (BENCH, 1, 1, None, 1000),
    "one agent per group, sector 1 empty": (BENCH, 1, 1, Composition(0.0, 0.0), 1000),
}


@pytest.mark.parametrize("case", list(ROUND_CASES))
def test_event_driven_round_matches_reference(case, monkeypatch):
    kw, n_w, n_m, init, max_rounds = ROUND_CASES[case]
    p = make_params(**kw)
    pop = sample_population(p, n_w, n_m, seed=41, init_comp=init)
    fast, fast_switches = run_recorded(monkeypatch, FAST_ROUND, pop, p, max_rounds)
    ref, ref_switches = run_recorded(monkeypatch, reference_round, pop, p, max_rounds)
    assert fast_switches == ref_switches
    assert fast.switches == ref.switches == ref_switches
    assert fast.rounds == ref.rounds and fast.converged == ref.converged
    assert fast.share_history == ref.share_history
    assert fast.population.sector.dtype == ref.population.sector.dtype
    assert np.array_equal(fast.population.sector, ref.population.sector)


def test_event_driven_round_matches_reference_on_an_unsettled_state():
    # every agent placed at random, so switchers are dense through the round
    p = make_params(**BENCH)
    pop = sample_population(p, 30_000, 30_000, seed=5, init_comp=Composition(0.5, 0.5))
    for order_seed in (0, 1, 2**32 - 1):
        fast, n_fast = best_response_round(pop, p, order_seed)
        ref, n_ref = reference_round(pop, p, order_seed)
        assert n_fast == n_ref > 0
        assert np.array_equal(fast.sector, ref.sector)


def assert_rounds_match(pop, params, order_seeds):
    """One round per order seed, fast and reference; returns the fast results."""
    out = []
    for order_seed in order_seeds:
        fast, n_fast = best_response_round(pop, params, order_seed)
        ref, n_ref = reference_round(pop, params, order_seed)
        assert n_fast == n_ref
        assert np.array_equal(fast.sector, ref.sector)
        out.append(fast)
    return out


def test_event_driven_round_matches_reference_on_a_dense_nudged_round(monkeypatch):
    # the quota-nudged start at 100k per group: a third of the agents switch
    # in the first round, so the screen restarts thousands of times
    p = make_params(**BENCH)
    pop = sample_population(p, 100_000, 100_000, seed=41, init_comp=Composition(0.1, 0.9))
    screens = []
    slack = abm._slack
    monkeypatch.setattr(abm, "_slack", lambda *state: screens.append(1) or slack(*state))
    assert_rounds_match(pop, p, [0])
    assert len(screens) > 1000


@pytest.mark.parametrize("k", [1, 2])
def test_event_driven_round_matches_reference_when_a_group_leaves_a_sector(k):
    # k W agents in sector 1 beside half the M, and W draws mostly favour
    # sector 2: when the last of them leaves, W's threshold turns infinite in
    # mid-round; with k = 2 (order seed 1) under a screen of positive slack
    p = make_params(**dict(BENCH, re_w=0.05))
    pop = sample_population(p, 1000, 1000, seed=41, init_comp=Composition(k / 1000, 0.5))
    rounds = assert_rounds_match(pop, p, range(4))
    assert any(fast.shares().r_w == 0.0 for fast in rounds)


def test_event_driven_round_matches_reference_from_infinite_thresholds():
    # no W in sector 1 beside half the M: W's threshold is infinite when the
    # round starts, so every screen has slack 0 until sector 1 empties
    p = make_params(**BENCH)
    pop = sample_population(p, 1000, 1000, seed=41, init_comp=Composition(0.0, 0.5))
    w_w, w_m, m1w, m1m, m2w, m2m = abm._masses(pop, p)
    assert abm._switch_threshold(p.sigma, p.pref_w.c, m1w, m2w, m1w + m1m, m2w + m2m) == math.inf
    assert_rounds_match(pop, p, range(4))


def edge_of_screen_state(order_seed):
    """8 W and 8 M, c = 0.1, where one M switch balances both sectors exactly.

    W: 4 in each sector. M: 3 in sector 1 and 5 in sector 2. The first M
    visited (A) gains, and moving it leaves both thresholds at exactly 0.
    The second M visited (B) sits in sector 2 with a draw of 1e-300: below
    M's threshold t0 when the round starts, above it after A has moved. Any
    other agent keeps its sector through the round.
    """
    order = np.random.default_rng(order_seed).permutation(16)
    m_visits = [int(i) for i in order if i >= 8]
    delta = np.array([1.0] * 4 + [-1.0] * 4 + [1.0] * 8)
    sector = np.array([1] * 4 + [2] * 4 + [1] * 8, dtype=np.int8)
    sector[m_visits[:5]] = 2
    delta[m_visits[2:5]] = -1.0
    delta[m_visits[1]] = 1e-300
    return AgentPopulation(np.arange(16) < 8, delta, sector, 8, 8, seed=0)


@pytest.mark.parametrize("order_seed", [0, 1, 2])
def test_round_is_exact_when_a_bar_drifts_a_full_slack(order_seed, monkeypatch):
    # The screen keeps B out only by rounding: fl(1e-300 - t0) = -t0 equals
    # -slack when the slack is t0. A then moves M's bar by the full slack,
    # to 0, where B gains; only a restart at half the slack decides B
    p = make_params(c_w=0.1, c_m=0.1)
    pop = edge_of_screen_state(order_seed)
    w_w, w_m, m1w, m1m, m2w, m2m = abm._masses(pop, p)
    t0 = abm._switch_threshold(p.sigma, p.pref_m.c, m1m, m2m, m1w + m1m, m2w + m2m)
    assert 1e-300 - t0 == -t0 > -1.0
    monkeypatch.setattr(abm, "_slack", lambda *state: t0)
    assert_rounds_match(pop, p, [order_seed])
    assert best_response_round(pop, p, order_seed)[1] == 2


@pytest.mark.parametrize("slack", [0.0, 1e-12, 1e300])
def test_round_is_exact_for_any_screen_slack(slack, monkeypatch):
    # the slack only sets how many candidates are decided one by one
    p = make_params(**BENCH)
    pop = sample_population(p, 5000, 5000, seed=5, init_comp=Composition(0.5, 0.5))
    monkeypatch.setattr(abm, "_slack", lambda *state: slack)
    assert_rounds_match(pop, p, (0, 1))
