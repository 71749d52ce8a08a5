"""The benchmark's four workloads: inputs, jobs and checks.

A workload's set-up returns a Plan. Its jobs are the calls a user makes,
one round runs each of them once, and `digest` turns a job's output into
the small value the checks read, outside the job's timer. `check` runs
after the timed section and returns the keys of the jobs whose output is
wrong, each with a reason. Checks compare against `reference`, which does
not import roylab, or against a property the method must have.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Callable

import numpy as np

import reference as ref
from reference import Params

STABLE_LABELS = ("stable", "boundary-stable")


@dataclass
class Plan:
    jobs: dict[str, Callable[[], object]]
    digest: Callable[[str, object], object]
    check: Callable[[dict], dict[str, str]]
    #: jobs that fail on every run because of a known fault, with the fault
    known_faults: dict[str, str] = field(default_factory=dict)


def roylab_params(p: Params):
    from roylab.model import make_params

    return make_params(**asdict(p))


def _write_json(path: Path, obj) -> str:
    path.write_text(json.dumps(obj, indent=1))
    return str(path)


def _cli(argv: list[str]) -> Callable[[], int]:
    from roylab import cli

    return lambda: cli.main(argv)


# ---------------------------------------------------------------------------
# parameter families of the acceptance criteria
# ---------------------------------------------------------------------------


def ordered_family_draw(rng) -> Params:
    """Criterion-4 family: W less drawn to sector 1; invalid laws are redrawn."""
    while True:
        re_w = rng.uniform(0.1, 0.6)
        re_m = rng.uniform(re_w + 0.03, 0.93)
        beta = rng.choice([rng.uniform(0.3, 0.95), 1.0, rng.uniform(1.05, 2.5)])
        c = rng.uniform(0.01, 1.5)
        mu_w = rng.uniform(0.5, 2.0)
        p = Params(mu_w=mu_w, c_w=c, c_m=c, beta=float(beta), re_w=re_w, re_m=re_m)
        try:
            roylab_params(p)
        except ValueError:
            continue
        return p


def interior_region_draw(rng) -> Params:
    """Criterion-7 family: beta = 1 in the unique-interior region."""
    while True:
        re_w = rng.uniform(0.1, 0.55)
        re_m = rng.uniform(re_w + 0.05, 0.92)
        g_w = rng.uniform(0.01, 0.6)
        g_m = rng.uniform(0.01, 0.6)
        cond_a = g_w * re_m / re_w + g_m
        cond_b = g_w + g_m * (1 - re_w) / (1 - re_m)
        if g_w + g_m < 0.9 and max(cond_a, cond_b) < 0.97:
            return Params(c_w=g_w, c_m=g_m, beta=1.0, re_w=re_w, re_m=re_m)


# ---------------------------------------------------------------------------
# shared census checks
# ---------------------------------------------------------------------------


def _rows(points) -> list[tuple]:
    """(r_w, r_m, kind, stability) of EquilibriumPoint objects or CLI JSON rows."""
    if points and isinstance(points[0], dict):
        return [(e["r_w"], e["r_m"], e["kind"], e["stability"]) for e in points]
    return [(e.comp.r_w, e.comp.r_m, e.kind, e.stability) for e in points]


def _inside(v: float) -> float:
    return min(max(v, 1e-300), 1.0 - 1e-16)


def point_problems(p: Params, rows) -> list[str]:
    """Each row must be a rest point of the reference model with its label.

    Interior points zero the reference residual and carry the label given
    by the eigenvalue signs of the analytic Jacobian; edge points bracket a
    root of the reference edge equation and pass the corner test; vertices
    pass both corner tests.
    """
    out = []
    for r_w, r_m, kind, label in rows:
        if kind != ref.kind_of(r_w, r_m):
            out.append(f"{kind} at ({r_w}, {r_m})")
        elif kind == "interior":
            gap = max(abs(e) for e in ref.residual(p, r_w, r_m))
            want = ref.interior_label(p, r_w, r_m)
            if not gap < 1e-8:
                out.append(f"residual {gap:.1e} at ({r_w}, {r_m})")
            if want is not None and want != label:
                out.append(f"label {label}, reference {want} at ({r_w}, {r_m})")
        elif kind == "vertex":
            if not ref.corner_holds(p, r_w, r_m):
                out.append(f"vertex ({r_w}, {r_m}) fails the corner test")
        else:
            v = r_m if kind in ("edge-w0", "edge-w1") else r_w
            lo = ref.edge_residual(p, kind, _inside(v - 1e-9))
            hi = ref.edge_residual(p, kind, _inside(v + 1e-9))
            if not lo * hi <= 0.0:
                out.append(f"{kind} point ({r_w}, {r_m}) is not an edge root")
            if not ref.corner_holds(p, r_w, r_m):
                out.append(f"{kind} point ({r_w}, {r_m}) fails the corner test")
            elif label != ref.edge_label(p, kind, v):
                out.append(f"{kind} label {label} at ({r_w}, {r_m})")
    return out


def amplified(p: Params, rows) -> bool:
    """Some rest point sorts each group at least as far as income alone would."""
    if p.re_w <= p.re_m:
        return any(r_w <= p.re_w + 1e-9 and r_m >= p.re_m - 1e-9 for r_w, r_m, _, _ in rows)
    return any(r_w >= p.re_w - 1e-9 and r_m <= p.re_m + 1e-9 for r_w, r_m, _, _ in rows)


#: Poincare-Hopf index of each interior label on the forward-invariant square
_INDEX = {"stable": 1, "unstable": 1, "saddle": -1}


def index_sum(rows) -> int | None:
    if any(kind != "interior" or label not in _INDEX for _, _, kind, label in rows):
        return None
    return sum(_INDEX[label] for _, _, _, label in rows)


def rows_match(got, want, tol: float = 1e-6) -> bool:
    """Same count, kinds and labels in sorted order, locations within tol."""
    return len(got) == len(want) and all(
        g[2:] == w[2:] and abs(g[0] - w[0]) <= tol and abs(g[1] - w[1]) <= tol
        for g, w in zip(got, want)
    )


# ---------------------------------------------------------------------------
# census
# ---------------------------------------------------------------------------

#: criterion-4 draws among the first 150 of seed 1004 that miss an
#: amplified equilibrium or break the index sum at grid 24
CENSUS_FAULT_DRAWS = (48, 58, 115, 117, 133, 138, 146)
CENSUS_LEADING_DRAWS = 40
THIN_STEPS = {0.011: 17, 0.0438: 17, 0.044: 13, 0.056: 11, 0.062: 9, 0.098: 5, 0.11: 5}
THIN = dict(beta=0.05, re_w=0.4, re_m=0.6)
CONFIGS = ("fig4", "fig4-rescaled", "fig5-left", "fig5-right")


def load_config(root: Path, name: str) -> dict:
    return json.loads((root / "configs" / f"{name}.json").read_text())


def setup_census(ctx) -> Plan:
    from roylab import equilibrium

    rng = np.random.default_rng(ctx.census_seed)
    draws = [ordered_family_draw(rng) for _ in range(max(CENSUS_FAULT_DRAWS) + 1)]
    picked = sorted(set(range(CENSUS_LEADING_DRAWS)) | set(CENSUS_FAULT_DRAWS))
    inputs: dict[str, tuple[Params, int]] = {}
    jobs = {}
    for k in picked:
        inputs[f"draw{k:03d}"] = (draws[k], 24)
    for c in THIN_STEPS:
        inputs[f"thin{c}"] = (Params(c_w=c, c_m=c, **THIN), 64)
    for key, (p, grid) in inputs.items():
        mp = roylab_params(p)
        jobs[key] = (lambda mp=mp, grid=grid: equilibrium.enumerate_equilibria(mp, grid_n=grid))
    outputs = {}
    for name in CONFIGS:
        cfg = load_config(ctx.root, name)
        inputs[name] = (Params(**cfg["params"]), cfg["resolution"])
        outputs[name] = ctx.out / f"census-{name}.json"
        jobs[name] = _cli(["enumerate", "--config", str(ctx.root / "configs" / f"{name}.json"),
                           "--out", str(outputs[name])])

    # warm-up: one census through the API and one through the CLI
    jobs["thin0.062"]()
    jobs["fig4-rescaled"]()

    def digest(key, out):
        if key in outputs:
            return (out, _rows(json.loads(outputs[key].read_text())) if out == 0 else None)
        return (0, _rows(out))

    def check(digests) -> dict[str, str]:
        bad = {}
        for key, (code, rows) in digests.items():
            p, _ = inputs[key]
            problems = [] if code == 0 else [f"exit code {code}"]
            if code == 0:
                problems += point_problems(p, rows)
                if not amplified(p, rows):
                    problems.append("no amplified equilibrium")
                if p.beta > 1.0 and index_sum(rows) != 1:
                    problems.append(f"index sum {index_sum(rows)} at beta > 1")
                if p.beta == 1.0 and ref.unique_interior_region(p):
                    want = [(x, y, kind) for x, y, kind in ref.beta1_equilibria(p)]
                    got = [(x, y, kind) for x, y, kind, _ in rows]
                    if not (len(got) == len(want) == 1 and got[0][2] == want[0][2]
                            and max(abs(got[0][0] - want[0][0]), abs(got[0][1] - want[0][1])) < 1e-8):
                        problems.append(f"closed form {want}, census {got}")
                if key.startswith("thin") and len(rows) != THIN_STEPS[float(key[4:])]:
                    problems.append(f"{len(rows)} points, expected {THIN_STEPS[float(key[4:])]}")
                if not key.startswith("draw") and not rows_match(rows, ref.rest_curve_census(p)):
                    problems.append("census differs from the rest-curve reference")
            if problems:
                bad[key] = "; ".join(problems)
        return bad

    faults = {
        f"draw{k:03d}": "enumerate_equilibria misses an interior equilibrium that hugs a wall"
        for k in CENSUS_FAULT_DRAWS
    }
    return Plan(jobs, digest, check, faults)


# ---------------------------------------------------------------------------
# tipping
# ---------------------------------------------------------------------------

QUOTA_FLOORS = (0.1, 0.2)
#: c_w across the contrarian threshold 0.84 at c_m = 0.4, re = (0.7, 0.5)
SWEEP_PARAMS = Params(c_w=0.75, c_m=0.4, beta=1.0, re_w=0.7, re_m=0.5)
SWEEP = {"param": "c_w", "lo": 0.75, "hi": 0.93, "count": 4}
BASIN_CONFIGS = ("fig5-left", "fig4-rescaled")
BASIN_RESOLUTION = 32


def setup_tipping(ctx) -> Plan:
    from roylab import equilibrium

    fig4r = load_config(ctx.root, "fig4-rescaled")
    p4 = Params(**fig4r["params"])
    starts = [(x, y) for x, y, _, label in ref.rest_curve_census(p4) if label == "boundary-stable"]
    jobs, outputs = {}, {}
    for floor in QUOTA_FLOORS:
        for i, (x, y) in enumerate(starts):
            key = f"quota{floor}-{i}"
            cfg = {"command": "policy", "params": fig4r["params"],
                   "policy": {"type": "quota", "floor": floor}, "observed": [x, y]}
            outputs[key] = ctx.out / f"tipping-{key}.json"
            jobs[key] = _cli(["policy", "--config", _write_json(ctx.out / f"tipping-{key}.cfg.json", cfg),
                              "--out", str(outputs[key])])
    cfg = {"command": "sweep", "params": asdict(SWEEP_PARAMS), "sweep": SWEEP}
    outputs["sweep"] = ctx.out / "tipping-sweep.csv"
    jobs["sweep"] = _cli(["sweep", "--config", _write_json(ctx.out / "tipping-sweep.cfg.json", cfg),
                          "--out", str(outputs["sweep"])])
    for name in BASIN_CONFIGS:
        key = f"basins-{name}"
        outputs[key] = ctx.out / f"tipping-{key}"
        jobs[key] = _cli(["basins", "--config", str(ctx.root / "configs" / f"{name}.json"),
                          "--resolution", str(BASIN_RESOLUTION), "--out", str(outputs[key])])

    # warm-up: one quota call, and a coarse, short basin map
    jobs[f"quota{QUOTA_FLOORS[0]}-0"]()
    warm = {"command": "basins", "params": fig4r["params"], "t_end": 0.5}
    _cli(["basins", "--config", _write_json(ctx.out / "tipping-warmup.cfg.json", warm),
          "--resolution", "16", "--out", str(ctx.out / "tipping-warmup")])()

    def digest(key, code):
        if code != 0:
            return (code, None)
        path = outputs[key]
        if key.startswith("quota"):
            return (0, json.loads(path.read_text()))
        if key == "sweep":
            return (0, list(csv.DictReader(path.read_text().splitlines())))
        labels = [int(r["basin_id"]) for r in csv.DictReader(Path(f"{path}.csv").read_text().splitlines())]
        svg_ok = Path(f"{path}.svg").read_text().rstrip().endswith("</svg>")
        return (0, (labels, svg_ok))

    def check(digests) -> dict[str, str]:
        bad = {}
        for key, (code, out) in digests.items():
            problems = [] if code == 0 else [f"exit code {code}"]
            if code == 0 and key.startswith("quota"):
                s = out["settled_after"]
                if not out["tipped"] or s["kind"] != "interior":
                    problems.append(f"tipped {out['tipped']} to a {s['kind']} point")
                elif ref.interior_label(p4, s["r_w"], s["r_m"]) != "stable" or max(
                    abs(e) for e in ref.residual(p4, s["r_w"], s["r_m"])
                ) > 1e-8:
                    problems.append(f"settled point ({s['r_w']}, {s['r_m']}) is not a stable rest point")
            elif code == 0 and key == "sweep":
                for row in out:
                    p = replace(SWEEP_PARAMS, c_w=float(row["value"]))
                    want = 1 + ref.contrarian_corner_exists(p)
                    if int(row["n_stable"]) != want:
                        problems.append(f"c_w={row['value']}: {row['n_stable']} stable, reference {want}")
            elif code == 0:
                labels, svg_ok = out
                name = key[len("basins-"):]
                p = Params(**load_config(ctx.root, name)["params"])
                # the map labels index the census that basins takes at grid 64
                census = _rows(equilibrium.enumerate_equilibria(roylab_params(p), grid_n=64))
                if not rows_match(census, ref.rest_curve_census(p)):
                    problems.append("basin census differs from the rest-curve reference")
                if min(labels) < 0:
                    problems.append(f"{labels.count(-1)} unresolved cells")
                elif any(census[k][3] not in STABLE_LABELS for k in set(labels)):
                    problems.append("a basin label is not a stable equilibrium")
                if not svg_ok:
                    problems.append("truncated SVG")
            if problems:
                bad[key] = "; ".join(problems)
        return bad

    return Plan(jobs, digest, check)


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------

ORACLE_AGENTS = 100_000
ORACLE_DRAWS = 4
NUDGED_START = (0.1, 0.9)
#: c_w = 0 with W absent from sector 1: the round never lets W back in
ORACLE_FAULT = (Params(c_w=0.0, c_m=0.1, beta=1.0, re_w=0.4, re_m=0.6), 1, (0.0, 0.5))


def setup_oracle(ctx) -> Plan:
    from roylab import abm, model

    rng = np.random.default_rng(ctx.oracle_seed)
    cases = {}
    for k in range(ORACLE_DRAWS):
        p = interior_region_draw(rng)
        cases[f"draw{k}-sorted"] = (p, 9000 + k, None)
        cases[f"draw{k}-nudged"] = (p, 9000 + k, NUDGED_START)
    cases["c_w-zero"] = ORACLE_FAULT
    n = ORACLE_AGENTS

    def job(p, seed, init):
        mp = roylab_params(p)
        comp = None if init is None else model.Composition(*init)

        def run():
            pop = abm.sample_population(mp, n, n, seed, init_comp=comp)
            return abm.run_to_convergence(pop, mp)

        return run

    jobs = {key: job(*case) for key, case in cases.items()}

    # warm-up: one run
    jobs["draw0-sorted"]()

    def digest(key, rep):
        pop = rep.population
        in1 = pop.sector == 1
        shares = (np.count_nonzero(in1 & pop.is_w) / n, np.count_nonzero(in1 & ~pop.is_w) / n)
        devs = ref.profitable_deviations(cases[key][0], pop.is_w, pop.delta, pop.sector)
        return (rep.rounds, rep.converged, shares, devs)

    def check(digests) -> dict[str, str]:
        bad = {}
        tol = 5.0 / math.sqrt(n)
        for key, (rounds, converged, (r_w, r_m), devs) in digests.items():
            ((x, y, _),) = ref.beta1_equilibria(cases[key][0])
            gap = max(abs(r_w - x), abs(r_m - y))
            if not converged or gap >= tol or devs:
                bad[key] = (f"converged {converged} after {rounds} rounds at ({r_w}, {r_m}); "
                            f"closed form ({x:.5f}, {y:.5f}); {devs} profitable deviations")
        return bad

    faults = {"c_w-zero": "best_response_round treats the W penalty as infinite at c_w = 0"}
    return Plan(jobs, digest, check, faults)


# ---------------------------------------------------------------------------
# identify
# ---------------------------------------------------------------------------

IDENTIFY_TRUTH = Params(c_w=0.1, c_m=0.1, beta=1.0, re_w=0.4, re_m=0.6)
IDENTIFY_SAMPLE = 100_000
IDENTIFY_GRID = {"re_w": [0.3, 0.5, 3], "re_m": [0.5, 0.7, 3], "c_w": [0.05, 0.15, 3],
                 "c_m": [0.05, 0.15, 3], "C_w": [0.8, 1.2, 3], "C_m": [0.8, 1.2, 3], "beta": 1.0}
NOISES = {"degenerate": {"family": "degenerate", "scale": 0.0},
          "logistic": {"family": "logistic", "scale": 0.05}}
TRUTH = (0.4, 0.6, 0.1, 0.1, 1.0, 1.0)
SHIFTED = (0.7, 0.6, 0.1, 0.1, 1.0, 1.0)
#: candidates whose reference worst slack lies this close to the rejection
#: threshold are not compared: the program's CDF is a bisection to 1e-12
SLACK_MARGIN = 1e-7
SLACK_TOL = -1e-9
CANDIDATE_KEYS = ("re_w", "re_m", "c_w", "c_m", "C_w", "C_m")


def setup_identify(ctx) -> Plan:
    from roylab import identification

    truth = roylab_params(IDENTIFY_TRUTH)
    datasets, jobs, outputs = {}, {}, {}
    for i, (name, noise) in enumerate(NOISES.items()):
        data = identification.simulate_observed_data(
            truth, IDENTIFY_SAMPLE, seed=ctx.identify_seed + i,
            noise=identification.NoiseSpec(noise["family"], noise["scale"]),
        )
        datasets[name] = data
        csv_path = ctx.out / f"identify-{name}.csv"
        csv_path.write_text(data.to_csv())
        sidecar = {**data.sidecar_dict(), "noise": noise}
        cfg = {"command": "identify", "data_csv": str(csv_path), "sidecar": sidecar,
               "grid": IDENTIFY_GRID}
        outputs[name] = ctx.out / f"identify-{name}-out"
        jobs[name] = _cli(["identify", "--config", _write_json(ctx.out / f"identify-{name}.cfg.json", cfg),
                           "--out", str(outputs[name])])
        if i == 0:
            # warm-up: the same call on a single candidate
            one = {k: ([v[0], v[0], 1] if isinstance(v, list) else v) for k, v in IDENTIFY_GRID.items()}
            _cli(["identify", "--config",
                  _write_json(ctx.out / "identify-warmup.cfg.json", {**cfg, "grid": one}),
                  "--out", str(ctx.out / "identify-warmup")])()

    def digest(key, code):
        if code != 0:
            return (code, None, None)
        rows = csv.DictReader(Path(f"{outputs[key]}.csv").read_text().splitlines())
        accepted = frozenset(tuple(round(float(r[k]), 12) for k in CANDIDATE_KEYS) for r in rows)
        summary = json.loads(Path(f"{outputs[key]}.json").read_text())
        return (0, accepted, (summary["n_rejected_inequalities"], summary["n_rejected_equilibrium"]))

    def check(digests) -> dict[str, str]:
        bad = {}
        for key, (code, accepted, rejected) in digests.items():
            data = datasets[key]
            problems = [] if code == 0 else [f"exit code {code}"]
            noise = identification.NoiseSpec(NOISES[key]["family"], NOISES[key]["scale"])
            y_grid = identification.default_y_grid(data)
            shifted = identification.CandidateParams(*SHIFTED)
            shifted_out = bool(identification.check_inequalities(shifted, data, y_grid, noise)) or not (
                identification.equilibrium_consistent(shifted, data, tol=0.01))
            if not shifted_out:
                problems.append("the location-shifted candidate is accepted")
            if code == 0 and TRUTH not in accepted:
                problems.append("the truth is rejected")
            if code == 0 and key == "degenerate":
                problems += slack_problems(data)
                want, near, want_rejected = reference_identified_set(data)
                diff = (accepted ^ want) - near
                if diff:
                    problems.append(f"{len(diff)} candidates differ from the reference, e.g. {min(diff)}")
                if abs(rejected[0] - want_rejected[0]) > len(near) or rejected[1] != want_rejected[1]:
                    problems.append(f"rejections (inequalities, equilibrium) {rejected}, "
                                    f"reference {want_rejected}")
            if problems:
                bad[key] = "; ".join(problems)
        return bad

    return Plan(jobs, digest, check)


def _reference_inputs(data):
    """Income cells, observed shares and threshold grid, rebuilt from the raw sample."""
    is_w, sector, income = data.is_w, data.sector, data.income
    cells = {
        (g, s): np.sort(income[(is_w == (g == "w")) & (sector == s)])
        for g in ("w", "m") for s in (1, 2)
    }
    obs = (data.observed_comp.r_w, data.observed_comp.r_m)
    y_grid = np.maximum(np.quantile(income, np.linspace(0.02, 0.85, 50)), data.min_wage)
    return cells, obs, y_grid


def _grid_candidates() -> list[dict]:
    axes = [np.linspace(lo, hi, n) for lo, hi, n in (IDENTIFY_GRID[k] for k in CANDIDATE_KEYS)]
    return [dict(zip(CANDIDATE_KEYS, map(float, values)))
            for values in np.array(np.meshgrid(*axes, indexing="ij")).reshape(6, -1).T]


def slack_problems(data, every: int = 27) -> list[str]:
    """Violations that check_inequalities reports, slack by slack, for every
    27th grid candidate, against the reference slacks (within 1e-9)."""
    from roylab import identification
    from roylab.model import TypeId

    cells, obs, y_grid = _reference_inputs(data)
    problems = []
    for cand in _grid_candidates()[::every]:
        slacks = ref.moment_slacks_beta1(cand, cells, data.income.size, obs, data.pop_ratio,
                                         data.min_wage, y_grid)
        want = {(g, side, i): v for (g, side), arr in slacks.items()
                for i, v in enumerate(arr) if v < SLACK_TOL}
        got = {}
        for v in identification.check_inequalities(
            identification.CandidateParams(*(cand[k] for k in CANDIDATE_KEYS)), data, y_grid,
            identification.NoiseSpec(),
        ):
            got[("w" if v.t is TypeId.W else "m", v.side, int(np.searchsorted(y_grid, v.y)))] = v.slack
        if got.keys() != want.keys() or any(abs(got[k] - want[k]) > 1e-9 for k in got):
            problems.append(f"violations of {tuple(cand.values())} differ from the reference slacks")
    return problems


def reference_identified_set(data) -> tuple[set, set, tuple[int, int]]:
    """Accepted candidates at degenerate noise, those too close to call, and
    the numbers rejected by the inequalities and by equilibrium consistency."""
    cells, obs, y_grid = _reference_inputs(data)
    accepted, near = set(), set()
    n_violating = n_inconsistent = 0
    for cand in _grid_candidates():
        slacks = ref.moment_slacks_beta1(cand, cells, data.income.size, obs, data.pop_ratio,
                                         data.min_wage, y_grid)
        slack = min(float(np.min(arr)) for arr in slacks.values())
        p = Params(mu_w=data.pop_ratio, beta=1.0, **cand)
        consistent = any(max(abs(x - obs[0]), abs(y - obs[1])) <= 0.01
                         for x, y, _ in ref.beta1_equilibria(p))
        key = tuple(round(v, 12) for v in cand.values())
        if abs(slack - SLACK_TOL) < SLACK_MARGIN:
            near.add(key)
        n_violating += slack < SLACK_TOL
        n_inconsistent += not consistent
        if slack >= SLACK_TOL and consistent:
            accepted.add(key)
    return accepted, near, (n_violating, n_inconsistent)


SETUPS = {
    "census": setup_census,
    "tipping": setup_tipping,
    "oracle": setup_oracle,
    "identify": setup_identify,
}
