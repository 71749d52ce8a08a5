"""Benchmark of roylab: four workloads, end-to-end metrics, and a traced run.

    python3 bench/run.py --workload census --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; roylab is imported from its `src/`. A run
sets up its workload several times (set-up time is the median), then
repeats rounds, each of which runs every job of the workload once in an
order drawn from --seed, until --seconds have passed. Outputs are checked
after the timed section. The last line of stdout is one JSON object with
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics, or
with --trace 1 the per-layer metrics of a traced run. `--workload all` runs
the four workloads one after another, each in its own process.
"""

import time

_T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

# one thread for BLAS and OpenMP, before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("census", "tipping", "oracle", "identify")
SETUP_REPEATS = 3


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0, help="job-order seed (default 0)")
    ap.add_argument("--seconds", type=float, default=20.0, help="length of the timed section")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--census-seed", type=int, default=1004, help="criterion-4 draws (default 1004)")
    ap.add_argument("--oracle-seed", type=int, default=1007, help="criterion-7 draws (default 1007)")
    ap.add_argument("--identify-seed", type=int, default=801,
                    help="income samples; the logistic one uses seed + 1 (default 801)")
    return ap.parse_args(argv)


class Context:
    def __init__(self, args):
        self.root = ROOT
        self.out = BENCH / "out"
        self.census_seed = args.census_seed
        self.oracle_seed = args.oracle_seed
        self.identify_seed = args.identify_seed


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace), "--census-seed", str(args.census_seed),
                "--oracle-seed", str(args.oracle_seed), "--identify-seed", str(args.identify_seed)]
        proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            summary["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(summary))
    return 0


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    return sorted(values)[max(0, math.ceil(q * len(values)) - 1)]


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if not (ROOT / "src" / "roylab").is_dir():
        print(f"error: no roylab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH))

    import numpy as np

    import roylab  # noqa: F401
    from layertrace import LAYER_METRICS, Tracer
    from workloads import SETUPS

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    ctx = Context(args)
    ctx.out.mkdir(exist_ok=True)
    imports_s = time.perf_counter() - _T_START

    setup_times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        plan = SETUPS[args.workload](ctx)
        setup_times.append(time.perf_counter() - t0)
    setup_s = imports_s + statistics.median(setup_times)

    keys = sorted(plan.jobs)
    job_ms: dict[str, list[float]] = {key: [] for key in keys}
    round_s: list[float] = []
    digests: list[dict] = []
    errors: dict[str, str] = {}
    if tracer:
        tracer.reset()
    t_begin = time.perf_counter()
    while not round_s or time.perf_counter() - t_begin < args.seconds:
        order = np.random.default_rng([args.seed, len(round_s)]).permutation(len(keys))
        this_round, spent = {}, 0.0
        for i in order:
            key = keys[i]
            t0 = time.perf_counter()
            try:
                out = plan.jobs[key]()
            except Exception as exc:  # a job that raises is a failed operation
                out = exc
            dt = time.perf_counter() - t0
            spent += dt
            job_ms[key].append(dt * 1e3)
            if isinstance(out, Exception):
                errors[key] = f"raised {type(out).__name__}: {out}"
                this_round[key] = None
            else:
                this_round[key] = plan.digest(key, out)
        round_s.append(spent)
        digests.append(this_round)
    rounds = len(round_s)
    layer = tracer.metrics(rounds) if tracer else None
    if tracer:
        tracer.dump(ctx.out / f"trace-{args.workload}.json", rounds)

    # checks: after the timed section, on the last round's outputs
    last = digests[-1]
    stable = all(d == last for d in digests)
    bad = plan.check({k: v for k, v in last.items() if k not in errors})
    bad.update(errors)
    failed_keys = sorted(bad)
    unexpected = [k for k in failed_keys if k not in plan.known_faults]
    missing_faults = [k for k in plan.known_faults if k not in bad]
    correct = stable and not unexpected

    print(f"workload {args.workload}: seed {args.seed}, {rounds} rounds of {len(keys)} jobs, "
          f"set-up {setup_s:.3f} s (imports {imports_s:.3f} s; repeats "
          + ", ".join(f"{t:.3f}" for t in setup_times) + " s)")
    print("round wall s: " + ", ".join(f"{t:.3f}" for t in round_s))
    # the typical job: median over the jobs of each job's median across rounds
    p50 = statistics.median(statistics.median(v) for v in job_ms.values())
    samples = [t for v in job_ms.values() for t in v]
    line = f"job ms: p50 {p50:.2f} (all samples: p50 {statistics.median(samples):.2f}"
    if len(samples) >= 100:
        line += f", p90 {percentile(samples, 0.9):.2f}"
    print(line + f", {len(samples)} samples)")
    print("job median ms: " + ", ".join(f"{k} {statistics.median(v):.1f}" for k, v in job_ms.items()))
    for key in failed_keys:
        tag = "known fault" if key in plan.known_faults else "UNEXPECTED"
        print(f"failed [{tag}] {key}: {bad[key]}")
    for key in missing_faults:
        print(f"known fault no longer fails: {key} ({plan.known_faults[key]})")
    if not stable:
        print("outputs differ between rounds")

    if tracer:
        metrics = {
            name: {"value": layer.get(name, 0.0), "unit": "s" if name.endswith("_s") else "count"}
            for name in LAYER_METRICS
        }
        print(f"traced wall s per round: {statistics.median(round_s):.4f}")
    else:
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "wall_s": {"value": statistics.median(round_s), "unit": "s"},
            "job_p50_ms": {"value": p50, "unit": "ms"},
            "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
        }
    print(json.dumps({
        "correct": correct,
        "attempted": rounds * len(keys),
        "failed": rounds * len(failed_keys),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
