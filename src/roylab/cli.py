"""Command-line front end.

Every subcommand reads an optional JSON config (--config) and registers only
the flags it reads; explicit flags override config values. Numeric output
is serialized with 17 significant digits so reruns are byte-identical. Exit
codes: 0 success, 2 invalid input, 3 I/O failure, 4 model/data
inconsistency.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from .abm import run_to_convergence, sample_population
from .dynamics import basins, phase_portrait
from .equilibrium import enumerate_equilibria, solve_closed_form_beta1
from .identification import (
    GridAxis,
    GridSpec,
    NoiseSpec,
    ObservedData,
    default_y_grid,
    identified_set,
)
from .model import Composition, ModelParams
from .policy import (
    AmenityShift,
    DataInconsistentError,
    FlatTax,
    Participation,
    Quota,
    Subsidy,
    compare,
    sweep_rows,
)
from .render import basins_csv, basins_svg, portrait_csv, portrait_svg

EXIT_OK = 0
EXIT_BAD_INPUT = 2
EXIT_IO = 3
EXIT_INCONSISTENT = 4

_CONFIG_KEYS = {
    "command", "params", "resolution", "seed", "tol", "out",
    "policy", "observed", "data_csv", "sidecar", "y_grid_size", "noise",
    "sweep", "grid", "oracle", "rounds_csv", "t_end", "dt",
}


def _fmt(x) -> str:
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def _dumps(obj, indent: int = 0) -> str:
    """JSON with floats at 17 significant digits, deterministic key order."""
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f'{pad}  {json.dumps(str(k))}: {_dumps(v, indent + 1)}'
            for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [f"{pad}  {_dumps(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, float):
        return format(obj, ".17g")
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    return json.dumps(obj)


def _write_out(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    with open(path) as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ValueError("config must be a JSON object")
    unknown = set(cfg) - _CONFIG_KEYS
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    return cfg


def _params_from(cfg: dict) -> ModelParams:
    if "params" not in cfg:
        raise ValueError("no model parameters given (config key 'params')")
    return ModelParams.from_dict(cfg["params"])


def _policy_from(cfg: dict):
    spec = cfg.get("policy")
    if not isinstance(spec, dict) or "type" not in spec:
        raise ValueError("policy config must be an object with a 'type' field")
    kind = spec["type"]
    if kind == "flat_tax":
        return FlatTax(float(spec["tau"]))
    if kind == "quota":
        return Quota(float(spec["floor"]))
    if kind == "subsidy":
        return Subsidy(float(spec.get("scale_C_w", 1.0)), float(spec.get("scale_C_m", 1.0)))
    if kind == "amenity":
        return AmenityShift(float(spec.get("scale_c_w", 1.0)), float(spec.get("scale_c_m", 1.0)))
    if kind == "participation":
        return Participation(float(spec["new_mu_w"]))
    raise ValueError(f"unknown policy type {kind!r}")


def _observed_from(cfg: dict) -> Composition:
    obs = cfg.get("observed")
    if not (isinstance(obs, (list, tuple)) and len(obs) == 2):
        raise ValueError("config key 'observed' must be a [r_w, r_m] pair")
    return Composition(float(obs[0]), float(obs[1]))


def _noise_from(obj) -> NoiseSpec:
    if obj is None:
        return NoiseSpec()
    return NoiseSpec(obj.get("family", "degenerate"), float(obj.get("scale", 0.0)))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_solve(cfg: dict) -> int:
    params = _params_from(cfg)
    try:
        points = [solve_closed_form_beta1(params).point]
    except ValueError:
        points = enumerate_equilibria(
            params, grid_n=int(cfg.get("resolution", 64)), tol=float(cfg.get("tol", 1e-10))
        )
    _write_out(_dumps([p.to_json_dict() for p in points]), cfg.get("out"))
    return EXIT_OK


def cmd_enumerate(cfg: dict) -> int:
    params = _params_from(cfg)
    points = enumerate_equilibria(
        params, grid_n=int(cfg.get("resolution", 64)), tol=float(cfg.get("tol", 1e-10))
    )
    _write_out(_dumps([p.to_json_dict() for p in points]), cfg.get("out"))
    return EXIT_OK


def cmd_phase(cfg: dict) -> int:
    params = _params_from(cfg)
    pp = phase_portrait(params, int(cfg.get("resolution", 24)))
    base = cfg.get("out") or "phase"
    with open(base + ".csv", "w") as fh:
        fh.write(portrait_csv(pp))
    with open(base + ".svg", "w") as fh:
        fh.write(portrait_svg(pp))
    return EXIT_OK


def cmd_basins(cfg: dict) -> int:
    params = _params_from(cfg)
    bm = basins(
        params,
        int(cfg.get("resolution", 32)),
        t_end=float(cfg.get("t_end", 500.0)),
        dt=float(cfg.get("dt", 0.01)),
    )
    base = cfg.get("out") or "basins"
    with open(base + ".csv", "w") as fh:
        fh.write(basins_csv(bm))
    with open(base + ".svg", "w") as fh:
        fh.write(basins_svg(bm))
    return EXIT_OK


def cmd_policy(cfg: dict) -> int:
    params = _params_from(cfg)
    report = compare(params, _policy_from(cfg), _observed_from(cfg))
    _write_out(_dumps(report.to_json_dict()), cfg.get("out"))
    return EXIT_OK


def cmd_sweep(cfg: dict) -> int:
    params = _params_from(cfg)
    spec = cfg.get("sweep")
    if not isinstance(spec, dict):
        raise ValueError("config key 'sweep' must be an object")
    for key in ("param", "lo", "hi", "count"):
        if key not in spec:
            raise ValueError(f"sweep config missing {key!r}")
    values = np.linspace(float(spec["lo"]), float(spec["hi"]), int(spec["count"]))
    observed = _observed_from(cfg) if "observed" in cfg else None
    rows = sweep_rows(params, spec["param"], values, observed=observed)
    lines = ["value,n_equilibria,n_stable,settled_r_w,settled_r_m,tipped"]
    for r in rows:
        lines.append(
            f"{_fmt(r['value'])},{r['n_equilibria']},{r['n_stable']},"
            f"{_fmt(r['settled_r_w'])},{_fmt(r['settled_r_m'])},{str(r['tipped']).lower()}"
        )
    _write_out("\n".join(lines) + "\n", cfg.get("out"))
    return EXIT_OK


def cmd_oracle(cfg: dict) -> int:
    params = _params_from(cfg)
    spec = cfg.get("oracle") or {}
    n_w = int(spec.get("n_w", 10_000))
    n_m = int(spec.get("n_m", 10_000))
    seed = int(cfg.get("seed", 0))
    init = None
    if "init_comp" in spec:
        init = Composition(float(spec["init_comp"][0]), float(spec["init_comp"][1]))
    pop = sample_population(params, n_w, n_m, seed, init_comp=init)
    report = run_to_convergence(pop, params, max_rounds=int(spec.get("max_rounds", 1000)))
    _write_out(
        _dumps(report.population.summary_dict(report.rounds, report.converged)),
        cfg.get("out"),
    )
    rounds_csv = cfg.get("rounds_csv")
    if rounds_csv:
        lines = ["round,r_w,r_m"] + [
            f"{k},{_fmt(rw)},{_fmt(rm)}"
            for k, (rw, rm) in enumerate(report.share_history)
        ]
        with open(rounds_csv, "w") as fh:
            fh.write("\n".join(lines) + "\n")
    return EXIT_OK


def cmd_identify(cfg: dict) -> int:
    if "data_csv" not in cfg or "sidecar" not in cfg:
        raise ValueError("identify needs config keys 'data_csv' and 'sidecar'")
    with open(cfg["data_csv"]) as fh:
        text = fh.read()
    sidecar = cfg["sidecar"]
    if isinstance(sidecar, str):
        with open(sidecar) as fh:
            sidecar = json.load(fh)
    data = ObservedData.from_csv(text, sidecar)
    noise = _noise_from(cfg.get("noise", sidecar.get("noise")))

    grid_cfg = cfg.get("grid")
    if not isinstance(grid_cfg, dict):
        raise ValueError("identify needs a 'grid' object with per-parameter axes")

    def axis(name):
        ax = grid_cfg[name]
        return GridAxis(float(ax[0]), float(ax[1]), int(ax[2]))

    grid = GridSpec(
        re_w=axis("re_w"), re_m=axis("re_m"), c_w=axis("c_w"),
        c_m=axis("c_m"), C_w=axis("C_w"), C_m=axis("C_m"),
        beta=float(grid_cfg.get("beta", 1.0)),
    )
    y_grid = default_y_grid(data, int(cfg.get("y_grid_size", 50)))
    result = identified_set(grid, data, noise, y_grid)

    base = cfg.get("out") or "identify"
    lines = ["re_w,re_m,c_w,c_m,C_w,C_m,worst_slack"]
    for d in result.diagnostics:
        if d["accepted"]:
            c = d["candidate"]
            lines.append(
                f"{_fmt(c.re_w)},{_fmt(c.re_m)},{_fmt(c.c_w)},{_fmt(c.c_m)},"
                f"{_fmt(c.C_w)},{_fmt(c.C_m)},{_fmt(d['worst_slack'])}"
            )
    with open(base + ".csv", "w") as fh:
        fh.write("\n".join(lines) + "\n")
    summary = {
        "n_candidates": len(result.diagnostics),
        "n_accepted": len(result.accepted),
        "n_rejected_inequalities": sum(
            1 for d in result.diagnostics if d["n_violations"] > 0
        ),
        "n_rejected_equilibrium": sum(
            1 for d in result.diagnostics if not d["equilibrium_ok"]
        ),
        "noise": {"family": noise.family, "scale": noise.scale},
    }
    with open(base + ".json", "w") as fh:
        fh.write(_dumps(summary))
    return EXIT_OK


_COMMANDS = {
    "solve": cmd_solve,
    "enumerate": cmd_enumerate,
    "phase": cmd_phase,
    "basins": cmd_basins,
    "policy": cmd_policy,
    "sweep": cmd_sweep,
    "oracle": cmd_oracle,
    "identify": cmd_identify,
}


#: flag -> (the subcommands that read it, its argparse spec); every
#: subcommand reads --config and --out
_FLAGS = {
    "seed": (("oracle",), {"type": int, "help": "random seed (default 0)"}),
    "resolution": (
        ("solve", "enumerate", "phase", "basins"),
        {"type": int, "help": "grid resolution (defaults per command)"},
    ),
    "tol": (("solve", "enumerate"), {"type": float, "help": "solver tolerance (default 1e-10)"}),
}


@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once: parsing leaves it unchanged, and
    a build per call grew memory by about 2 KB a call, up to 1.2 MB."""
    parser = argparse.ArgumentParser(
        prog="roylab",
        description="Two-group sector selection lab: equilibria, dynamics, policy, identification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
        ("solve", "closed form when available, enumeration otherwise"),
        ("enumerate", "all equilibria on the unit square (default resolution 64)"),
        ("phase", "vector field + nullclines to OUT.csv / OUT.svg (default resolution 24)"),
        ("basins", "basin map to OUT.csv / OUT.svg (default resolution 32)"),
        ("policy", "before/after equilibrium comparison for one policy"),
        ("sweep", "1-D parameter sweep with equilibrium counts (bifurcation data)"),
        ("oracle", "finite-agent best-response run (default 10000 agents per group)"),
        ("identify", "moment-inequality grid search over structural parameters"),
    ]:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON config file; flags override its values")
        p.add_argument("--out", help="output path (basename for csv+svg commands); default stdout")
        for flag, (readers, spec) in _FLAGS.items():
            if name in readers:
                p.add_argument(f"--{flag}", **spec)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _load_config(args.config)
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT

    for key in ("out", *_FLAGS):
        val = getattr(args, key, None)
        if val is not None:
            cfg[key] = val

    try:
        return _COMMANDS[args.command](cfg)
    except DataInconsistentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INCONSISTENT
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except OSError as exc:
        print(f"error: I/O failure: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
