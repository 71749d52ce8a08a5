import json
import re
from pathlib import Path

import numpy as np
import pytest

from roylab.cli import main
from roylab.identification import simulate_observed_data
from roylab.model import make_params

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

BENCH_PARAMS = {
    "mu_w": 1.0, "mu_m": 1.0, "c_w": 0.1, "c_m": 0.1,
    "C_w": 1.0, "C_m": 1.0, "beta": 1.0, "re_w": 0.4, "re_m": 0.6,
    "sigma": 1.0,
}


def write_config(tmp_path, name, body):
    path = tmp_path / name
    path.write_text(json.dumps(body))
    return str(path)


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for sub in ("solve", "enumerate", "phase", "basins", "policy", "sweep", "oracle", "identify"):
        assert sub in out


@pytest.mark.parametrize(
    "sub", ["solve", "enumerate", "phase", "basins", "policy", "sweep", "oracle", "identify"]
)
def test_subcommand_help_exits_zero(sub, capsys):
    with pytest.raises(SystemExit) as exc:
        main([sub, "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "--config" in out and "default" in out


#: the flags each subcommand reads besides --config and --out
READS = {
    "solve": {"--resolution"},
    "enumerate": {"--resolution"},
    "phase": {"--resolution"},
    "basins": {"--resolution"},
    "policy": set(),
    "sweep": set(),
    "oracle": {"--seed"},
    "identify": set(),
}


@pytest.mark.parametrize("sub", sorted(READS))
def test_subcommand_help_lists_only_the_flags_it_reads(sub, capsys):
    with pytest.raises(SystemExit):
        main([sub, "--help"])
    flags = set(re.findall(r"--[a-z]+", capsys.readouterr().out))
    assert flags == {"--help", "--config", "--out"} | READS[sub]


@pytest.mark.parametrize("argv", [["policy", "--resolution", "32"], ["identify", "--seed", "1"]])
def test_flag_the_subcommand_does_not_read_exits_2(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def test_solve_closed_form_benchmark(tmp_path, capsys):
    cfg = write_config(tmp_path, "cfg.json", {"command": "solve", "params": BENCH_PARAMS})
    assert main(["solve", "--config", cfg]) == 0
    points = json.loads(capsys.readouterr().out)
    assert len(points) == 1
    assert points[0]["r_w"] == pytest.approx(0.375, abs=1e-12)
    assert points[0]["r_m"] == pytest.approx(0.625, abs=1e-12)
    assert points[0]["stability"] == "stable"


def test_solve_zero_preference_config(tmp_path, capsys):
    params = dict(BENCH_PARAMS, c_w=0.0, c_m=0.0)
    cfg = write_config(tmp_path, "cfg.json", {"command": "solve", "params": params})
    assert main(["solve", "--config", cfg]) == 0
    points = json.loads(capsys.readouterr().out)
    assert len(points) == 1
    assert points[0]["r_w"] == pytest.approx(0.4)


def test_enumerate_seventeen_config(tmp_path, capsys):
    params = dict(BENCH_PARAMS, c_w=0.011, c_m=0.011, beta=0.05)
    cfg = write_config(
        tmp_path, "cfg.json",
        {"command": "enumerate", "params": params, "resolution": 64},
    )
    assert main(["enumerate", "--config", cfg]) == 0
    points = json.loads(capsys.readouterr().out)
    assert len(points) == 17
    stable = [p for p in points if p["stability"] in ("stable", "boundary-stable")]
    assert len(stable) == 7


@pytest.mark.parametrize("sub", ["enumerate", "phase"])
def test_outputs_are_byte_identical_between_runs(tmp_path, sub):
    cfg = write_config(tmp_path, "cfg.json", {"command": sub, "params": BENCH_PARAMS,
                                              "resolution": 16})
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main([sub, "--config", cfg, "--out", str(out1)]) == 0
    assert main([sub, "--config", cfg, "--out", str(out2)]) == 0
    for suffix in (".csv", ".svg") if sub == "phase" else ("",):
        first = (tmp_path / f"a{suffix}").read_bytes()
        assert first and first == (tmp_path / f"b{suffix}").read_bytes()


def test_phase_writes_csv_and_svg(tmp_path):
    cfg = write_config(tmp_path, "cfg.json", {"params": BENCH_PARAMS, "resolution": 16})
    base = str(tmp_path / "pp")
    assert main(["phase", "--config", cfg, "--out", base]) == 0
    csv_text = (tmp_path / "pp.csv").read_text()
    assert csv_text.splitlines()[0] == "r_w,r_m,v_w,v_m"
    svg = (tmp_path / "pp.svg").read_text()
    assert svg.startswith("<svg") and "polyline" in svg and "circle" in svg
    # one stable equilibrium: exactly one red marker
    assert svg.count("#d62728") == 1


def test_phase_svg_marker_colors_match_stability(tmp_path):
    params = dict(BENCH_PARAMS, c_w=0.011, c_m=0.011, beta=0.05)
    cfg = write_config(tmp_path, "cfg.json", {"params": params, "resolution": 16})
    base = str(tmp_path / "pp17")
    assert main(["phase", "--config", cfg, "--out", base]) == 0
    svg = (tmp_path / "pp17.svg").read_text()
    assert svg.count('fill="#d62728"') == 7
    assert svg.count('fill="#000000"') == 10


def test_basins_csv_layout(tmp_path):
    params = dict(BENCH_PARAMS, c_w=3.5, c_m=3.5, beta=2.0, re_w=0.7, re_m=0.5)
    cfg = write_config(tmp_path, "cfg.json", {"params": params, "resolution": 16})
    base = str(tmp_path / "bm")
    assert main(["basins", "--config", cfg, "--out", base]) == 0
    lines = (tmp_path / "bm.csv").read_text().splitlines()
    assert lines[0] == "r_w,r_m,basin_id"
    assert len(lines) == 1 + 16 * 16
    ids = {int(l.split(",")[2]) for l in lines[1:]}
    assert ids == {0}


def test_policy_quota_reports_tipping(tmp_path, capsys):
    params = dict(BENCH_PARAMS, c_w=0.011, c_m=0.011, beta=0.05)
    cfg = write_config(
        tmp_path, "cfg.json",
        {
            "params": params,
            "policy": {"type": "quota", "floor": 0.1},
            "observed": [0.0, 1.0],
        },
    )
    assert main(["policy", "--config", cfg]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["tipped"] is True
    assert report["settled_after"]["kind"] == "interior"


def test_policy_zero_tax_not_tipped(tmp_path, capsys):
    cfg = write_config(
        tmp_path, "cfg.json",
        {
            "params": BENCH_PARAMS,
            "policy": {"type": "flat_tax", "tau": 0.0},
            "observed": [0.375, 0.625],
        },
    )
    assert main(["policy", "--config", cfg]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["tipped"] is False


def test_policy_observed_off_equilibrium_exits_4(tmp_path, capsys):
    cfg = write_config(
        tmp_path, "cfg.json",
        {
            "params": BENCH_PARAMS,
            "policy": {"type": "flat_tax", "tau": 0.1},
            "observed": [0.2, 0.9],
        },
    )
    assert main(["policy", "--config", cfg]) == 4


def test_unknown_config_key_exits_2(tmp_path):
    cfg = write_config(tmp_path, "cfg.json", {"params": BENCH_PARAMS, "mystery": 1})
    assert main(["solve", "--config", cfg]) == 2


def test_config_key_the_subcommand_does_not_read_exits_2(tmp_path):
    # the same keys that are flags elsewhere: the config and the flags agree
    cfg = write_config(tmp_path, "cfg.json", {
        "params": BENCH_PARAMS, "policy": {"type": "flat_tax", "tau": 0.0},
        "observed": [0.375, 0.625], "resolution": 3, "tol": -5, "seed": "x",
    })
    assert main(["policy", "--config", cfg]) == 2


@pytest.mark.parametrize("sub", ["enumerate", "solve", "phase", "basins"])
@pytest.mark.parametrize("name", ["fig4", "fig4-rescaled", "fig5-left", "fig5-right"])
def test_bundled_configs_run_under_every_census_subcommand(tmp_path, sub, name):
    # the bundled configs name "command": "enumerate", which no subcommand
    # compares with itself; basins runs at resolution 16 to keep the test short
    argv = [sub, "--config", str(CONFIG_DIR / f"{name}.json"), "--out", str(tmp_path / "out")]
    if sub == "basins":
        argv += ["--resolution", "16"]
    assert main(argv) == 0


@pytest.mark.parametrize("sub", ["solve", "enumerate"])
def test_tol_flag_and_key_exit_2(tmp_path, sub):
    # the census merges points at a fixed radius; there is no tolerance
    cfg = write_config(tmp_path, "cfg.json", {"params": BENCH_PARAMS})
    with pytest.raises(SystemExit) as exc:
        main([sub, "--config", cfg, "--tol", "1e-10"])
    assert exc.value.code == 2
    keyed = write_config(tmp_path, "keyed.json", {"params": BENCH_PARAMS, "tol": 1e-10})
    assert main([sub, "--config", keyed]) == 2


def test_threads_flag_and_key_exit_2(tmp_path):
    # basins integrates every cell in one batch; there is no worker count
    cfg = write_config(tmp_path, "cfg.json", {"params": BENCH_PARAMS})
    with pytest.raises(SystemExit) as exc:
        main(["basins", "--config", cfg, "--threads", "2"])
    assert exc.value.code == 2
    keyed = write_config(tmp_path, "keyed.json", {"params": BENCH_PARAMS, "threads": 2})
    assert main(["basins", "--config", keyed]) == 2


def test_bad_params_exit_2(tmp_path):
    bad = dict(BENCH_PARAMS, mu_w=-1.0)
    cfg = write_config(tmp_path, "cfg.json", {"params": bad})
    assert main(["solve", "--config", cfg]) == 2


def test_missing_config_file_exits_3():
    assert main(["solve", "--config", "/nonexistent/cfg.json"]) == 3


def test_sweep_csv(tmp_path, capsys):
    params = dict(BENCH_PARAMS, c_w=0.7, c_m=0.4, re_w=0.7, re_m=0.5)
    cfg = write_config(
        tmp_path, "cfg.json",
        {
            "params": params,
            "sweep": {"param": "c_w", "lo": 0.7, "hi": 1.0, "count": 7},
        },
    )
    assert main(["sweep", "--config", cfg]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "value,n_equilibria,n_stable,settled_r_w,settled_r_m,tipped"
    assert len(lines) == 8
    stable_counts = [int(l.split(",")[2]) for l in lines[1:]]
    assert stable_counts[-1] == stable_counts[0] + 1


def test_oracle_summary(tmp_path, capsys):
    cfg = write_config(
        tmp_path, "cfg.json",
        {
            "params": BENCH_PARAMS,
            "oracle": {"n_w": 4000, "n_m": 4000},
            "seed": 7,
            "rounds_csv": str(tmp_path / "rounds.csv"),
        },
    )
    assert main(["oracle", "--config", cfg]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["converged"] is True
    assert abs(summary["r_w"] - 0.375) < 5.0 / np.sqrt(4000)
    rounds = (tmp_path / "rounds.csv").read_text().splitlines()
    assert rounds[0] == "round,r_w,r_m"
    assert len(rounds) == summary["rounds"] + 2


def test_identify_round_trip(tmp_path):
    truth = make_params(**{k: BENCH_PARAMS[k] for k in
                           ("mu_w", "mu_m", "c_w", "c_m", "C_w", "C_m", "beta", "re_w", "re_m")})
    data = simulate_observed_data(truth, 20_000, seed=13)
    (tmp_path / "data.csv").write_text(data.to_csv())
    sidecar = dict(data.sidecar_dict(), noise={"family": "degenerate", "scale": 0.0})
    (tmp_path / "side.json").write_text(json.dumps(sidecar))
    cfg = write_config(
        tmp_path, "cfg.json",
        {
            "data_csv": str(tmp_path / "data.csv"),
            "sidecar": str(tmp_path / "side.json"),
            "grid": {
                "re_w": [0.3, 0.5, 3], "re_m": [0.6, 0.6, 1],
                "c_w": [0.1, 0.1, 1], "c_m": [0.1, 0.1, 1],
                "C_w": [1.0, 1.0, 1], "C_m": [1.0, 1.0, 1],
            },
        },
    )
    base = str(tmp_path / "ident")
    assert main(["identify", "--config", cfg, "--out", base]) == 0
    rows = (tmp_path / "ident.csv").read_text().splitlines()
    assert rows[0] == "re_w,re_m,c_w,c_m,C_w,C_m,worst_slack"
    accepted = [r.split(",")[0] for r in rows[1:]]
    assert "0.40000000000000002" in accepted or "0.4" in accepted
    summary = json.loads((tmp_path / "ident.json").read_text())
    assert summary["n_candidates"] == 3
    assert summary["n_accepted"] >= 1


def test_identify_malformed_row_exits_2(tmp_path, capsys):
    (tmp_path / "data.csv").write_text("type,sector,income\nw,1,2.0\nq,1,3.0\n")
    sidecar = {"r_w_star": 0.375, "r_m_star": 0.625, "pop_ratio": 1.0, "min_wage": 1.0}
    (tmp_path / "side.json").write_text(json.dumps(sidecar))
    cfg = write_config(
        tmp_path, "cfg.json",
        {
            "data_csv": str(tmp_path / "data.csv"),
            "sidecar": str(tmp_path / "side.json"),
            "grid": {
                "re_w": [0.4, 0.4, 1], "re_m": [0.6, 0.6, 1],
                "c_w": [0.1, 0.1, 1], "c_m": [0.1, 0.1, 1],
                "C_w": [1.0, 1.0, 1], "C_m": [1.0, 1.0, 1],
            },
        },
    )
    assert main(["identify", "--config", cfg]) == 2
    assert "row 3" in capsys.readouterr().err
