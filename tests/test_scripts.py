"""Smoke tests of the experiment scripts, run as a user runs them."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args, cwd=ROOT):
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_phase_diagram_writes_the_seventeen_point_portrait(tmp_path):
    base = tmp_path / "portrait"
    out = run_script(
        "phase_diagram.py", "--config", str(ROOT / "configs" / "fig4-rescaled.json"),
        "--out", str(base),
    )
    assert "17 equilibria (7 stable)" in out
    assert Path(f"{base}.csv").read_text().startswith("r_w,r_m,v_w,v_m")
    assert Path(f"{base}.svg").read_text().lstrip().startswith("<svg")


def test_preference_sweep_gains_a_stable_point_across_the_threshold():
    out = run_script("preference_sweep.py", "--count", "3", "--lo", "0.75", "--hi", "0.93")
    lines = out.strip().splitlines()
    assert lines[0] == "value,n_equilibria,n_stable,settled_r_w,settled_r_m,tipped"
    rows = [line.split(",") for line in lines[1:]]
    assert [float(r[0]) for r in rows] == [0.75, 0.84, 0.93]
    # the contrarian corner equilibrium appears at c_w* = 0.84
    assert int(rows[2][2]) == int(rows[0][2]) + 1
