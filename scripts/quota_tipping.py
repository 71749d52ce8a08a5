#!/usr/bin/env python3
"""Quota experiment: nudge each stable boundary equilibrium by a 10% floor.

Run on the weak-preference thin-tail configuration (17 equilibria) to watch
every segregated rest point tip into the unique interior equilibrium.
"""

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from roylab.dynamics import nudge_and_settle
from roylab.equilibrium import enumerate_equilibria
from roylab.model import ModelParams


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--config", default="configs/fig4-rescaled.json")
    ap.add_argument("--floor", type=float, default=0.1)
    args = ap.parse_args()

    with open(args.config) as fh:
        cfg = json.load(fh)
    params = ModelParams.from_dict(cfg["params"])
    eqs = enumerate_equilibria(params)
    boundary_stable = [e for e in eqs if e.stability == "boundary-stable"]
    print(f"{len(eqs)} equilibria, {len(boundary_stable)} stable on the boundary")
    for eq in boundary_stable:
        res = nudge_and_settle(params, eq.comp, args.floor, equilibria=eqs)
        print(
            f"  ({eq.comp.r_w:.4f}, {eq.comp.r_m:.4f}) --floor {args.floor:.2f}--> "
            f"({res.settled.comp.r_w:.4f}, {res.settled.comp.r_m:.4f}) "
            f"[{res.settled.kind}]{' TIPPED' if res.tipped else ''}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
