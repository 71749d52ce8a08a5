"""Per-layer tracing for the benchmark's traced run.

Every public function of the roylab modules is wrapped, and every module
attribute that holds the original (the names other modules imported, such
as `policy.integrate` or `cli.basins_svg`) is rebound to the wrapper, so
calls between layers pass through it too. A wrapper counts calls, work
items where the layer has them, and self time: its wall time minus the
wall time of the wrapped calls made inside it.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from collections import defaultdict

import numpy as np

LAYERS = ("model", "equilibrium", "dynamics", "policy", "abm", "identification", "cli", "render")

#: the per-layer metrics a traced run reports, all per round
LAYER_METRICS = [
    "model.advantage_cdf.calls", "model.advantage_cdf.points", "model.advantage_cdf.self_s",
    "model.advantage_quantile.calls", "model.advantage_quantile.self_s",
    "model.advantage_spec.builds", "model.g_interior.self_s",
    "equilibrium.enumerate_equilibria.calls", "equilibrium.enumerate_equilibria.self_s",
    "equilibrium.residual_arrays.calls", "equilibrium.residual_arrays.points",
    "equilibrium.residual_arrays.self_s",
    "equilibrium.classify_stability.calls", "equilibrium.classify_stability.self_s",
    "equilibrium.verify_corner.calls", "equilibrium.verify_corner.self_s",
    "dynamics.integrate.calls", "dynamics.integrate.steps", "dynamics.integrate.self_s",
    "dynamics.basins.self_s",
    "policy.compare.self_s", "policy.sweep_rows.self_s",
    "abm.sample_population.self_s", "abm.run_to_convergence.self_s",
    "abm.best_response_round.calls", "abm.best_response_round.switches",
    "abm.best_response_round.self_s",
    "identification.check_inequalities.calls", "identification.check_inequalities.self_s",
    "identification.equilibrium_consistent.calls", "identification.equilibrium_consistent.self_s",
    "identification.identified_set.self_s",
    "cli.main.calls", "cli.main.self_s", "render.self_s",
]


#: work counted per call beyond the call itself: function -> (counter, measure of one call)
_WORK = {
    "model.advantage_cdf": ("points", lambda a, kw, out: int(np.size(a[1]))),
    "equilibrium.residual_arrays": ("points", lambda a, kw, out: int(np.broadcast(a[1], a[2]).size)),
    "dynamics.integrate": ("steps", lambda a, kw, out: len(out.times) - 1),
    "abm.best_response_round": ("switches", lambda a, kw, out: int(out[1])),
}


class Tracer:
    """Counts and self times of the wrapped functions, kept in memory."""

    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.work: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self._children: list[float] = []

    def reset(self) -> None:
        self.calls.clear()
        self.work.clear()
        self.self_s.clear()

    def wrap(self, name: str, fn):
        work = _WORK.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._children.append(0.0)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                total = time.perf_counter() - t0
                self.self_s[name] += total - self._children.pop()
                self.calls[name] += 1
                if self._children:
                    self._children[-1] += total
            if work is not None:
                self.work[f"{name}.{work[0]}"] += work[1](args, kwargs, out)
            return out

        return traced

    def install(self) -> None:
        """Wrap the public functions of every layer and rebind imported names."""
        modules = [importlib.import_module("roylab")]
        modules += [importlib.import_module(f"roylab.{layer}") for layer in LAYERS]
        originals = {}
        for mod in modules[1:]:
            layer = mod.__name__.rsplit(".", 1)[1]
            public = getattr(mod, "__all__", None) or [
                n for n in vars(mod) if not n.startswith("_")
            ]
            for name in public:
                fn = getattr(mod, name)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    originals[id(fn)] = self.wrap(f"{layer}.{name}", fn)
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                if id(val) in originals and inspect.isfunction(val):
                    setattr(mod, attr, originals[id(val)])
        # every AdvantageSpec construction runs its validating __post_init__
        spec = importlib.import_module("roylab.model").AdvantageSpec
        spec.__post_init__ = self.wrap("model.advantage_spec", spec.__post_init__)

    def metrics(self, rounds: int) -> dict[str, float]:
        """Per-round figures: calls, work counts and self times over `rounds`."""
        out = {}
        for name, n in self.calls.items():
            out[f"{name}.calls"] = n / rounds
            out[f"{name}.self_s"] = self.self_s[name] / rounds
        for name, n in self.work.items():
            out[name] = n / rounds
        out["model.advantage_spec.builds"] = out.pop("model.advantage_spec.calls", 0.0)
        out.pop("model.advantage_spec.self_s", None)
        out["render.self_s"] = sum(
            (v for k, v in out.items() if k.startswith("render.") and k.endswith(".self_s")), 0.0
        )
        return out

    def dump(self, path, rounds: int) -> None:
        """Write the totals and per-round figures of every wrapped function."""
        with open(path, "w") as fh:
            json.dump(
                {
                    "rounds": rounds,
                    "calls": dict(sorted(self.calls.items())),
                    "work": dict(sorted(self.work.items())),
                    "self_s": dict(sorted(self.self_s.items())),
                    "per_round": dict(sorted(self.metrics(rounds).items())),
                },
                fh,
                indent=1,
            )
