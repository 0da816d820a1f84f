"""Layer probes installed from outside the library, around the calls the CLI makes.

Each target names a function that a liborlab module resolves at call time
(a module global, a ``_LMM_SCHEMES`` entry, or an attribute of a module that
``liborlab.experiment`` imports whole).  Module attributes reached through
``experiment`` are replaced on a proxy module, so calls made inside the
library itself stay unwrapped.  A target that no longer exists raises
``HarnessError``: a refactor must update this table rather than silently lose
a layer.

Spans are kept in memory as ``[name, start, end, parent, run_id, count]`` and
written by the launcher when the command ends; ``self_times`` turns them into
self time per span name.
"""

from __future__ import annotations

import importlib
import time
import types

import numpy as np

HARNESS_EXIT = 97

# (span name, owner, attribute); the layer is the span name's prefix
TARGETS = (
    ("config.parse_config", "cli", "parse_config"),
    ("config.override", "cli", "override"),
    ("experiment.run_compare", "cli", "run_compare"),
    ("experiment.run_verify", "cli", "run_verify"),
    ("experiment.run_price", "cli", "run_price"),
    ("experiment.run_calibrate_mfm", "cli", "run_calibrate_mfm"),
    ("levy.simulate_driver", "experiment", "simulate_driver"),
    ("lmm.simulate_exact", "experiment._LMM_SCHEMES", "lmm-exact"),
    ("drift_approx.frozen", "experiment._LMM_SCHEMES", "lmm-frozen"),
    ("drift_approx.picard1", "experiment._LMM_SCHEMES", "lmm-picard1"),
    ("drift_approx.taylor", "experiment._LMM_SCHEMES", "lmm-taylor"),
    ("forward_price.simulate_fpm", "experiment", "simulate_fpm"),
    ("forward_price.caplet_fourier", "experiment", "caplet_price_fourier"),
    ("forward_price.negative_rate_fraction", "experiment", "negative_rate_fraction"),
    ("pricing.mc_caplet", "experiment", "mc_caplet"),
    ("pricing.implied_vol", "experiment", "implied_vol"),
    ("pricing.implied_vol", "pricing", "implied_vol"),
    ("markov_functional.calibrate", "experiment.markov_functional", "calibrate_backward"),
    ("markov_functional.caplet", "experiment.markov_functional", "caplet_value"),
    ("markov_functional.bond_repricing", "experiment.markov_functional", "initial_bond_repricing"),
    ("affine_libor.fit", "experiment.affine_libor", "fit_initial_curve"),
    ("affine_libor.simulate", "experiment.affine_libor", "simulate_affine_paths"),
    ("affine_libor.caplet_fourier", "experiment.affine_libor", "caplet_price_fourier"),
    ("affine_libor.libor_value", "experiment.affine_libor", "libor_value"),
    ("affine_libor.forward_measure_mgf", "experiment.affine_libor", "forward_measure_mgf"),
    ("fourier.damped_call", "affine_libor", "damped_call_expectation"),
    ("fourier.damped_call", "forward_price", "damped_call_expectation"),
)

# layers whose first call ends set-up (everything but config and experiment)
WORK_LAYERS = (
    "levy", "lmm", "drift_approx", "forward_price", "pricing",
    "markov_functional", "affine_libor", "fourier",
)


def layer_of(span_name: str) -> str:
    return span_name.split(".", 1)[0]


class HarnessError(RuntimeError):
    """The library no longer exposes a name the benchmark wraps."""


def _path_steps(args, result):
    # (paths, steps) of a path-set simulation called as f(model, grid, n_paths, seed, ...)
    return [int(args[2]), len(args[1]) - 1]


def _nodes_kept(args, result):
    return sum(len(result.x_nodes[i]) for i in range(1, result.tenor.n))


# counts recorded with a span, from its arguments and result
COUNTS = {
    "lmm.simulate_exact": _path_steps,
    "markov_functional.calibrate": _nodes_kept,
}


class Recorder:
    """Spans of one CLI command (``trace``) or only its first work call."""

    def __init__(self, run_id: int, trace: bool):
        self.run_id = run_id
        self.trace = trace
        self.first_call = None  # time.monotonic() of the first work-layer call
        self.spans = []
        self._stack = []

    def _open(self, name):
        rec = [name, time.monotonic(), 0.0, self._stack[-1] if self._stack else -1, self.run_id, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec):
        rec[2] = time.monotonic()
        self._stack.pop()

    def _mark_first_call(self):
        if self.first_call is None:
            self.first_call = time.monotonic()

    def wrap(self, name, fn):
        count = COUNTS.get(name)
        first = layer_of(name) in WORK_LAYERS

        def probe(*args, **kwargs):
            if first:
                self._mark_first_call()
            return fn(*args, **kwargs)

        def traced(*args, **kwargs):
            if first:
                self._mark_first_call()
            rec = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if count is not None:
                rec[5] = count(args, result)
            return result

        return traced if self.trace else probe

    def wrap_damped(self, name, fn, moment_span):
        """Span around one transform quote, counting the integrand points it evaluates."""

        def traced(moment_fn, *args, **kwargs):
            nodes = 0

            def counted(w):
                nonlocal nodes
                nodes += np.size(w)
                rec = self._open(moment_span)
                try:
                    return moment_fn(w)
                finally:
                    self._close(rec)

            rec = self._open(name)
            try:
                return fn(counted, *args, **kwargs)
            finally:
                self._close(rec)
                rec[5] = nodes

        return traced


def _resolve(owner: str, proxies: dict):
    if owner in proxies:
        return proxies[owner]
    head, *rest = owner.split(".")
    obj = importlib.import_module(f"liborlab.{head}")
    for attr in rest:
        if not hasattr(obj, attr):
            raise HarnessError(f"liborlab.{owner} is gone; update perfbench/tracing.py")
        sub = getattr(obj, attr)
        if isinstance(sub, types.ModuleType):
            proxy = types.ModuleType(sub.__name__)
            proxy.__dict__.update(sub.__dict__)
            setattr(obj, attr, proxy)
            sub = proxy
        obj = sub
    proxies[owner] = obj
    return obj


def install(recorder: Recorder) -> None:
    """Wrap every target; only work-layer targets when not tracing."""
    proxies = {}
    for name, owner, attr in TARGETS:
        layer = layer_of(name)
        if not recorder.trace and (layer not in WORK_LAYERS or layer == "fourier"):
            continue
        obj = _resolve(owner, proxies)
        is_dict = isinstance(obj, dict)
        if (attr not in obj) if is_dict else not hasattr(obj, attr):
            raise HarnessError(f"liborlab.{owner}.{attr} is gone; update perfbench/tracing.py")
        fn = obj[attr] if is_dict else getattr(obj, attr)
        if layer == "fourier":
            wrapped = recorder.wrap_damped(name, fn, f"{owner}.moment")
        else:
            wrapped = recorder.wrap(name, fn)
        if is_dict:
            obj[attr] = wrapped
        else:
            setattr(obj, attr, wrapped)


def self_times(spans) -> list:
    """Self time of each span: its duration minus its children's durations."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own
