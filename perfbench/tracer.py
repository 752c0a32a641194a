"""Per-layer tracing of gradsel from outside the program.

The tracer wraps the public functions and methods of each layer module and
aggregates, per name, the call count, the total time and the self time (total
minus the time of nested wrapped calls). It never records a span per call.

Modules import functions by name (``from .trainer import eval_loss``), so a
function has one binding per importing module. A wrapper placed only in the
defining module would miss calls made through the other bindings; the tracer
therefore replaces every binding of a wrapped function in every gradsel module.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import os
import sys
import time
from collections import defaultdict

PACKAGE = "gradsel"
LAYER_MODULES = ("project", "estimate", "trainer", "model", "linearize", "taskgen", "select", "bench")

# Names reported under one aggregate instead of their own.
ALIASES = {
    "select.forward_select": "select.driver",
    "select.ensemble_select": "select.driver",
    "select.random_ensemble": "select.driver",
    "select.fraction_grid_select": "select.driver",
    "select.threshold_select": "select.driver",
    "select.compute_T": "select.driver",
    "select.select_ds": "select.driver",
    "select.Evaluator.__call__": "select.evaluator",
}


def _file_bytes(args):
    """Size of the artifact a save_*/load_* function took as its first argument."""
    try:
        return os.path.getsize(args[0])
    except (IndexError, TypeError, OSError):
        return 0


def _projection(args, result):
    projector = args[0]
    if projector.mode != "gaussian":
        return {}
    # each call regenerates all of P from the seed: computed, not measured
    return {"project.p_bytes": projector.p * projector.d * 8, "project.p_regen_ratio": 1}


def _fit(args, result):
    return {"trainer.epochs": result.epochs_run, "trainer.forward_passes": result.forward_passes}


# Work counts taken from a wrapped call's arguments and result, by layer name.
COUNTERS = {
    "project.lift": _projection,
    "project.project_many": lambda a, r: {**_projection(a, r), "project.project_many.rows": len(a[1])},
    "estimate.solve_subset": lambda a, r: {"estimate.iters": r[1], "estimate.nonconverged": int(not r[2])},
    "linearize.rows_for": lambda a, r: {"estimate.rows": len(r)},
    "trainer.meta_train": _fit,
    "trainer.fine_tune_subset": _fit,
    "trainer.eval_loss": lambda a, r: {"trainer.eval_loss.rows": len(a[2])},
    "model.loss_gradient": lambda a, r: {"model.loss_gradient.rows": len(a[2])},
}


class Tracer:
    """Wraps gradsel's layer functions while installed; ``counts`` holds the
    running totals, keyed by metric name."""

    def __init__(self):
        self.counts: dict[str, float] = defaultdict(float)
        self._child_time: list[float] = []  # one accumulator per open call
        self._open: dict[str, int] = defaultdict(int)
        self._undo: list[tuple[object, str, object]] = []

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, layer, fn):
        counts, child_time, open_calls = self.counts, self._child_time, self._open
        counter = COUNTERS.get(layer)
        is_io = layer.rsplit(".", 1)[-1].startswith(("save_", "load_"))
        perf_counter = time.perf_counter

        def wrapper(*args, **kwargs):
            child_time.append(0.0)
            open_calls[layer] += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - t0
                nested = child_time.pop()
                open_calls[layer] -= 1
                counts[layer + ".calls"] += 1
                counts[layer + ".self_s"] += elapsed - nested
                if not open_calls[layer]:  # recursion and aliases count once
                    counts[layer + ".s"] += elapsed
                if child_time:
                    child_time[-1] += elapsed
            if counter is not None:
                for key, value in counter(args, result).items():
                    counts[key] += value
            if is_io:
                counts[layer + ".bytes"] += _file_bytes(args)
            return result

        return functools.wraps(fn)(wrapper)

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every public function and method of the layer modules, at
        every module that binds it."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        modules = {
            name: mod
            for name, mod in list(sys.modules.items())
            if name == PACKAGE or name.startswith(PACKAGE + ".")
        }
        wrapped_functions: dict[object, object] = {}
        for short in LAYER_MODULES:
            mod = modules[f"{PACKAGE}.{short}"]
            for attr, obj in vars(mod).items():
                if getattr(obj, "__module__", None) != mod.__name__ or attr.startswith("_"):
                    continue
                if inspect.isfunction(obj):
                    layer = ALIASES.get(f"{short}.{attr}", f"{short}.{attr}")
                    wrapped_functions[obj] = self._wrap(layer, obj)
                elif inspect.isclass(obj):
                    for mattr, method in list(vars(obj).items()):
                        name = f"{short}.{attr}.{mattr}"
                        if not inspect.isfunction(method):
                            continue
                        if mattr.startswith("_") and name not in ALIASES:
                            continue
                        layer = ALIASES.get(name, f"{short}.{mattr}")
                        self._set(obj, mattr, self._wrap(layer, method))
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped_functions:
                    self._set(mod, attr, wrapped_functions[obj])

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def snapshot(self) -> dict[str, float]:
        return dict(self.counts)


def delta(after: dict[str, float], before: dict[str, float]) -> dict[str, float]:
    """Per-name difference of two snapshots: what one stage added."""
    return {k: v - before.get(k, 0.0) for k, v in after.items() if v != before.get(k, 0.0)}


def self_time(counts: dict[str, float]) -> float:
    """Time attributed to some layer: the sum of all self times."""
    return sum(v for k, v in counts.items() if k.endswith(".self_s"))
