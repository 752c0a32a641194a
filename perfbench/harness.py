"""Workloads, stage runner and correctness checks of the gradsel benchmark.

Every stage runs in-process through ``gradsel.cli.main(argv)``, exactly as the
command line would run it, inside a scratch run directory of the checkout.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import tracer as tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
REFERENCE = Path(__file__).resolve().parent / "reference.json"

SETUP = (("gen",), ("meta-train",), ("cache",))
SETUP_REPEATS = 10
RESCORED = 3  # leading subsets of a stage's output re-scored through `estimate`
REL_TOL_RESCORE = 1e-9
REL_TOL_REFERENCE = 1e-6


@dataclass(frozen=True)
class Stage:
    name: str
    argv: tuple[str, ...]
    seeded: bool = False  # its output depends on the workload seed


@dataclass(frozen=True)
class Workload:
    name: str
    stages: tuple[Stage, ...]
    seeded_keys: tuple[str, ...]  # config seeds that follow --seed; the rest keep their defaults
    scored_by: str  # the call that scores one subset, timed per call in untraced runs


# Why each workload exists, and why only some seeds follow --seed: see README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "gauss-select",
            (
                Stage("select_re", ("select", "--select.method", "re"), seeded=True),
                Stage("select_fs", ("select",)),
            ),
            seeded_keys=("select.seed",),
            scored_by="evaluator",
        ),
        Workload(
            "addition",
            (Stage("addition", ("bench", "--exp", "addition", "--bench.seed", "21")),),
            seeded_keys=(),
            scored_by="evaluator",
        ),
        Workload(
            "gauss-oracle",
            (Stage("relerr", ("bench", "--exp", "relerr", "--bench.relerr_subsets", "100")),),
            seeded_keys=("finetune.seed",),
            scored_by="estimate_subset",
        ),
    )
}

STAGE_NAMES = ("gen", "meta-train", "cache") + tuple(
    s.name for w in WORKLOADS.values() for s in w.stages
)


class ProgramMissing(RuntimeError):
    pass


def load_program():
    """Import gradsel from the checkout's src/ tree."""
    if not (SRC / "gradsel" / "cli.py").is_file():
        raise ProgramMissing(f"no gradsel sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import gradsel.cli

    return gradsel.cli


def _rel_diff(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def _subset_arg(subset) -> str:
    return ",".join(str(t) for t in sorted(subset))


@contextlib.contextmanager
def _timed_calls(owner, attr, samples: list[float]):
    """Append the duration of every call of owner.attr to samples."""
    original = owner.__dict__[attr]
    perf_counter = time.perf_counter

    def timed(*args, **kwargs):
        t0 = perf_counter()
        try:
            return original(*args, **kwargs)
        finally:
            samples.append(perf_counter() - t0)

    setattr(owner, attr, timed)
    try:
        yield
    finally:
        setattr(owner, attr, original)


@dataclass
class Result:
    workload: str
    seed: int | None
    setup_s: list[float] = field(default_factory=list)
    stage_s: dict[str, list[float]] = field(default_factory=dict)
    subset_s: list[float] = field(default_factory=list)
    quality: dict[str, float] = field(default_factory=dict)
    artifacts: dict[str, dict[str, bytes]] = field(default_factory=dict)
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    # traced runs only
    traced_stage_s: dict[str, float] = field(default_factory=dict)
    stage_layers: dict[str, dict[str, float]] = field(default_factory=dict)

    @property
    def failed(self) -> int:
        return len(self.failures)


class Runner:
    """Runs one workload's stages and checks, counting every operation."""

    def __init__(self, cli, workload: Workload, seed: int | None, work: Path, reference: dict):
        self.cli = cli
        self.workload = workload
        self.seed = seed
        self.work = work
        self.reference = reference
        self.result = Result(workload.name, seed)

    # -- operations -------------------------------------------------------

    def _flags(self, argv: tuple[str, ...]) -> list[str]:
        if self.seed is None:
            return []
        flags = ["--seed", str(self.seed)]
        for key, default in self.cli.DEFAULT_CONFIG.items():
            if key.endswith(".seed") and key not in self.workload.seeded_keys and f"--{key}" not in argv:
                flags += [f"--{key}", str(default)]
        return flags

    def stage(self, run_dir: Path, argv: tuple[str, ...]) -> float:
        """Run one CLI stage; returns its wall time. A non-zero exit fails."""
        args = ["--out", str(run_dir), *argv, *self._flags(argv)]
        out = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            try:
                code = self.cli.main(args)
            except Exception:
                traceback.print_exc()
                code = 1
        wall = time.perf_counter() - t0
        self.check(code == 0, f"stage {' '.join(argv)} exited {code}: {out.getvalue().strip()[-300:]}")
        return wall

    def check(self, ok: bool, what: str) -> bool:
        self.result.attempted += 1
        if not ok:
            self.result.failures.append(what)
        return ok

    def setup(self, index: int) -> tuple[Path, float]:
        run_dir = self.work / f"run{index}"
        return run_dir, sum(self.stage(run_dir, argv) for argv in SETUP)

    # -- correctness ------------------------------------------------------

    def _rescore(self, run_dir: Path, subsets: list[frozenset]) -> dict[frozenset, float]:
        """f_hat of each subset as the `estimate` stage computes it."""
        argv = ["estimate"]
        for s in subsets:
            argv += ["--subset", _subset_arg(s)]
        self.stage(run_dir, tuple(argv))
        path = run_dir / "estimates.csv"
        if not path.exists():
            return {}
        with path.open() as f:
            return {
                frozenset(int(t) for t in row["subset"].split(";") if t): float(row["f_hat"])
                for row in csv.DictReader(f)
            }

    def _check_consistent(self, run_dir: Path, stage: str, claimed: list[tuple[frozenset, float]], extra=()) -> dict:
        """Re-score claimed (subset, f_hat) pairs, plus any extra subsets, and
        compare the pairs within 1e-9."""
        rescored = self._rescore(run_dir, [s for s, _ in claimed] + list(extra))
        worst = max(
            (_rel_diff(v, rescored[s]) if s in rescored else math.inf for s, v in claimed),
            default=0.0,
        )
        self.check(
            worst <= REL_TOL_RESCORE,
            f"{stage}: stage scores disagree with `estimate` by {worst:.3g} relative",
        )
        return rescored

    def _check_reference(self, stage: Stage, observed: dict) -> None:
        ref = self.reference.get(stage.name)
        if ref is None or (stage.seeded and self.seed is not None):
            return
        for key, want in ref.items():
            got = observed.get(key)
            if isinstance(want, list):
                ok = got == want
            else:
                ok = got is not None and _rel_diff(float(got), float(want)) <= REL_TOL_REFERENCE
            self.check(ok, f"{stage.name}: {key} = {got}, reference {want}")

    def check_stage(self, stage: Stage, run_dir: Path) -> None:
        if stage.name.startswith("select"):
            self._check_selection(stage, run_dir)
        elif stage.name == "relerr":
            self._check_relerr(stage, run_dir)
        elif stage.name == "addition":
            self._check_addition(stage, run_dir)

    def _check_selection(self, stage: Stage, run_dir: Path) -> None:
        path = run_dir / "selection.txt"
        if not self.check(path.exists(), f"{stage.name}: no selection.txt"):
            return
        self.result.artifacts[stage.name] = {"selection.txt": path.read_bytes()}
        report = self.cli.sel.load_report(path)
        values = [v for _, v in report.trajectory] + list(
            report.t_scores if report.t_scores is not None else []
        )
        self.check(
            bool(values) and all(math.isfinite(v) for v in values),
            f"{stage.name}: non-finite score in selection.txt",
        )
        chosen = frozenset(report.chosen)
        rescored = self._check_consistent(run_dir, stage.name, report.trajectory[:RESCORED], [chosen])
        chosen_f = rescored.get(chosen)
        self.result.quality[f"{stage.name}.f_hat"] = chosen_f
        self._check_reference(stage, {"chosen": sorted(chosen), "f_hat": chosen_f})

    def _read_bench(self, stage: Stage, run_dir: Path, table: str) -> list[dict]:
        bench = run_dir / "bench"
        csvs = sorted(bench.glob("*.csv")) if bench.is_dir() else []
        self.result.artifacts[stage.name] = {f"bench/{p.name}": p.read_bytes() for p in csvs}
        path = bench / f"{table}.csv"
        if not self.check(path.exists(), f"{stage.name}: no bench/{table}.csv"):
            return []
        with path.open() as f:
            return list(csv.DictReader(f))

    def _scalars(self, stage: Stage, run_dir: Path, exp: str) -> dict[str, float]:
        return {r["name"]: float(r["value"]) for r in self._read_bench(stage, run_dir, f"{exp}_scalars")}

    def _check_relerr(self, stage: Stage, run_dir: Path) -> None:
        scalars = self._scalars(stage, run_dir, "relerr")
        rows = self._read_bench(stage, run_dir, "relerr_subsets")
        err = scalars.get("relative_error", math.nan)
        values = [float(r[k]) for r in rows for k in ("f_true", "f_hat")] + [err]
        self.check(len(rows) > 0 and all(math.isfinite(v) for v in values), "relerr: non-finite value")
        claimed = [
            (frozenset(int(t) for t in r["subset"].split(";") if t), float(r["f_hat"])) for r in rows[:RESCORED]
        ]
        self._check_consistent(run_dir, stage.name, claimed)
        self.result.quality["relative_error"] = err
        self._check_reference(stage, {"relative_error": err})

    def _check_addition(self, stage: Stage, run_dir: Path) -> None:
        scalars = self._scalars(stage, run_dir, "addition")
        rows = self._read_bench(stage, run_dir, "addition_groups")
        auroc = scalars.get("auroc_T", math.nan)
        values = [float(r["T"]) for r in rows] + [auroc]
        self.check(
            len(rows) > 0 and all(math.isfinite(v) for v in values) and 0.0 <= auroc <= 1.0,
            "addition: non-finite T score or AUROC outside [0, 1]",
        )
        self.result.quality["auroc_T"] = auroc
        self._check_reference(stage, {"auroc_T": auroc})

    # -- timed stages -----------------------------------------------------

    def timed_rep(self, run_dir: Path, record: dict[str, list[float]], tracer=None) -> None:
        """One pass over the workload's timed stages, each followed by its checks."""
        for stage in self.workload.stages:
            if tracer is None:
                wall = self._stage_timing_subsets(run_dir, stage)
            else:
                before = tracer.snapshot()
                wall = self.stage(run_dir, stage.argv)
                self.result.stage_layers[stage.name] = tracing.delta(tracer.snapshot(), before)
            record.setdefault(stage.name, []).append(wall)
            self.check_stage(stage, run_dir)

    def _stage_timing_subsets(self, run_dir: Path, stage: Stage) -> float:
        if self.workload.scored_by == "evaluator":
            owner, attr = self.cli.sel.Evaluator, "__call__"
        else:
            owner, attr = self.cli.est, "estimate_subset"
        with _timed_calls(owner, attr, self.result.subset_s):
            return self.stage(run_dir, stage.argv)


def run_workload(name: str, seed: int | None, seconds: float, trace: bool, work: Path | None = None) -> Result:
    """Set up, run the timed stages for `seconds` (at least once) and check
    every output. A traced run sets up once, runs one untraced and one traced
    pass, and records per-stage layer counts."""
    cli = load_program()
    workload = WORKLOADS[name]
    reference = json.loads(REFERENCE.read_text()).get(name, {})
    work = work or WORK / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(cli, workload, seed, work, reference)
    result = runner.result
    try:
        if not trace:

            def setups(count):
                for _ in range(count):
                    run_dir, wall = runner.setup(len(result.setup_s))
                    result.setup_s.append(wall)
                return run_dir

            # half the set-ups before the timed passes and half after, so
            # their median spans the run as stage_s does
            run_dir = setups(SETUP_REPEATS // 2)
            start = time.perf_counter()
            while True:
                runner.timed_rep(run_dir, result.stage_s)
                if time.perf_counter() - start >= seconds:
                    break
            setups(SETUP_REPEATS - SETUP_REPEATS // 2)
        else:
            tracer = tracing.Tracer()
            with tracer.installed():
                run_dir = work / "run0"
                for argv in SETUP:
                    before = tracer.snapshot()
                    result.traced_stage_s[argv[0]] = runner.stage(run_dir, argv)
                    result.stage_layers[argv[0]] = tracing.delta(tracer.snapshot(), before)
            runner.timed_rep(run_dir, result.stage_s)
            traced: dict[str, list[float]] = {}
            with tracer.installed():
                runner.timed_rep(run_dir, traced, tracer)
            result.traced_stage_s.update({k: v[0] for k, v in traced.items()})
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return result


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def percentile_ms(seconds: list[float], pct: int) -> float:
    """The pct-th percentile of call durations, in milliseconds."""
    return 1e3 * statistics.quantiles(seconds, n=100, method="inclusive")[pct - 1]


def end_to_end(result: Result) -> dict[str, float]:
    reps = list(zip(*result.stage_s.values()))
    return {
        "setup_s": statistics.median(result.setup_s),
        "stage_s": statistics.median(sum(rep) for rep in reps),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def coverage(result: Result) -> dict[str, float]:
    """Share of each traced timed stage's wall time that layer self time covers."""
    timed = [s.name for s in WORKLOADS[result.workload].stages]
    return {
        name: tracing.self_time(result.stage_layers[name]) / result.traced_stage_s[name]
        for name in timed
        if name in result.stage_layers
    }


def per_layer(result: Result, names: list[str]) -> dict[str, float]:
    """Layer totals over the traced set-up and timed stages, plus the stage
    spans, coverage and tracing overhead."""
    totals: dict[str, float] = {}
    for layers in result.stage_layers.values():
        for k, v in layers.items():
            totals[k] = totals.get(k, 0.0) + v
    for stage in STAGE_NAMES:
        totals[f"stage.{stage}.s"] = result.traced_stage_s.get(stage, 0.0)
    cov = coverage(result)
    totals["trace.coverage"] = min(cov.values()) if cov else 0.0
    untraced = sum(walls[0] for walls in result.stage_s.values())
    traced = sum(result.traced_stage_s[n] for n in result.stage_s)
    totals["trace.overhead"] = traced / untraced if untraced else 0.0
    return {n: totals.get(n, 0.0) for n in names}


def host_facts() -> dict[str, object]:
    """nproc, Python, numpy, BLAS and its thread count, and the src/ size."""
    import ctypes

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    with open("/proc/self/maps") as maps:
        libs = {line.split()[-1] for line in maps if "openblas" in line and line.rstrip().endswith(".so")}
    for lib in sorted(libs):
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "src_lines": sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py"))),
    }
