"""Command-line pipeline: gen | meta-train | cache | estimate | select | bench | report.

Each stage reads and writes declared artifacts inside a run directory. A flat
dotted-key config controls every default; any key can be overridden with a
flag of the same name. All randomness flows from named seeds in the config.
"""

from __future__ import annotations

import argparse
import contextlib
import fcntl
import hashlib
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import artifact, bench, estimate as est, select as sel
from .linearize import TARGET_VAL_ID, build_cache, check_task_ids, load_cache, row_task_ids, save_cache
from .model import ModelConfig, Network
from .project import gaussian_projection
from .taskgen import Corpus, gen_multitask_gaussian, gen_noisy_addition, load_corpus, save_corpus
from .trainer import (
    TrainConfig,
    eval_loss,
    load_checkpoint,
    meta_train,
    param_digest,
    save_checkpoint,
)

OUT_ENV_VAR = "GRADSEL_OUT"

DEFAULT_CONFIG: dict[str, object] = {
    "corpus.kind": "gaussian",
    "corpus.n": 20,
    "corpus.samples_per_task": 40,
    "corpus.dim": 10,
    "corpus.frac_helpful": 0.5,
    "corpus.rotation_deg": 135.0,
    "corpus.label_noise": 0.3,
    "corpus.n_clean": 10,
    "corpus.digits": 5,
    "corpus.target_samples": 0,
    "corpus.seed": 11,
    "model.hidden_dims": "320",
    "model.activation": "tanh",
    "model.init_scale": 0.5,
    "model.seed": 7,
    "train.step_size": 0.3,
    "train.batch_size": 32,
    "train.max_epochs": 300,
    "train.early_stop_patience": 30,
    "train.seed": 3,
    "finetune.step_size": 0.1,
    "finetune.batch_size": 4096,
    "finetune.max_epochs": 60,
    "finetune.early_stop_patience": 3,
    "finetune.seed": 4,
    "project.d": 100,
    "project.seed": 5,
    "estimate.ridge_lambda": 0.1,
    "estimate.max_iters": 100,
    "estimate.grad_tol": 1e-8,
    "select.method": "fs",
    "select.m": 1000,
    "select.alpha": 0.75,
    "select.fraction_grid": "0.05,0.1,0.15,0.2",
    "select.seed": 6,
    "select.evaluator": "estimator",
    "bench.rrss_distances": "0.0025,0.005,0.01,0.025",
    "bench.rrss_directions": 20,
    "bench.relerr_subsets": 30,
    "bench.seed": 9,
    "addition.hidden_dims": "256",
    "addition.activation": "relu",
    "addition.step_size": 0.001,
    "addition.epochs": 120,
    "addition.samples_per_group": 500,
    "addition.target_samples": 60,
    "addition.m": 300,
    "addition.alpha": 0.15,
}

ARTIFACTS = {
    "config": "config.txt",
    "corpus": "corpus.txt",
    "checkpoint": "checkpoint.bin",
    "cache": "cache.bin",
    "estimates": "estimates.csv",
    "selection": "selection.txt",
}

SELECT_METHODS = ("fs", "re", "ds-fs", "ds-re")
EVALUATORS = ("estimator", "oracle")
EXPERIMENTS = ("rrss", "relerr", "speedup", "addition")


class StageError(RuntimeError):
    """A stage-level failure with a user-facing diagnostic."""


# ---------------------------------------------------------------------------
# Config handling
# ---------------------------------------------------------------------------


def parse_config_text(text: str) -> dict[str, str]:
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise StageError(f"config line {lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        out[key] = value
    return out


def resolve_config(config_path: str | None, overrides: dict[str, str]) -> dict[str, str]:
    """Defaults, then the config file, then the flags. Each set value must
    parse as the type of its key's default, and a float must be finite."""
    cfg = {k: str(v) for k, v in DEFAULT_CONFIG.items()}
    from_file = {}
    if config_path:
        try:
            from_file = parse_config_text(Path(config_path).read_text())
        except OSError as e:
            raise StageError(f"cannot read config {config_path}: {e}") from e
    for k, v in [*from_file.items(), *overrides.items()]:
        if k not in cfg:
            raise StageError(f"unknown config key {k!r}")
        kind = type(DEFAULT_CONFIG[k])
        try:
            value = kind(v)
        except ValueError:
            raise StageError(f"config {k}: expected {kind.__name__}, got {v!r}") from None
        if kind is float and not math.isfinite(value):
            raise StageError(f"config {k}: expected a finite float, got {v!r}")
        cfg[k] = v
    return cfg


def config_text(cfg: dict[str, str]) -> str:
    return "".join(f"{k} = {cfg[k]}\n" for k in sorted(cfg))


def config_digest(cfg: dict[str, str]) -> str:
    return hashlib.sha256(config_text(cfg).encode()).hexdigest()


def _numbers(cfg: dict[str, str], key: str, kind: type) -> tuple:
    """A comma-separated list of ints or finite floats."""
    try:
        values = tuple(kind(v) for v in cfg[key].split(",") if v != "")
    except ValueError:
        raise StageError(f"config {key}: expected a list of {kind.__name__}, got {cfg[key]!r}") from None
    if not all(map(math.isfinite, values)):
        raise StageError(f"config {key}: expected finite values, got {cfg[key]!r}")
    return values


def _checked(make, **fields):
    """Build a config object; an invalid value is a one-line StageError."""
    try:
        return make(**fields)
    except ValueError as e:
        raise StageError(f"config: {e}") from None


def _check_choice(what: str, value: str, choices: tuple[str, ...]) -> None:
    if value not in choices:
        raise StageError(f"unknown {what} {value!r} (choose from {', '.join(choices)})")


def recipe(cfg: dict[str, str], corpus: Corpus) -> tuple[ModelConfig, TrainConfig]:
    """The model and the meta-training recipe for a corpus.

    The model reads the corpus's input width and predicts one class per
    label column. Addition corpora need the fixed-epoch recipe: their
    combined-val minimum sits at the no-learning point, so early stopping
    cannot train them (the noisy groups' val labels are random)."""
    addition = corpus.meta.get("kind") == "addition"
    head = "addition" if addition else "model"
    labels = corpus.target.train[1]
    model = _checked(
        ModelConfig,
        input_dim=corpus.input_dim,
        hidden_dims=_numbers(cfg, f"{head}.hidden_dims", int),
        activation=cfg[f"{head}.activation"],
        num_classes=10 if addition else 2,
        num_positions=1 if labels.ndim == 1 else labels.shape[1],
        init_scale=float(cfg["model.init_scale"]),
        seed=int(cfg["model.seed"]),
    )
    if not addition:
        return model, train_config(cfg, "train")
    train = _checked(
        TrainConfig,
        step_size=float(cfg["addition.step_size"]),
        batch_size=int(cfg["train.batch_size"]),
        max_epochs=int(cfg["addition.epochs"]),
        early_stop_patience=None,
        seed=int(cfg["train.seed"]),
        optimizer="adam",
    )
    return model, train


def train_config(cfg: dict[str, str], prefix: str) -> TrainConfig:
    """SGD with early stopping that restores the best epoch."""
    return _checked(
        TrainConfig,
        step_size=float(cfg[f"{prefix}.step_size"]),
        batch_size=int(cfg[f"{prefix}.batch_size"]),
        max_epochs=int(cfg[f"{prefix}.max_epochs"]),
        early_stop_patience=int(cfg[f"{prefix}.early_stop_patience"]),
        seed=int(cfg[f"{prefix}.seed"]),
        optimizer="sgd",
    )


def solve_config(cfg: dict[str, str]) -> est.SolveConfig:
    return _checked(
        est.SolveConfig,
        ridge_lambda=float(cfg["estimate.ridge_lambda"]),
        max_iters=int(cfg["estimate.max_iters"]),
        grad_tol=float(cfg["estimate.grad_tol"]),
    )


# ---------------------------------------------------------------------------
# Run directory plumbing
# ---------------------------------------------------------------------------


class RunDir:
    def __init__(self, root: Path):
        self.root = root

    def path(self, artifact: str) -> Path:
        return self.root / ARTIFACTS[artifact]

    def require(self, artifact: str, produced_by: str) -> Path:
        p = self.path(artifact)
        if not p.exists():
            raise StageError(
                f"missing {p.name}: run '{produced_by}' first"
            )
        return p

    @contextlib.contextmanager
    def lock(self):
        """An exclusive flock on the run directory's .lock file. The kernel
        drops it when the holding process exits, however it exits, so a
        killed run leaves no stale lock. The file is left in place; unlocked,
        it blocks nothing."""
        path = self.root / ".lock"
        path.parent.mkdir(parents=True, exist_ok=True)
        fd = os.open(path, os.O_CREAT | os.O_RDONLY, 0o644)
        try:
            try:
                fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
            except BlockingIOError:
                raise StageError(f"run directory is locked: another command holds {path}") from None
            yield
        finally:
            os.close(fd)  # releases the lock


def _load(run: RunDir, artifact: str, produced_by: str, loader):
    """Load a required artifact. A malformed or unreadable one becomes a
    one-line StageError naming the artifact and the stage that makes it."""
    path = run.require(artifact, produced_by)
    try:
        return loader(path)
    except (OSError, ValueError) as e:
        reason = getattr(e, "strerror", None) or str(e).removeprefix(f"{path}: ")
        raise StageError(f"{path.name}: {reason}; re-run '{produced_by}'") from None


def _load_model_pieces(run: RunDir, cfg: dict[str, str]):
    corpus = _load(run, "corpus", "gen", load_corpus)
    model, train = recipe(cfg, corpus)
    return corpus, Network(model), train


def _load_trained(run: RunDir, cfg: dict[str, str]):
    corpus, net, _ = _load_model_pieces(run, cfg)
    theta, _, corpus_dig = _load(run, "checkpoint", "meta-train", load_checkpoint)
    if corpus_dig != corpus.digest():
        raise StageError("checkpoint was trained on a different corpus; re-run meta-train")
    return corpus, net, theta


# ---------------------------------------------------------------------------
# Stages
# ---------------------------------------------------------------------------


def _record_config(run: RunDir, cfg: dict[str, str]) -> None:
    """Keep config.txt in sync with the invocation that last wrote artifacts."""
    run.root.mkdir(parents=True, exist_ok=True)
    text = f"# digest {config_digest(cfg)}\n" + config_text(cfg)
    artifact.write_atomic(run.path("config"), text.encode())


def stage_gen(run: RunDir, cfg: dict[str, str]) -> None:
    kind = cfg["corpus.kind"]
    # source task ids run to corpus.n; one cache.bin cannot hold is refused
    # here, before any sample is drawn or any training runs
    check_task_ids(np.array([int(cfg["corpus.n"])]))
    if kind == "gaussian":
        corpus = gen_multitask_gaussian(
            n=int(cfg["corpus.n"]),
            samples_per_task=int(cfg["corpus.samples_per_task"]),
            dim=int(cfg["corpus.dim"]),
            frac_helpful=float(cfg["corpus.frac_helpful"]),
            rotation_deg=float(cfg["corpus.rotation_deg"]),
            label_noise=float(cfg["corpus.label_noise"]),
            seed=int(cfg["corpus.seed"]),
        )
    elif kind == "addition":
        target_samples = int(cfg["corpus.target_samples"]) or None
        corpus = gen_noisy_addition(
            n_groups=int(cfg["corpus.n"]),
            n_clean=int(cfg["corpus.n_clean"]),
            digits=int(cfg["corpus.digits"]),
            samples_per_group=int(cfg["corpus.samples_per_task"]),
            seed=int(cfg["corpus.seed"]),
            target_samples=target_samples,
        )
    else:
        raise StageError(f"unknown corpus kind {kind!r}")
    _record_config(run, cfg)
    save_corpus(run.path("corpus"), corpus)
    print(f"gen: wrote {run.path('corpus')} ({corpus.n_tasks} tasks)")


def stage_meta_train(run: RunDir, cfg: dict[str, str]) -> None:
    corpus, net, train = _load_model_pieces(run, cfg)
    fit = meta_train(net, corpus, train)
    save_checkpoint(
        run.path("checkpoint"),
        fit.params,
        config_digest=config_digest(cfg),
        corpus_digest=corpus.digest(),
    )
    _record_config(run, cfg)
    train_loss = eval_loss(net, fit.params, *corpus.mixture("train"))
    print(
        f"meta-train: {fit.epochs_run} epochs, train loss {train_loss:.4f}, "
        f"wrote {run.path('checkpoint')}"
    )


def stage_cache(run: RunDir, cfg: dict[str, str]) -> None:
    corpus, net, theta = _load_trained(run, cfg)
    seed = int(cfg["project.seed"])
    P = gaussian_projection(net.param_count, int(cfg["project.d"]), seed)
    cache = build_cache(net, theta, corpus, P, seed)
    save_cache(run.path("cache"), cache)
    _record_config(run, cfg)
    print(f"cache: {np.count_nonzero(cache.task_id != TARGET_VAL_ID)} train entries, wrote {run.path('cache')}")


def _load_estimation_state(run: RunDir, cfg: dict[str, str]):
    corpus, net, theta = _load_trained(run, cfg)
    cache = _load(run, "cache", "cache", load_cache)
    if cache.theta_star_digest != param_digest(theta) or cache.P.shape[0] != net.param_count:
        raise StageError("cache does not match the checkpoint; re-run cache")
    # the rows' task ids in order, so a cache re-split or relabeled between
    # tasks is refused even where the row totals agree
    if not np.array_equal(cache.task_id, row_task_ids(corpus)):
        raise StageError("cache does not match the corpus; re-run cache")
    return corpus, net, theta, cache


def stage_estimate(run: RunDir, cfg: dict[str, str], subsets: list[str]) -> None:
    scfg = solve_config(cfg)
    corpus, net, theta, cache = _load_estimation_state(run, cfg)
    parsed = []
    for spec in subsets:
        ids = frozenset(int(t) for t in spec.split(",") if t != "")
        bad = sorted(set(ids) - set(range(1, corpus.n_tasks + 1)))
        if bad:
            raise StageError(f"unknown task id {bad[0]} in subset {spec!r}")
        parsed.append(ids)
    if not parsed:
        raise StageError("estimate needs at least one --subset")
    problem = est.prepare(cache, scfg)
    results = [est.estimate_subset(net, theta, problem, s, corpus.target.val) for s in parsed]
    est.write_ledger(run.path("estimates"), results)
    _record_config(run, cfg)
    for r in results:
        ids = ",".join(str(t) for t in sorted(r.subset)) or "-"
        print(f"estimate: f_hat({ids}) = {r.f_hat:.6f} [{r.solver_iters} iters]")


def stage_select(run: RunDir, cfg: dict[str, str]) -> None:
    method = cfg["select.method"]
    _check_choice("selection method", method, SELECT_METHODS)
    _check_choice("evaluator", cfg["select.evaluator"], EVALUATORS)
    oracle = cfg["select.evaluator"] == "oracle"
    grouped = method.startswith("ds-")
    if oracle and grouped:
        raise StageError(f"the oracle cannot score {method}: it fine-tunes on tasks, not sample clusters")
    scfg = solve_config(cfg)
    ft_cfg = train_config(cfg, "finetune")
    grid = _numbers(cfg, "select.fraction_grid", float)
    corpus, net, theta, cache = _load_estimation_state(run, cfg)
    n = int(cfg["corpus.n"]) if grouped else corpus.n_tasks
    if oracle:
        evaluator = sel.oracle_evaluator(net, theta, corpus, ft_cfg)
    else:
        try:
            scored = sel.group_cache(cache, n, int(cfg["select.seed"])) if grouped else cache
        except ValueError as e:
            raise StageError(f"{method} cannot split the cache's source rows into corpus.n groups: {e}") from None
        evaluator = sel.estimator_evaluator(net, theta, scored, corpus.target.val, scfg)
    if method.endswith("fs"):
        report = sel.forward_select(evaluator, n)
    else:
        report = sel.ensemble_select(
            evaluator,
            n,
            grid,
            m=int(cfg["select.m"]),
            alpha_frac=float(cfg["select.alpha"]),
            seed=int(cfg["select.seed"]),
        )
    report.method = method
    sel.save_report(
        run.path("selection"),
        report,
        digests={"config": config_digest(cfg), "cache": cache.digest()},
    )
    _record_config(run, cfg)
    chosen = " ".join(str(t) for t in sorted(report.chosen)) or "-"
    print(f"select[{method}]: chose {{{chosen}}}, wrote {run.path('selection')}")


def _addition_run(cfg: dict[str, str], n: int, n_clean: int, seed: int):
    """The noisy-addition run that bench scores, built in memory by the gen,
    meta-train and cache stages' library calls on the addition.* sizes, with
    corpus seed `seed` and projector seed seed + 1."""
    corpus = gen_noisy_addition(
        n, n_clean, int(cfg["corpus.digits"]), int(cfg["addition.samples_per_group"]), seed,
        target_samples=int(cfg["addition.target_samples"]) or None,  # 0: as many as a group, as in stage_gen
    )
    model, train = recipe(cfg, corpus)
    net = Network(model)
    theta = meta_train(net, corpus, train).params
    P = gaussian_projection(net.param_count, int(cfg["project.d"]), seed + 1)
    return net, theta, build_cache(net, theta, corpus, P, seed + 1), corpus


def stage_bench(run: RunDir, cfg: dict[str, str], experiments: list[str]) -> None:
    for name in experiments:
        _check_choice("experiment", name, EXPERIMENTS)
    scfg = solve_config(cfg)
    ft_cfg = train_config(cfg, "finetune")
    n, n_clean, seed = (int(cfg[k]) for k in ("corpus.n", "corpus.n_clean", "bench.seed"))
    if "addition" in experiments and not 0 < n_clean < n:  # refused before the costly training
        raise StageError(f"addition needs clean and noisy groups: corpus.n_clean {n_clean} is not in 1..{n - 1}")
    if set(experiments) - {"addition"}:  # addition builds its own corpus, model and cache
        corpus, net, theta, cache = _load_estimation_state(run, cfg)
    reports = []
    for name in experiments:
        if name == "addition":
            reports.append(
                bench.exp_addition(
                    *_addition_run(cfg, n, n_clean, seed), scfg,
                    m=int(cfg["addition.m"]),
                    alpha_frac=float(cfg["addition.alpha"]),
                    seed=seed + 2,
                )
            )
        elif name == "rrss":
            reports.append(
                bench.exp_rrss(
                    net,
                    theta,
                    corpus,
                    distances=list(_numbers(cfg, "bench.rrss_distances", float)),
                    n_directions=int(cfg["bench.rrss_directions"]),
                    seed=seed,
                )
            )
        elif name == "relerr":
            reports.append(
                bench.exp_relerr(
                    net, theta, cache, corpus, ft_cfg, scfg,
                    m=int(cfg["bench.relerr_subsets"]),
                    seed=seed,
                )
            )
        else:
            reports.append(bench.exp_speedup(net, theta, cache, corpus, ft_cfg, scfg))
    out = run.root / "bench"
    out.mkdir(exist_ok=True)
    for r in reports:
        for table_name, lines in bench.report_to_csv_lines(r).items():
            artifact.write_atomic(out / f"{table_name}.csv", ("\n".join(lines) + "\n").encode())
    artifact.write_atomic(out / "summary.txt", bench.summarize(reports).encode())
    _record_config(run, cfg)
    print(f"bench: wrote {len(reports)} experiment(s) under {out}")


def stage_report(run: RunDir, cfg: dict[str, str]) -> None:
    pieces = []
    if run.path("selection").exists():
        report = _load(run, "selection", "select", sel.load_report)
        chosen = " ".join(str(t) for t in sorted(report.chosen)) or "-"
        pieces.append(f"selection[{report.method}]: chosen {{{chosen}}} budget {report.budget}")
    if run.path("estimates").exists():
        lines = run.path("estimates").read_text().strip().splitlines()
        pieces.append(f"estimates: {max(0, len(lines) - 1)} subsets in {run.path('estimates').name}")
    bench_summary = run.root / "bench" / "summary.txt"
    if bench_summary.exists():
        pieces.append(bench_summary.read_text().rstrip())
    if not pieces:
        raise StageError("nothing to report: run estimate, select, or bench first")
    out = run.root / "report"
    out.mkdir(exist_ok=True)
    text = "\n".join(pieces) + "\n"
    artifact.write_atomic(out / "summary.txt", text.encode())
    print(text, end="")


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    # shared options live in a parent parser with SUPPRESS defaults so they
    # can appear before or after the subcommand without clobbering each other
    common = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    common.add_argument("--out", help=f"run directory (default ${OUT_ENV_VAR} or ./run)")
    common.add_argument("--config", help="config file of dotted 'key = value' lines")
    common.add_argument("--seed", type=int, help="override every *.seed key at once")
    for key, default in DEFAULT_CONFIG.items():
        common.add_argument(f"--{key}", metavar="V", help=f"(default {default})", dest=key)

    parser = argparse.ArgumentParser(
        prog="gradsel",
        description="estimate fine-tuning losses from cached gradients and select task subsets",
        parents=[common],
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("gen", help="generate the corpus", parents=[common])
    sub.add_parser("meta-train", help="train the meta-initialization on all tasks", parents=[common])
    sub.add_parser("cache", help="cache per-sample margins and projected gradients", parents=[common])
    p_est = sub.add_parser("estimate", help="estimate fine-tuned losses for subsets", parents=[common])
    p_est.add_argument(
        "--subset",
        action="append",
        default=[],
        help="comma-separated task ids; repeatable",
    )
    sub.add_parser("select", help="run subset selection", parents=[common])
    p_bench = sub.add_parser("bench", help="run canned experiments", parents=[common])
    p_bench.add_argument(
        "--exp",
        action="append",
        default=[],
        help=f"{' | '.join(EXPERIMENTS)} (repeatable; default rrss)",
    )
    sub.add_parser("report", help="summarize run artifacts", parents=[common])
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    overrides = {
        key: getattr(args, key)
        for key in DEFAULT_CONFIG
        if getattr(args, key, None) is not None
    }
    seed = getattr(args, "seed", None)
    if seed is not None:
        for key in DEFAULT_CONFIG:
            if key.endswith(".seed"):
                overrides.setdefault(key, str(seed))

    out_root = getattr(args, "out", None) or os.environ.get(OUT_ENV_VAR) or "run"
    run = RunDir(Path(out_root))

    try:
        cfg = resolve_config(getattr(args, "config", None), overrides)
        with run.lock():
            if args.command == "gen":
                stage_gen(run, cfg)
            elif args.command == "meta-train":
                stage_meta_train(run, cfg)
            elif args.command == "cache":
                stage_cache(run, cfg)
            elif args.command == "estimate":
                stage_estimate(run, cfg, args.subset)
            elif args.command == "select":
                stage_select(run, cfg)
            elif args.command == "bench":
                stage_bench(run, cfg, args.exp or ["rrss"])
            elif args.command == "report":
                stage_report(run, cfg)
    # ValueError: an input the program's checks reject; OSError: a path it
    # cannot use, such as an --out that names a file
    except (StageError, ValueError, OSError) as e:
        print(f"gradsel {args.command}: {e}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
