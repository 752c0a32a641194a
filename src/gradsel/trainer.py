"""Meta-training, fine-tuning and loss evaluation.

Fine-tuning runs mini-batch SGD or Adam with patience-based early stopping on
a validation set, returning the parameters of the best epoch, or for a fixed
number of epochs, returning the final parameters. Both read
(X, labels) splits (taskgen.Split) that Corpus.mixture stacks. The oracle
value of a task subset S (select.oracle_evaluator) is the target validation
loss after fine_tune_subset on the combined data of S plus the target's train
split. The meta-trained network, its ModelConfig and parameters, is saved
as a checkpoint artifact (see artifact.py).

Importing this module (gradsel.cli does) sets numpy's OpenBLAS to one thread
for the whole process, so a stage computes the same bytes at any
OPENBLAS_NUM_THREADS and on any number of CPUs. The CPUs go to independent
jobs instead, through side_by_side, which runs each job in the caller or in
a forked worker process, so a job's side effects never reach the caller; it
returns what the jobs return. Three callers use it: fine_tune_each (bench
relerr's oracle fine-tunes), linearize.build_cache (its chunks of rows) and
select.scored_in_blocks (the blocks of a batch of subset scores: the
selection evaluators', the oracle's fine-tunes among them, and relerr's
estimator blocks). A fit itself, meta_train's
included, runs in one process; its steps write the batch, the activations,
deltas and gradient, and Adam's state into arrays made once per fit.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import pickle
import signal
from collections.abc import Callable, Sequence
from dataclasses import asdict, dataclass
from typing import TypeVar

import numpy as np

from . import artifact
from .model import ModelConfig, Network, ParamVector, Workspace
from .taskgen import Corpus, Split

OPTIMIZERS = ("sgd", "adam")

T = TypeVar("T")


def _set_one_blas_thread() -> bool:
    """Set numpy's bundled OpenBLAS to one thread, through the setter beside
    the getter perfbench's host facts find; False where it is not found
    (another BLAS, or no /proc/self/maps to look in)."""
    try:
        with open("/proc/self/maps") as maps:
            libs = {line.split()[-1] for line in maps if "openblas" in line and line.rstrip().endswith(".so")}
    except OSError:
        return False
    for lib in sorted(libs):
        put = getattr(ctypes.CDLL(lib), "scipy_openblas_set_num_threads64_", None)
        if put is not None:
            put.argtypes, put.restype = [ctypes.c_int], None
            put(1)
            return True
    return False


# One BLAS thread for the whole process (see the module docstring): the CPUs
# go only to independent work, side_by_side's worker processes, which start
# only where this worked.
_ONE_BLAS_THREAD = _set_one_blas_thread()


@dataclass(frozen=True)
class TrainConfig:
    """Optimization recipe. Training stops once the validation loss has not
    improved for early_stop_patience epochs and returns the best epoch's
    parameters; early_stop_patience=None runs all max_epochs and returns the
    final parameters. A non-finite validation loss raises ValueError."""

    step_size: float = 0.01
    batch_size: int = 32
    max_epochs: int = 60
    early_stop_patience: int | None = 3
    seed: int = 0
    optimizer: str = "adam"

    def __post_init__(self):
        if self.step_size <= 0:
            raise ValueError("step_size must be positive")
        if self.batch_size < 1 or self.max_epochs < 0:
            raise ValueError("batch_size must be >= 1 and max_epochs >= 0")
        if self.early_stop_patience is not None and self.early_stop_patience < 0:
            raise ValueError("early_stop_patience must be non-negative")
        if self.optimizer not in OPTIMIZERS:
            raise ValueError(f"optimizer must be one of {OPTIMIZERS}")


@dataclass
class FitResult:
    params: ParamVector
    val_loss_curve: list[float]
    epochs_run: int
    forward_passes: int
    best_epoch: int


def eval_loss(net: Network, params: ParamVector, X: np.ndarray, labels: np.ndarray) -> float:
    """Mean loss over a nonempty batch."""
    if len(X) == 0:
        raise ValueError("empty evaluation data")
    return float(net.losses(params, X, labels).mean())


def relative_distance(x: ParamVector, theta_star: ParamVector) -> float:
    """||x - theta*|| / ||theta*||."""
    if x.shape != theta_star.shape:
        raise ValueError("parameter vectors have different lengths")
    denom = np.linalg.norm(theta_star)
    if denom == 0:
        raise ValueError("theta* has zero norm")
    return float(np.linalg.norm(x - theta_star) / denom)


# a diverging run overflows before its validation loss goes non-finite; the
# check on that loss is the one report, so numpy's warnings are silenced
@np.errstate(over="ignore", invalid="ignore")
def _fit(
    net: Network,
    theta0: ParamVector,
    train: Split,
    val: Split,
    cfg: TrainConfig,
) -> FitResult:
    (X, y), (X_val, y_val) = train, val
    n = len(X)
    rng = np.random.default_rng(cfg.seed)
    params = theta0.copy()

    # the batch, its gradient's arrays and the validation pass's arrays,
    # made once per fit,
    # then Adam state and two work buffers (unused for sgd); each step
    # updates them in place with the textbook expression's operations, in
    # its order
    rows = min(cfg.batch_size, n)
    X_batch = np.empty((rows, *X.shape[1:]), dtype=X.dtype)
    y_batch = np.empty((rows, *y.shape[1:]), dtype=y.dtype)
    work, val_work = Workspace(net, rows), Workspace(net, len(X_val))
    m, v, mh, vh = (np.zeros_like(params) for _ in range(4))
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    step = 0

    best_val = float(net.losses(params, X_val, y_val, val_work).mean())
    best_params = params.copy()
    best_epoch = 0
    curve: list[float] = []
    forward_passes = 0

    for epoch in range(1, cfg.max_epochs + 1):
        perm = rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            idx = perm[start : start + cfg.batch_size]
            # a permutation's indices are in range, so "clip" clips none; it
            # spares the copy through a buffer that "raise" makes of out
            k = len(idx)
            Xk = np.take(X, idx, axis=0, out=X_batch[:k], mode="clip")
            yk = np.take(y, idx, axis=0, out=y_batch[:k], mode="clip")
            g = net.loss_gradient(params, Xk, yk, work)
            if cfg.optimizer == "sgd":
                g *= cfg.step_size
                params -= g
            else:
                # params -= step_size * mh / (sqrt(vh) + eps), with
                # m = beta1 m + (1 - beta1) g, v = beta2 v + (1 - beta2) g g,
                # mh = m / (1 - beta1^step) and vh = v / (1 - beta2^step)
                step += 1
                m *= beta1
                m += np.multiply(1 - beta1, g, out=mh)
                v *= beta2
                np.multiply(1 - beta2, g, out=vh)
                v += np.multiply(vh, g, out=vh)
                # x / 1.0 is x, so a correction that has rounded to 1.0 (for
                # beta1 from step 356 on) is skipped, not divided by
                c1, c2 = 1 - beta1**step, 1 - beta2**step
                np.multiply(m if c1 == 1.0 else np.divide(m, c1, out=mh), cfg.step_size, out=mh)
                np.sqrt(v if c2 == 1.0 else np.divide(v, c2, out=vh), out=vh)
                vh += eps
                mh /= vh
                params -= mh
        forward_passes += n

        val_loss = float(net.losses(params, X_val, y_val, val_work).mean())
        curve.append(val_loss)
        if not np.isfinite(val_loss):
            raise ValueError(f"non-finite loss {val_loss!r} at epoch {epoch}")
        if val_loss < best_val:
            best_val = val_loss
            best_params = params.copy()
            best_epoch = epoch
        elif cfg.early_stop_patience is not None and epoch - best_epoch > cfg.early_stop_patience:
            break

    if cfg.early_stop_patience is None:
        best_params, best_epoch = params, len(curve)
    return FitResult(
        params=best_params,
        val_loss_curve=curve,
        epochs_run=len(curve),
        forward_passes=forward_passes,
        best_epoch=best_epoch,
    )


def meta_train(net: Network, corpus: Corpus, cfg: TrainConfig) -> FitResult:
    """Train on the union of every task's train split (sources plus target),
    early-stopping on the combined validation loss."""
    theta0 = net.init_params()
    return _fit(net, theta0, corpus.mixture("train"), corpus.mixture("val"), cfg)


def fine_tune_subset(
    net: Network,
    theta0: ParamVector,
    subset: frozenset[int] | set[int],
    corpus: Corpus,
    cfg: TrainConfig,
) -> FitResult:
    """Fine-tune from theta0 on D_S plus the target train split.

    Early stopping watches the validation loss of the mixture being trained
    (the subset tasks' val splits plus the target's); the target-val score of
    the result is computed by the caller.
    """
    bad = set(subset) - set(range(1, corpus.n_tasks + 1))
    if bad:
        raise ValueError(f"unknown task ids in subset: {sorted(bad)}")
    return _fit(net, theta0, corpus.mixture("train", subset), corpus.mixture("val", subset), cfg)


def side_by_side(count: int, job: Callable[[int], T]) -> list[T]:
    """[job(i) for i in range(count)], the jobs run side by side in W
    workers, W the number of CPUs the process may run on (count at most):
    the caller is worker 0 and forks one child process per further worker;
    worker k runs indices k, k + W, k + 2W, ... in order, so which worker
    runs a job depends only on W. A child inherits the caller's memory and
    np.errstate, sends its results back as one pickle and leaves by
    os._exit, so a job's side effects never reach the caller. OpenBLAS runs
    one thread (set on import), so every job computes what it computes on
    one CPU; where numpy's OpenBLAS thread setter was not found, the jobs
    run one after another in the caller. A failing job raises as a serial
    loop would: the lowest index that failed raises its exception, once
    every worker has ended; one that cannot be pickled becomes a
    RuntimeError naming its type. No child outlives the call."""
    workers = min(len(os.sched_getaffinity(0)), count) if _ONE_BLAS_THREAD else 1
    if workers <= 1:
        return [job(i) for i in range(count)]
    children = {}  # pid -> the read end of its pipe
    try:
        for k in range(1, workers):
            r, w = os.pipe()
            pid = os.fork()
            if pid == 0:  # the child: never returns into the caller's stack
                code = 1
                try:
                    os.close(r)
                    with os.fdopen(w, "wb") as out:
                        out.write(_pickled(_run_stride(job, k, count, workers)))
                    code = 0
                finally:
                    os._exit(code)
            os.close(w)
            children[pid] = os.fdopen(r, "rb")
        results = _run_stride(job, 0, count, workers)
        while children:
            pid, pipe = next(iter(children.items()))
            with pipe:
                data = pipe.read()
            _, status = os.waitpid(pid, 0)
            del children[pid]
            if not data:
                code = os.waitstatus_to_exitcode(status)
                raise RuntimeError(f"a side_by_side worker process ended (exit code {code}) without its results")
            results += pickle.loads(data)
    finally:
        for pid, pipe in children.items():
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    errors = {i: value for i, ok, value in results if not ok}
    if errors:
        raise errors[min(errors)]
    return [value for _, _, value in sorted(results, key=lambda r: r[0])]


def _run_stride(job: Callable[[int], T], k: int, count: int, step: int) -> list[tuple]:
    """(i, True, job(i)) for i = k, k + step, ... below count, ending at the
    first job that raises, as (i, False, its exception): the worker's later
    indices are all higher."""
    results = []
    for i in range(k, count, step):
        try:
            results.append((i, True, job(i)))
        except Exception as e:  # raised by side_by_side in the caller
            results.append((i, False, e))
            break
    return results


def _pickled(results: list[tuple]) -> bytes:
    """results as one pickle. Each exception first goes through a pickle
    round trip (one whose __init__ takes other arguments pickles but does
    not unpickle), and so does each value if the whole does not pickle;
    what fails it is sent as a RuntimeError naming its type."""
    results = [r if r[1] else _sendable(*r) for r in results]
    try:
        return pickle.dumps(results)
    except Exception:
        return pickle.dumps([_sendable(*r) for r in results])


def _sendable(i: int, ok: bool, value) -> tuple:
    """(i, ok, value), or (i, False, a RuntimeError naming value's type)
    where value does not survive a pickle round trip."""
    try:
        pickle.loads(pickle.dumps(value))
        return i, ok, value
    except Exception as e:
        what = "returned" if ok else "raised"
        return i, False, RuntimeError(
            f"job {i} {what} a {type(value).__qualname__}, which cannot be sent from its worker process: {e!r}"
        )


def fine_tune_each(
    net: Network,
    theta0: ParamVector,
    subsets: Sequence[frozenset[int]],
    corpus: Corpus,
    cfg: TrainConfig,
    derive: Callable[[FitResult], T],
) -> list[T]:
    """[derive(fine_tune_subset(net, theta0, S, corpus, cfg)) for S in
    subsets], with no fit kept past its derive call. The fine-tunes are
    independent, so side_by_side runs them, one per CPU; derive runs where
    its fit ran, so its result must pickle and its side effects stay there."""
    return side_by_side(len(subsets), lambda i: derive(fine_tune_subset(net, theta0, subsets[i], corpus, cfg)))


# ---------------------------------------------------------------------------
# Checkpoint artifact: the model's ModelConfig fields and the corpus digest in
# the container header, then the parameters as little-endian float64
# ---------------------------------------------------------------------------

# the JSON type of each ModelConfig field in the checkpoint header
_MODEL_KEYS = {"input_dim": int, "hidden_dims": list, "activation": str, "num_classes": int,
               "num_positions": int, "init_scale": float, "seed": int}


def param_digest(params: ParamVector) -> str:
    return hashlib.sha256(np.ascontiguousarray(params, dtype="<f8").tobytes()).hexdigest()


def save_checkpoint(path, net: Network, params: ParamVector, corpus_digest: str) -> None:
    header = {**asdict(net.config), "corpus_digest": corpus_digest}
    artifact.write(path, "checkpoint", 2, header, np.ascontiguousarray(params, dtype="<f8").tobytes())


def load_checkpoint(path, corpus_digest: str) -> tuple[Network, ParamVector]:
    """(net, params): the network meta-train trained, as its header
    describes it, and its parameters. Raises ValueError naming the file
    when it is not a checkpoint v2 container, was trained on a corpus whose
    digest is not corpus_digest, describes a model ModelConfig refuses or
    a hidden width that is not a JSON int, or its body is not that model's
    parameter vector."""
    header, body = artifact.read(path, "checkpoint", 2, {**_MODEL_KEYS, "corpus_digest": str})
    if header["corpus_digest"] != corpus_digest:
        raise ValueError(f"{path}: trained on a different corpus")
    hidden = header["hidden_dims"]
    if not all(isinstance(h, int) and not isinstance(h, bool) for h in hidden):
        raise ValueError(f"{path}: header key 'hidden_dims' is {hidden!r}, not a list of ints")
    try:
        net = Network(ModelConfig(**{key: header[key] for key in _MODEL_KEYS}))
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from None
    if len(body) != 8 * net.param_count:
        raise ValueError(f"{path}: holds {len(body)} bytes of parameters, not its model's {net.param_count} float64s")
    return net, np.frombuffer(body, dtype="<f8").copy()
