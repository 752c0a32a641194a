"""Meta-training, fine-tuning and loss evaluation.

Fine-tuning runs mini-batch SGD or Adam with patience-based early stopping on
a validation set, returning the parameters of the best epoch, or for a fixed
number of epochs, returning the final parameters. Both read
(X, labels) splits (taskgen.Split) that Corpus.mixture stacks. The oracle
value of a task subset S (select.oracle_evaluator) is the target validation
loss after fine_tune_subset on the combined data of S plus the target's train
split; fine_tune_each runs many such fine-tunes side by side, one per CPU.
The meta-trained parameters are saved as a checkpoint artifact (see
artifact.py).
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import os
import threading
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from typing import TypeVar

import numpy as np

from . import artifact
from .model import Network, ParamVector
from .taskgen import Corpus, Split

OPTIMIZERS = ("sgd", "adam")

T = TypeVar("T")


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

    # Adam state and two work buffers (unused for sgd); each step updates
    # them in place with the textbook expression's operations, in its order
    m, v, mh, vh = (np.zeros_like(params) for _ in range(4))
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    step = 0

    best_val = float(net.losses(params, X_val, y_val).mean())
    best_params = params.copy()
    best_epoch = 0
    curve: list[float] = []
    forward_passes = 0

    for epoch in range(1, cfg.max_epochs + 1):
        perm = rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            idx = perm[start : start + cfg.batch_size]
            g = net.loss_gradient(params, X[idx], y[idx])
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
                np.divide(m, 1 - beta1**step, out=mh)
                np.divide(v, 1 - beta2**step, out=vh)
                np.sqrt(vh, out=vh)
                vh += eps
                mh *= cfg.step_size
                mh /= vh
                params -= mh
        forward_passes += n

        val_loss = float(net.losses(params, X_val, y_val).mean())
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


def fine_tune_each(
    net: Network,
    theta0: ParamVector,
    subsets: Sequence[frozenset[int]],
    corpus: Corpus,
    cfg: TrainConfig,
    derive: Callable[[FitResult], T],
) -> list[T]:
    """[derive(fine_tune_subset(net, theta0, S, corpus, cfg)) for S in
    subsets], with no fit kept past its derive call.

    The fine-tunes are independent, so they run side by side: the calling
    thread and one helper thread per further CPU the process may run on each
    take the next subset until none is left. For the call's duration
    OpenBLAS runs one thread, so every fit computes what it computes on one
    CPU. Where numpy's OpenBLAS thread setter is not found, the fits run one
    after another. A failing fit raises as a serial loop would: the first
    subset in order that failed raises its exception, once every running fit
    has ended.
    """
    out: list = [None] * len(subsets)
    errors: dict[int, Exception] = {}
    pending = iter(range(len(subsets)))
    lock = threading.Lock()
    stop = threading.Event()

    def work() -> None:
        while not stop.is_set():
            with lock:
                i = next(pending, None)
            if i is None:
                return
            try:
                out[i] = derive(fine_tune_subset(net, theta0, subsets[i], corpus, cfg))
            except Exception as e:  # raised in the calling thread below
                errors[i] = e
                stop.set()

    with _one_blas_thread() as pinned:
        helpers = min(len(os.sched_getaffinity(0)), len(subsets)) - 1 if pinned else 0
        threads = [threading.Thread(target=work) for _ in range(helpers)]
        for t in threads:
            t.start()
        try:
            work()
        finally:
            stop.set()
            for t in threads:
                t.join()
    if errors:
        raise errors[min(errors)]
    return out


def _openblas_threads():
    """The (get, set) thread-count functions of numpy's bundled OpenBLAS,
    found the way perfbench's host facts find the getter; None where they
    are not (another BLAS, or no /proc/self/maps to look in)."""
    try:
        with open("/proc/self/maps") as maps:
            libs = {line.split()[-1] for line in maps if "openblas" in line and line.rstrip().endswith(".so")}
    except OSError:
        return None
    for lib in sorted(libs):
        dll = ctypes.CDLL(lib)
        get = getattr(dll, "scipy_openblas_get_num_threads64_", None)
        put = getattr(dll, "scipy_openblas_set_num_threads64_", None)
        if get is not None and put is not None:
            get.argtypes, get.restype = [], ctypes.c_int
            put.argtypes, put.restype = [ctypes.c_int], None
            return get, put
    return None


@contextlib.contextmanager
def _one_blas_thread():
    """Pin OpenBLAS to one thread inside the block, then restore its count.
    Yields whether it could."""
    found = _openblas_threads()
    if found is None:
        yield False
        return
    get, put = found
    before = get()
    put(1)
    try:
        yield True
    finally:
        put(before)


# ---------------------------------------------------------------------------
# Checkpoint artifact: the config and corpus digests in the container header,
# then the parameters as little-endian float64
# ---------------------------------------------------------------------------


def param_digest(params: ParamVector) -> str:
    return hashlib.sha256(np.ascontiguousarray(params, dtype="<f8").tobytes()).hexdigest()


def save_checkpoint(path, params: ParamVector, config_digest: str, corpus_digest: str) -> None:
    header = {"config_digest": config_digest, "corpus_digest": corpus_digest}
    artifact.write(path, "checkpoint", 1, header, np.ascontiguousarray(params, dtype="<f8").tobytes())


def load_checkpoint(path) -> tuple[ParamVector, str, str]:
    """Returns (params, config_digest, corpus_digest). Raises ValueError
    naming the file when it is not a checkpoint container."""
    header, body = artifact.read(path, "checkpoint", 1, {"config_digest": str, "corpus_digest": str})
    params = np.frombuffer(body, dtype="<f8").copy()
    return params, header["config_digest"], header["corpus_digest"]
