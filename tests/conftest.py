"""Shared fixtures: the default planted corpus and its trained pipeline state,
and a tiny run directory for the CLI stages.

Session-scoped because meta-training and cache construction are the expensive
steps; tests treat these as read-only.
"""

import numpy as np
import pytest

from gradsel import estimate, trainer
from gradsel.cli import main
from gradsel.estimate import SolveConfig
from gradsel.linearize import build_cache
from gradsel.model import ModelConfig, Network
from gradsel.project import gaussian_projection
from gradsel.taskgen import gen_multitask_gaussian
from gradsel.trainer import TrainConfig, meta_train

DEFAULT_CORPUS = dict(
    n=20,
    samples_per_task=40,
    dim=10,
    frac_helpful=0.5,
    rotation_deg=135.0,
    label_noise=0.3,
    seed=11,
)

META_CFG = TrainConfig(
    step_size=0.3, batch_size=32, max_epochs=300, early_stop_patience=30,
    seed=3, optimizer="sgd",
)

FINETUNE_CFG = TrainConfig(
    step_size=0.1, batch_size=4096, max_epochs=60, early_stop_patience=3,
    seed=4, optimizer="sgd",
)

SOLVE_CFG = SolveConfig(ridge_lambda=0.1)

# flags for a run small enough to take every CLI stage in seconds
TINY = [
    "--corpus.n", "4",
    "--corpus.samples_per_task", "12",
    "--corpus.dim", "5",
    "--model.hidden_dims", "16",
    "--train.max_epochs", "30",
    "--train.early_stop_patience", "8",
    "--finetune.max_epochs", "15",
    "--project.d", "20",
    "--select.m", "30",
    "--select.method", "fs",
]


def block_solve(problem, subsets, H_inv=None):
    """The block solve estimate_subsets runs for the subsets, from their
    shared starts, with H_inv in place of H_all^-1 for the fixed steps if
    given: each subset's (x_hat, steps, stop) in order."""
    member, n = estimate._members(problem, subsets)
    segments = estimate._segments(problem.cache, problem.id_rows, member)
    X = estimate._starts(problem, member, n)
    X_hat, steps, stops = estimate._solve(segments, n, X, problem.cfg, problem.H_inv if H_inv is None else H_inv)
    return list(zip(X_hat, steps.tolist(), stops))


def newton_solve(problem, subset, x0=None):
    """(x_hat, steps, stop) of the subset solved alone by damped Newton from
    x0 (default 0), the loop's Newton mode as prepare runs it."""
    member, n = estimate._members(problem, [subset])
    segments = estimate._segments(problem.cache, problem.id_rows, member)
    X = np.zeros((1, problem.cache.d)) if x0 is None else np.array(x0, dtype=np.float64).reshape(1, -1)
    X_hat, steps, stops = estimate._solve(segments, n, X, problem.cfg, None)
    return X_hat[0], int(steps[0]), stops[0]


def _cpus(monkeypatch, n):
    """Make the process see n CPUs it may run on, so trainer.side_by_side
    runs its jobs in n workers (the caller and n - 1 forked children) where
    OpenBLAS's thread setter is found."""
    monkeypatch.setattr(trainer.os, "sched_getaffinity", lambda pid: set(range(n)))


@pytest.fixture(scope="session")
def gauss_corpus():
    return gen_multitask_gaussian(**DEFAULT_CORPUS)


@pytest.fixture(scope="session")
def gauss_net():
    return Network(
        ModelConfig(input_dim=10, hidden_dims=(320,), activation="tanh",
                    num_classes=2, init_scale=0.5, seed=7)
    )


@pytest.fixture(scope="session")
def theta_star(gauss_net, gauss_corpus):
    return meta_train(gauss_net, gauss_corpus, META_CFG).params


@pytest.fixture(scope="session")
def cache(gauss_net, theta_star, gauss_corpus):
    P = gaussian_projection(gauss_net.param_count, 100, 5)
    return build_cache(gauss_net, theta_star, gauss_corpus, P, 5)


@pytest.fixture(scope="session")
def tiny_run(tmp_path_factory):
    """A run directory after gen, meta-train, cache and select at TINY
    sizes. Tests copy it before they change anything in it."""
    root = tmp_path_factory.mktemp("tiny")
    for stage in ("gen", "meta-train", "cache", "select"):
        assert main(["--out", str(root), stage, *TINY]) == 0
    return root
