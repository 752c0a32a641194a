import shutil
import sys

import numpy as np
import pytest

from gradsel import project
from gradsel.cli import main
from gradsel.project import GENERATOR_VERSION, gaussian_projection

from conftest import TINY


def _philox_block(seed, index, rows, d):
    """Block `index` of P drawn straight from its Philox stream."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(GENERATOR_VERSION, index))
    return np.random.Generator(np.random.Philox(ss)).standard_normal((rows, d)) / np.sqrt(d)


def test_project_zero_vector():
    P = gaussian_projection(50, 10, 1)
    assert np.array_equal(np.zeros(50) @ P, np.zeros(10))


def test_linearity():
    P = gaussian_projection(200, 25, 2)
    rng = np.random.default_rng(0)
    a, b = rng.standard_normal(200), rng.standard_normal(200)
    assert np.allclose((a + b) @ P, a @ P + b @ P, atol=1e-12)


def test_lift_zero():
    P = gaussian_projection(64, 8, 3)
    assert np.array_equal(P @ np.zeros(8), np.zeros(64))


def test_adjoint_identity_against_dense_oracle():
    # <P x, g> == <x, P^T g>
    P = gaussian_projection(300, 20, 4)
    rng = np.random.default_rng(1)
    g = rng.standard_normal(300)
    x = rng.standard_normal(20)
    assert (P @ x) @ g == pytest.approx(x @ (g @ P), abs=1e-10)


def test_streaming_matches_dense_across_block_boundary():
    # p spans three blocks: P's rows are exactly its Philox block stream,
    # the stream cache.bin's seed stands for
    B = project._BLOCK_ROWS
    p, d = 2 * B + 137, 16
    P = gaussian_projection(p, d, 5)
    assert P.shape == (p, d)
    for i in range(3):
        rows = min(B, p - i * B)
        assert np.array_equal(P[i * B : (i + 1) * B], _philox_block(5, i, rows, d))


@pytest.mark.parametrize("p, d", [(3841, 100), (38706, 100), (10, 3), (20000, 7)])
def test_in_place_fill_is_byte_identical_to_block_expression(p, d):
    # P is filled block by block in place; its bytes are those of the
    # blocks drawn whole and scaled into new arrays
    B = project._BLOCK_ROWS
    blocks = [_philox_block(9, i, min(B, p - lo), d) for i, lo in enumerate(range(0, p, B))]
    assert gaussian_projection(p, d, 9).tobytes() == np.concatenate(blocks).tobytes()


def test_stored_matches_streamed():
    # projecting and lifting with P gives what applying its block stream one
    # block at a time gives
    B = project._BLOCK_ROWS
    p, d = B + 300, 12
    P = gaussian_projection(p, d, 7)
    rng = np.random.default_rng(8)
    G = rng.standard_normal((5, p))
    x = rng.standard_normal(d)
    blocks = [_philox_block(7, 0, B, d), _philox_block(7, 1, 300, d)]
    streamed_many = G[:, :B] @ blocks[0] + G[:, B:] @ blocks[1]
    streamed_lift = np.concatenate([blk @ x for blk in blocks])
    assert np.allclose(G @ P, streamed_many, rtol=0, atol=1e-12)
    assert np.allclose(P @ x, streamed_lift, rtol=0, atol=1e-12)


def test_small_projector_generates_P_once(tiny_run, tmp_path, monkeypatch):
    # one select stage generates P once, when it loads the cache, and lifts
    # every subset it scores with that P
    calls = []
    for name, mod in list(sys.modules.items()):
        if name.startswith("gradsel") and hasattr(mod, "gaussian_projection"):
            monkeypatch.setattr(mod, "gaussian_projection",
                                lambda *args: calls.append(args) or gaussian_projection(*args))
    shutil.copytree(tiny_run, tmp_path, dirs_exist_ok=True)
    for method in ("re", "ds-fs"):
        calls.clear()
        assert main(["--out", str(tmp_path), "select", *TINY, "--select.method", method]) == 0
        assert len(calls) == 1, method


def test_stored_matrix_is_read_only():
    P = gaussian_projection(40, 5, 2)
    with pytest.raises(ValueError):
        P[0, 0] = 1e9
    copy = P.copy()
    copy[0, 0] = 1e9  # a copy may be changed
    assert not np.array_equal(copy, P)


def test_determinism_same_seed():
    rng = np.random.default_rng(4)
    g = rng.standard_normal(400)
    a = g @ gaussian_projection(400, 15, 9)
    b = g @ gaussian_projection(400, 15, 9)
    assert np.array_equal(a, b)
    c = g @ gaussian_projection(400, 15, 10)
    assert not np.array_equal(a, c)


def test_inner_product_preserved_in_expectation():
    # entries have variance 1/d, so E<P^T a, P^T b> = <a, b>; check the mean
    # over 200 seeds lands within 3 standard errors
    rng = np.random.default_rng(5)
    a = rng.standard_normal(300)
    b = rng.standard_normal(300)
    a /= np.linalg.norm(a)
    b /= np.linalg.norm(b)
    vals = []
    for seed in range(200):
        P = gaussian_projection(300, 20, seed)
        vals.append((a @ P) @ (b @ P))
    vals = np.array(vals)
    se = vals.std(ddof=1) / np.sqrt(len(vals))
    assert abs(vals.mean() - a @ b) <= 3 * se


def test_jl_cosine_concentration():
    # d=100, p=1e4: at least 95% of 100 random unit pairs keep their cosine
    # within 0.25 after projection
    p, d = 10_000, 100
    P = gaussian_projection(p, d, 11)
    rng = np.random.default_rng(6)
    A = rng.standard_normal((100, p))
    B = rng.standard_normal((100, p))
    A /= np.linalg.norm(A, axis=1, keepdims=True)
    B /= np.linalg.norm(B, axis=1, keepdims=True)
    PA = A @ P
    PB = B @ P
    true_cos = np.sum(A * B, axis=1)
    proj_cos = np.sum(PA * PB, axis=1) / (
        np.linalg.norm(PA, axis=1) * np.linalg.norm(PB, axis=1)
    )
    ok = np.abs(proj_cos - true_cos) <= 0.25
    assert ok.mean() >= 0.95


def test_validation():
    for p, d in ((0, 5), (5, 0), (-1, 3)):
        with pytest.raises(ValueError, match="positive"):
            gaussian_projection(p, d, 0)
