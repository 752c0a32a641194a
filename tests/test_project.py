import numpy as np
import pytest

from gradsel import project
from gradsel.project import Projector, identity_projector


def test_project_zero_vector():
    proj = Projector(p=50, d=10, seed=1)
    assert np.array_equal(proj.project(np.zeros(50)), np.zeros(10))


def test_injected_identity_is_identity():
    proj = identity_projector(12)
    g = np.arange(12.0)
    assert np.array_equal(proj.project(g), g)
    assert np.array_equal(proj.lift(g), g)


def test_linearity():
    proj = Projector(p=200, d=25, seed=2)
    rng = np.random.default_rng(0)
    a, b = rng.standard_normal(200), rng.standard_normal(200)
    lhs = proj.project(a + b)
    rhs = proj.project(a) + proj.project(b)
    assert np.allclose(lhs, rhs, atol=1e-12)


def test_lift_zero():
    proj = Projector(p=64, d=8, seed=3)
    assert np.array_equal(proj.lift(np.zeros(8)), np.zeros(64))


def test_adjoint_identity_against_dense_oracle():
    # <lift(x), g> == <x, project(g)>, checked against an explicitly
    # materialized dense matrix on a small p
    proj = Projector(p=300, d=20, seed=4)
    P = proj.materialize()
    rng = np.random.default_rng(1)
    g = rng.standard_normal(300)
    x = rng.standard_normal(20)
    assert np.allclose(proj.project(g), P.T @ g, atol=1e-12)
    assert np.allclose(proj.lift(x), P @ x, atol=1e-12)
    assert proj.lift(x) @ g == pytest.approx(x @ proj.project(g), abs=1e-10)


def test_streaming_matches_dense_across_block_boundary():
    # p > block size exercises multi-block streaming; at d=128 P is 16.9 MB,
    # above the storage limit, so project and lift stream its blocks
    proj = Projector(p=8192 * 2 + 137, d=128, seed=5)
    assert proj.p * proj.d * 8 > project._STORE_BYTES
    P = proj.materialize()
    rng = np.random.default_rng(2)
    g = rng.standard_normal(proj.p)
    x = rng.standard_normal(128)
    assert np.allclose(proj.project(g), P.T @ g, atol=1e-10)
    assert np.allclose(proj.lift(x), P @ x, atol=1e-10)
    assert proj._dense is None


def test_stored_matches_streamed(monkeypatch):
    # same seed, one projector keeping P and one streaming it across blocks
    p, d = 8192 + 300, 12
    stored = Projector(p=p, d=d, seed=7)
    rng = np.random.default_rng(8)
    G = rng.standard_normal((5, p))
    x = rng.standard_normal(d)
    stored_lift, stored_many = stored.lift(x), stored.project_many(G)
    assert stored._dense is not None

    monkeypatch.setattr(project, "_STORE_BYTES", 0)
    streamed = Projector(p=p, d=d, seed=7)
    assert streamed == stored
    assert np.allclose(streamed.lift(x), stored_lift, rtol=0, atol=1e-12)
    assert np.allclose(streamed.project_many(G), stored_many, rtol=0, atol=1e-12)
    assert streamed._dense is None


def test_small_projector_generates_P_once(monkeypatch):
    calls = []
    block = Projector._block

    def counting_block(self, index):
        calls.append(index)
        return block(self, index)

    monkeypatch.setattr(Projector, "_block", counting_block)
    proj = Projector(p=8192 + 10, d=4, seed=3)
    rng = np.random.default_rng(9)
    for _ in range(20):
        proj.lift(rng.standard_normal(4))
        proj.project_many(rng.standard_normal((3, proj.p)))
    proj.materialize()
    assert calls == [0, 1]


def test_stored_matrix_is_read_only():
    proj = Projector(p=40, d=5, seed=2)
    P = proj.materialize()
    P[0, 0] = 1e9  # the copy may be changed; the stored P may not
    with pytest.raises(ValueError):
        proj._dense[0, 0] = 1e9
    assert not np.array_equal(proj.materialize(), P)


def test_project_many_matches_single():
    proj = Projector(p=500, d=30, seed=6)
    rng = np.random.default_rng(3)
    G = rng.standard_normal((7, 500))
    batch = proj.project_many(G)
    for i in range(7):
        assert np.allclose(batch[i], proj.project(G[i]), atol=1e-12)


def test_determinism_same_seed():
    rng = np.random.default_rng(4)
    g = rng.standard_normal(400)
    a = Projector(p=400, d=15, seed=9).project(g)
    b = Projector(p=400, d=15, seed=9).project(g)
    assert np.array_equal(a, b)
    c = Projector(p=400, d=15, seed=10).project(g)
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
        proj = Projector(p=300, d=20, seed=seed)
        vals.append(proj.project(a) @ proj.project(b))
    vals = np.array(vals)
    se = vals.std(ddof=1) / np.sqrt(len(vals))
    assert abs(vals.mean() - a @ b) <= 3 * se


def test_jl_cosine_concentration():
    # d=100, p=1e4: at least 95% of 100 random unit pairs keep their cosine
    # within 0.25 after projection
    p, d = 10_000, 100
    proj = Projector(p=p, d=d, seed=11)
    rng = np.random.default_rng(6)
    A = rng.standard_normal((100, p))
    B = rng.standard_normal((100, p))
    A /= np.linalg.norm(A, axis=1, keepdims=True)
    B /= np.linalg.norm(B, axis=1, keepdims=True)
    PA = proj.project_many(A)
    PB = proj.project_many(B)
    true_cos = np.sum(A * B, axis=1)
    proj_cos = np.sum(PA * PB, axis=1) / (
        np.linalg.norm(PA, axis=1) * np.linalg.norm(PB, axis=1)
    )
    ok = np.abs(proj_cos - true_cos) <= 0.25
    assert ok.mean() >= 0.95


def test_validation():
    with pytest.raises(ValueError):
        Projector(p=0, d=5)
    with pytest.raises(ValueError):
        Projector(p=5, d=5, mode="sparse")
    with pytest.raises(ValueError):
        Projector(p=5, d=5, mode="injected")
    with pytest.raises(ValueError):
        Projector(p=5, d=3, mode="injected", matrix=np.eye(4))
    with pytest.raises(ValueError):
        Projector(p=5, d=3, mode="gaussian", matrix=np.zeros((5, 3)))
    proj = Projector(p=10, d=3, seed=0)
    with pytest.raises(ValueError):
        proj.project(np.zeros(9))
    with pytest.raises(ValueError):
        proj.lift(np.zeros(4))
