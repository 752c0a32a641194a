"""Deterministic synthetic corpora with controllable task relatedness.

Every split of a task is the (X, labels) pair Network reads (see model.py).
Two generators: a Gaussian multitask family with planted helpful/harmful
source tasks, and a digit-addition family with planted clean/noisy groups.
Plus k-means clustering of cached gradients, which partitions samples into
the groups that data selection selects among, and the corpus artifact: an
artifact.py container whose header holds the meta and whose body holds one
sample per line.
"""

from __future__ import annotations

import hashlib
import io
from dataclasses import dataclass, field

import numpy as np

from . import artifact

TARGET_TASK_ID = 0

DIGIT_CLASSES = 10


# (X (N, D) float64, labels (N,) or (N, L) int64), in sample order
Split = tuple[np.ndarray, np.ndarray]


def _position_labels(Y: np.ndarray) -> np.ndarray:
    """(N, L) labels in the shape Network takes, (N,) if L == 1: the one rule
    of generators and load_corpus alike, so both give the same arrays."""
    return Y[:, 0] if Y.shape[1] == 1 else Y


@dataclass
class TaskDataset:
    task_id: int
    train: Split
    val: Split

    def __post_init__(self):
        if len(self.train[0]) == 0:
            raise ValueError(f"task {self.task_id} has empty train split")


@dataclass
class Corpus:
    """n source tasks (ids 1..n) plus a distinct target task (id 0).

    _digest keeps the SHA-256 of the corpus artifact's bytes once known:
    those load_corpus read or save_corpus wrote, else serialize_corpus's,
    computed on the first digest() call. It is left out of __init__, ==
    and repr."""

    tasks: list[TaskDataset]
    target: TaskDataset
    meta: dict
    _digest: str | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        ids = [t.task_id for t in self.tasks]
        if ids != list(range(1, len(self.tasks) + 1)):
            raise ValueError("source task ids must be 1..n in order")
        if self.target.task_id != TARGET_TASK_ID:
            raise ValueError("target task id must be 0")

    @property
    def n_tasks(self) -> int:
        return len(self.tasks)

    def task(self, task_id: int) -> TaskDataset:
        if task_id == TARGET_TASK_ID:
            return self.target
        return self.tasks[task_id - 1]

    @property
    def input_dim(self) -> int:
        return int(self.target.train[0].shape[1])

    def mixture(self, split: str, subset=None) -> Split:
        """The "train" or "val" split of the subset's source tasks (default:
        all) in id order, then the target's: D_S plus the target."""
        ids = range(1, self.n_tasks + 1) if subset is None else sorted(subset)
        parts = [getattr(self.task(t), split) for t in [*ids, TARGET_TASK_ID]]
        return np.concatenate([X for X, _ in parts]), np.concatenate([y for _, y in parts])

    def digest(self) -> str:
        """The SHA-256 of the corpus artifact: of the file's bytes for a
        corpus loaded or saved, so a valid file written another way than
        save_corpus writes (say 0x1.8p+0 for 0x1.8000000000000p+0) has a
        digest of its own."""
        if self._digest is None:
            self._digest = hashlib.sha256(serialize_corpus(self)).hexdigest()
        return self._digest


# ---------------------------------------------------------------------------
# Gaussian multitask generator
# ---------------------------------------------------------------------------

MEAN_SHIFT = 1.5  # class-mean offset along the task direction


def _rotate(w: np.ndarray, u: np.ndarray, degrees: float) -> np.ndarray:
    """Rotate w toward u by the given angle, snapping near-exact multiples of 90."""
    rad = np.deg2rad(degrees)
    c, s = np.cos(rad), np.sin(rad)
    if abs(c) < 1e-12:
        c = 0.0
    if abs(s) < 1e-12:
        s = 0.0
    if abs(abs(c) - 1.0) < 1e-12:
        c = np.sign(c)
    if abs(abs(s) - 1.0) < 1e-12:
        s = np.sign(s)
    return c * w + s * u


def _gaussian_task(rng, task_id, direction, train_size, val_size, dim, label_noise):
    def draw(n):
        y = rng.integers(0, 2, size=n)
        sign = 2.0 * y - 1.0
        X = sign[:, None] * MEAN_SHIFT * direction[None, :] + rng.standard_normal((n, dim))
        if label_noise > 0:
            flip = rng.random(n) < label_noise
            y = np.where(flip, 1 - y, y)
        return X, y

    return TaskDataset(task_id, draw(train_size), draw(val_size))


def gen_multitask_gaussian(
    n: int,
    samples_per_task: int,
    dim: int,
    frac_helpful: float,
    rotation_deg: float,
    label_noise: float,
    seed: int,
) -> Corpus:
    """Binary Gaussian corpus with planted helpful and harmful source tasks.

    The target uses a fixed unit direction; helpful tasks reuse it exactly,
    harmful tasks use it rotated by rotation_deg and relabel a label_noise
    fraction of points. Validation splits are samples_per_task // 2 per source
    task (at least 16) and max(40, samples_per_task) for the target.
    """
    if n < 2:
        raise ValueError("need at least 2 source tasks")
    if dim < 2:
        raise ValueError("dim must be >= 2")
    if not 0.0 <= frac_helpful <= 1.0:
        raise ValueError("frac_helpful must be in [0, 1]")
    if not 0.0 <= label_noise <= 1.0:
        raise ValueError("label_noise must be in [0, 1]")

    rng = np.random.default_rng(seed)
    w = np.zeros(dim)
    w[0] = 1.0
    u = np.zeros(dim)
    u[1] = 1.0
    harmful_dir = _rotate(w, u, rotation_deg)

    n_helpful = int(round(frac_helpful * n))
    helpful_ids = list(range(1, n_helpful + 1))
    harmful_ids = list(range(n_helpful + 1, n + 1))

    n_val = max(16, samples_per_task // 2)
    target = _gaussian_task(
        rng, TARGET_TASK_ID, w, samples_per_task, max(40, samples_per_task), dim, 0.0
    )
    tasks = []
    for tid in range(1, n + 1):
        if tid in helpful_ids:
            tasks.append(_gaussian_task(rng, tid, w, samples_per_task, n_val, dim, 0.0))
        else:
            tasks.append(
                _gaussian_task(rng, tid, harmful_dir, samples_per_task, n_val, dim, label_noise)
            )

    meta = {
        "kind": "gaussian",
        "n": n,
        "samples_per_task": samples_per_task,
        "dim": dim,
        "frac_helpful": frac_helpful,
        "rotation_deg": rotation_deg,
        "label_noise": label_noise,
        "seed": seed,
        "helpful_ids": helpful_ids,
        "harmful_ids": harmful_ids,
        "target_direction": w.tolist(),
        "harmful_direction": harmful_dir.tolist(),
    }
    return Corpus(tasks, target, meta)


# ---------------------------------------------------------------------------
# Noisy digit-addition generator
# ---------------------------------------------------------------------------


def encode_addition_features(a_digits, b_digits) -> np.ndarray:
    """One-hot encoding of operand pairs: two (..., len) digit arrays, most
    significant first, to (..., 2 * len * 10) features."""
    digits = np.concatenate([np.asarray(a_digits, dtype=np.int64), np.asarray(b_digits, dtype=np.int64)], axis=-1)
    x = np.zeros((*digits.shape[:-1], digits.shape[-1] * DIGIT_CLASSES))
    np.put_along_axis(x, np.arange(digits.shape[-1]) * DIGIT_CLASSES + digits, 1.0, axis=-1)
    return x


def _addition_split(rng, n, digits, noisy) -> Split:
    """n samples drawn one after another: the operands (redrawn until their
    sum fits in digits), then a noisy sample's random output digits. A clean
    sample's labels are the zero-padded digits of the sum. Only the draws
    run per sample; features and sums are made for all samples at once."""
    A, B, Y = (np.empty((n, digits), dtype=np.int64) for _ in range(3))
    for i in range(n):
        while True:
            a = rng.integers(0, 10, size=digits)
            b = rng.integers(0, 10, size=digits)
            # a + b < 10**digits iff a <= 10**digits - 1 - b, whose digits
            # are 9 - b; equal-length digit lists compare as their numbers
            if a.tolist() <= (9 - b).tolist():
                break
        A[i], B[i] = a, b
        if noisy:
            Y[i] = rng.integers(0, 10, size=digits)
    if not noisy:  # long addition, least significant digit first
        carry = np.zeros(n, dtype=np.int64)
        for j in reversed(range(digits)):
            carry, Y[:, j] = np.divmod(A[:, j] + B[:, j] + carry, 10)
    return encode_addition_features(A, B), _position_labels(Y)


def gen_noisy_addition(
    n_groups: int,
    n_clean: int,
    digits: int,
    samples_per_group: int,
    seed: int,
    target_samples: int | None = None,
) -> Corpus:
    """Addition corpus: n_clean correctly-labeled groups, the rest with random
    output digits, plus one held-out clean group as the target (id 0).

    target_samples sizes the held-out target train split (default: same as the
    source groups); target tasks are typically much smaller than the sources.
    """
    if digits < 1:
        raise ValueError("digits must be >= 1")
    if n_clean > n_groups:
        raise ValueError("n_clean must not exceed n_groups")
    if target_samples is None:
        target_samples = samples_per_group

    rng = np.random.default_rng(seed)

    def group(task_id, noisy, train_size, val_size=None):
        if val_size is None:
            val_size = max(8, train_size // 4)
        train = _addition_split(rng, train_size, digits, noisy)
        return TaskDataset(task_id, train, _addition_split(rng, val_size, digits, noisy))

    # the target's val split anchors every evaluation, so keep it solid even
    # when its train split is small
    target = group(
        TARGET_TASK_ID, noisy=False, train_size=target_samples,
        val_size=max(100, target_samples),
    )
    tasks = [
        group(tid, noisy=(tid > n_clean), train_size=samples_per_group)
        for tid in range(1, n_groups + 1)
    ]
    meta = {
        "kind": "addition",
        "n": n_groups,
        "n_clean": n_clean,
        "digits": digits,
        "samples_per_group": samples_per_group,
        "target_samples": target_samples,
        "seed": seed,
        "clean_ids": list(range(1, n_clean + 1)),
        "noisy_ids": list(range(n_clean + 1, n_groups + 1)),
    }
    return Corpus(tasks, target, meta)


# ---------------------------------------------------------------------------
# Gradient clustering (data-selection preprocessing)
# ---------------------------------------------------------------------------

_KMEANS_ITERS = 100  # Lloyd iterations at most; they stop once no label changes


def _kmeans(X: np.ndarray, k: int, seed: int) -> np.ndarray:
    """Seeded k-means++ followed by at most _KMEANS_ITERS Lloyd iterations;
    returns labels."""
    n = len(X)
    rng = np.random.default_rng(seed)
    x_sq = np.sum(X * X, axis=1)

    def dist_to(centers):
        # squared distances via the expanded form, O(n k) memory
        return x_sq[:, None] - 2.0 * (X @ centers.T) + np.sum(centers * centers, axis=1)

    centers = np.empty((k, X.shape[1]))
    centers[0] = X[rng.integers(n)]
    d2 = np.sum((X - centers[0]) ** 2, axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total <= 0:
            centers[j] = X[rng.integers(n)]
        else:
            centers[j] = X[rng.choice(n, p=d2 / total)]
        d2 = np.minimum(d2, np.sum((X - centers[j]) ** 2, axis=1))
    labels = np.zeros(n, dtype=np.int64)
    for _ in range(_KMEANS_ITERS):
        dist = dist_to(centers)
        new_labels = dist.argmin(axis=1)
        for j in range(k):
            mask = new_labels == j
            if mask.any():
                centers[j] = X[mask].mean(axis=0)
            else:
                # re-seed an empty cluster on the farthest point
                new_labels[dist.min(axis=1).argmax()] = j
                centers[j] = X[new_labels == j].mean(axis=0)
        if np.array_equal(new_labels, labels):
            labels = new_labels
            break
        labels = new_labels
    return labels


def cluster_into_groups(g_proj: np.ndarray, n_groups: int, seed: int) -> np.ndarray:
    """Group samples by k-means on their unit-normalized projected gradients
    (the rows of g_proj), i.e. cosine geometry. Returns the (n,) int64 group
    of each row, in [0, n_groups); raises ValueError if a group is empty.
    Deterministic given seed."""
    if len(g_proj) == 0:
        raise ValueError("no gradients to cluster")
    if n_groups < 1:
        raise ValueError(f"{n_groups} groups: need at least one")
    if n_groups > len(g_proj):
        raise ValueError(f"{n_groups} groups but only {len(g_proj)} samples")
    G = np.array(g_proj, dtype=np.float64)
    norms = np.linalg.norm(G, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    G /= norms
    labels = _kmeans(G, n_groups, seed)
    counts = np.bincount(labels, minlength=n_groups)
    if np.any(counts == 0):
        raise ValueError(f"group {int(np.flatnonzero(counts == 0)[0])} is empty")
    return labels


# ---------------------------------------------------------------------------
# Corpus artifact: the input dimension and meta in the container header, then
# one sample per line
# ---------------------------------------------------------------------------


def _write_split(out, task_id: int, split: str, X: np.ndarray, labels: np.ndarray, onehot: bool):
    for x, y in zip(X, labels.reshape(len(labels), -1)):
        if onehot:
            feats = ",".join(str(i) for i in np.flatnonzero(x))
        else:
            feats = ",".join(float(v).hex() for v in x)
        out.write(f"{task_id} {split} {','.join(str(v) for v in y)} {feats}\n")


def serialize_corpus(corpus: Corpus) -> bytes:
    """The corpus artifact's bytes; Corpus.digest hashes them."""
    out = io.StringIO()
    onehot = corpus.meta.get("kind") == "addition"  # lines list the set indices
    for t in [corpus.target, *corpus.tasks]:
        _write_split(out, t.task_id, "train", *t.train, onehot)
        _write_split(out, t.task_id, "val", *t.val, onehot)
    header = {"dim": corpus.input_dim, "meta": corpus.meta}
    return artifact.encode("corpus", 1, header, out.getvalue().encode())


def save_corpus(path, corpus: Corpus) -> None:
    """Write the corpus artifact; the corpus keeps the digest of its bytes."""
    data = serialize_corpus(corpus)
    artifact.write_atomic(path, data)
    corpus._digest = hashlib.sha256(data).hexdigest()


def load_corpus(path) -> Corpus:
    """Read a corpus artifact, keeping the digest of the bytes read; raises
    ValueError naming the file when it is not a corpus container, a sample
    line is malformed or a split is ragged."""
    with open(path, "rb") as f:
        data = f.read()
    header, body = artifact.decode(path, data, "corpus", 1, {"dim": int, "meta": dict})
    dim, meta = header["dim"], header["meta"]
    onehot = meta.get("kind") == "addition"
    buckets: dict[tuple[int, str], list] = {}
    for lineno, line in enumerate(body.decode().splitlines(), 2):
        try:
            tid, split, x, y = _parse_sample(line, dim, onehot)
        except (ValueError, IndexError, OverflowError) as e:  # OverflowError: a feature past float64
            raise ValueError(f"{path}: line {lineno}: {e}") from None
        buckets.setdefault((tid, split), []).append((x, y))

    def stacked(tid: int, split: str) -> Split:
        rows = buckets.get((tid, split))
        if not rows:
            raise ValueError(f"{path}: task {tid} has no {split} lines")
        try:
            Y = np.array([y for _, y in rows], dtype=np.int64)
        except ValueError:
            raise ValueError(f"{path}: task {tid} {split} lines differ in their number of labels") from None
        return np.array([x for x, _ in rows]), _position_labels(Y)

    ids = sorted({tid for tid, _ in buckets} | {TARGET_TASK_ID})  # the target first
    tasks = [TaskDataset(tid, stacked(tid, "train"), stacked(tid, "val")) for tid in ids]
    corpus = Corpus(tasks[1:], tasks[0], meta)
    corpus._digest = hashlib.sha256(data).hexdigest()
    return corpus


def _parse_sample(line: str, dim: int, onehot: bool) -> tuple[int, str, np.ndarray, list[int]]:
    tid_s, split, label_s, feats_s = line.split()
    if split not in ("train", "val"):
        raise ValueError(f"split {split!r} is neither train nor val")
    if onehot:
        on = [int(i) for i in feats_s.split(",")]
        bad = next((i for i in on if not 0 <= i < dim), None)
        if bad is not None:  # an index past either end would wrap or raise IndexError
            raise ValueError(f"one-hot index {bad} is outside 0..{dim - 1}")
        x = np.zeros(dim)
        x[on] = 1.0
    else:
        feats = feats_s.split(",")
        # float.fromhex reads a bare 1.5 as hex digits, 1.3125. Only a line
        # holding fewer 0x than features can hold a feature without one (a
        # feature holding two is no float, which fromhex refuses)
        if feats_s.count("0x") != len(feats):
            bad = next((v for v in feats if not v.removeprefix("-").startswith("0x")), None)
            if bad is not None:
                raise ValueError(f"feature {bad!r} is not a hex float (0x...)")
        x = np.array([float.fromhex(v) for v in feats])
        if x.shape != (dim,):
            raise ValueError(f"expected {dim} features, got {x.shape[0]}")
    return int(tid_s), split, x, [int(v) for v in label_s.split(",")]
