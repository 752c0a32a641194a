import hashlib
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradsel import artifact, taskgen
from gradsel.taskgen import (
    Corpus,
    TaskDataset,
    cluster_into_groups,
    encode_addition_features,
    gen_multitask_gaussian,
    gen_noisy_addition,
    load_corpus,
    save_corpus,
    serialize_corpus,
)
from reference import addition_split


# ---- gaussian generator ----

def test_zero_rotation_sources_iid_with_target():
    c = gen_multitask_gaussian(4, 20, 5, frac_helpful=0.0, rotation_deg=0.0, label_noise=0.0, seed=3)
    assert c.meta["harmful_direction"] == c.meta["target_direction"]


def test_180_rotation_exactly_inverts_the_rule():
    c = gen_multitask_gaussian(4, 30, 6, frac_helpful=0.5, rotation_deg=180.0, label_noise=0.0, seed=3)
    w = np.array(c.meta["target_direction"])
    assert np.array_equal(np.array(c.meta["harmful_direction"]), -w)
    # harmful samples labeled y sit at mean -shift*w per y: projection sign flips
    for tid in c.meta["harmful_ids"]:
        X, y = c.task(tid).train
        proj = (2 * y - 1) * (X @ w)
        assert proj.mean() < -0.5


def test_helpful_count_bookkeeping():
    c = gen_multitask_gaussian(20, 10, 4, frac_helpful=0.5, rotation_deg=90.0, label_noise=0.1, seed=1)
    assert len(c.meta["helpful_ids"]) == 10
    assert sorted(c.meta["helpful_ids"] + c.meta["harmful_ids"]) == list(range(1, 21))


def test_task_ids_and_splits():
    c = gen_multitask_gaussian(3, 12, 4, 0.5, 90.0, 0.0, seed=2)
    assert [t.task_id for t in c.tasks] == [1, 2, 3]
    assert c.target.task_id == 0
    for t in [c.target, *c.tasks]:
        for X, y in (t.train, t.val):
            assert X.shape == (len(y), 4) and X.dtype == np.float64
            assert y.ndim == 1 and y.dtype == np.int64
    assert len(c.target.val[0]) == 40


def test_invalid_fractions_raise():
    with pytest.raises(ValueError):
        gen_multitask_gaussian(4, 10, 4, frac_helpful=1.5, rotation_deg=0, label_noise=0, seed=1)
    with pytest.raises(ValueError):
        gen_multitask_gaussian(4, 10, 4, frac_helpful=0.5, rotation_deg=0, label_noise=-0.1, seed=1)


def test_reproducibility_byte_identical():
    a = gen_multitask_gaussian(5, 15, 6, 0.4, 120.0, 0.2, seed=77)
    b = gen_multitask_gaussian(5, 15, 6, 0.4, 120.0, 0.2, seed=77)
    assert serialize_corpus(a) == serialize_corpus(b)
    c = gen_noisy_addition(4, 2, 3, 12, seed=78)
    d = gen_noisy_addition(4, 2, 3, 12, seed=78)
    assert serialize_corpus(c) == serialize_corpus(d)


# ---- addition generator ----

def _sum_digits(x: np.ndarray, digits: int) -> list[int]:
    """The digits, most significant first, of the sum of the two operands
    a one-hot feature row encodes, taken by integer division."""
    a, b = (int("".join(map(str, row))) for row in x.reshape(2, digits, 10).argmax(axis=2))
    return [(a + b) // 10**k % 10 for k in reversed(range(digits))]


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=7), st.integers(min_value=0, max_value=2**32 - 1))
def test_clean_addition_labels_are_the_padded_sum(digits, seed):
    c = gen_noisy_addition(3, 2, digits, 6, seed, target_samples=4)
    for task in (c.target, c.task(1), c.task(2)):
        for X, labels in (task.train, task.val):
            for x, y in zip(X, labels.reshape(len(X), digits)):
                assert y.tolist() == _sum_digits(x, digits)


class _ScriptedRng:
    """Stands in for a Generator: integers() hands out the given draws in order."""

    def __init__(self, *draws):
        self.draws = list(draws)

    def integers(self, low, high, size):
        return np.asarray(self.draws.pop(0))


def _clean_labels(a_digits, b_digits) -> list[int]:
    """The clean labels the addition generator gives the operand pair."""
    _, labels = taskgen._addition_split(_ScriptedRng(a_digits, b_digits), 1, len(a_digits), noisy=False)
    return labels.reshape(-1).tolist()


def test_addition_worked_example():
    # 67013 + 23924 = 90937
    assert _clean_labels([6, 7, 0, 1, 3], [2, 3, 9, 2, 4]) == [9, 0, 9, 3, 7]


def test_addition_all_zeros():
    assert _clean_labels([0, 0, 0, 0, 0], [0, 0, 0, 0, 0]) == [0, 0, 0, 0, 0]


def test_addition_against_big_integer_oracle():
    rng = np.random.default_rng(4)
    checked = 0
    while checked < 1000:
        a = rng.integers(0, 10, size=5)
        b = rng.integers(0, 10, size=5)
        ia = int("".join(map(str, a)))
        ib = int("".join(map(str, b)))
        if ia + ib >= 10**5:
            continue
        expect = [int(ch) for ch in str(ia + ib).zfill(5)]
        assert _clean_labels(list(a), list(b)) == expect
        checked += 1


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=10**6 - 1), st.integers(min_value=0, max_value=10**6 - 1))
def test_addition_oracle_property(ia, ib):
    digits = 7  # wide enough that any two 6-digit operands fit
    a = [int(ch) for ch in str(ia).zfill(digits)]
    b = [int(ch) for ch in str(ib).zfill(digits)]
    assert _clean_labels(a, b) == [int(ch) for ch in str(ia + ib).zfill(digits)]


@settings(max_examples=60, deadline=None)
@given(
    digits=st.integers(min_value=1, max_value=7),
    n=st.integers(min_value=0, max_value=40),
    noisy=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_addition_split_is_the_per_sample_generator_byte_for_byte(digits, n, noisy, seed):
    # the same features and labels from the same draws, in the same order
    fast, slow = np.random.default_rng(seed), np.random.default_rng(seed)
    X, labels = taskgen._addition_split(fast, n, digits, noisy)
    X_ref, labels_ref = addition_split(slow, n, digits, noisy)
    assert (X.shape, labels.shape, labels.dtype) == (X_ref.shape, labels_ref.shape, labels_ref.dtype)
    assert X.tobytes() == X_ref.tobytes() and labels.tobytes() == labels_ref.tobytes()
    assert fast.bit_generator.state == slow.bit_generator.state


def test_addition_corpus_is_the_per_sample_generators_byte_for_byte(monkeypatch):
    fast = serialize_corpus(gen_noisy_addition(5, 2, 3, 30, seed=3, target_samples=8))
    monkeypatch.setattr(taskgen, "_addition_split", addition_split)
    assert fast == serialize_corpus(gen_noisy_addition(5, 2, 3, 30, seed=3, target_samples=8))


def test_addition_features_one_hot():
    x = encode_addition_features([6, 7, 0, 1, 3], [2, 3, 9, 2, 4])
    assert x.shape == (100,)
    assert x.sum() == 10
    assert x[0 * 10 + 6] == 1.0 and x[5 * 10 + 2] == 1.0


def test_clean_groups_match_oracle_noisy_groups_random():
    c = gen_noisy_addition(6, 3, 5, 60, seed=9)
    clean_hits = noisy_hits = clean_n = noisy_n = 0
    for t in c.tasks:
        for x, y in zip(*t.train):
            truth = _sum_digits(x, 5)
            hits = sum(int(a == b) for a, b in zip(truth, y))
            if t.task_id <= 3:
                clean_hits += hits
                clean_n += 5
            else:
                noisy_hits += hits
                noisy_n += 5
    assert clean_hits == clean_n  # 100% agreement
    rate = noisy_hits / noisy_n
    sigma = np.sqrt(0.1 * 0.9 / noisy_n)
    assert abs(rate - 0.1) <= 3 * sigma


def test_addition_target_is_clean_and_sized():
    c = gen_noisy_addition(4, 2, 3, 40, seed=5, target_samples=12)
    assert len(c.target.train[0]) == 12
    assert len(c.target.val[0]) >= 100
    assert c.meta["clean_ids"] == [1, 2]
    assert c.meta["noisy_ids"] == [3, 4]


def test_addition_validation():
    with pytest.raises(ValueError):
        gen_noisy_addition(4, 5, 5, 10, seed=1)
    with pytest.raises(ValueError):
        gen_noisy_addition(4, 2, 0, 10, seed=1)


# ---- corpus serialization ----

def test_corpus_roundtrip_gaussian(tmp_path):
    c = gen_multitask_gaussian(3, 10, 4, 0.5, 135.0, 0.1, seed=6)
    path = tmp_path / "corpus.txt"
    save_corpus(path, c)
    back = load_corpus(path)
    assert back.n_tasks == c.n_tasks
    assert back.meta["helpful_ids"] == c.meta["helpful_ids"]
    _assert_same_arrays(c, back)
    assert serialize_corpus(back) == serialize_corpus(c)


def test_corpus_roundtrip_addition(tmp_path):
    c = gen_noisy_addition(3, 2, 4, 10, seed=6)
    path = tmp_path / "corpus.txt"
    save_corpus(path, c)
    back = load_corpus(path)
    _assert_same_arrays(c, back)
    assert serialize_corpus(back) == serialize_corpus(c)


def _assert_same_arrays(a, b):
    assert a.n_tasks == b.n_tasks
    for t_a, t_b in zip([a.target, *a.tasks], [b.target, *b.tasks]):
        assert t_a.task_id == t_b.task_id
        for arr_a, arr_b in zip((*t_a.train, *t_a.val), (*t_b.train, *t_b.val)):
            assert arr_a.shape == arr_b.shape and arr_a.dtype == arr_b.dtype
            assert np.array_equal(arr_a, arr_b)


@settings(max_examples=12, deadline=None)
@given(kind=st.sampled_from(["gaussian", "addition"]), digits=st.integers(1, 3), seed=st.integers(0, 2**16))
def test_loaded_corpus_holds_the_generated_arrays(tmp_path_factory, kind, digits, seed):
    # one label-shape rule for generator and loader: a 1-digit addition
    # corpus has (N,) labels in memory and after a round trip alike
    if kind == "gaussian":
        c = gen_multitask_gaussian(2 + digits, 6, 2 + digits, 0.5, 135.0, 0.2, seed=seed)
    else:
        c = gen_noisy_addition(3, 2, digits, 6, seed=seed, target_samples=4)
        assert c.target.train[1].shape == ((4,) if digits == 1 else (4, digits))
    path = tmp_path_factory.mktemp("c") / "corpus.txt"
    save_corpus(path, c)
    back = load_corpus(path)
    _assert_same_arrays(c, back)
    assert back.digest() == c.digest() == hashlib.sha256(path.read_bytes()).hexdigest()


def test_mixture_stacks_the_subset_then_the_target():
    c = gen_multitask_gaussian(3, 10, 4, 0.5, 135.0, 0.1, seed=6)
    X, y = c.mixture("val", {3, 1})
    parts = [c.task(1).val, c.task(3).val, c.target.val]
    assert np.array_equal(X, np.concatenate([p[0] for p in parts]))
    assert np.array_equal(y, np.concatenate([p[1] for p in parts]))
    X_all, _ = c.mixture("train")
    assert len(X_all) == sum(len(t.train[0]) for t in [*c.tasks, c.target])


def test_corpus_meta_keeps_its_types(tmp_path):
    c = gen_multitask_gaussian(3, 10, 4, 0.5, 135.0, 0.1, seed=6)
    path = tmp_path / "corpus.txt"
    save_corpus(path, c)
    assert load_corpus(path).meta == c.meta
    assert c.digest() == hashlib.sha256(path.read_bytes()).hexdigest()


def test_bad_sample_line_is_named_by_its_file_line(tmp_path):
    path = tmp_path / "corpus.txt"
    save_corpus(path, gen_noisy_addition(3, 2, 4, 10, seed=6))
    header, body = artifact.read(path, "corpus", 1, {})
    lines = body.decode().splitlines()
    for line, message in (
        ("0 train 1,2 x", ""),
        # a negative one-hot index used to wrap to the last features
        ("0 train 1,2 -1,11,27,34", "one-hot index -1 is outside 0..79"),
        ("0 train 1,2 4,15,25,80", "one-hot index 80 is outside 0..79"),
    ):
        lines[2] = line
        artifact.write(path, "corpus", 1, header, ("\n".join(lines) + "\n").encode())
        assert path.read_text().splitlines()[3] == line  # file line 4
        with pytest.raises(ValueError, match=f"{path.name}: line 4: {message}"):
            load_corpus(path)


@pytest.mark.parametrize("kind", ["gaussian", "addition"])
@pytest.mark.parametrize("split", ["tset", "Train", "test"])
def test_a_split_other_than_train_or_val_is_refused_by_line(tmp_path, kind, split):
    # such a line used to load into a split no task reads, silently
    path = tmp_path / "corpus.txt"
    save_corpus(path, _make(kind))
    header, body = artifact.read(path, "corpus", 1, {})
    lines = body.decode().splitlines()
    tid, _, labels, feats = lines[2].split()
    lines[2] = f"{tid} {split} {labels} {feats}"
    artifact.write(path, "corpus", 1, header, ("\n".join(lines) + "\n").encode())
    with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: line 4: split {split!r} is neither train nor val')}$"):
        load_corpus(path)


def _make(kind):
    if kind == "gaussian":
        return gen_multitask_gaussian(3, 10, 4, 0.5, 135.0, 0.1, seed=6)
    return gen_noisy_addition(3, 2, 2, 10, seed=6)


@pytest.mark.parametrize("kind", ["gaussian", "addition"])
def test_digest_hashes_the_artifact_bytes_once(tmp_path, kind, monkeypatch):
    # generated, saved or loaded, a corpus's digest is the SHA-256 of
    # serialize_corpus's bytes; a saved or loaded one takes it from the bytes
    # written or read, and a generated one serializes at most once
    want = hashlib.sha256(serialize_corpus(_make(kind))).hexdigest()
    generated, saved = _make(kind), _make(kind)
    path = tmp_path / "corpus.txt"
    save_corpus(path, saved)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == want
    serialized = []
    serialize = taskgen.serialize_corpus
    monkeypatch.setattr(taskgen, "serialize_corpus", lambda c: serialized.append(c) or serialize(c))
    loaded = load_corpus(path)
    assert loaded.digest() == saved.digest() == want
    assert serialized == []
    assert generated.digest() == generated.digest() == want
    assert serialized == [generated]


def test_a_valid_file_written_another_way_has_its_own_digest(tmp_path):
    # a feature with an extra trailing zero reads as the same float, but
    # the file is not the bytes save_corpus writes: its digest is its own
    c = _make("gaussian")
    path = tmp_path / "corpus.txt"
    save_corpus(path, c)
    header, body = artifact.read(path, "corpus", 1, {})
    lines = body.decode().splitlines()
    tid, split, labels, feats = lines[0].split()
    first, rest = feats.split(",", 1)
    mantissa, exponent = first.split("p")
    lines[0] = f"{tid} {split} {labels} {mantissa}0p{exponent},{rest}"
    artifact.write(path, "corpus", 1, header, ("\n".join(lines) + "\n").encode())
    back = load_corpus(path)
    _assert_same_arrays(c, back)
    assert back.digest() == hashlib.sha256(path.read_bytes()).hexdigest() != c.digest()


@pytest.mark.parametrize("feature", ["1.5", "10", "-2", "inf", "0X1P+0"])
def test_a_feature_not_written_as_hex_is_refused_by_line(tmp_path, feature):
    # float.fromhex reads 1.5 as 1.3125 and 10 as 16.0, so each feature
    # must be in the 0x form save_corpus writes
    path = tmp_path / "corpus.txt"
    save_corpus(path, _make("gaussian"))
    header, body = artifact.read(path, "corpus", 1, {})
    lines = body.decode().splitlines()
    tid, split, labels, feats = lines[2].split()
    lines[2] = f"{tid} {split} {labels} {feats.rsplit(',', 1)[0]},{feature}"
    artifact.write(path, "corpus", 1, header, ("\n".join(lines) + "\n").encode())
    with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: line 4: feature {feature!r} is not a hex float (0x...)')}$"):
        load_corpus(path)


def _drop_task_2_val(lines):
    return [line for line in lines if not line.startswith("2 val ")]


def _drop_first_label_of_line_1(lines):
    tid, split, labels, feats = lines[0].split()
    return [f"{tid} {split} {labels.split(',', 1)[1]} {feats}", *lines[1:]]


@pytest.mark.parametrize(
    "edit, message",
    [
        (_drop_task_2_val, "task 2 has no val lines"),
        (_drop_first_label_of_line_1, "task 0 train lines differ in their number of labels"),
    ],
)
def test_incomplete_or_ragged_split_is_named_by_its_file(tmp_path, edit, message):
    path = tmp_path / "corpus.txt"
    save_corpus(path, gen_noisy_addition(3, 2, 4, 10, seed=6))
    header, body = artifact.read(path, "corpus", 1, {})
    lines = edit(body.decode().splitlines())
    artifact.write(path, "corpus", 1, header, ("\n".join(lines) + "\n").encode())
    with pytest.raises(ValueError, match=f"^{path}: {message}$"):
        load_corpus(path)


def _shift_a_field(lines):
    # line 1 gains a fifth field and line 2 loses its first: as many fields
    # as before, but two malformed lines
    return [lines[0] + " 7", lines[1].split(" ", 1)[1], *lines[2:]]


def _signed_feature(corpus):
    corpus.target.train[0][0, -1] = 0.0


def _two_labels(corpus):
    for t in [corpus.target, *corpus.tasks]:
        t.train, t.val = ((X, np.stack([y, 1 - y], axis=1)) for X, y in (t.train, t.val))


# each edit of a saved Gaussian body, and what loading it gives: the
# refusal after the file's path, else a change to the generated corpus
# that makes the corpus it loads to
_GAUSSIAN_EDITS = {
    "canonical": (lambda lines: lines, lambda corpus: None),
    "tabs and CRLF": (lambda lines: [line.replace(" ", "\t", 1) + "\r" for line in lines], lambda corpus: None),
    "signed feature": (lambda lines: [lines[0].rsplit(",", 1)[0] + ",+0x0p+0", *lines[1:]], _signed_feature),
    "two labels a line": (
        lambda lines: [line.replace(" 0 ", " 0,1 ").replace(" 1 ", " 1,0 ") for line in lines], _two_labels
    ),
    "one line with two labels": (
        lambda lines: [lines[0].replace(" train ", " train 5,", 1), *lines[1:]],
        "task 0 train lines differ in their number of labels",
    ),
    "missing field": (
        lambda lines: [lines[0], lines[1].rsplit(" ", 1)[0], *lines[2:]],
        "line 3: not enough values to unpack (expected 4, got 3)",
    ),
    "shifted field": (_shift_a_field, "line 2: too many values to unpack (expected 4)"),
    "short features": (
        lambda lines: [lines[0], lines[1].rsplit(",", 1)[0], *lines[2:]], "line 3: expected 4 features, got 3"
    ),
    "decimal feature": (
        lambda lines: [lines[0], lines[1].rsplit(",", 1)[0] + ",1.5", *lines[2:]],
        "line 3: feature '1.5' is not a hex float (0x...)",
    ),
    "overflowing feature": (
        lambda lines: [lines[0], lines[1].rsplit(",", 1)[0] + ",0x1p99999", *lines[2:]],
        "line 3: hexadecimal value too large to represent as a float",
    ),
    "bad task id": (
        lambda lines: [lines[0], "x" + lines[1].split(" ", 1)[1], *lines[2:]],
        "line 3: not enough values to unpack (expected 4, got 3)",
    ),
    "blank line": (lambda lines: [lines[0], "", *lines[1:]], "line 3: not enough values to unpack (expected 4, got 0)"),
    "no val lines": (_drop_task_2_val, "task 2 has no val lines"),
    "empty body": (lambda lines: [], "task 0 has no train lines"),
}


@pytest.mark.parametrize("edit", _GAUSSIAN_EDITS)
def test_a_gaussian_body_loads_as_the_per_line_parser_loads_it(tmp_path, edit):
    # each line is parsed alone: a body loads to the arrays its lines hold,
    # or the first line or split that cannot be read is named, in one
    # ValueError (an overflowing feature too)
    path = tmp_path / "corpus.txt"
    corpus = _make("gaussian")
    save_corpus(path, corpus)
    header, body = artifact.read(path, "corpus", 1, {})
    rewrite, outcome = _GAUSSIAN_EDITS[edit]
    lines = rewrite(body.decode().splitlines())
    artifact.write(path, "corpus", 1, header, "".join(line + "\n" for line in lines).encode())
    if isinstance(outcome, str):
        with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: {outcome}')}$"):
            load_corpus(path)
    else:
        outcome(corpus)
        _assert_same_arrays(corpus, load_corpus(path))


def test_load_rejects_wrong_header(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("not-a-corpus v1\n")
    with pytest.raises(ValueError):
        load_corpus(path)


# ---- clustering ----

def test_cluster_recovers_planted_partition():
    rng = np.random.default_rng(10)
    a = np.r_[np.ones(3), np.zeros(3)]
    b = np.r_[np.zeros(3), np.ones(3)]
    G = np.vstack([a + 0.05 * rng.standard_normal(6) for _ in range(20)]
                  + [b + 0.05 * rng.standard_normal(6) for _ in range(20)])
    labels = cluster_into_groups(G, 2, seed=0)
    assert labels.dtype == np.int64 and labels.shape == (40,)
    assert len(set(labels[:20])) == 1
    assert len(set(labels[20:])) == 1
    assert labels[0] != labels[-1]


def test_cluster_singletons_when_groups_equal_samples():
    rng = np.random.default_rng(11)
    G = rng.standard_normal((6, 4))
    assert sorted(cluster_into_groups(G, 6, seed=0)) == list(range(6))


def test_cluster_duplicates_co_assigned():
    rng = np.random.default_rng(12)
    base = rng.standard_normal((4, 5))
    G = np.vstack([base, base])
    labels = cluster_into_groups(G, 4, seed=0)
    assert np.array_equal(labels[:4], labels[4:])


def test_cluster_determinism_and_errors():
    rng = np.random.default_rng(13)
    G = rng.standard_normal((10, 3))
    a = cluster_into_groups(G, 3, seed=5)
    b = cluster_into_groups(G, 3, seed=5)
    assert np.array_equal(a, b)
    with pytest.raises(ValueError):
        cluster_into_groups(G, 11, seed=0)


def test_cluster_rejects_empty_groups(monkeypatch):
    monkeypatch.setattr(taskgen, "_kmeans", lambda X, k, seed: np.array([0, 0, 2, 2]))
    with pytest.raises(ValueError, match="group 1 is empty"):
        cluster_into_groups(np.eye(4), 3, seed=0)


def test_corpus_invariants():
    c = gen_multitask_gaussian(3, 10, 4, 0.5, 90.0, 0.0, seed=8)
    with pytest.raises(ValueError):
        Corpus(c.tasks, TaskDataset(1, c.target.train, c.target.val), c.meta)
    with pytest.raises(ValueError, match="empty train split"):
        TaskDataset(2, (np.zeros((0, 4)), np.zeros(0, dtype=np.int64)), c.target.val)
