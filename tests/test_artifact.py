import os
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradsel import artifact

HEADER = {"d": 3, "digest": "ab" * 32, "ids": [1, 2], "scale": 0.1}


def _write(tmp_path, body):
    path = tmp_path / "thing.bin"
    artifact.write(path, "thing", 2, HEADER, body)
    return path


def test_roundtrip_keeps_header_types_and_body(tmp_path):
    body = bytes(range(256)) + b"\nsha256 looks like a trailer\n"
    path = _write(tmp_path, body)
    keys = {"d": int, "digest": str, "ids": list, "scale": float}
    assert artifact.read(path, "thing", 2, keys) == (HEADER, body)
    data = path.read_bytes()
    assert data.startswith(b'gradsel thing v2 {"d": 3, ')
    assert data.splitlines()[-1].startswith(b"sha256 ")
    assert os.listdir(tmp_path) == ["thing.bin"]


def _flip(data, i):
    data = bytearray(data)
    data[i % len(data)] ^= 0xFF
    return bytes(data)


@settings(max_examples=200, deadline=None)
@given(
    body=st.binary(max_size=300),
    damage=st.one_of(
        st.tuples(st.just("truncate"), st.integers(min_value=0)),
        st.tuples(st.just("flip"), st.integers(min_value=0)),
        st.tuples(st.just("append"), st.binary(min_size=1, max_size=20)),
    ),
)
def test_any_damage_is_refused_naming_the_file(tmp_path_factory, body, damage):
    path = _write(tmp_path_factory.mktemp("a"), body)
    data = path.read_bytes()
    what, arg = damage
    if what == "truncate":
        path.write_bytes(data[: arg % len(data)])
    elif what == "flip":
        path.write_bytes(_flip(data, arg))
    else:
        path.write_bytes(data + arg)
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: checksum mismatch"):
        artifact.read(path, "thing", 2, {})


@pytest.mark.parametrize("kind, version", [("other", 2), ("thing", 1), ("thing", 3)])
def test_wrong_kind_or_version_is_refused_naming_the_file(tmp_path, kind, version):
    path = _write(tmp_path, b"body")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: holds a thing v2 artifact, not {kind} v{version}$"):
        artifact.read(path, kind, version, {})


@pytest.mark.parametrize("header", ["5", "[1, 2]", '"d"', "{"])
def test_header_that_is_not_a_json_object_is_refused(tmp_path, header):
    path = tmp_path / "thing.bin"
    data = f"gradsel thing v2 {header}\n".encode() + b"body"
    path.write_bytes(data + artifact._trailer(data))
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: malformed container header$"):
        artifact.read(path, "thing", 2, {"d": int})


def test_missing_header_key_is_refused_naming_the_file_and_key(tmp_path):
    # a valid checksum vouches for the bytes, not for the keys a loader reads
    path = _write(tmp_path, b"body")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: header has no 'n' key$"):
        artifact.read(path, "thing", 2, {"d": int, "n": int, "m": int})


@pytest.mark.parametrize("key, want", [("d", str), ("digest", int), ("scale", int), ("ids", dict), ("flag", int)])
def test_mistyped_header_value_is_refused_naming_the_file_and_key(tmp_path, key, want):
    # JSON true is a Python bool, which is an int to isinstance: it must not
    # pass where a count or a seed is read
    header = {**HEADER, "flag": True}
    path = tmp_path / "thing.bin"
    artifact.write(path, "thing", 2, header, b"body")
    shown = re.escape(repr(header[key]))
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: header key '{key}' is {shown}, not of type {want.__name__}$"):
        artifact.read(path, "thing", 2, {key: want})


def test_failed_write_leaves_the_old_artifact(tmp_path, monkeypatch):
    path = _write(tmp_path, b"old")

    def fail(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", fail)
    with pytest.raises(OSError, match="disk full"):
        artifact.write(path, "thing", 2, HEADER, b"new")
    assert artifact.read(path, "thing", 2, {}) == (HEADER, b"old")
    assert os.listdir(tmp_path) == ["thing.bin"]  # no temporary file left
