"""One container for the artifacts a stage loads, and one atomic write.

A container is the line ``gradsel <kind> v<version> <json header>``, then
the body (text lines or raw bytes), then the line ``sha256 <hex>`` taken over
everything before it. The checksum catches truncation, appended bytes and
altered bytes alike, so a reader needs no length or magic checks of its own.
Every file the program writes, container or plain text, replaces its old
version atomically: a reader sees the old file or the new one, never a part.
"""

from __future__ import annotations

import hashlib
import json
import os


def _trailer(data: bytes) -> bytes:
    return f"sha256 {hashlib.sha256(data).hexdigest()}\n".encode()


_TRAILER = len(_trailer(b""))


def write_atomic(path, data: bytes) -> None:
    """Write data to a temporary file beside path, fsync it and move it into
    place; on failure the file at path is left as it was."""
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as f:
            f.write(data)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def encode(kind: str, version: int, header: dict, body: bytes) -> bytes:
    """The container's bytes: header line, body, checksum line."""
    data = f"gradsel {kind} v{version} {json.dumps(header, sort_keys=True)}\n".encode() + body
    return data + _trailer(data)


def write(path, kind: str, version: int, header: dict, body: bytes) -> None:
    write_atomic(path, encode(kind, version, header, body))


def read(path, kind: str, version: int, keys: dict[str, type]) -> tuple[dict, bytes]:
    """(header, body) of the container at path (see decode)."""
    with open(path, "rb") as f:
        return decode(path, f.read(), kind, version, keys)


def decode(path, data: bytes, kind: str, version: int, keys: dict[str, type]) -> tuple[dict, bytes]:
    """(header, body) of the container bytes data, read from path, whose
    header holds a value of each keys[k]'s type under each key k (JSON true
    and false are not ints). Raises ValueError naming the file when the
    checksum does not match, the file holds another kind or version, or a
    key is missing or mistyped."""
    data, trailer = data[:-_TRAILER], data[-_TRAILER:]
    if trailer != _trailer(data):
        raise ValueError(f"{path}: checksum mismatch (damaged or not a gradsel artifact)")
    head, _, body = data.partition(b"\n")
    try:
        magic, found, found_version, header = head.decode().split(" ", 3)
        header = json.loads(header)
        if not isinstance(header, dict):
            raise ValueError
    except ValueError:
        raise ValueError(f"{path}: malformed container header") from None
    if (magic, found, found_version) != ("gradsel", kind, f"v{version}"):
        raise ValueError(f"{path}: holds a {found} {found_version} artifact, not {kind} v{version}")
    for key, want in keys.items():
        if key not in header:
            raise ValueError(f"{path}: header has no {key!r} key")
        value = header[key]
        if not isinstance(value, want) or (isinstance(value, bool) and want is not bool):
            raise ValueError(f"{path}: header key {key!r} is {value!r}, not of type {want.__name__}")
    return header, body
