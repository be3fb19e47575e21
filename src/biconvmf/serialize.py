"""Single-file binary container shared by corpus bundles and model checkpoints.

Layout (all integers little-endian):

    magic       8 bytes, format-specific
    version     uint32
    n_sections  uint32
    sections    repeated: name_len uint16, name utf-8, payload_len uint64, payload

Readers receive the raw payload bytes per section.  Truncated or corrupt
input raises ContainerError naming the section (or header field) that could
not be read; an unknown version raises UnsupportedVersionError instead of
guessing at the layout.  Dataclasses declare their formats with the
``container`` decorator below.
"""

from __future__ import annotations

import io
import json
import os
import struct
from dataclasses import fields, is_dataclass
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

import numpy as np

MAGIC_LEN = 8


class ContainerError(Exception):
    """Corrupt, truncated, or wrong-format container data."""


class UnsupportedVersionError(ContainerError):
    """Container has a valid magic but a version this code does not know."""


def pack_container(magic: bytes, version: int, sections: dict[str, bytes]) -> bytes:
    if len(magic) != MAGIC_LEN:
        raise ValueError(f"magic must be {MAGIC_LEN} bytes, got {len(magic)}")
    out = io.BytesIO()
    out.write(magic)
    out.write(struct.pack("<II", version, len(sections)))
    for name, payload in sections.items():
        encoded = name.encode("utf-8")
        out.write(struct.pack("<H", len(encoded)))
        out.write(encoded)
        out.write(struct.pack("<Q", len(payload)))
        out.write(payload)
    return out.getvalue()


def unpack_container(blob: bytes, magic: bytes, supported_versions: tuple[int, ...]) -> tuple[int, dict[str, bytes]]:
    pos = 0

    def take(n: int, what: str) -> bytes:
        nonlocal pos
        chunk = blob[pos:pos + n]
        if len(chunk) != n:
            raise ContainerError(f"truncated container: failed reading {what}")
        pos += n
        return chunk

    found_magic = take(MAGIC_LEN, "magic header")
    if found_magic != magic:
        raise ContainerError(f"bad magic header: expected {magic!r}, found {found_magic!r}")
    version, n_sections = struct.unpack("<II", take(8, "version header"))
    if version not in supported_versions:
        raise UnsupportedVersionError(
            f"unsupported container version {version}; supported: {sorted(supported_versions)}"
        )
    sections: dict[str, bytes] = {}
    for i in range(n_sections):
        label = f"section {i} header"
        (name_len,) = struct.unpack("<H", take(2, label))
        name = take(name_len, label).decode("utf-8")
        (payload_len,) = struct.unpack("<Q", take(8, f"section '{name}' length"))
        sections[name] = take(payload_len, f"section '{name}' payload")
    return version, sections


def write_container(path, magic: bytes, version: int, sections: dict[str, bytes]) -> None:
    """Write a container file atomically (see _write_atomic)."""
    _write_atomic(path, pack_container(magic, version, sections))


def write_text(path, text: str) -> None:
    """Write a UTF-8 text report atomically (see _write_atomic)."""
    _write_atomic(path, text.encode("utf-8"))


def _write_atomic(path, data: bytes) -> None:
    """Write a temporary file beside path and rename it over path, so that a
    failed write leaves the existing file untouched and no temporary file."""
    tmp = Path(f"{path}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def read_container(path, magic: bytes, supported_versions: tuple[int, ...]) -> tuple[int, dict[str, bytes]]:
    with open(path, "rb") as fh:
        blob = fh.read()
    return unpack_container(blob, magic, supported_versions)


def array_to_bytes(arr: np.ndarray) -> bytes:
    buf = io.BytesIO()
    np.save(buf, np.ascontiguousarray(arr), allow_pickle=False)
    return buf.getvalue()


def array_from_bytes(payload: bytes, section: str) -> np.ndarray:
    try:
        return np.load(io.BytesIO(payload), allow_pickle=False)
    except Exception as exc:
        raise ContainerError(f"section '{section}' does not hold a valid array: {exc}") from exc


def json_to_bytes(obj) -> bytes:
    return json.dumps(obj, sort_keys=True).encode("utf-8")


def json_from_bytes(payload: bytes, section: str):
    try:
        return json.loads(payload.decode("utf-8"))
    except Exception as exc:
        raise ContainerError(f"section '{section}' does not hold valid JSON: {exc}") from exc


def require_section(sections: dict[str, bytes], name: str) -> bytes:
    if name not in sections:
        raise ContainerError(f"missing required section '{name}'")
    return sections[name]


# Field metadata: INLINE stores a nested dataclass's keys in its owner's meta.
INLINE = {"stored": "inline"}


def container(magic: bytes, version: int, *sections):
    """Class decorator declaring the container format of a dataclass.

    The named fields get sections, in this order, after a JSON 'meta' section
    holding the other fields: an ndarray as .npy bytes, a declared dataclass as
    its nested container, anything else as JSON.  A None field is left out and
    loads as None if its annotation allows.  A tuple of names declares parallel
    lists of arrays, stored per index as a_0, b_0, a_1, b_1, ...
    """
    def declare(cls):
        cls.container_format = (magic, version, sections)
        return cls
    return declare


def save(obj, path) -> None:
    magic, version, _ = obj.container_format
    write_container(path, magic, version, _to_sections(obj))


def load(cls, path):
    magic, version, _ = cls.container_format
    return _from_sections(cls, read_container(path, magic, (version,))[1])


def _to_sections(obj) -> dict[str, bytes]:
    out, names = {}, []
    for entry in obj.container_format[2]:
        names.extend(entry if isinstance(entry, tuple) else [entry])
        if isinstance(entry, tuple):
            for i in range(len(getattr(obj, entry[0]))):
                for name in entry:
                    out[f"{name}_{i}"] = array_to_bytes(getattr(obj, name)[i])
            continue
        value = getattr(obj, entry)
        if isinstance(value, np.ndarray):
            out[entry] = array_to_bytes(value)
        elif hasattr(value, "container_format"):
            magic, version, _ = value.container_format
            out[entry] = pack_container(magic, version, _to_sections(value))
        elif value is not None:
            out[entry] = json_to_bytes(_plain(value))
    return {"meta": json_to_bytes(_plain(obj, names)), **out}


def _plain(value, exclude=()):
    """JSON form: sequences as lists, dataclasses as dicts of fields (not asdict: it copies arrays)."""
    if value is None or isinstance(value, (str, int, float)):
        return value
    if not is_dataclass(value):
        return [_plain(v) for v in value]
    out = {}
    for f in fields(value):
        if f.name not in exclude:
            plain = _plain(getattr(value, f.name))
            out.update(plain if f.metadata.get("stored") == "inline" else {f.name: plain})
    return out


def _from_sections(cls, payloads: dict[str, bytes]):
    hints = get_type_hints(cls)
    given, expected = {}, {"meta"}
    for entry in cls.container_format[2]:
        if isinstance(entry, tuple):
            n = 0
            while any(f"{name}_{n}" in payloads for name in entry):
                n += 1
            for name in entry:
                keys = [f"{name}_{i}" for i in range(n)]
                expected.update(keys)
                given[name] = [array_from_bytes(require_section(payloads, k), k) for k in keys]
            continue
        hint = hints[entry]
        if type(None) in get_args(hint):    # T | None: the section may be left out
            if entry not in payloads:
                given[entry] = None
                continue
            hint = get_args(hint)[0]
        expected.add(entry)
        payload = require_section(payloads, entry)
        if hint is np.ndarray:
            given[entry] = array_from_bytes(payload, entry)
        elif hasattr(hint, "container_format"):
            magic, version, _ = hint.container_format
            given[entry] = _from_sections(hint, unpack_container(payload, magic, (version,))[1])
        else:
            given[entry] = _rebuild(hint, json_from_bytes(payload, entry), entry)
    unexpected = sorted(set(payloads) - expected)
    if unexpected:
        raise ContainerError(f"unexpected section '{unexpected[0]}'")
    meta = json_from_bytes(require_section(payloads, "meta"), "meta")
    return _rebuild(cls, meta, "", given)


def _rebuild(hint, value, where: str, given=None):
    """value as its annotated type; a dataclass from a dict of exactly its fields not given."""
    if hint in (str, int, float, bool):
        return value
    if not is_dataclass(hint):
        return _build(get_origin(hint) or hint, where, value)
    if not isinstance(value, dict):
        raise ContainerError(f"meta value '{where or 'meta'}' is not a JSON object")
    prefix = where + "." if where else ""
    hints, rest, kwargs = get_type_hints(hint), dict(value), dict(given or {})
    for f in fields(hint):
        if f.name in kwargs:
            continue
        if f.metadata.get("stored") == "inline":
            keys = [g.name for g in fields(hints[f.name]) if g.name in rest]
            kwargs[f.name] = _rebuild(hints[f.name], {k: rest.pop(k) for k in keys}, where)
        elif f.name not in rest:
            raise ContainerError(f"missing meta key '{prefix}{f.name}'")
        else:
            kwargs[f.name] = _rebuild(hints[f.name], rest.pop(f.name), prefix + f.name)
    if rest:
        raise ContainerError(f"unexpected meta key '{prefix}{min(rest)}'")
    return _build(hint, where or hint.__name__, **kwargs)


def _build(make, where: str, *args, **kwargs):
    """make(*args, **kwargs), reporting a value it rejects as a ContainerError."""
    try:
        return make(*args, **kwargs)
    except (TypeError, ValueError, AttributeError) as exc:
        raise ContainerError(f"invalid value for '{where}': {exc}") from exc
