"""Single-file binary container shared by corpus bundles and model checkpoints.

Layout (all integers little-endian):

    magic       8 bytes, format-specific
    version     uint32
    n_sections  uint32
    sections    repeated: name_len uint16, name utf-8, payload_len uint64, payload

A writer's section payload is a bytes-like object or a list of them, written
one after the other: an array's payload is its .npy header followed by the
array's own buffer, and a nested container's is that container's chunks, so
writing a file copies no C-contiguous array.  A reader reads the file once
and receives each payload as a memoryview into those bytes; each array is
copied once, out of that view into its own buffer.  Truncated or corrupt
input, bytes after the last section and a repeated section name raise
ContainerError naming the section (or header field) that could not be read;
an unknown version raises UnsupportedVersionError instead of guessing at the
layout.  Dataclasses declare their formats with the ``container`` decorator
below, which takes the layout from the field annotations: arrays, lists of
arrays and nested containers get sections, every other field a key of the
one JSON section, 'meta'.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import os
import struct
from dataclasses import fields, is_dataclass
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

import numpy as np

MAGIC_LEN = 8
NPY_HEADER_MAX = 10 + 0xFFFF   # longest .npy version 1.0 header: preamble and uint16 length


class ContainerError(Exception):
    """Corrupt, truncated, or wrong-format container data."""


class UnsupportedVersionError(ContainerError):
    """Container has a valid magic but a version this code does not know."""


def _container_chunks(magic: bytes, version: int, sections: dict) -> list:
    """The container's bytes in order: headers, and each payload's chunks themselves (not copies)."""
    if len(magic) != MAGIC_LEN:
        raise ValueError(f"magic must be {MAGIC_LEN} bytes, got {len(magic)}")
    chunks = [magic, struct.pack("<II", version, len(sections))]
    for name, payload in sections.items():
        parts = payload if isinstance(payload, list) else [payload]
        encoded = name.encode("utf-8")
        size = sum(memoryview(part).nbytes for part in parts)
        chunks += [struct.pack("<H", len(encoded)) + encoded + struct.pack("<Q", size), *parts]
    return chunks


def pack_container(magic: bytes, version: int, sections: dict) -> bytes:
    return b"".join(_container_chunks(magic, version, sections))


def unpack_container(blob, magic: bytes, supported_versions: tuple[int, ...]) -> tuple[int, dict[str, memoryview]]:
    """The version and the sections of a container's bytes, each payload a
    memoryview into blob (no copy)."""
    view = memoryview(blob)
    pos = 0

    def take(n: int, what: str) -> memoryview:
        nonlocal pos
        chunk = view[pos:pos + n]
        if len(chunk) != n:
            raise ContainerError(f"truncated container: failed reading {what}")
        pos += n
        return chunk

    found_magic = bytes(take(MAGIC_LEN, "magic header"))
    if found_magic != magic:
        raise ContainerError(f"bad magic header: expected {magic!r}, found {found_magic!r}")
    version, n_sections = struct.unpack("<II", take(8, "version header"))
    if version not in supported_versions:
        raise UnsupportedVersionError(
            f"unsupported container version {version}; supported: {sorted(supported_versions)}"
        )
    sections: dict[str, memoryview] = {}
    for i in range(n_sections):
        label = f"section {i} header"
        (name_len,) = struct.unpack("<H", take(2, label))
        try:
            name = str(take(name_len, label), "utf-8")
        except UnicodeDecodeError:
            raise ContainerError(f"bad {label}: name is not valid UTF-8") from None
        if name in sections:
            raise ContainerError(f"bad {label}: repeated section name '{name}'")
        (payload_len,) = struct.unpack("<Q", take(8, f"section '{name}' length"))
        sections[name] = take(payload_len, f"section '{name}' payload")
    if pos != len(view):
        raise ContainerError(f"{len(view) - pos} unexpected bytes after the last section")
    return version, sections


def write_container(path, magic: bytes, version: int, sections: dict) -> None:
    """Write a container file atomically (see _write_atomic), chunk by chunk:
    each payload chunk, an array's buffer included, goes to the file as it is."""
    _write_atomic(path, _container_chunks(magic, version, sections))


def write_text(path, text: str) -> None:
    """Write a UTF-8 text report atomically (see _write_atomic)."""
    _write_atomic(path, [text.encode("utf-8")])


def temp_path(path) -> Path:
    """The temporary file beside path that _write_atomic writes first."""
    return Path(f"{path}.tmp")


def _write_atomic(path, chunks: list) -> None:
    """Write a temporary file beside path and rename it over path, so that a
    failed write leaves the existing file untouched and no temporary file."""
    tmp = temp_path(path)
    try:
        with open(tmp, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):  # e.g. a directory at tmp: left alone
            tmp.unlink(missing_ok=True)
        raise


def read_container(path, magic: bytes, supported_versions: tuple[int, ...]) -> tuple[int, dict[str, memoryview]]:
    """Read the file once; its sections are views into those bytes (see unpack_container)."""
    with open(path, "rb") as fh:
        blob = fh.read()
    return unpack_container(blob, magic, supported_versions)


def array_payload(arr: np.ndarray) -> list:
    """A section payload holding arr as .npy (version 1.0, C order, as np.save
    writes it): the header bytes, then a byte view of arr's own buffer, which
    is copied only when arr is not C-contiguous."""
    arr = np.ascontiguousarray(arr)
    header = io.BytesIO()
    np.lib.format.write_array_header_1_0(header, np.lib.format.header_data_from_array_1_0(arr))
    return [header.getvalue(), arr.reshape(-1).view(np.uint8)]


def array_from_bytes(payload, section: str) -> np.ndarray:
    """The array of an .npy payload (version 1.0, C order), copied once out of payload."""
    try:
        head = io.BytesIO(payload[:NPY_HEADER_MAX])
        version = np.lib.format.read_magic(head)
        if version != (1, 0):
            raise ValueError(f"unsupported .npy version {version}")
        shape, fortran_order, dtype = np.lib.format.read_array_header_1_0(head)
        if dtype.hasobject:
            raise ValueError("object arrays are not stored")
        if fortran_order:
            raise ValueError("Fortran-order arrays are not stored")
        count = math.prod(shape)
        data = memoryview(payload)[head.tell():]
        if len(data) != count * dtype.itemsize:
            raise ValueError(f"{count * dtype.itemsize} data bytes expected, {len(data)} found")
        arr = np.frombuffer(data, dtype, count).copy()
    except Exception as exc:
        raise ContainerError(f"section '{section}' does not hold a valid array: {exc}") from exc
    return arr.reshape(shape)


def json_to_bytes(obj) -> bytes:
    return json.dumps(obj, sort_keys=True).encode("utf-8")


def json_from_bytes(payload, section: str):
    try:
        return json.loads(str(payload, "utf-8"))
    except Exception as exc:
        raise ContainerError(f"section '{section}' does not hold valid JSON: {exc}") from exc


def pop_section(sections: dict, name: str):
    """Remove and return the named section; a ContainerError when there is none."""
    if name not in sections:
        raise ContainerError(f"missing required section '{name}'")
    return sections.pop(name)


def check_array(name: str, arr, shape: tuple, integer: bool = False, lo=None, hi=None) -> None:
    """Refuse (ValueError naming the array) an array of another shape, whose
    entries are not integers (or, when integer is False, real numbers), or
    with an entry that is not finite or lies outside [lo, hi]."""
    arr = np.asarray(arr)
    if arr.shape != shape:
        raise ValueError(f"{name} has shape {arr.shape}, expected {shape}")
    if arr.dtype.kind not in ("iu" if integer else "iuf"):
        raise ValueError(f"{name} has dtype {arr.dtype}, expected {'integers' if integer else 'real numbers'}")
    if arr.size == 0:
        return
    if arr.dtype.kind == "f" and not np.isfinite(arr).all():
        raise ValueError(f"{name} has a non-finite entry")
    if (lo is not None and arr.min() < lo) or (hi is not None and arr.max() > hi):
        raise ValueError(f"{name} has an entry outside [{lo}, {hi}]")


def container(magic: bytes, version: int):
    """Class decorator declaring the container format of a dataclass.

    Each field's annotation decides where it is stored, in field order after
    a JSON 'meta' section:

      np.ndarray          a section holding the array as .npy;
      list[np.ndarray]    sections name_0, name_1, ..., one per array;
      a declared class    a section holding its nested container;
      anything else       a key of 'meta' (a dataclass as a JSON object).

    A section field annotated '| None' is left out when None, and loads as
    None when its section is absent.  Lists stored side by side are not
    checked for equal length here: that is the dataclass's own invariant.
    """
    def declare(cls):
        cls.container_format = (magic, version)
        return cls
    return declare


def save(obj, path) -> None:
    write_container(path, *obj.container_format, _to_sections(obj))


def load(cls, path):
    magic, version = cls.container_format
    return _from_sections(cls, read_container(path, magic, (version,))[1])


def _section_fields(cls) -> list[tuple[str, type, bool]]:
    """(name, annotation less '| None', whether None is allowed) of each field
    of cls stored in sections of its own, in field order."""
    hints, out = get_type_hints(cls), []
    for f in fields(cls):
        hint = hints[f.name]
        optional = type(None) in get_args(hint)
        hint = get_args(hint)[0] if optional else hint
        if hint is np.ndarray or hint == list[np.ndarray] or hasattr(hint, "container_format"):
            out.append((f.name, hint, optional))
    return out


def _to_sections(obj) -> dict:
    layout, out = _section_fields(type(obj)), {}
    for name, hint, _ in layout:
        value = getattr(obj, name)
        if value is None:
            continue
        if hint is np.ndarray:
            out[name] = array_payload(value)
        elif get_origin(hint) is list:
            out.update((f"{name}_{i}", array_payload(arr)) for i, arr in enumerate(value))
        else:
            out[name] = _container_chunks(*hint.container_format, _to_sections(value))
    return {"meta": json_to_bytes(_plain(obj, [name for name, _, _ in layout])), **out}


def _plain(value, exclude=()):
    """JSON form: sequences as lists, dataclasses as dicts of fields (not asdict: it copies arrays)."""
    if value is None or isinstance(value, (str, int, float)):
        return value
    if not is_dataclass(value):
        return [_plain(v) for v in value]
    return {f.name: _plain(getattr(value, f.name)) for f in fields(value) if f.name not in exclude}


def _from_sections(cls, payloads: dict):
    rest, given = dict(payloads), {}
    for name, hint, optional in _section_fields(cls):
        if get_origin(hint) is list:
            n = next(i for i in itertools.count() if f"{name}_{i}" not in rest)
            given[name] = [array_from_bytes(rest.pop(f"{name}_{i}"), f"{name}_{i}") for i in range(n)]
        elif optional and name not in rest:
            given[name] = None
        elif hint is np.ndarray:
            given[name] = array_from_bytes(pop_section(rest, name), name)
        else:
            payload, (magic, version) = pop_section(rest, name), hint.container_format
            try:
                given[name] = _from_sections(hint, unpack_container(payload, magic, (version,))[1])
            except ContainerError as exc:   # name the outer section; keep the type
                exc.args = (f"section '{name}': {exc}",)
                raise
    meta = json_from_bytes(pop_section(rest, "meta"), "meta")
    if rest:
        raise ContainerError(f"unexpected section '{min(rest)}'")
    return _rebuild(cls, meta, "", given)


# The JSON value types each scalar annotation accepts: a bool is not an int,
# and an int is a float.
_JSON_TYPES = {str: {str}, int: {int}, float: {float, int}, bool: {bool}}


def _rebuild(hint, value, where: str, given=None):
    """value as its annotated type: a scalar of an accepted JSON type (see
    _JSON_TYPES); a list or tuple from a JSON list (of its item type, when the
    annotation names one); a dataclass from a dict of exactly its fields not
    given."""
    if hint in _JSON_TYPES:
        if type(value) not in _JSON_TYPES[hint]:
            raise ContainerError(f"invalid value for '{where}': not a JSON {hint.__name__}")
        return value
    origin = get_origin(hint) or hint
    if origin in (list, tuple):
        item = get_args(hint)[:1]
        if not isinstance(value, list) or (item and not set(map(type, value)) <= _JSON_TYPES[item[0]]):
            raise ContainerError(f"invalid value for '{where}': not a JSON list"
                                 + (f" of {item[0].__name__}" if item else ""))
        return origin(value)
    if not is_dataclass(hint):
        return _build(origin, where, value)
    if not isinstance(value, dict):
        raise ContainerError(f"meta value '{where or 'meta'}' is not a JSON object")
    prefix = where + "." if where else ""
    hints, rest, kwargs = get_type_hints(hint), dict(value), dict(given or {})
    for f in fields(hint):
        if f.name in kwargs:
            continue
        if f.name not in rest:
            raise ContainerError(f"missing meta key '{prefix}{f.name}'")
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
