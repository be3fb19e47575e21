import builtins
import json
from dataclasses import dataclass, field

import numpy as np
import pytest

from biconvmf import serialize

MAGIC = b"TESTMAGC"


def test_roundtrip(tmp_path):
    sections = {
        "meta": serialize.json_to_bytes({"a": 1, "b": [1, 2]}),
        "arr": serialize.array_to_bytes(np.arange(12, dtype=np.float64).reshape(3, 4)),
    }
    path = tmp_path / "c.bin"
    serialize.write_container(path, MAGIC, 1, sections)
    version, back = serialize.read_container(path, MAGIC, (1,))
    assert version == 1
    assert serialize.json_from_bytes(back["meta"], "meta") == {"a": 1, "b": [1, 2]}
    arr = serialize.array_from_bytes(back["arr"], "arr")
    assert arr.dtype == np.float64
    np.testing.assert_array_equal(arr, np.arange(12).reshape(3, 4))


def test_wrong_magic():
    blob = serialize.pack_container(MAGIC, 1, {})
    with pytest.raises(serialize.ContainerError, match="magic"):
        serialize.unpack_container(blob, b"OTHERMAG", (1,))


def test_unknown_version():
    blob = serialize.pack_container(MAGIC, 2, {})
    with pytest.raises(serialize.UnsupportedVersionError, match="version 2"):
        serialize.unpack_container(blob, MAGIC, (1,))


def test_truncation_names_section():
    blob = serialize.pack_container(MAGIC, 1, {"payloadx": b"0123456789"})
    with pytest.raises(serialize.ContainerError, match="payloadx"):
        serialize.unpack_container(blob[:-4], MAGIC, (1,))


def test_truncated_header():
    blob = serialize.pack_container(MAGIC, 1, {})
    with pytest.raises(serialize.ContainerError, match="truncated"):
        serialize.unpack_container(blob[:10], MAGIC, (1,))


def test_missing_section():
    with pytest.raises(serialize.ContainerError, match="missing required section 'gone'"):
        serialize.require_section({}, "gone")


# ---------------------------------------------------------------- atomic writes

class FailingFile:
    """Opens the real file, then fails part-way through the first write."""

    def __init__(self, path, mode):
        self.fh = builtins.open(path, mode)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        self.fh.write(data[:10])
        raise OSError("disk full")


def test_failed_write_keeps_existing_file_and_leaves_no_temp(tmp_path, monkeypatch):
    path = tmp_path / "c.bin"
    serialize.write_container(path, MAGIC, 1, {"a": b"old payload"})
    before = path.read_bytes()
    monkeypatch.setattr(serialize, "open", FailingFile, raising=False)
    with pytest.raises(OSError, match="disk full"):
        serialize.write_container(path, MAGIC, 1, {"a": b"new payload"})
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["c.bin"]


def test_failed_text_write_keeps_existing_file_and_leaves_no_temp(tmp_path, monkeypatch):
    path = tmp_path / "report.csv"
    serialize.write_text(path, "model,rmse\nPMF,1.0\n")
    assert path.read_text(encoding="utf-8") == "model,rmse\nPMF,1.0\n"
    monkeypatch.setattr(serialize, "open", FailingFile, raising=False)
    with pytest.raises(OSError, match="disk full"):
        serialize.write_text(path, "model,rmse\nPMF,2.0\n")
    assert path.read_text(encoding="utf-8") == "model,rmse\nPMF,1.0\n"
    assert [p.name for p in tmp_path.iterdir()] == ["report.csv"]


# ---------------------------------------------------------------- declared formats

@dataclass(frozen=True)
class Shape:
    rows: int
    tags: tuple[str, ...]


@serialize.container(b"TESTINNR", 1, "weights", ("a", "b"))
@dataclass
class Inner:
    shape: Shape = field(metadata=serialize.INLINE)
    weights: np.ndarray
    a: list[np.ndarray]
    b: list[np.ndarray]


@dataclass
class Log:
    losses: list


@serialize.container(MAGIC, 3, "ids", "values", "inner", "spare")
@dataclass
class Outer:
    name: str
    log: Log
    ids: list[str]
    values: np.ndarray
    inner: Inner
    spare: Inner | None = None


def make_outer():
    inner = Inner(Shape(2, ("x", "y")), np.eye(2), [np.zeros(1), np.ones(2)], [np.arange(3), np.arange(4)])
    return Outer("demo", Log([1.5, 0.25]), ["u1", "u2"], np.arange(6.0).reshape(2, 3), inner)


def test_declared_format_layout_and_bytewise_roundtrip(tmp_path):
    path = tmp_path / "outer.bin"
    serialize.save(make_outer(), path)
    version, sections = serialize.read_container(path, MAGIC, (3,))
    assert version == 3
    assert list(sections) == ["meta", "ids", "values", "inner"]
    assert json.loads(sections["meta"]) == {"name": "demo", "log": {"losses": [1.5, 0.25]}}
    _, inner = serialize.unpack_container(sections["inner"], b"TESTINNR", (1,))
    assert list(inner) == ["meta", "weights", "a_0", "b_0", "a_1", "b_1"]
    assert json.loads(inner["meta"]) == {"rows": 2, "tags": ["x", "y"]}

    back = serialize.load(Outer, path)
    assert back.log == Log([1.5, 0.25])
    assert back.inner.shape == Shape(2, ("x", "y"))
    assert back.spare is None
    np.testing.assert_array_equal(back.inner.b[1], np.arange(4))
    serialize.save(back, tmp_path / "again.bin")
    assert (tmp_path / "again.bin").read_bytes() == path.read_bytes()


def edit_meta(fn):
    def edit(sections):
        meta = json.loads(sections["meta"])
        fn(meta)
        sections["meta"] = serialize.json_to_bytes(meta)
    return edit


def edit_inner(fn):
    def edit(sections):
        _, inner = serialize.unpack_container(sections["inner"], b"TESTINNR", (1,))
        fn(inner)
        sections["inner"] = serialize.pack_container(b"TESTINNR", 1, inner)
    return edit


@pytest.mark.parametrize("edit, message", [
    (edit_meta(lambda m: m.pop("log")), "missing meta key 'log'"),
    (edit_meta(lambda m: m.update(extra=1)), "unexpected meta key 'extra'"),
    (edit_meta(lambda m: m["log"].pop("losses")), "missing meta key 'log.losses'"),
    (edit_meta(lambda m: m["log"].update(seconds=2.0)), "unexpected meta key 'log.seconds'"),
    (edit_meta(lambda m: m.update(log=[1.0])), "'log' is not a JSON object"),
    (edit_meta(lambda m: m.update(name=None, log={"losses": 3})), "'log.losses'"),
    (lambda s: s.pop("values"), "missing required section 'values'"),
    (lambda s: s.update(junk=b""), "unexpected section 'junk'"),
    (lambda s: s.pop("meta"), "missing required section 'meta'"),
    (edit_inner(lambda s: s.pop("b_1")), "missing required section 'b_1'"),
    (edit_inner(lambda s: s.update(meta=b'{"tags": []}')), "missing meta key 'rows'"),
])
def test_declared_format_refuses_mismatched_file(tmp_path, edit, message):
    path = tmp_path / "outer.bin"
    serialize.save(make_outer(), path)
    _, sections = serialize.read_container(path, MAGIC, (3,))
    edit(sections)
    serialize.write_container(path, MAGIC, 3, sections)
    with pytest.raises(serialize.ContainerError, match=message):
        serialize.load(Outer, path)
