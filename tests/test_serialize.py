import builtins
import io
import struct
from dataclasses import dataclass, field

import numpy as np
import pytest

from biconvmf import serialize

MAGIC = b"TESTMAGC"


def test_roundtrip(tmp_path):
    sections = {
        "meta": serialize.json_to_bytes({"a": 1, "b": [1, 2]}),
        "arr": serialize.array_payload(np.arange(12, dtype=np.float64).reshape(3, 4)),
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


def section_bytes(name: str, payload: bytes) -> bytes:
    encoded = name.encode("utf-8")
    return struct.pack("<H", len(encoded)) + encoded + struct.pack("<Q", len(payload)) + payload


def test_bytes_after_the_last_section_are_refused():
    blob = serialize.pack_container(MAGIC, 1, {"a": b"0123"}) + b"garbage"
    with pytest.raises(serialize.ContainerError, match="^7 unexpected bytes after the last section$"):
        serialize.unpack_container(blob, MAGIC, (1,))


def test_repeated_section_name_is_refused():
    blob = (MAGIC + struct.pack("<II", 1, 3) + section_bytes("a", b"first")
            + section_bytes("b", b"") + section_bytes("a", b"second"))
    with pytest.raises(serialize.ContainerError,
                       match="^bad section 2 header: repeated section name 'a'$"):
        serialize.unpack_container(blob, MAGIC, (1,))


def test_sections_are_views_into_the_bytes_read():
    blob = serialize.pack_container(MAGIC, 1, {"a": b"0123", "b": b"xy"})
    _, sections = serialize.unpack_container(blob, MAGIC, (1,))
    assert {name: bytes(view) for name, view in sections.items()} == {"a": b"0123", "b": b"xy"}
    assert all(view.obj is blob for view in sections.values())


ARRAYS = {
    "float64": np.arange(12, dtype=np.float64).reshape(3, 4) / 7,
    "float32-3d": np.linspace(-1, 1, 24, dtype=np.float32).reshape(2, 3, 4),
    "int32": np.arange(-5, 5, dtype=np.int32),
    "int64-empty": np.zeros((0, 3), dtype=np.int64),
    "bool": np.array([True, False, True]),
    "fortran": np.asfortranarray(np.arange(6.0).reshape(2, 3)),
    "strided": np.arange(20.0)[::3],
    "scalar": np.array(2.5),
}


@pytest.mark.parametrize("arr", ARRAYS.values(), ids=ARRAYS.keys())
def test_array_payload_holds_the_bytes_np_save_writes(arr):
    buf = io.BytesIO()
    np.save(buf, np.ascontiguousarray(arr), allow_pickle=False)
    payload = b"".join(serialize.array_payload(arr))
    assert payload == buf.getvalue()
    back = serialize.array_from_bytes(memoryview(payload), "x")
    np.testing.assert_array_equal(back, arr.reshape(back.shape))
    assert back.dtype == arr.dtype and back.flags.writeable
    assert not np.shares_memory(back, np.frombuffer(payload, np.uint8))


def test_array_payload_does_not_copy_a_contiguous_array():
    arr = np.arange(10.0)
    assert np.shares_memory(serialize.array_payload(arr)[1], arr)


@pytest.mark.parametrize("edit", [lambda b: b + b"\0", lambda b: b[:-1], lambda b: b"\x93NUMPX" + b[6:]],
                         ids=["extra-byte", "short", "bad-magic"])
def test_malformed_array_payload_is_refused(edit):
    payload = b"".join(serialize.array_payload(np.arange(4, dtype=np.int32)))
    with pytest.raises(serialize.ContainerError, match="section 'x' does not hold a valid array"):
        serialize.array_from_bytes(edit(payload), "x")


def test_fortran_order_array_payload_is_refused():
    buf = io.BytesIO()
    np.save(buf, np.asfortranarray(np.arange(6.0).reshape(2, 3)), allow_pickle=False)
    with pytest.raises(serialize.ContainerError, match="section 'x' does not hold a valid array: Fortran"):
        serialize.array_from_bytes(buf.getvalue(), "x")


def test_missing_section():
    with pytest.raises(serialize.ContainerError, match="missing required section 'gone'"):
        serialize.pop_section({}, "gone")


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


def test_directory_at_temp_path_raises_one_error_and_is_left_alone(tmp_path):
    path = tmp_path / "report.csv"
    serialize.temp_path(path).mkdir()
    with pytest.raises(IsADirectoryError) as caught:
        serialize.write_text(path, "model,rmse\n")
    assert caught.value.__context__ is None    # the cleanup raised nothing of its own
    assert serialize.temp_path(path).is_dir() and not path.exists()


# ---------------------------------------------------------------- declared formats

@dataclass(frozen=True)
class Shape:
    rows: int
    tags: tuple[str, ...]


@serialize.container(b"TESTINNR", 1)
@dataclass
class Inner:
    shape: Shape
    weights: np.ndarray
    a: list[np.ndarray]
    b: list[np.ndarray]

    def __post_init__(self):
        if len(self.a) != len(self.b):
            raise ValueError("a and b differ in length")


@dataclass
class Log:
    losses: list[float]


@serialize.container(MAGIC, 3)
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
    assert list(sections) == ["meta", "values", "inner"]
    assert serialize.json_from_bytes(sections["meta"], "meta") == {
        "name": "demo", "log": {"losses": [1.5, 0.25]}, "ids": ["u1", "u2"]}
    _, inner = serialize.unpack_container(sections["inner"], b"TESTINNR", (1,))
    assert list(inner) == ["meta", "weights", "a_0", "a_1", "b_0", "b_1"]
    assert serialize.json_from_bytes(inner["meta"], "meta") == {"shape": {"rows": 2, "tags": ["x", "y"]}}

    back = serialize.load(Outer, path)
    assert back.log == Log([1.5, 0.25])
    assert back.inner.shape == Shape(2, ("x", "y"))
    assert back.spare is None
    np.testing.assert_array_equal(back.inner.b[1], np.arange(4))
    serialize.save(back, tmp_path / "again.bin")
    assert (tmp_path / "again.bin").read_bytes() == path.read_bytes()


def edit_meta(fn):
    def edit(sections):
        meta = serialize.json_from_bytes(sections["meta"], "meta")
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
    (edit_meta(lambda m: m.update(name=None)), "'name'"),
    (edit_meta(lambda m: m.update(log={"losses": 3})), "'log.losses'"),
    (edit_inner(lambda s: s.update(meta=b'{"shape": {"rows": true, "tags": []}}')),
     "section 'inner': invalid value for 'shape.rows': not a JSON int"),
    (lambda s: s.pop("values"), "missing required section 'values'"),
    (lambda s: s.update(junk=b""), "unexpected section 'junk'"),
    (lambda s: s.pop("meta"), "missing required section 'meta'"),
    (edit_inner(lambda s: s.pop("b_1")), "section 'inner': invalid value for 'Inner': a and b differ in length"),
    (edit_inner(lambda s: s.pop("a_0")), "section 'inner': unexpected section 'a_1'"),
    (edit_meta(lambda m: m.update(ids=3)), "invalid value for 'ids'"),
    (edit_inner(lambda s: s.update(meta=b'{"shape": {"tags": []}}')), "missing meta key 'shape.rows'"),
])
def test_declared_format_refuses_mismatched_file(tmp_path, edit, message):
    path = tmp_path / "outer.bin"
    serialize.save(make_outer(), path)
    _, sections = serialize.read_container(path, MAGIC, (3,))
    edit(sections)
    serialize.write_container(path, MAGIC, 3, sections)
    with pytest.raises(serialize.ContainerError, match=message):
        serialize.load(Outer, path)


def test_declared_format_reads_a_json_int_as_a_float(tmp_path):
    path = tmp_path / "outer.bin"
    serialize.save(make_outer(), path)
    _, sections = serialize.read_container(path, MAGIC, (3,))
    edit_meta(lambda m: m["log"].update(losses=[1, 2.5]))(sections)
    serialize.write_container(path, MAGIC, 3, sections)
    assert serialize.load(Outer, path).log == Log([1, 2.5])


def test_nested_error_names_the_outer_section_and_keeps_its_type(tmp_path):
    path = tmp_path / "outer.bin"
    serialize.save(make_outer(), path)
    _, sections = serialize.read_container(path, MAGIC, (3,))
    sections["inner"] = serialize.pack_container(b"TESTINNR", 2, {})
    serialize.write_container(path, MAGIC, 3, sections)
    with pytest.raises(serialize.UnsupportedVersionError,
                       match="^section 'inner': unsupported container version 2"):
        serialize.load(Outer, path)


def test_added_field_roundtrips_with_no_other_declaration(tmp_path):
    @serialize.container(MAGIC, 3)
    @dataclass
    class Wider(Outer):
        scores: np.ndarray = field(default_factory=lambda: np.zeros(0))
        extras: list[np.ndarray] = field(default_factory=list)
        label: str = ""

    wide = Wider(**vars(make_outer()), scores=np.arange(3.0), extras=[np.ones(2)], label="new")
    path = tmp_path / "wide.bin"
    serialize.save(wide, path)
    _, sections = serialize.read_container(path, MAGIC, (3,))
    assert list(sections) == ["meta", "values", "inner", "scores", "extras_0"]
    assert serialize.json_from_bytes(sections["meta"], "meta")["label"] == "new"
    back = serialize.load(Wider, path)
    assert back.label == "new"
    np.testing.assert_array_equal(back.scores, np.arange(3.0))
    np.testing.assert_array_equal(back.extras[0], np.ones(2))
    serialize.save(back, tmp_path / "again.bin")
    assert (tmp_path / "again.bin").read_bytes() == path.read_bytes()
