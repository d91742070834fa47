"""The one file writer: atomic replacement, the CSV format, and the rule
that nothing else in the package opens a file for writing."""

import ast
import json
import math
import os
from pathlib import Path

import numpy as np
import pytest

import authorlm
from authorlm import files


def _rows_then_fail(rows):
    yield from rows
    raise RuntimeError("row source failed")


class TestAtomicWrite:
    def test_failing_rows_leave_old_file(self, tmp_path):
        path = tmp_path / "out.csv"
        files.write_csv(path, ["a", "b"], [[1, 2], [3, 4]])
        before = path.read_bytes()
        with pytest.raises(RuntimeError, match="row source failed"):
            files.write_csv(path, ["a", "b"], _rows_then_fail([[5, 6], [7, 8]]))
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["out.csv"]

    def test_failed_rename_leaves_old_file(self, tmp_path, monkeypatch):
        path = tmp_path / "model.bin"
        files.write_file(path, b"old")

        def broken_replace(src, dst):
            raise OSError("disk gone")

        monkeypatch.setattr(os, "replace", broken_replace)
        with pytest.raises(OSError, match="disk gone"):
            files.write_file(path, b"new contents")
        assert path.read_bytes() == b"old"
        assert os.listdir(tmp_path) == ["model.bin"]

    def test_failed_write_names_the_target_only(self, tmp_path):
        # the temporary file is gone by the time the error is seen
        path = tmp_path / "model.kn"
        path.mkdir()
        with pytest.raises(IsADirectoryError) as err:
            files.write_file(path, b"new contents")
        assert str(err.value) == f"[Errno 21] Is a directory: '{path}'"
        assert os.listdir(tmp_path) == ["model.kn"]

    def test_text_is_utf8_without_newline_translation(self, tmp_path):
        path = tmp_path / "t.txt"
        files.write_file(path, "±\nb\r\n")
        assert path.read_bytes() == "±\nb\r\n".encode("utf-8")


class TestContainer:
    """``write_arrays`` and ``read_arrays``: a sorted-key JSON header line,
    then exactly the arrays the header implies."""

    ARRAYS = {
        "a": np.arange(6, dtype=np.int64).reshape(3, 2),
        "empty": np.empty(0),
        "b": np.array([0.5, -0.0]),
    }

    @staticmethod
    def layout(path, header):
        return [(n, "<i8" if n == "a" else "<f8", tuple(shape)) for n, shape in header["arrays"]]

    def write(self, path):
        arrays = [[n, list(a.shape)] for n, a in self.ARRAYS.items()]
        header = {"format": "test", "version": 1, "arrays": arrays}
        files.write_arrays(path, header, list(self.ARRAYS.values()))
        return header

    def test_round_trip(self, tmp_path):
        header = self.write(tmp_path / "m.bin")
        line, body = (tmp_path / "m.bin").read_bytes().split(b"\n", 1)
        assert line == json.dumps(header, sort_keys=True).encode()
        assert body == b"".join(a.tobytes() for a in self.ARRAYS.values())
        got_header, arrays = files.read_arrays(tmp_path / "m.bin", "test", 1, self.layout)
        assert got_header == header
        for got, want in zip(arrays, self.ARRAYS.values()):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize(
        "cut, message",
        [
            (-1, "truncated tensor 'b'"),
            (-17, "truncated tensor 'a'"),
            (None, "unexpected bytes after tensor 'b'"),
        ],
        ids=["last", "first", "trailing"],
    )
    def test_size_refusals(self, tmp_path, cut, message):
        path = tmp_path / "m.bin"
        self.write(path)
        data = path.read_bytes()
        path.write_bytes(data[:cut] if cut else data + b"\0")
        with pytest.raises(ValueError) as err:
            files.read_arrays(path, "test", 1, self.layout)
        assert str(err.value) == f"{path}: {message}"

    def test_huge_stated_array_allocates_nothing(self, tmp_path):
        path = tmp_path / "m.bin"
        self.write(path)
        huge = lambda path, header: [("a", "<f8", (10**15,))]
        with pytest.raises(ValueError) as err:
            files.read_arrays(path, "test", 1, huge)
        assert str(err.value) == f"{path}: truncated tensor 'a'"

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda h: b"{", "no test header"),
            (lambda h: b"[]", "no test header"),
            (lambda h: b"[" * 100_000, "no test header"),
            (lambda h: h.replace(b'"test"', b'"other"'), "unexpected format 'other'"),
            (lambda h: h.replace(b'"version": 1', b'"version": 2'), "unsupported version 2"),
            (lambda h: h.replace(b'"version": 1', b'"version": 1, "version": 1'), "header key 'version' repeated"),
        ],
        ids=["not-json", "not-object", "nested-too-deep", "format", "version", "repeated-key"],
    )
    def test_header_refusals(self, tmp_path, edit, message):
        path = tmp_path / "m.bin"
        self.write(path)
        line, body = path.read_bytes().split(b"\n", 1)
        path.write_bytes(edit(line) + b"\n" + body)
        with pytest.raises(ValueError) as err:
            files.read_arrays(path, "test", 1, self.layout)
        assert str(err.value) == f"{path}: {message}"


class TestCsv:
    def test_round_trip_skips_timestamp(self, tmp_path):
        path = tmp_path / "t.csv"
        files.write_csv(path, ["method", "value"], [["kn", 1.5], ["nnlm", "x,y"]])
        assert path.read_text(encoding="utf-8").startswith("# generated ")
        assert files.read_csv(path) == [
            {"method": "kn", "value": "1.5"},
            {"method": "nnlm", "value": "x,y"},
        ]

    def test_json_layout(self, tmp_path):
        path = tmp_path / "s.json"
        files.write_json(path, {"b": 1, "a": [1.0]})
        assert path.read_text() == '{\n  "a": [\n    1.0\n  ],\n  "b": 1\n}\n'

    def test_json_writes_non_finite_floats_as_null(self, tmp_path):
        path = tmp_path / "s.json"
        files.write_json(path, {"m": {"1": {"mean": float("nan"), "std": 0.0}}, "x": [-math.inf]})
        assert json.loads(path.read_text(), parse_constant=pytest.fail) == {
            "m": {"1": {"mean": None, "std": 0.0}}, "x": [None],
        }


def _write_calls(tree: ast.Module):
    """(function name, line) of every call that opens a file for writing:
    ``open``/``.open`` with a write, append or create mode (or a mode that
    is not a literal), ``.write_text`` and ``.write_bytes``.  Opening
    ``os.devnull`` writes no file, so it is not one of them."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in ("write_text", "write_bytes") and isinstance(func, ast.Attribute):
                found.append((function, node.lineno))
            elif name == "open" and not (node.args and ast.unparse(node.args[0]) == "os.devnull"):
                position = 1 if isinstance(func, ast.Name) else 0
                mode = next((k.value for k in node.keywords if k.arg == "mode"), None)
                if mode is None and len(node.args) > position:
                    mode = node.args[position]
                if mode is not None and not (
                    isinstance(mode, ast.Constant) and not set("wax+") & set(str(mode.value))
                ):
                    found.append((function, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return found


def test_only_write_file_opens_files_for_writing():
    package = Path(authorlm.__file__).parent
    writers = {}
    for path in sorted(package.glob("*.py")):
        for function, line in _write_calls(ast.parse(path.read_text(encoding="utf-8"))):
            writers.setdefault(f"{path.stem}.{function}", []).append(line)
    assert list(writers) == ["files.write_file"], writers


def test_guard_sees_every_write_form():
    source = """
def a(p):
    open(p, "w")
def b(p):
    open(p, mode="ab")
def c(p):
    p.open("x")
def d(p):
    p.write_text("")
def e(p):
    p.write_bytes(b"")
def f(p, m):
    open(p, m)
def g(p):
    open(p, "rb"); open(p); p.open()
def h(p):
    os.open(p, os.O_WRONLY)
def i():
    os.open(os.devnull, os.O_WRONLY)
"""
    assert [name for name, _ in _write_calls(ast.parse(source))] == list("abcdefh")
