"""The one file writer: atomic replacement, the CSV format, and the rule
that nothing else in the package opens a file for writing."""

import ast
import os
from pathlib import Path

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

    def test_text_is_utf8_without_newline_translation(self, tmp_path):
        path = tmp_path / "t.txt"
        files.write_file(path, "±\nb\r\n")
        assert path.read_bytes() == "±\nb\r\n".encode("utf-8")


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


def _write_calls(tree: ast.Module):
    """(function name, line) of every call that opens a file for writing:
    ``open``/``.open`` with a write, append or create mode (or a mode that
    is not a literal), ``.write_text`` and ``.write_bytes``."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in ("write_text", "write_bytes") and isinstance(func, ast.Attribute):
                found.append((function, node.lineno))
            elif name == "open":
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
"""
    assert [name for name, _ in _write_calls(ast.parse(source))] == list("abcdef")
