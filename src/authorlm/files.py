"""The one place that writes files, the binary container, and the CSV
output format.

``write_file`` writes the new contents to a temporary file in the target's
directory and renames it over the target with ``os.replace``, so a stage
that fails or is killed leaves either the old file or the new one, never a
truncated one.  There is no fsync: the aim is safety when a stage fails,
not durability across a power loss.  A write that fails names the target
only, never the temporary file, which is gone by then.

Both model families and the encoded corpus are saved in one binary
container (``write_arrays``, ``read_arrays``): one sorted-key JSON header
line, then the raw little-endian bytes of each array in header order, and
nothing after them.

Every CSV output starts with one ``# generated <UTC timestamp>`` comment
line, the only line allowed to differ between two runs of one config;
``write_csv`` writes it and ``read_csv`` skips comment lines.
"""

from __future__ import annotations

import bisect
import csv
import io
import json
import math
import os
from datetime import datetime, timezone
from itertools import accumulate
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np


def write_file(path: str | Path, data: str | bytes) -> None:
    """Replace ``path`` with ``data`` (text is written as UTF-8)."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.{os.urandom(4).hex()}.tmp")
    try:
        with open(tmp, "xb") as f:
            f.write(data.encode("utf-8") if isinstance(data, str) else data)
        os.replace(tmp, path)
    except BaseException as exc:
        tmp.unlink(missing_ok=True)
        if isinstance(exc, OSError) and exc.filename is not None:
            raise type(exc)(exc.errno, exc.strerror, str(path)) from None
        raise


def write_arrays(path: str | Path, header: dict, arrays: Sequence[np.ndarray]) -> None:
    """The container: ``header`` as one sorted-key JSON line, then the raw
    little-endian bytes of each array, in order."""
    line = json.dumps(header, sort_keys=True).encode("utf-8") + b"\n"
    body = [a.astype(a.dtype.newbyteorder("<"), copy=False).tobytes() for a in arrays]
    write_file(path, b"".join([line, *body]))


Layout = list[tuple[str, str, tuple[int, ...]]]


def row_count(arrays, i: int) -> int | None:
    """The row count a header's i-th array entry states, if it is an int >= 0."""
    try:
        n = arrays[i][1][0]
    except (TypeError, IndexError, KeyError):
        return None
    return n if type(n) is int and n >= 0 else None


def _object(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object as a dict; a ValueError for a repeated key, of which ``json`` keeps the last."""
    keys = [key for key, _ in pairs]
    if len(set(keys)) < len(keys):
        raise ValueError(f"header key {next(k for k in keys if keys.count(k) > 1)!r} repeated")
    return dict(pairs)


def read_arrays(
    path: str | Path, magic: str, version: int, layout: Callable[[str | Path, dict], Layout]
) -> tuple[dict, list[np.ndarray]]:
    """The header and arrays of a container file whose header holds
    ``format`` ``magic`` and ``version``.  ``layout(path, header)`` checks
    the rest of the header and gives the (name, dtype, shape) of each array
    it implies, in file order; the file must hold exactly their bytes.
    Every refusal is a ValueError naming the path.
    """
    with open(path, "rb") as f:
        try:
            header = json.loads(f.readline(), object_pairs_hook=_object)
        except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
            raise ValueError(f"{path}: no {magic} header") from exc
        except ValueError as exc:  # a repeated key
            raise ValueError(f"{path}: {exc}") from None
        if not isinstance(header, dict):
            raise ValueError(f"{path}: no {magic} header")
        if header.get("format") != magic:
            raise ValueError(f"{path}: unexpected format {header.get('format')!r}")
        if header.get("version") != version:
            raise ValueError(f"{path}: unsupported version {header.get('version')!r}")
        arrays = layout(path, header)
        ends = list(accumulate(np.dtype(dtype).itemsize * math.prod(shape) for _, dtype, shape in arrays))
        # sized before reading, so a header that states huge arrays allocates nothing
        size = os.fstat(f.fileno()).st_size - f.tell()
        if size < ends[-1]:
            raise ValueError(f"{path}: truncated tensor {arrays[bisect.bisect_right(ends, size)][0]!r}")
        if size > ends[-1]:
            raise ValueError(f"{path}: unexpected bytes after tensor {arrays[-1][0]!r}")
        out = [np.empty(shape, dtype) for _, dtype, shape in arrays]
        for a in out:  # each into its own memory, so the caller may drop any
            f.readinto(a.reshape(-1).view(np.uint8))
    return header, out


def write_csv(path: str | Path, header: Sequence, rows: Iterable[Sequence]) -> None:
    """The timestamp line, then the header and rows as ``csv.writer`` lines."""
    buf = io.StringIO()
    buf.write(f"# generated {datetime.now(timezone.utc).isoformat()}\n")
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    write_file(path, buf.getvalue())


def read_csv(path: str | Path) -> list[dict[str, str]]:
    """The rows of a ``write_csv`` file as dicts keyed by its header."""
    with open(path, newline="", encoding="utf-8") as f:
        return list(csv.DictReader(line for line in f if not line.startswith("#")))


def write_json(path: str | Path, obj) -> None:
    """Sorted, indented JSON; a non-finite float is written as ``null``,
    since RFC 8259 JSON has no NaN or infinity."""
    plain = json.loads(json.dumps(obj), parse_constant=lambda _: None)
    write_file(path, json.dumps(plain, indent=2, sort_keys=True, allow_nan=False) + "\n")
