"""The one place that writes files, and the CSV output format.

``write_file`` writes the new contents to a temporary file in the target's
directory and renames it over the target with ``os.replace``, so a stage
that fails or is killed leaves either the old file or the new one, never a
truncated one.  There is no fsync: the aim is safety when a stage fails,
not durability across a power loss.

Every CSV output starts with one ``# generated <UTC timestamp>`` comment
line, the only line allowed to differ between two runs of one config;
``write_csv`` writes it and ``read_csv`` skips comment lines.
"""

from __future__ import annotations

import csv
import io
import json
import os
from datetime import datetime, timezone
from pathlib import Path
from typing import Iterable, Sequence


def write_file(path: str | Path, data: str | bytes) -> None:
    """Replace ``path`` with ``data`` (text is written as UTF-8)."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.{os.urandom(4).hex()}.tmp")
    try:
        with open(tmp, "xb") as f:
            f.write(data.encode("utf-8") if isinstance(data, str) else data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


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
