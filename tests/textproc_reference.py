"""The earlier vocabulary loader, kept as it was: one line at a time,
``int()`` per id and count, blank lines skipped, and any ``#`` line read
as a header wherever it stands.  It is the oracle for
``authorlm.textproc.save_vocabulary``: every ``.vocab.tsv`` it writes
must load back as the vocabulary it was given.

Also the earlier per-sentence encoder, the oracle for
``authorlm.textproc.encode_local`` on both of its paths (``encode`` and
the attribution sweep), and a library-free reader and writer of the
encoded corpus file (version 3, whose header holds the vocabulary and the
token behind each unknown id), for tests that edit one.
"""

import json
from pathlib import Path

import numpy as np

from authorlm.textproc import END_ID, START_ID, Vocabulary


def _read_lines(path, magic: str) -> list[str]:
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != f"# {magic}":
        raise ValueError(f"{path}: expected header {magic!r} on line 1")
    return lines


def load_vocabulary(path: str | Path) -> Vocabulary:
    lines = _read_lines(path, "authorlm-vocab 1")
    words, counts = [], []
    for lineno, line in enumerate(lines, 1):
        if not line or line.startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) != 3:
            raise ValueError(f"{path}:{lineno}: expected word<TAB>id<TAB>count")
        word, idx, count = fields
        if int(idx) != len(words):
            raise ValueError(f"{path}:{lineno}: ids must be dense and in order")
        words.append(word)
        counts.append(int(count))
    if lines[1:2] != [f"# size {len(words)}"]:
        raise ValueError(f"{path}:2: expected '# size {len(words)}' for {len(words)} rows")
    return Vocabulary(words=tuple(words), counts=tuple(counts))


def encode_sentence(tokens, vocab: Vocabulary, order: int) -> tuple[int, ...]:
    """One sentence's padded ids: order-1 start ids, each token's id (the
    unknown id for a word outside ``vocab``) and one end id."""
    if order < 2:
        raise ValueError("order must be >= 2")
    return (START_ID,) * (order - 1) + tuple(vocab.index_of(t) for t in tokens) + (END_ID,)


def read_corpus(path: Path) -> tuple[dict, np.ndarray, np.ndarray]:
    """(header, lengths, ids) of a saved version-3 corpus: the JSON header
    line, then the int64 lengths and ids it lists, as writable copies."""
    line, body = path.read_bytes().split(b"\n", 1)
    header = json.loads(line)
    if header.get("version") != 3:
        raise ValueError(f"{path}: version {header.get('version')!r}, expected 3")
    values = np.frombuffer(body, "<i8").copy()
    n = header["arrays"][0][1][0]
    return header, values[:n], values[n:]


def write_corpus(path: Path, header: dict, lengths, ids) -> None:
    """A file in ``read_corpus``'s layout: the sorted-key header line as
    given (of any version), then the lengths' and ids' int64 bytes."""
    line = json.dumps(header, sort_keys=True).encode() + b"\n"
    path.write_bytes(line + np.asarray(lengths, "<i8").tobytes() + np.asarray(ids, "<i8").tobytes())
