"""The earlier vocabulary and encoded-corpus loaders, kept as they were:
one line at a time, ``int()`` per id and count, blank lines skipped, and
any ``#`` line read as a header wherever it stands, the last one winning.
``authorlm.textproc`` must load an equal vocabulary and corpus from every
file in the layout ``save_vocabulary`` and ``save_processed`` write, and
name the same line in the same message for the malformed sentence lines
both refuse; these loaders also accept files outside that layout, which
``authorlm.textproc`` refuses.
"""

from pathlib import Path

from authorlm.textproc import ProcessedCorpus, Vocabulary


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


def load_processed(path: str | Path, vocab: Vocabulary) -> ProcessedCorpus:
    order = stemming = prune_threshold = None
    sentences = []
    for lineno, line in enumerate(_read_lines(path, "authorlm-corpus 1"), 1):
        if not line:
            continue
        if line.startswith("#"):
            fields = line[1:].split()
            if fields[:1] == ["order"]:
                order = int(fields[1])
            elif fields[:1] == ["stemming"]:
                stemming = bool(int(fields[1]))
            elif fields[:1] == ["prune_threshold"]:
                prune_threshold = float(fields[1])
            continue
        try:
            sentences.append(tuple(int(t) for t in line.split()))
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: malformed sentence line") from exc
    if order is None or stemming is None or prune_threshold is None:
        raise ValueError(f"{path}: missing pipeline-parameter header")
    return ProcessedCorpus(
        vocabulary=vocab,
        sentences=tuple(sentences),
        order=order,
        stemming=stemming,
        prune_threshold=prune_threshold,
    )
