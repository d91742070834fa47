"""The earlier encoded-corpus loader, kept verbatim: ``int()`` per token,
one line at a time.  ``authorlm.textproc.load_processed`` must load the
same corpus from every file this one accepts, and name the same line in
the same message for the malformed bodies it refuses.
"""

from pathlib import Path

from authorlm.textproc import _CORPUS_MAGIC, ProcessedCorpus, Vocabulary, _read_lines


def load_processed(path: str | Path, vocab: Vocabulary) -> ProcessedCorpus:
    order = stemming = prune_threshold = None
    sentences = []
    for lineno, line in enumerate(_read_lines(path, _CORPUS_MAGIC), 1):
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
