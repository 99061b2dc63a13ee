"""Line-by-line archive reader: the oracle that `rmnlab.data.read_archive`
is compared against.

It walks the text one line at a time and parses each utterance's rows by
its own `_parse_rows` call, so every check sits next to the line it
names. The production reader must return the same corpus, or raise the
same exception type with the same message, for any bytes.
"""

from __future__ import annotations

import codecs
import io

import numpy as np

from rmnlab.data import Corpus, FormatError, ParseError, Utterance, _parse_rows


def ref_read_archive(path) -> Corpus:
    utts: dict[str, Utterance] = {}
    num_classes = 0
    with open(path, "rb") as fh:
        raw = fh.read().removeprefix(codecs.BOM_UTF8)
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as e:
        bad_line = raw.count(b"\n", 0, e.start) + 1
        raise ParseError(f"line {bad_line}: bytes that are not UTF-8 text") from None

    numbered = enumerate(io.StringIO(text, newline=None), 1)
    for line_no, line in numbered:
        tokens = line.split()
        if not tokens:
            continue
        if tokens[0] == "labels":
            if len(tokens) < 2:
                raise ParseError(f"line {line_no}: labels line without utterance id")
            utt_id = tokens[1]
            if utt_id not in utts:
                raise ParseError(f"line {line_no}: labels for unknown utterance {utt_id!r}")
            u = utts[utt_id]
            if u.labels is not None:
                raise FormatError(f"line {line_no}: duplicate labels for {utt_id!r}")
            try:
                labels = np.array([int(v) for v in tokens[2:]], dtype=np.int64)
            except ValueError:
                raise ParseError(f"line {line_no}: non-integer label") from None
            except OverflowError:
                raise ParseError(f"line {line_no}: label out of the 64-bit range") from None
            if labels.shape[0] != u.num_frames:
                raise ParseError(
                    f"line {line_no}: {labels.shape[0]} labels for {u.num_frames} frames"
                )
            u.labels = labels
            continue

        # features block header: <id> [ K
        if len(tokens) != 3 or tokens[1] != "[":
            raise ParseError(f"line {line_no}: expected '<id> [ K' header, got {line.rstrip()!r}")
        utt_id = tokens[0]
        if utt_id in utts:
            raise FormatError(f"line {line_no}: duplicate utterance id {utt_id!r}")
        try:
            k = int(tokens[2])
        except ValueError:
            raise ParseError(f"line {line_no}: class count {tokens[2]!r} is not an integer") from None
        if k < 0:
            raise ParseError(f"line {line_no}: negative class count in header {line.rstrip()!r}")
        num_classes = max(num_classes, k)

        # the row lines up to a closing "]" set off by whitespace
        rows = []  # (line number, values)
        for row_no, row in numbered:
            row = row.strip()
            closed = row.endswith("]") and not row[-2:-1].strip()
            rows.append((row_no, row[:-1] if closed else row))
            if closed:
                break
        else:
            raise ParseError(f"line {line_no}: unterminated features block for {utt_id!r}")
        rows = [(n, row) for n, row in rows if row]
        feats = _parse_rows([row for _, row in rows], lambda j: f"line {rows[j][0]}")
        utts[utt_id] = Utterance(utt_id, feats)

    feature_dim = next((u.features.shape[1] for u in utts.values() if u.num_frames), 0)
    for u in utts.values():
        if u.num_frames == 0:
            u.features = np.zeros((0, feature_dim))
    corpus = Corpus(utterances=list(utts.values()), feature_dim=feature_dim, num_classes=num_classes)
    corpus.validate()
    return corpus
