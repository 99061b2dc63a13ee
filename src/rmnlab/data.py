"""Corpus I/O, feature-space utilities and synthetic sequence tasks.

The synthetic generators produce tasks whose difficulty is purely temporal:
frames are one-hot (or +/-1) so a model can only solve them by moving
information across time, not by learning a feature representation.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ParseError",
    "FormatError",
    "Utterance",
    "Corpus",
    "read_archive",
    "write_archive",
    "splice",
    "mean_var_normalize",
    "gen_delayed_recall",
    "gen_future_recall",
    "gen_parity",
]

# 17 significant digits round-trip any float64 exactly.
_REAL_FMT = "%.17g"


class ParseError(ValueError):
    """Malformed archive content; message names the offending line."""


def _format_row(row: np.ndarray) -> str:
    """One row of reals in the exact text form, space-separated."""
    return " ".join([_REAL_FMT] * len(row)) % tuple(row.tolist())


def _parse_rows(lines: list[str], where) -> np.ndarray:
    """`_format_row` lines back into a (rows, cols) float64 array by one
    `np.loadtxt` call; no lines give (0, 0). ParseError names the first blank,
    non-numeric, ragged or non-finite line as `where(i)`."""
    if not lines:
        return np.zeros((0, 0))
    # loadtxt skips blank lines and warns on a block without data
    if lines[0].strip():
        try:
            vals = np.loadtxt(lines, dtype=np.float64, comments=None, ndmin=2)
            if len(vals) == len(lines) and np.isfinite(vals).all():
                return vals
        except ValueError:
            pass
    width = len(lines[0].split())
    for i, line in enumerate(lines):
        if not line.strip():
            raise ParseError(f"{where(i)}: blank row")
        try:
            row = np.loadtxt([line], dtype=np.float64, comments=None, ndmin=1)
        except ValueError:
            raise ParseError(f"{where(i)}: non-numeric value") from None
        if row.size != width:
            raise ParseError(f"{where(i)}: row has {row.size} columns, expected {width}")
        if not np.isfinite(row).all():
            raise ParseError(f"{where(i)}: non-finite value")
    raise ParseError(f"{where(0)}: rows do not parse")


class FormatError(ValueError):
    """Structurally valid file that violates corpus rules (e.g. duplicate id)."""


@dataclass
class Utterance:
    id: str
    features: np.ndarray            # (T, d) float64
    labels: np.ndarray | None = None  # (T,) int64 or None for unlabeled eval

    @property
    def num_frames(self) -> int:
        return self.features.shape[0]


@dataclass
class Corpus:
    utterances: list[Utterance] = field(default_factory=list)
    feature_dim: int = 0
    num_classes: int = 0

    def __len__(self) -> int:
        return len(self.utterances)

    def total_frames(self) -> int:
        return sum(u.num_frames for u in self.utterances)

    def validate(self) -> None:
        seen = set()
        for u in self.utterances:
            if u.id in seen:
                raise FormatError(f"duplicate utterance id {u.id!r}")
            seen.add(u.id)
            if u.features.ndim != 2 or u.features.shape[1] != self.feature_dim:
                raise FormatError(
                    f"utterance {u.id!r}: feature shape {u.features.shape} "
                    f"does not match corpus dim {self.feature_dim}"
                )
            if u.labels is not None:
                if u.labels.shape != (u.num_frames,):
                    raise FormatError(f"utterance {u.id!r}: label count != frame count")
                if u.labels.size and (u.labels.min() < 0 or u.labels.max() >= self.num_classes):
                    raise FormatError(
                        f"utterance {u.id!r}: labels outside [0, {self.num_classes})"
                    )


def write_archive(corpus: Corpus, path) -> None:
    """Serialize a corpus to the text matrix archive format.

    One block per utterance::

        <utt-id> [ K
         r11 r12 ... r1d
         ...
         rT1 ... rTd ]
        labels <utt-id> l1 l2 ... lT

    Reals carry 17 significant digits so write/read round-trips are
    value-exact; the labels line is omitted for unlabeled utterances.
    """
    with open(path, "w", encoding="utf-8") as fh:
        for u in corpus.utterances:
            k = corpus.num_classes if u.labels is not None else 0
            fh.write(f"{u.id} [ {k}\n")
            rows = u.features
            for t in range(rows.shape[0]):
                line = " " + _format_row(rows[t])
                if t == rows.shape[0] - 1:
                    line += " ]"
                fh.write(line + "\n")
            if rows.shape[0] == 0:
                fh.write(" ]\n")
            if u.labels is not None:
                fh.write("labels " + u.id + " " + " ".join(str(int(v)) for v in u.labels) + "\n")


def read_archive(path) -> Corpus:
    """Parse a text matrix archive back into a Corpus. Round-trips exactly.

    Any malformed content raises ParseError naming the line: text that is
    not UTF-8, a bad header, a non-numeric, non-finite or ragged feature
    row, or a bad labels line. A corpus that breaks `Corpus.validate`
    raises FormatError.
    """
    utts: dict[str, Utterance] = {}
    num_classes = 0
    with open(path, "rb") as fh:
        raw = fh.read()
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


def splice(features, left: int, right: int) -> np.ndarray:
    """Concatenate a window of neighboring frames into each row.

    Row t becomes the concatenation of rows t-left .. t+right; positions
    beyond the utterance are filled by replicating the edge frame.
    """
    if left < 0 or right < 0:
        raise ValueError("splice widths must be >= 0")
    x = np.asarray(features, dtype=np.float64)
    t_frames = x.shape[0]
    # one gather: idx[t] lists the source rows of row t's window
    idx = np.clip(np.arange(t_frames)[:, None] + np.arange(-left, right + 1), 0, t_frames - 1)
    return x[idx].reshape(t_frames, (left + 1 + right) * x.shape[1])


def mean_var_normalize(corpus: Corpus, eps: float = 1e-12) -> Corpus:
    """Global per-dimension zero-mean unit-variance normalization.

    Uses the population (1/N) variance over all frames of the corpus.
    Dimensions with (near-)zero variance are centered but not divided.
    """
    if corpus.total_frames() < 2:
        raise ValueError("need at least 2 frames to normalize")
    stacked = np.vstack([u.features for u in corpus.utterances])
    mean = stacked.mean(axis=0)
    var = stacked.var(axis=0)
    scale = np.where(var > eps, 1.0 / np.sqrt(np.maximum(var, eps)), 1.0)
    utts = [
        Utterance(u.id, (u.features - mean) * scale, None if u.labels is None else u.labels.copy())
        for u in corpus.utterances
    ]
    return Corpus(utts, corpus.feature_dim, corpus.num_classes)


def _uniform_classes(rng, k: int, t_frames: int) -> np.ndarray:
    return rng.integers(0, k, size=t_frames)


def _require_positive(**args: int) -> None:
    """Raise ValueError naming the first generator argument below 1."""
    for name, value in args.items():
        if value < 1:
            raise ValueError(f"{name} must be >= 1, got {value}")


def _gen_recall(k: int, delay: int, t_frames: int, n_utts: int, seed: int, ahead: bool) -> Corpus:
    """Both recall tasks: label(t) is the class shown `delay` frames before
    t, or after t when `ahead`; frames without a target get class k."""
    _require_positive(classes=k, frames=t_frames, count=n_utts)
    if not 0 <= delay < t_frames:
        raise ValueError(f"delay must be >= 0 and < frames ({t_frames}), got {delay}")
    rng = np.random.default_rng(seed)
    utts = []
    for n in range(n_utts):
        classes = _uniform_classes(rng, k, t_frames)
        feats = np.zeros((t_frames, k))
        feats[np.arange(t_frames), classes] = 1.0
        labels = np.full(t_frames, k, dtype=np.int64)
        if ahead:
            labels[: t_frames - delay] = classes[delay:]
        else:
            labels[delay:] = classes[: t_frames - delay]
        utts.append(Utterance(f"utt{n:05d}", feats, labels))
    return Corpus(utts, feature_dim=k, num_classes=k + 1)


def gen_delayed_recall(k: int, delay: int, t_frames: int, n_utts: int, seed: int) -> Corpus:
    """Recall-the-past task: label(t) is the class shown `delay` frames ago.

    Features are k-dimensional one-hot frames with uniform classes. Frames
    too early to have a target get the dedicated null class k, so the
    corpus has k+1 classes and every frame stays labeled.
    """
    return _gen_recall(k, delay, t_frames, n_utts, seed, ahead=False)


def gen_future_recall(k: int, delay: int, t_frames: int, n_utts: int, seed: int) -> Corpus:
    """Recall-the-future task: label(t) is the class shown `delay` frames ahead."""
    return _gen_recall(k, delay, t_frames, n_utts, seed, ahead=True)


def gen_parity(window_w: int, t_frames: int, n_utts: int, seed: int) -> Corpus:
    """Order-sensitive task: parity of +1 frames within a trailing window.

    Features are single-dimension +/-1 frames; label(t) is the count of +1
    frames in the last `window_w` positions (clipped at the start), mod 2.
    """
    _require_positive(window=window_w, frames=t_frames, count=n_utts)
    rng = np.random.default_rng(seed)
    utts = []
    for n in range(n_utts):
        signs = rng.integers(0, 2, size=t_frames) * 2 - 1
        feats = signs.reshape(-1, 1).astype(np.float64)
        ones = (signs > 0).astype(np.int64)
        sums = np.cumsum(ones)
        # trailing-window count via prefix sums: count(t) = sums[t] - sums[t-w]
        before = np.zeros(t_frames, dtype=np.int64)
        if window_w < t_frames:
            before[window_w:] = sums[:-window_w]
        labels = (sums - before) % 2
        utts.append(Utterance(f"utt{n:05d}", feats, labels))
    return Corpus(utts, feature_dim=1, num_classes=2)
