"""Corpus container, text archive round-trips, splicing, normalization
and the synthetic task generators."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rmnlab.data import (
    Corpus,
    FormatError,
    ParseError,
    Utterance,
    gen_delayed_recall,
    gen_future_recall,
    gen_parity,
    mean_var_normalize,
    read_archive,
    splice,
    write_archive,
)

RNG = np.random.default_rng(7)


def random_corpus(n_utts=4, dim=3, num_classes=5, with_labels=True, seed=0):
    rng = np.random.default_rng(seed)
    utts = []
    for n in range(n_utts):
        t = int(rng.integers(1, 12))
        feats = rng.normal(size=(t, dim)) * 10.0 ** rng.integers(-8, 8)
        labels = rng.integers(0, num_classes, size=t) if with_labels else None
        utts.append(Utterance(f"u{n}", feats, labels))
    return Corpus(utts, feature_dim=dim, num_classes=num_classes)


# --- archive round-trip ------------------------------------------------------


def test_archive_round_trip_exact(tmp_path):
    corpus = random_corpus(seed=3)
    path = tmp_path / "c.arc"
    write_archive(corpus, path)
    back = read_archive(path)
    assert len(back) == len(corpus)
    assert back.feature_dim == corpus.feature_dim
    assert back.num_classes == corpus.num_classes
    for a, b in zip(corpus.utterances, back.utterances):
        assert a.id == b.id
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)


def test_archive_round_trip_without_labels(tmp_path):
    corpus = random_corpus(with_labels=False, seed=4)
    path = tmp_path / "c.arc"
    write_archive(corpus, path)
    back = read_archive(path)
    for a, b in zip(corpus.utterances, back.utterances):
        assert b.labels is None
        assert np.array_equal(a.features, b.features)


@settings(max_examples=25, deadline=None)
@given(
    values=st.lists(
        st.floats(min_value=-1e12, max_value=1e12, allow_nan=False, width=64),
        min_size=1,
        max_size=12,
    ),
    num_cols=st.integers(min_value=1, max_value=4),
)
def test_archive_round_trip_hypothesis(tmp_path_factory, values, num_cols):
    rows = len(values)
    feats = np.tile(np.array(values).reshape(rows, 1), (1, num_cols))
    corpus = Corpus([Utterance("u0", feats, None)], feature_dim=num_cols, num_classes=1)
    path = tmp_path_factory.mktemp("arc") / "c.arc"
    write_archive(corpus, path)
    back = read_archive(path)
    assert np.array_equal(back.utterances[0].features, feats)


def test_archive_rejects_garbage(tmp_path):
    path = tmp_path / "bad.arc"
    path.write_text("not an archive header\n")
    with pytest.raises(ParseError):
        read_archive(path)


def test_archive_rejects_ragged_rows(tmp_path):
    path = tmp_path / "bad.arc"
    path.write_text("u0 [ 5\n 1 2 3\n 1 2 ]\n")
    with pytest.raises(ParseError):
        read_archive(path)


def test_archive_rejects_duplicate_ids(tmp_path):
    path = tmp_path / "dup.arc"
    path.write_text("same [ 1\n 1 ]\nsame [ 1\n 2 ]\n")
    with pytest.raises(FormatError):
        read_archive(path)


def test_corpus_validate_rejects_duplicate_ids():
    corpus = Corpus(
        [
            Utterance("same", np.ones((2, 1)), None),
            Utterance("same", np.ones((2, 1)), None),
        ],
        feature_dim=1,
        num_classes=1,
    )
    with pytest.raises(FormatError):
        corpus.validate()


def test_archive_parse_error_reports_line_number(tmp_path):
    path = tmp_path / "bad.arc"
    path.write_text("u0 [ 5\n 1 2 3\n oops x y ]\n")
    with pytest.raises(ParseError) as exc:
        read_archive(path)
    assert "3" in str(exc.value)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e999"])
def test_archive_rejects_non_finite_features_naming_the_line(tmp_path, value):
    path = tmp_path / "bad.arc"
    path.write_text(f"u0 [ 2\n 1 2\n\n 3 {value} ]\nlabels u0 0 1\n")
    with pytest.raises(ParseError, match="line 4: non-finite"):
        read_archive(path)


@pytest.mark.parametrize("value", ["1_0", "\u0661\u0662", "\uff11"])
def test_archive_numbers_follow_numpys_grammar(tmp_path, value):
    # Python's float() reads these; numpy's parser, shared with the
    # checkpoint reader, does not
    path = tmp_path / "bad.arc"
    path.write_text(f"u0 [ 2\n 1 2\n 3 {value} ]\n", encoding="utf-8")
    with pytest.raises(ParseError, match="line 3: non-numeric"):
        read_archive(path)


def read_or_typed_error(path):
    """read_archive's contract: a Corpus that validates, or a typed error."""
    try:
        corpus = read_archive(path)
    except (ParseError, FormatError):
        return None
    assert isinstance(corpus, Corpus)
    corpus.validate()
    for u in corpus.utterances:
        assert u.features.shape == (u.num_frames, corpus.feature_dim)
        assert np.isfinite(u.features).all()
    return corpus


ARCHIVE_TOKENS = ["u0", "u1", "labels", "[", "]", "0", "1", "2", "-1", "0.5", "1e999", "nan",
                  "-inf", "x", "99999999999999999999", " ", "  ", "\n", "\r", "\t", "\xe9", "\x00"]


@settings(max_examples=300, deadline=None)
@given(raw=st.one_of(
    st.binary(max_size=200),
    st.lists(st.sampled_from(ARCHIVE_TOKENS), max_size=40).map(lambda t: " ".join(t).encode()),
))
def test_fuzzed_archive_reads_or_raises_typed_error(tmp_path_factory, raw):
    path = tmp_path_factory.mktemp("arc") / "c.arc"
    path.write_bytes(raw)
    read_or_typed_error(path)


@settings(max_examples=200, deadline=None)
@given(cut=st.floats(min_value=0.0, max_value=1.0), labeled=st.booleans())
def test_cut_archive_reads_or_raises_typed_error(tmp_path_factory, cut, labeled):
    path = tmp_path_factory.mktemp("arc") / "c.arc"
    write_archive(random_corpus(n_utts=3, with_labels=labeled, seed=9), path)
    text = path.read_bytes()
    path.write_bytes(text[: int(cut * len(text))])
    read_or_typed_error(path)


@pytest.mark.parametrize("content, error, match", [
    (b"u0 [ 2\n 1 2 ]\nlabels u0 \xff\n", ParseError, "line 3"),
    (b"u0 [ 2\n 1 2 ]\nlabels u0 99999999999999999999\n", ParseError, "line 3"),
    (b"u0 [ 2\n 1 2 ]\nlabels u0 5\n", FormatError, "labels outside"),
])
def test_archive_rejects_malformed_content(tmp_path, content, error, match):
    path = tmp_path / "bad.arc"
    path.write_bytes(content)
    with pytest.raises(error, match=match):
        read_archive(path)


def test_archive_keeps_empty_utterance_width(tmp_path):
    corpus = Corpus([Utterance("a", np.ones((2, 3)), None), Utterance("b", np.zeros((0, 3)), None)],
                    feature_dim=3, num_classes=0)
    path = tmp_path / "c.arc"
    write_archive(corpus, path)
    assert read_archive(path).utterances[1].features.shape == (0, 3)


# --- splicing ----------------------------------------------------------------


def test_splice_widths_and_layout():
    feats = np.arange(8.0).reshape(4, 2)
    out = splice(feats, 1, 1)
    assert out.shape == (4, 6)
    # middle frame sees [prev, current, next]
    assert np.array_equal(out[1], [0.0, 1.0, 2.0, 3.0, 4.0, 5.0])
    assert np.array_equal(out[2], [2.0, 3.0, 4.0, 5.0, 6.0, 7.0])


def test_splice_edge_replication():
    feats = np.array([[1.0], [2.0], [3.0]])
    out = splice(feats, 2, 1)
    # first frame: both left slots replicate frame 0
    assert np.array_equal(out[0], [1.0, 1.0, 1.0, 2.0])
    # last frame: right slot replicates the final frame
    assert np.array_equal(out[2], [1.0, 2.0, 3.0, 3.0])


def test_splice_zero_widths_is_identity():
    feats = RNG.normal(size=(5, 3))
    assert np.array_equal(splice(feats, 0, 0), feats)


@pytest.mark.parametrize("t_frames", [0, 1, 2, 3, 7, 100, 300])
@pytest.mark.parametrize("left, right", [(0, 0), (5, 0), (0, 5), (5, 5), (3, 9)])
def test_splice_writes_the_bytes_of_one_copy_per_offset(t_frames, left, right):
    # the reference: one clipped row gather per window offset, side by side
    feats = RNG.normal(size=(t_frames, 4))
    rows = np.arange(t_frames)
    ref = np.hstack([feats[np.clip(rows + off, 0, t_frames - 1)]
                     for off in range(-left, right + 1)])
    out = splice(feats, left, right)
    assert out.shape == ref.shape and out.dtype == ref.dtype
    assert out.flags.c_contiguous
    assert out.tobytes() == ref.tobytes()


# --- normalization -----------------------------------------------------------


def test_mean_var_normalize_statistics():
    corpus = random_corpus(n_utts=6, dim=4, seed=9)
    normed = mean_var_normalize(corpus)
    stacked = np.vstack([u.features for u in normed.utterances])
    assert np.allclose(stacked.mean(axis=0), 0.0, atol=1e-9)
    assert np.allclose(stacked.var(axis=0), 1.0, atol=1e-9)


def test_mean_var_normalize_constant_dimension():
    feats = np.hstack([np.full((5, 1), 3.0), RNG.normal(size=(5, 1))])
    corpus = Corpus([Utterance("u0", feats, None)], feature_dim=2, num_classes=1)
    normed = mean_var_normalize(corpus)
    out = normed.utterances[0].features
    # constant column is centered, not scaled to garbage
    assert np.allclose(out[:, 0], 0.0)
    assert np.all(np.isfinite(out))


# --- synthetic tasks ---------------------------------------------------------


def test_delayed_recall_labels_match_brute_force():
    k, delay = 5, 3
    corpus = gen_delayed_recall(k, delay, 20, 4, seed=11)
    assert corpus.num_classes == k + 1
    for utt in corpus.utterances:
        classes = np.argmax(utt.features, axis=1)
        for t in range(20):
            if t < delay:
                assert utt.labels[t] == k
            else:
                assert utt.labels[t] == classes[t - delay]


def test_delayed_recall_features_are_one_hot():
    corpus = gen_delayed_recall(4, 2, 15, 3, seed=5)
    for utt in corpus.utterances:
        assert np.array_equal(np.sort(np.unique(utt.features)), [0.0, 1.0])
        assert np.array_equal(utt.features.sum(axis=1), np.ones(15))


def test_future_recall_labels_match_brute_force():
    k, delay = 6, 4
    corpus = gen_future_recall(k, delay, 18, 4, seed=12)
    for utt in corpus.utterances:
        classes = np.argmax(utt.features, axis=1)
        for t in range(18):
            if t >= 18 - delay:
                assert utt.labels[t] == k
            else:
                assert utt.labels[t] == classes[t + delay]


def test_parity_labels_match_brute_force():
    window = 4
    corpus = gen_parity(window, 25, 5, seed=13)
    assert corpus.num_classes == 2
    for utt in corpus.utterances:
        signs = utt.features[:, 0]
        assert set(np.unique(signs)) <= {-1.0, 1.0}
        for t in range(25):
            lo = max(0, t - window + 1)
            count = int((signs[lo : t + 1] > 0).sum())
            assert utt.labels[t] == count % 2


def test_generators_are_deterministic():
    a = gen_delayed_recall(5, 2, 10, 3, seed=7)
    b = gen_delayed_recall(5, 2, 10, 3, seed=7)
    c = gen_delayed_recall(5, 2, 10, 3, seed=8)
    for ua, ub in zip(a.utterances, b.utterances):
        assert np.array_equal(ua.features, ub.features)
        assert np.array_equal(ua.labels, ub.labels)
    assert any(
        not np.array_equal(ua.features, uc.features)
        for ua, uc in zip(a.utterances, c.utterances)
    )


def test_generator_rejects_bad_delay():
    with pytest.raises(ValueError):
        gen_delayed_recall(5, 10, 10, 1, seed=0)
    with pytest.raises(ValueError):
        gen_future_recall(5, 12, 10, 1, seed=0)


def test_corpus_validate_rejects_label_overflow():
    utt = Utterance("u0", np.zeros((2, 1)), np.array([0, 9]))
    corpus = Corpus([utt], feature_dim=1, num_classes=3)
    with pytest.raises(ValueError):
        corpus.validate()
