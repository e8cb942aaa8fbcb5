"""Corpus loading, label rules, vocabulary/tokenizer, class statistics, and
the synthetic generator."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuseformer import data as D
from fuseformer.errors import ContractError, CorpusError


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# load_corpus
# ---------------------------------------------------------------------------

def test_load_mosei_line(tmp_path):
    p = tmp_path / "c.jsonl"
    write_lines(p, ['{"id":"a","text":"fine","sentiment":1.5,'
                    '"emotions":[0,0,0,0,0,0]}'])
    examples = D.load_corpus(p, "mosei-style")
    assert len(examples) == 1
    ex = examples[0]
    assert ex.id == "a" and ex.text == "fine"
    assert ex.sentiment == 1.5
    assert ex.emotions == (0.0,) * 6


def test_load_sentiment_out_of_range_reports_line(tmp_path):
    p = tmp_path / "c.jsonl"
    write_lines(p, ['{"id":"a","text":"x","sentiment":1.0}',
                    '{"id":"b","text":"y","sentiment":3.5}'])
    with pytest.raises(CorpusError, match="line 2"):
        D.load_corpus(p, "mosei-style")


def test_load_emotions_arity_error(tmp_path):
    p = tmp_path / "c.jsonl"
    write_lines(p, ['{"id":"a","text":"x","emotions":[0,0,0,0,0]}'])
    with pytest.raises(CorpusError, match="line 1"):
        D.load_corpus(p, "mosei-style")


def test_load_malformed_json_reports_line(tmp_path):
    p = tmp_path / "c.jsonl"
    write_lines(p, ['{"id":"a","text":"x","sentiment":0}', '{oops'])
    with pytest.raises(CorpusError, match="line 2"):
        D.load_corpus(p, "mosei-style")


def test_load_missing_required_field(tmp_path):
    p = tmp_path / "c.jsonl"
    write_lines(p, ['{"text":"x","sentiment":0}'])
    with pytest.raises(CorpusError, match="id"):
        D.load_corpus(p, "mosei-style")


def test_load_mosei_requires_some_label(tmp_path):
    p = tmp_path / "c.jsonl"
    write_lines(p, ['{"id":"a","text":"x"}'])
    with pytest.raises(CorpusError, match="line 1"):
        D.load_corpus(p, "mosei-style")


def test_load_binary_style(tmp_path):
    p = tmp_path / "c.jsonl"
    write_lines(p, ['{"id":"a","text":"x","binary_label":1,"extra":"ignored"}',
                    '{"id":"b","text":"y","binary_label":0}'])
    examples = D.load_corpus(p, "binary-style")
    assert [ex.binary_label for ex in examples] == [1, 0]


def test_load_binary_label_must_be_01(tmp_path):
    p = tmp_path / "c.jsonl"
    write_lines(p, ['{"id":"a","text":"x","binary_label":2}'])
    with pytest.raises(CorpusError, match="line 1"):
        D.load_corpus(p, "binary-style")


def test_unknown_schema_rejected(tmp_path):
    with pytest.raises(ContractError):
        D.load_corpus(tmp_path / "nope.jsonl", "csv")


def test_corpus_round_trip(tmp_path):
    corpus = D.synth_corpus(seed=3, n=25)
    p = tmp_path / "c.jsonl"
    D.write_corpus(corpus, p)
    assert D.load_corpus(p, "mosei-style") == corpus


# random bytes seldom parse, so lines are also drawn as JSON objects with the
# corpus keys and values of any JSON type, huge integers among them
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.floats() | st.text(max_size=8)
    | st.integers() | st.sampled_from([10 ** 400, -(10 ** 400), 0, 1, 3]),
    lambda inner: st.lists(inner, max_size=7) | st.dictionaries(st.text(max_size=4),
                                                                 inner, max_size=3),
    max_leaves=12)
JSON_LINES = st.dictionaries(
    st.sampled_from(["id", "text", "sentiment", "emotions", "binary_label"]),
    JSON_VALUES).map(lambda obj: json.dumps(obj).encode())


@settings(max_examples=200, deadline=None)
@given(lines=st.lists(st.binary(max_size=40) | JSON_LINES, max_size=4),
       schema=st.sampled_from(["mosei-style", "binary-style"]))
def test_any_bytes_load_or_raise_corpus_error(tmp_path_factory, lines, schema):
    p = tmp_path_factory.mktemp("fuzz") / "c.jsonl"
    p.write_bytes(b"\n".join(lines))
    try:
        examples = D.load_corpus(p, schema)
    except CorpusError:
        return
    assert all(isinstance(ex, D.RawExample) for ex in examples)


# ---------------------------------------------------------------------------
# label derivation
# ---------------------------------------------------------------------------

def test_binarize_sentiment_examples():
    assert D.binarize_sentiment(-0.5) == D.NEGATIVE
    assert D.binarize_sentiment(0.0) == D.NON_NEGATIVE
    assert D.binarize_sentiment(3.0) == D.NON_NEGATIVE


def test_binarize_sentiment_contract():
    with pytest.raises(ContractError):
        D.binarize_sentiment(3.2)


def test_binarize_sentiment_matches_direct_comparison_oracle():
    rng = np.random.default_rng(42)
    for s in rng.uniform(-3.0, 3.0, 10_000):
        assert (D.binarize_sentiment(float(s)) == D.NEGATIVE) == (s < 0)


@pytest.mark.parametrize("s,cls", [
    (0.0, 3), (2.4, 5), (-3.0, 0), (3.0, 6), (2.5, 6), (-2.5, 0),
    (0.5, 4), (-0.5, 2), (-0.49, 3), (1.49, 4),
])
def test_discretize_sentiment_7(s, cls):
    assert D.discretize_sentiment_7(s) == cls


def test_discretize_out_of_range():
    with pytest.raises(ContractError):
        D.discretize_sentiment_7(-3.01)


def test_binarize_emotions_examples():
    np.testing.assert_array_equal(D.binarize_emotions([0] * 6), [0] * 6)
    np.testing.assert_array_equal(D.binarize_emotions([0.1, 0, 3, 0, 0, 0]),
                                  [1, 0, 1, 0, 0, 0])
    np.testing.assert_array_equal(D.binarize_emotions([0, 0, 0, 0, 0, 0.0001]),
                                  [0, 0, 0, 0, 0, 1])


def test_binarize_emotions_contract():
    with pytest.raises(ContractError):
        D.binarize_emotions([0, 0, 0, 0, 0])
    with pytest.raises(ContractError):
        D.binarize_emotions([0, 0, 0, 0, 0, 3.5])


def test_binarize_emotions_takes_stacked_rows():
    e = np.array([[[0, 1, 0, 0, 0, 2.5]], [[0.2, 0, 0, 0, 0, 0]]])
    np.testing.assert_array_equal(D.binarize_emotions(e),
                                  [[[0, 1, 0, 0, 0, 1]], [[1, 0, 0, 0, 0, 0]]])
    with pytest.raises(ContractError, match="'b'"):
        D.binarize_emotions([[0] * 6, [0, 0, 3.1, 0, 0, 0]], ids=["a", "b"])


# ---------------------------------------------------------------------------
# vocabulary and tokenizer
# ---------------------------------------------------------------------------

def ex(text, i=0):
    return D.RawExample(id=str(i), text=text, sentiment=0.0)


def test_build_vocab_frequency_ranked():
    vocab = D.build_vocab([ex("a b"), ex("a")], max_size=100)
    assert vocab.tokens[:4] == list(D.SPECIAL_TOKENS)
    assert vocab.id_of("a") == 4
    assert vocab.id_of("b") == 5


def test_build_vocab_max_size_counts_specials():
    vocab = D.build_vocab([ex("a b"), ex("a")], max_size=5)
    assert len(vocab) == 5
    assert vocab.id_of("a") == 4
    assert vocab.id_of("b") == D.UNK


def test_build_vocab_lexicographic_tie_break():
    vocab = D.build_vocab([ex("y x")], max_size=100)
    assert vocab.id_of("x") == 4
    assert vocab.id_of("y") == 5


def test_special_ids_fixed():
    assert (D.PAD, D.UNK, D.CLS, D.SEP) == (0, 1, 2, 3)
    vocab = D.build_vocab([ex("a")], max_size=10)
    assert [vocab.id_of(t) for t in D.SPECIAL_TOKENS] == [0, 1, 2, 3]


def test_tokenize_basic():
    vocab = D.build_vocab([ex("a b")], max_size=10)
    ids, mask = D.tokenize("a b", vocab, max_len=5)
    np.testing.assert_array_equal(ids, [D.CLS, vocab.id_of("a"),
                                        vocab.id_of("b"), D.SEP, D.PAD])
    np.testing.assert_array_equal(mask, [1, 1, 1, 1, 0])


def test_tokenize_empty_text():
    vocab = D.build_vocab([ex("a")], max_size=10)
    ids, mask = D.tokenize("", vocab, max_len=4)
    np.testing.assert_array_equal(ids, [D.CLS, D.SEP, D.PAD, D.PAD])
    np.testing.assert_array_equal(mask, [1, 1, 0, 0])


def test_tokenize_unknown_token():
    vocab = D.build_vocab([ex("a")], max_size=10)
    ids, _ = D.tokenize("zzz a", vocab, max_len=6)
    assert ids[1] == D.UNK


def test_tokenize_max_len_contract():
    vocab = D.build_vocab([ex("a")], max_size=10)
    with pytest.raises(ContractError):
        D.tokenize("a", vocab, max_len=1)


@settings(max_examples=60, deadline=None)
@given(st.text(alphabet=st.characters(blacklist_categories=("Cs",)),
               max_size=80),
       st.integers(min_value=2, max_value=12))
def test_tokenize_is_length_safe(text, max_len):
    vocab = D.build_vocab([ex("a b c")], max_size=10)
    ids, mask = D.tokenize(text, vocab, max_len)
    assert len(ids) == len(mask) == max_len
    assert mask.sum() == min(len(text.split()) + 2, max_len)
    assert ids[0] == D.CLS


def test_vocab_round_trip_ids():
    vocab = D.build_vocab([ex("a b c a")], max_size=10)
    for tok in ("a", "b", "c"):
        assert vocab.tokens[vocab.id_of(tok)] == tok


def test_vocab_file_round_trip(tmp_path):
    vocab = D.build_vocab([ex("b a a")], max_size=10)
    p = tmp_path / "vocab.txt"
    vocab.save(p)
    # one token per line, 0-based line number = id - 4
    lines = p.read_text(encoding="utf-8").splitlines()
    assert lines == vocab.tokens[4:]
    loaded = D.Vocabulary.load(p)
    assert loaded.tokens == vocab.tokens


# ---------------------------------------------------------------------------
# class statistics
# ---------------------------------------------------------------------------

def make_emotion_corpus(per_class_positives, n=100):
    """Corpus whose column c has exactly per_class_positives[c] ones."""
    out = []
    for i in range(n):
        emo = tuple(3.0 if i < per_class_positives[c] else 0.0
                    for c in range(6))
        out.append(D.RawExample(id=str(i), text="t", sentiment=0.0, emotions=emo))
    return out


def test_class_statistics_joy_like_distribution():
    corpus = make_emotion_corpus([52, 25, 21, 10, 17, 8])
    stats = D.class_statistics(corpus, "multilabel-6")
    assert stats.labels == D.EMOTIONS
    np.testing.assert_array_equal(stats.positives, [52, 25, 21, 10, 17, 8])
    np.testing.assert_array_equal(stats.negatives, [48, 75, 79, 90, 83, 92])


def test_class_statistics_all_negative_class():
    corpus = make_emotion_corpus([10, 0, 0, 0, 0, 0], n=20)
    stats = D.class_statistics(corpus, "multilabel-6")
    assert stats.positives[1] == 0
    assert stats.negatives[1] == 20


def test_class_statistics_positives_plus_negatives_is_corpus_size():
    for seed in range(5):
        corpus = D.synth_corpus(seed=seed, n=137)
        for kind in ("multilabel-6", "binary", "multiclass-7"):
            stats = D.class_statistics(corpus, kind)
            np.testing.assert_array_equal(stats.positives + stats.negatives,
                                          len(corpus))


def test_class_statistics_binary_and_multiclass():
    corpus = [D.RawExample(id="0", text="t", sentiment=-1.0),
              D.RawExample(id="1", text="t", sentiment=2.0)]
    b = D.class_statistics(corpus, "binary")
    assert b.positives[0] == 1 and b.negatives[0] == 1
    m = D.class_statistics(corpus, "multiclass-7")
    assert m.positives[2] == 1 and m.positives[5] == 1


# ---------------------------------------------------------------------------
# synthetic corpus
# ---------------------------------------------------------------------------

def test_synth_same_seed_is_byte_identical(tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    D.write_corpus(D.synth_corpus(seed=7, n=200), a)
    D.write_corpus(D.synth_corpus(seed=7, n=200), b)
    assert a.read_bytes() == b.read_bytes()


def test_synth_surprise_rate_near_prior():
    corpus = D.synth_corpus(seed=7, n=1000)
    stats = D.class_statistics(corpus, "multilabel-6")
    rate = stats.positives[3] / 1000  # surprise, prior 10%
    assert abs(rate - 0.10) <= 0.03


def test_synth_balanced_priors_near_half():
    corpus = D.synth_corpus(seed=3, n=1000, class_priors=(0.5,) * 6)
    stats = D.class_statistics(corpus, "multilabel-6")
    for c in range(6):
        assert abs(stats.positives[c] / 1000 - 0.5) <= 0.03


def test_synth_contracts():
    with pytest.raises(ContractError):
        D.synth_corpus(seed=0, n=0)
    with pytest.raises(ContractError):
        D.synth_corpus(seed=0, n=10, class_priors=(0.5,) * 5)
    with pytest.raises(ContractError):
        D.synth_corpus(seed=0, n=10, class_priors=(0.0, 0.5, 0.5, 0.5, 0.5, 0.5))


def test_synth_labels_within_documented_ranges(tmp_path):
    corpus = D.synth_corpus(seed=1, n=300)
    p = tmp_path / "c.jsonl"
    D.write_corpus(corpus, p)
    loaded = D.load_corpus(p, "mosei-style")  # load re-validates all ranges
    assert len(loaded) == 300


def test_synth_sentiment_tracks_joy_vs_negative_emotions():
    corpus = D.synth_corpus(seed=9, n=2000)
    joy_only = [ex.sentiment for ex in corpus
                if ex.emotions[0] > 0 and ex.emotions[1] == 0 and ex.emotions[2] == 0]
    sad_only = [ex.sentiment for ex in corpus
                if ex.emotions[0] == 0 and (ex.emotions[1] > 0 or ex.emotions[2] > 0)]
    assert min(joy_only) >= 0.5
    assert max(sad_only) <= -0.5


# ---------------------------------------------------------------------------
# batches and splits
# ---------------------------------------------------------------------------

def test_make_batches_layout(monkeypatch):
    corpus = D.synth_corpus(seed=2, n=10)
    vocab = D.build_vocab(corpus, max_size=500)
    # one row far longer than max_len, in the middle batch
    corpus[5] = D.RawExample(id="long", text=" ".join(["w"] * 40),
                             emotions=(0.0,) * 6)
    calls = []
    tokenize = D.tokenize
    monkeypatch.setattr(D, "tokenize",
                        lambda *args: calls.append(args[0]) or tokenize(*args))
    batches = D.make_batches(corpus, vocab, max_len=16, task_kind="multilabel-6",
                             batch_size=4)
    assert calls == [ex.text for ex in corpus]  # tokenized once per example
    assert [b.size for b in batches] == [4, 4, 2]
    rows = iter(corpus)
    for b in batches:
        width = int(b.attention_mask.sum(axis=1).max())
        assert b.token_ids.shape == b.attention_mask.shape == b.segment_ids.shape \
            == (b.size, width)
        assert np.all(b.token_ids[:, 0] == D.CLS)
        assert np.all((b.attention_mask == 0) | (b.attention_mask == 1))
        assert np.all(b.segment_ids == 0)
        assert np.all(b.token_ids[b.attention_mask == 0] == D.PAD)
        assert b.labels.shape == (b.size, 6)
        for ids, mask in zip(b.token_ids, b.attention_mask):
            full_ids, full_mask = tokenize(next(rows).text, vocab, 16)
            np.testing.assert_array_equal(ids, full_ids[:width])
            np.testing.assert_array_equal(mask, full_mask[:width])
    # the long row is still truncated to max_len; the others set their own width
    assert [b.token_ids.shape[1] for b in batches] == [13, 16, 10]
    assert batches[1].attention_mask[1].sum() == 16


@pytest.mark.parametrize("kind", ["multilabel-6", "binary", "multiclass-7"])
def test_batch_and_corpus_labels_equal_per_example_derive_label(kind):
    corpus = D.synth_corpus(seed=5, n=23)
    corpus[4] = D.RawExample(id="bin", text="w", sentiment=-0.5,
                             emotions=(0.0,) * 6, binary_label=1)
    expected = np.array([D.derive_label(ex, kind) for ex in corpus])
    vocab = D.build_vocab(corpus, max_size=100)
    batches = D.make_batches(corpus, vocab, 16, kind, batch_size=8)
    labels = np.concatenate([b.labels for b in batches])
    if kind == "binary":
        assert labels.shape == (23, 1)
        labels = labels[:, 0]
    assert labels.dtype == (np.int64 if kind == "multiclass-7" else np.float64)
    np.testing.assert_array_equal(labels, expected)
    stats = D.class_statistics(corpus, kind)
    if kind == "multiclass-7":
        expected = np.eye(7, dtype=np.int64)[expected]
    np.testing.assert_array_equal(stats.positives,
                                  expected.reshape(len(corpus), -1).sum(axis=0))


@pytest.mark.parametrize("bad,message", [
    (D.RawExample(id="odd", text="w", sentiment=0.0), "'odd' has no emotions"),
    (D.RawExample(id="odd", text="w", emotions=(0.0, 3.5, 0.0, 0.0, 0.0, 0.0)),
     r"'odd': emotion intensity outside \[0, 3\]"),
    (D.RawExample(id="odd", text="w", emotions=(-0.1,) + (0.0,) * 5),
     r"'odd': emotion intensity outside \[0, 3\]"),
    (D.RawExample(id="odd", text="w", emotions=(0.0,) * 5), "'odd': expected 6"),
], ids=["missing", "above_range", "below_range", "short"])
def test_bad_emotions_in_the_middle_of_a_chunk_raise_naming_the_example(bad, message):
    corpus = D.synth_corpus(seed=6, n=9)
    corpus[4] = bad
    vocab = D.build_vocab(corpus, max_size=100)
    with pytest.raises(ContractError, match=message):
        D.make_batches(corpus, vocab, 16, "multilabel-6", batch_size=9)
    with pytest.raises(ContractError, match=message):
        D.class_statistics(corpus, "multilabel-6")
    with pytest.raises(ContractError, match=message):
        D.derive_label(bad, "multilabel-6")


def test_split_corpus_is_deterministic_partition():
    corpus = D.synth_corpus(seed=4, n=100)
    splits = D.split_corpus(corpus)
    assert len(splits.train) == 80 and len(splits.val) == 10 and len(splits.test) == 10
    ids = [ex.id for part in (splits.train, splits.val, splits.test) for ex in part]
    assert sorted(ids) == sorted(ex.id for ex in corpus)
