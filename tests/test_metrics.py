"""Metric suite against brute-force oracles, published-row cross-checks, and
aggregation invariants."""

import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuseformer.errors import ContractError
from fuseformer.metrics import (OVERALL_METRICS, aggregate_reports,
                                binary_accuracy, binary_report, confusion,
                                early_stop_metric, emotion_report, f1,
                                multiclass_accuracy, multiclass_report,
                                precision, recall)

# Published per-emotion accuracies of the strongest prior text+audio system,
# with its reported overall mean; used to pin down the unweighted-mean reading.
TBJE_ACCURACIES = (66.0, 73.9, 81.9, 89.2, 86.5, 90.6)
TBJE_REPORTED_OVERALL = 81.5


def naive_emotion_report(logits, labels, threshold=0.5):
    """Pure-python re-derivation of the multilabel report (oracle)."""
    n, c = len(logits), len(logits[0])
    per_class = []
    for j in range(c):
        tp = fp = tn = fn = 0
        for i in range(n):
            p = 1 if 1.0 / (1.0 + math.exp(-logits[i][j])) > threshold else 0
            y = int(labels[i][j])
            if p == 1 and y == 1:
                tp += 1
            elif p == 1 and y == 0:
                fp += 1
            elif p == 0 and y == 0:
                tn += 1
            else:
                fn += 1
        acc = (tp + tn) / n
        prec = tp / (tp + fp) if tp + fp else 0.0
        rec = tp / (tp + fn) if tp + fn else 0.0
        f1_v = 2 * tp / (2 * tp + fp + fn) if 2 * tp + fp + fn else 0.0
        per_class.append((acc, prec, rec, f1_v, float(tp + fn)))
    mean_acc = sum(m[0] for m in per_class) / c
    total = sum(m[4] for m in per_class)
    weighted = sum(m[4] * m[3] for m in per_class) / total if total else 0.0
    return per_class, mean_acc, weighted


# ---------------------------------------------------------------------------
# confusion / scalar metrics
# ---------------------------------------------------------------------------

def test_confusion_basic():
    assert confusion([1, 0], [1, 0]) == (1, 0, 1, 0)
    assert confusion([1, 1], [0, 0]) == (0, 2, 0, 0)


def test_confusion_length_mismatch():
    with pytest.raises(ContractError):
        confusion([1, 0, 1], [1, 0])


def test_confusion_matches_bruteforce_pairwise_count():
    rng = np.random.default_rng(0)
    preds = rng.integers(0, 2, 1000)
    labels = rng.integers(0, 2, 1000)
    tp = fp = tn = fn = 0
    for p, y in zip(preds, labels):
        if p and y:
            tp += 1
        elif p and not y:
            fp += 1
        elif not p and not y:
            tn += 1
        else:
            fn += 1
    assert confusion(preds, labels) == (tp, fp, tn, fn)


def test_accuracy_f1_hand_confusion_case():
    # labels [1,1,0,0], preds [1,0,0,0]: tp=1 fp=0 tn=2 fn=1
    tp, fp, tn, fn = confusion([1, 0, 0, 0], [1, 1, 0, 0])
    assert binary_accuracy(tp, fp, tn, fn) == 0.75
    assert f1(tp, fp, fn) == pytest.approx(2 / 3)


def test_perfect_predictions():
    tp, fp, tn, fn = confusion([1, 0, 1], [1, 0, 1])
    assert binary_accuracy(tp, fp, tn, fn) == 1.0
    assert f1(tp, fp, fn) == 1.0


def test_all_negative_convention():
    tp, fp, tn, fn = confusion([0, 0], [0, 0])
    assert binary_accuracy(tp, fp, tn, fn) == 1.0
    assert f1(tp, fp, fn) == 0.0
    assert precision(tp, fp) == 0.0
    assert recall(tp, fn) == 0.0


def test_accuracy_empty_contract():
    with pytest.raises(ContractError):
        binary_accuracy(0, 0, 0, 0)


# ---------------------------------------------------------------------------
# emotion report
# ---------------------------------------------------------------------------

def test_tbje_row_mean_accuracy_cross_check():
    mean = sum(TBJE_ACCURACIES) / len(TBJE_ACCURACIES)
    assert mean == pytest.approx(81.35)
    assert abs(mean - TBJE_REPORTED_OVERALL) < 0.2


def test_emotion_report_matches_naive_oracle_exactly():
    rng = np.random.default_rng(1)
    for _ in range(25):
        logits = rng.uniform(-4, 4, (200, 6))
        labels = (rng.random((200, 6)) < rng.uniform(0.05, 0.6, 6)).astype(int)
        report = emotion_report(logits, labels)
        oracle, mean_acc, weighted = naive_emotion_report(logits, labels)
        for cm, (acc, prec, rec, f1_v, support) in zip(report.per_class, oracle):
            assert cm.accuracy == acc
            assert cm.precision == prec
            assert cm.recall == rec
            assert cm.f1 == f1_v
            assert cm.support == support
        assert report.overall["mean_accuracy"] == mean_acc
        assert report.overall["weighted_f1"] == weighted


def test_emotion_report_single_support_class():
    logits = np.full((4, 6), -10.0)
    labels = np.zeros((4, 6), dtype=int)
    labels[:, 2] = [1, 1, 0, 0]
    logits[:, 2] = [10.0, 10.0, -10.0, -10.0]  # anger perfectly predicted
    report = emotion_report(logits, labels)
    assert report.overall["weighted_f1"] == report.per_class[2].f1 == 1.0


def test_emotion_report_threshold():
    logits = np.array([[0.4, -0.4, 0.0, 0.0, 0.0, 0.0]])
    labels = np.ones((1, 6), dtype=int)
    r_low = emotion_report(logits, labels, threshold=0.4)
    r_high = emotion_report(logits, labels, threshold=0.6)
    assert r_low.per_class[0].recall == 1.0
    assert r_high.per_class[0].recall == 0.0
    # sigma(0) = 0.5 is not strictly greater than the default threshold
    assert emotion_report(logits, labels).per_class[2].recall == 0.0


def test_emotion_report_shape_contract():
    with pytest.raises(ContractError):
        emotion_report(np.zeros((3, 5)), np.zeros((3, 5)))


def test_weighted_f1_lies_between_min_and_max_class_f1():
    rng = np.random.default_rng(2)
    for _ in range(20):
        logits = rng.uniform(-3, 3, (80, 6))
        labels = (rng.random((80, 6)) < 0.3).astype(int)
        report = emotion_report(logits, labels)
        f1s = [c.f1 for c in report.per_class if c.support > 0]
        if f1s:
            assert min(f1s) - 1e-12 <= report.overall["weighted_f1"] \
                <= max(f1s) + 1e-12


def test_mean_accuracy_of_identical_accuracies_is_exact():
    # every class predicted with the same accuracy (here: perfectly)
    logits = np.full((4, 6), 10.0)
    labels = np.ones((4, 6), dtype=int)
    report = emotion_report(logits, labels)
    assert report.overall["mean_accuracy"] == 1.0


def test_single_class_data_reduces_to_scalar_metrics():
    rng = np.random.default_rng(11)
    logits = np.full((40, 6), -9.0)
    labels = np.zeros((40, 6), dtype=int)
    logits[:, 0] = rng.uniform(-3, 3, 40)
    labels[:, 0] = (rng.random(40) < 0.5).astype(int)
    report = emotion_report(logits, labels)
    preds = (logits[:, 0] > 0).astype(int)
    tp, fp, tn, fn = confusion(preds, labels[:, 0])
    assert report.per_class[0].accuracy == binary_accuracy(tp, fp, tn, fn)
    assert report.per_class[0].f1 == f1(tp, fp, fn)
    assert report.overall["weighted_f1"] == f1(tp, fp, fn)


def test_permutation_invariance():
    rng = np.random.default_rng(3)
    logits = rng.uniform(-3, 3, (60, 6))
    labels = (rng.random((60, 6)) < 0.3).astype(int)
    base = emotion_report(logits, labels)
    perm = rng.permutation(60)
    shuffled = emotion_report(logits[perm], labels[perm])
    assert base.to_json() == shuffled.to_json()


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 31 - 1))
def test_permutation_invariance_property(seed):
    rng = np.random.default_rng(seed)
    preds = rng.integers(0, 7, 40)
    labels = rng.integers(0, 7, 40)
    perm = rng.permutation(40)
    assert multiclass_accuracy(preds, labels) \
        == multiclass_accuracy(preds[perm], labels[perm])


# ---------------------------------------------------------------------------
# multiclass
# ---------------------------------------------------------------------------

def test_multiclass_all_correct():
    assert multiclass_accuracy([0, 3, 6], [0, 3, 6]) == 1.0


def test_multiclass_random_agreement_near_one_seventh():
    rng = np.random.default_rng(4)
    preds = rng.integers(0, 7, 100_000)
    labels = rng.integers(0, 7, 100_000)
    assert abs(multiclass_accuracy(preds, labels) - 1 / 7) < 0.01


def test_multiclass_matches_bruteforce():
    rng = np.random.default_rng(5)
    preds = rng.integers(0, 7, 500)
    labels = rng.integers(0, 7, 500)
    matches = sum(1 for p, y in zip(preds, labels) if p == y)
    assert multiclass_accuracy(preds, labels) == matches / 500


def test_multiclass_range_contract():
    with pytest.raises(ContractError):
        multiclass_accuracy([7], [0])
    with pytest.raises(ContractError):
        multiclass_accuracy([], [])


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

def test_binary_report_roundtrip():
    logits = np.array([3.0, -3.0, 3.0, 3.0])
    labels = np.array([1, 0, 1, 0])
    report = binary_report(logits, labels)
    assert report.overall["accuracy"] == 0.75
    assert report.per_class[0].support == 2.0


@pytest.mark.parametrize("logits,labels", [
    (np.ones((4, 6)), np.ones((4, 6))),
    (np.ones((4, 1)), np.ones((4, 2))),
    (np.ones((4, 1, 1)), np.ones((4, 1, 1))),
    (np.float64(1.0), np.int64(1)),
], ids=["six_columns", "two_label_columns", "three_dims", "scalars"])
def test_binary_report_refuses_anything_but_one_column(logits, labels):
    with pytest.raises(ContractError, match=r"\[N\] or \[N, 1\]"):
        binary_report(logits, labels)


def test_binary_report_takes_a_column_or_a_vector():
    logits, labels = np.array([3.0, -3.0, 3.0]), np.array([1, 0, 0])
    want = binary_report(logits, labels)
    for got in (binary_report(logits[:, None], labels[:, None]),
                binary_report(logits[:, None], labels)):
        assert got == want


@pytest.mark.parametrize("threshold", [0.5, 0.3])
def test_binary_report_is_one_emotion_column(threshold):
    rng = np.random.default_rng(12)
    logits = rng.uniform(-2, 2, (40, 6))
    labels = (rng.random((40, 6)) < 0.3).astype(int)
    emo = emotion_report(logits, labels, threshold)
    for c, want in enumerate(emo.per_class):
        binr = binary_report(logits[:, c], labels[:, c], threshold)
        got = binr.per_class[0]
        assert [getattr(got, f.name) for f in fields(got) if f.name != "label"] \
            == [getattr(want, f.name) for f in fields(want) if f.name != "label"]
        assert binr.overall == {"accuracy": want.accuracy}


def test_multiclass_report_argmax():
    logits = np.zeros((2, 7))
    logits[0, 1] = 5.0
    logits[1, 6] = 5.0
    report = multiclass_report(logits, np.array([1, 0]))
    assert report.overall["accuracy"] == 0.5


def test_early_stop_metric_selection():
    rng = np.random.default_rng(6)
    emo = emotion_report(rng.uniform(-1, 1, (10, 6)),
                         (rng.random((10, 6)) < 0.5).astype(int))
    assert early_stop_metric(emo) == emo.overall["weighted_f1"]
    binr = binary_report(rng.uniform(-1, 1, 10),
                         (rng.random(10) < 0.5).astype(int))
    assert early_stop_metric(binr) == binr.overall["accuracy"]
    multi = multiclass_report(rng.uniform(-1, 1, (10, 7)), rng.integers(0, 7, 10))
    assert early_stop_metric(multi) == multi.overall["accuracy"]


def test_overall_metrics_table_names_every_reported_key():
    rng = np.random.default_rng(8)
    reports = [
        emotion_report(rng.uniform(-1, 1, (10, 6)),
                       (rng.random((10, 6)) < 0.5).astype(int)),
        binary_report(rng.uniform(-1, 1, 10), (rng.random(10) < 0.5).astype(int)),
        multiclass_report(rng.uniform(-1, 1, (10, 7)), rng.integers(0, 7, 10)),
    ]
    assert {r.task_kind: tuple(r.overall) for r in reports} == OVERALL_METRICS


def test_report_rates_within_unit_interval():
    rng = np.random.default_rng(7)
    report = emotion_report(rng.uniform(-9, 9, (50, 6)),
                            (rng.random((50, 6)) < 0.2).astype(int))
    for cm in report.per_class:
        for rate in (cm.accuracy, cm.precision, cm.recall, cm.f1):
            assert 0.0 <= rate <= 1.0
    assert 0.0 <= report.overall["mean_accuracy"] <= 1.0
    assert 0.0 <= report.overall["weighted_f1"] <= 1.0


def test_text_table_column_order():
    rng = np.random.default_rng(8)
    report = emotion_report(rng.uniform(-1, 1, (10, 6)),
                            (rng.random((10, 6)) < 0.5).astype(int),
                            split="test")
    table = report.text_table()
    header = table.splitlines()[1]
    cols = [c.strip() for c in header.split("|")]
    assert cols == ["Joy", "Sadness", "Anger", "Surprise", "Disgust", "Fear",
                    "Overall"]


def test_text_table_strings_of_each_report_kind():
    binr = binary_report(np.array([3.0, -3.0, 3.0, 3.0, -1.0]),
                         np.array([1, 0, 1, 0, 1]), split="val", seed=2)
    assert binr.text_table() == ("task=binary split=val seed=2\n"
                                 "Positive  | Overall\n"
                                 "60.0/66.7 | 60.0   ")
    logits = np.zeros((4, 7))
    logits[[0, 1, 2, 3], [1, 6, 3, 3]] = 5.0
    multi = multiclass_report(logits, np.array([1, 0, 3, 2]), split="test")
    assert multi.text_table() == "task=multiclass-7 split=test\nOverall\n50.0   "
    emo = emotion_report(np.array([[2.0, -1, 1, -1, 1, -1], [-2, 1, 1, -1, -1, 1],
                                   [1, 1, -1, 1, -1, -1]]),
                         np.array([[1, 0, 1, 0, 0, 0], [0, 1, 1, 0, 1, 1],
                                   [1, 0, 0, 0, 0, 0]]))
    assert emo.text_table().splitlines()[2] == (
        "100.0/100.0 | 66.7/66.7 | 100.0/100.0 | 66.7/0.0 | 33.3/0.0 | "
        "100.0/100.0 | 77.8/81.0")


def test_aggregate_reports_takes_arithmetic_means():
    rng = np.random.default_rng(9)
    reports = [emotion_report(rng.uniform(-2, 2, (30, 6)),
                              (rng.random((30, 6)) < 0.4).astype(int),
                              seed=i)
               for i in range(3)]
    agg = aggregate_reports(reports)
    want = sum(r.overall["mean_accuracy"] for r in reports) / 3
    assert agg.overall["mean_accuracy"] == pytest.approx(want, abs=1e-15)
    assert agg.split == "mean-of-3"
    agg1 = aggregate_reports(reports[:1])
    assert agg1.overall == reports[0].overall


def test_aggregate_reports_empty_contract():
    with pytest.raises(ContractError):
        aggregate_reports([])
