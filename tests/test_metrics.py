import itertools

import numpy as np
import pytest

from swinscan import metrics as MX
from swinscan.errors import ContractError, InputError


def cm_from_counts(tp, tn, fp, fn):
    return MX.ConfusionMatrix(((tn, fp), (fn, tp)))


def sequences_for(tp, tn, fp, fn):
    actual = [1] * tp + [0] * tn + [0] * fp + [1] * fn
    predicted = [1] * tp + [0] * tn + [1] * fp + [0] * fn
    return actual, predicted


def oracle_measures(actual, predicted):
    """Recount from raw label pairs and apply each formula directly."""
    tp = sum(1 for a, p in zip(actual, predicted) if a == 1 and p == 1)
    tn = sum(1 for a, p in zip(actual, predicted) if a == 0 and p == 0)
    fp = sum(1 for a, p in zip(actual, predicted) if a == 0 and p == 1)
    fn = sum(1 for a, p in zip(actual, predicted) if a == 1 and p == 0)

    def div(n, d):
        return None if d == 0 else n / d

    sens = div(tp, tp + fn)
    spec = div(tn, tn + fp)
    acc = div(tp + tn, tp + tn + fp + fn)
    return {
        "sensitivity": sens,
        "specificity": spec,
        "fall_out": None if spec is None else 1.0 - spec,
        "miss_rate": None if sens is None else 1.0 - sens,
        "ppv": div(tp, tp + fp),
        "npv": div(tn, tn + fn),
        "f1": div(2 * tp, 2 * tp + fp + fn),
        "accuracy": acc,
        "error_rate": None if acc is None else 1.0 - acc,
    }


class TestConfusion:
    def test_perfect_predictions_diagonal(self):
        cm = MX.confusion_from_predictions([0, 1, 2, 1], [0, 1, 2, 1], 3)
        assert cm.counts == ((1, 0, 0), (0, 2, 0), (0, 0, 1))

    def test_hand_counted_binary(self):
        actual = [1, 1, 1, 0, 0, 0, 0, 0, 0, 1]
        predicted = [1, 1, 1, 1, 1, 0, 0, 0, 0, 0]
        cm = MX.confusion_from_predictions(actual, predicted, 2)
        assert (cm.tp, cm.fp, cm.tn, cm.fn) == (3, 2, 4, 1)
        assert cm.total == 10

    def test_three_class_total(self):
        rng = np.random.default_rng(0)
        actual = list(rng.integers(0, 3, size=50))
        predicted = list(rng.integers(0, 3, size=50))
        cm = MX.confusion_from_predictions(actual, predicted, 3)
        assert cm.total == 50

    def test_length_mismatch(self):
        with pytest.raises(InputError):
            MX.confusion_from_predictions([0, 1], [0], 2)

    def test_id_out_of_range(self):
        with pytest.raises(InputError):
            MX.confusion_from_predictions([0, 2], [0, 0], 2)

    def test_binary_accessor_on_three_class(self):
        cm = MX.confusion_from_predictions([0, 1, 2], [0, 1, 2], 3)
        with pytest.raises(ContractError):
            cm.tp

    def test_oracle_predictor_is_perfect(self):
        actual = [i % 2 for i in range(10)]
        cm = MX.confusion_from_predictions(actual, actual, 2)
        report = MX.report_from_confusion(cm)
        assert report.accuracy == 1.0
        assert report.error_rate == 0.0
        assert sum(cm.counts[i][i] for i in range(cm.k)) == len(actual)

    def test_constant_predictor_on_balanced_set(self):
        actual = [i % 2 for i in range(10)]
        cm = MX.confusion_from_predictions(actual, [1] * len(actual), 2)
        report = MX.report_from_confusion(cm)
        assert report.accuracy == 0.5
        assert cm.fp == 5 and cm.tp == 5


class TestSingleMeasures:
    def test_sensitivity_values(self):
        assert MX.sensitivity(cm_from_counts(tp=999, tn=0, fp=0, fn=1)) == 0.999
        assert MX.sensitivity(cm_from_counts(tp=3, tn=5, fp=2, fn=1)) == 0.75
        assert MX.sensitivity(cm_from_counts(tp=0, tn=5, fp=2, fn=0)) is None

    def test_specificity_values(self):
        assert MX.specificity(cm_from_counts(tp=1, tn=4, fp=2, fn=1)) == 4 / 6
        assert MX.specificity(cm_from_counts(tp=1, tn=7, fp=0, fn=1)) == 1.0

    def test_predictive_values(self):
        ppv, npv = MX.predictive_values(cm_from_counts(tp=2, tn=3, fp=1, fn=1))
        assert ppv == 2 / 3 and npv == 0.75
        ppv, npv = MX.predictive_values(cm_from_counts(tp=5, tn=7, fp=0, fn=0))
        assert (ppv, npv) == (1.0, 1.0)

    def test_f1_values(self):
        # precision == recall is a fixed point of the harmonic mean
        cm = cm_from_counts(tp=3, tn=0, fp=1, fn=1)
        assert MX.f1(cm) == MX.sensitivity(cm) == 0.75
        assert MX.f1(cm_from_counts(tp=1, tn=0, fp=1, fn=1)) == 0.5
        assert MX.f1(cm_from_counts(tp=0, tn=9, fp=0, fn=0)) is None

    def test_f1_from_published_precision_recall(self):
        p, r = 0.9980, 0.9990
        harmonic = 2 * p * r / (p + r)
        assert abs(harmonic - 0.9985) < 5e-5
        assert MX.render_percent(harmonic) == "99.85"

    def test_accuracy_values(self):
        assert MX.accuracy(MX.ConfusionMatrix(((3, 0), (0, 2)))) == 1.0
        assert MX.accuracy(cm_from_counts(tp=3, tn=4, fp=2, fn=1)) == 0.7
        assert MX.accuracy(MX.ConfusionMatrix(((0, 0), (0, 0)))) is None

    def test_complements(self):
        report = MX.binary_report(cm_from_counts(tp=999, tn=9962, fp=38, fn=1))
        assert abs(report.fall_out - 0.0038) < 1e-12
        assert abs(report.miss_rate - 0.0010) < 1e-12
        perfect = MX.binary_report(cm_from_counts(tp=5, tn=5, fp=0, fn=0))
        assert perfect.error_rate == 0.0


class TestExhaustiveOracle:
    def test_all_binary_matrices_small_totals(self):
        for total in range(13):
            for tp in range(total + 1):
                for tn in range(total - tp + 1):
                    for fp in range(total - tp - tn + 1):
                        fn = total - tp - tn - fp
                        actual, predicted = sequences_for(tp, tn, fp, fn)
                        cm = MX.confusion_from_predictions(actual, predicted, 2)
                        report = MX.binary_report(cm)
                        want = oracle_measures(actual, predicted)
                        for name in MX.MetricsReport.MEASURES:
                            got = getattr(report, name)
                            if want[name] is None:
                                assert got is None, (name, tp, tn, fp, fn)
                            elif name in ("fall_out", "miss_rate", "error_rate"):
                                assert abs(got - want[name]) < 1e-12
                            else:
                                assert got == want[name], (name, tp, tn, fp, fn)

    def test_random_complement_identities(self):
        rng = np.random.default_rng(1)
        for _ in range(2000):
            tp, tn, fp, fn = (int(v) for v in rng.integers(1, 500, size=4))
            report = MX.binary_report(cm_from_counts(tp, tn, fp, fn))
            assert abs(report.fall_out - fp / (tn + fp)) < 1e-12
            assert abs(report.miss_rate - fn / (fn + tp)) < 1e-12
            assert abs(report.error_rate - (fp + fn) / (tp + tn + fp + fn)) < 1e-12
            assert abs(report.f1 - 2 * report.ppv * report.sensitivity
                       / (report.ppv + report.sensitivity)) < 1e-12

    def test_scaling_invariance(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            tp, tn, fp, fn = (int(v) for v in rng.integers(1, 50, size=4))
            base = MX.binary_report(cm_from_counts(tp, tn, fp, fn))
            for s in (2, 5, 17):
                scaled = MX.binary_report(
                    cm_from_counts(tp * s, tn * s, fp * s, fn * s)
                )
                for name in MX.MetricsReport.MEASURES:
                    assert getattr(base, name) == getattr(scaled, name)

    def test_defined_values_in_unit_interval(self):
        rng = np.random.default_rng(3)
        for _ in range(500):
            tp, tn, fp, fn = (int(v) for v in rng.integers(0, 20, size=4))
            report = MX.binary_report(cm_from_counts(tp, tn, fp, fn))
            for name in MX.MetricsReport.MEASURES:
                v = getattr(report, name)
                assert v is None or 0.0 <= v <= 1.0


def macro_oracle(counts):
    """Independent one-vs-rest reduction and unweighted averaging."""
    k = len(counts)
    total = sum(sum(r) for r in counts)
    reports = []
    for c in range(k):
        tp = counts[c][c]
        fn = sum(counts[c]) - tp
        fp = sum(counts[r][c] for r in range(k)) - tp
        tn = total - tp - fn - fp
        actual, predicted = sequences_for(tp, tn, fp, fn)
        reports.append(oracle_measures(actual, predicted))
    out = {}
    for name in MX.MetricsReport.MEASURES:
        values = [r[name] for r in reports]
        if any(v is None for v in values):
            out[name] = None
        elif all(v == values[0] for v in values):
            out[name] = values[0]  # same fixed-point rule as the module
        else:
            out[name] = sum(values) / len(values)
    return out


class TestMacro:
    def test_symmetric_matrix_is_fixed_point(self):
        cm = MX.ConfusionMatrix(((8, 1, 1), (1, 8, 1), (1, 1, 8)))
        report = MX.macro_multiclass(cm)
        for per in report.per_class:
            assert per.sensitivity == report.sensitivity
            assert per.f1 == report.f1

    def test_worked_example_matches_oracle(self):
        counts = ((50, 3, 2), (4, 60, 1), (0, 5, 75))
        report = MX.macro_multiclass(MX.ConfusionMatrix(counts))
        want = macro_oracle(counts)
        for name in MX.MetricsReport.MEASURES:
            assert getattr(report, name) == want[name], name

    def test_exhaustive_small_matrices(self):
        # all 3x3 matrices with total == 6 spread over the 9 cells is
        # large; sweep a structured family plus random ones instead
        rng = np.random.default_rng(4)
        cases = []
        for diag in itertools.product(range(3), repeat=3):
            m = [[0, 0, 0], [0, 0, 0], [0, 0, 0]]
            for i, d in enumerate(diag):
                m[i][i] = d
            m[0][1] = 1
            cases.append(tuple(tuple(r) for r in m))
        for _ in range(300):
            cases.append(tuple(tuple(int(v) for v in row)
                               for row in rng.integers(0, 5, size=(3, 3))))
        for counts in cases:
            want = macro_oracle(counts)
            report = MX.macro_multiclass(MX.ConfusionMatrix(counts))
            for name in MX.MetricsReport.MEASURES:
                assert getattr(report, name) == want[name], (name, counts)

    def test_undefined_class_propagates(self):
        # class 2 never occurs and is never predicted: its sensitivity
        # is undefined, so the macro sensitivity must be too
        cm = MX.ConfusionMatrix(((5, 1, 0), (1, 5, 0), (0, 0, 0)))
        assert MX.macro_multiclass(cm).sensitivity is None

    def test_wrong_k(self):
        with pytest.raises(ContractError):
            MX.macro_multiclass(MX.ConfusionMatrix(((1, 0), (0, 1))))


class TestRendering:
    def test_percent_formatting(self):
        assert MX.render_percent(0.9990) == "99.90"
        assert MX.render_percent(0.99786) == "99.786"
        assert MX.render_percent(0.0038) == "0.38"
        assert MX.render_percent(0.00214) == "0.214"
        assert MX.render_percent(1.0) == "100.00"
        assert MX.render_percent(None) == "-"

    def test_comparison_table(self):
        report = MX.MetricsReport(
            sensitivity=0.9990, specificity=0.9962, fall_out=0.0038,
            miss_rate=0.0010, ppv=0.9980, npv=0.9981, f1=0.9985,
            accuracy=0.9981, error_rate=0.0019,
        )
        rows = MX.render_comparison(report)
        assert len(rows) == 10
        assert rows[0] == ("KNN", "67%", "83%", "75%")
        assert rows[3] == ("U-Net", "-", "-", "91%")
        assert rows[-1] == ("Our Approach", "99.90%", "99.62%", "99.81%")

    def test_measure_rows(self):
        report = MX.binary_report(cm_from_counts(tp=1, tn=1, fp=0, fn=0))
        rows = MX.render_measures(report)
        assert rows[0] == ("sensitivity", "100.00%")
        assert [name for name, _ in rows] == list(MX.MetricsReport.MEASURES)

    def test_as_dict_order_and_nulls(self):
        report = MX.binary_report(cm_from_counts(tp=0, tn=4, fp=0, fn=0))
        d = report.as_dict()
        assert list(d) == list(MX.MetricsReport.MEASURES)
        assert d["sensitivity"] is None
        assert d["specificity"] == 1.0
