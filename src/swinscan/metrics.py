"""Confusion matrices and the nine classification measures.

Conventions, fixed once here:

* Matrix rows are actual classes, columns are predicted classes.
* For binary matrices the positive class is id 1 ("Yes"/tumor).
* A measure whose denominator is zero is UNDEFINED (None), never 0 or
  an exception; renderers print "-" for it.
* F1 is computed from counts, TP / (TP + (FP + FN) / 2), equivalently
  2PR/(P+R).  A published formula that drops the factor 2 contradicts
  both the harmonic-mean definition and the count form; the count form
  is used everywhere here.
"""

from dataclasses import dataclass

from .errors import ContractError, InputError

UNDEFINED = None  # explicit zero-denominator marker


@dataclass(frozen=True)
class ConfusionMatrix:
    """k x k non-negative integer counts, counts[actual][predicted]."""

    counts: tuple

    def __post_init__(self):
        rows = tuple(tuple(int(v) for v in row) for row in self.counts)
        if len(rows) < 2 or any(len(r) != len(rows) for r in rows):
            raise InputError("confusion matrix must be square, k >= 2")
        if any(v < 0 for r in rows for v in r):
            raise InputError("confusion counts must be non-negative")
        object.__setattr__(self, "counts", rows)

    @property
    def k(self) -> int:
        return len(self.counts)

    @property
    def total(self) -> int:
        return sum(sum(row) for row in self.counts)

    def _binary(self):
        if self.k != 2:
            raise ContractError(f"binary accessor on a {self.k}x{self.k} matrix")

    @property
    def tp(self) -> int:
        self._binary()
        return self.counts[1][1]

    @property
    def tn(self) -> int:
        self._binary()
        return self.counts[0][0]

    @property
    def fp(self) -> int:
        self._binary()
        return self.counts[0][1]

    @property
    def fn(self) -> int:
        self._binary()
        return self.counts[1][0]


def confusion_from_predictions(actual, predicted, k: int) -> ConfusionMatrix:
    """Tally (actual, predicted) pairs into a k x k matrix."""
    actual = list(actual)
    predicted = list(predicted)
    if len(actual) != len(predicted):
        raise InputError(
            f"{len(actual)} actual labels vs {len(predicted)} predictions"
        )
    counts = [[0] * k for _ in range(k)]
    for a, p in zip(actual, predicted):
        if not (0 <= a < k and 0 <= p < k):
            raise InputError(f"class id pair ({a}, {p}) outside [0, {k})")
        counts[a][p] += 1
    return ConfusionMatrix(tuple(tuple(row) for row in counts))


@dataclass
class MetricsReport:
    sensitivity: object
    specificity: object
    fall_out: object
    miss_rate: object
    ppv: object
    npv: object
    f1: object
    accuracy: object
    error_rate: object
    per_class: tuple = None

    MEASURES = (
        "sensitivity",
        "specificity",
        "fall_out",
        "miss_rate",
        "ppv",
        "npv",
        "f1",
        "accuracy",
        "error_rate",
    )

    def as_dict(self) -> dict:
        """Snake_case keys in the fixed row order; rates rounded to 12
        decimals for stable serialization, UNDEFINED as null."""
        out = {}
        for name in self.MEASURES:
            v = getattr(self, name)
            out[name] = None if v is None else float(f"{v:.12f}")
        if self.per_class is not None:
            out["per_class"] = [r.as_dict() for r in self.per_class]
        return out


def _ratio(num: int, den: int):
    return UNDEFINED if den == 0 else num / den


def sensitivity(cm: ConfusionMatrix):
    """TP / (TP + FN): correct positives over all actual positives."""
    return _ratio(cm.tp, cm.tp + cm.fn)


def specificity(cm: ConfusionMatrix):
    """TN / (TN + FP): correct negatives over all actual negatives."""
    return _ratio(cm.tn, cm.tn + cm.fp)


def predictive_values(cm: ConfusionMatrix):
    """(PPV, NPV): precision of positive and of negative predictions."""
    return _ratio(cm.tp, cm.tp + cm.fp), _ratio(cm.tn, cm.tn + cm.fn)


def f1(cm: ConfusionMatrix):
    """2 TP / (2 TP + FP + FN), the harmonic mean of PPV and recall."""
    return _ratio(2 * cm.tp, 2 * cm.tp + cm.fp + cm.fn)


def accuracy(cm: ConfusionMatrix):
    """Diagonal mass over total; UNDEFINED on an empty matrix."""
    trace = sum(cm.counts[i][i] for i in range(cm.k))
    return _ratio(trace, cm.total)


def _complement(rate):
    # exact complement; UNDEFINED propagates
    return UNDEFINED if rate is None else 1.0 - rate


def binary_report(cm: ConfusionMatrix) -> MetricsReport:
    sens, spec, acc = sensitivity(cm), specificity(cm), accuracy(cm)
    ppv, npv = predictive_values(cm)
    return MetricsReport(
        sensitivity=sens,
        specificity=spec,
        fall_out=_complement(spec),
        miss_rate=_complement(sens),
        ppv=ppv,
        npv=npv,
        f1=f1(cm),
        accuracy=acc,
        error_rate=_complement(acc),
    )


def _one_vs_rest(cm: ConfusionMatrix, c: int) -> ConfusionMatrix:
    tp = cm.counts[c][c]
    fn = sum(cm.counts[c]) - tp
    fp = sum(cm.counts[r][c] for r in range(cm.k)) - tp
    tn = cm.total - tp - fn - fp
    return ConfusionMatrix(((tn, fp), (fn, tp)))


def macro_multiclass(cm: ConfusionMatrix) -> MetricsReport:
    """Unweighted mean of the one-vs-rest binary report per class.

    A macro value is UNDEFINED as soon as any class value is.
    """
    if cm.k != 3:
        raise ContractError(f"macro averaging is defined for k == 3, got {cm.k}")
    per_class = tuple(binary_report(_one_vs_rest(cm, c)) for c in range(cm.k))

    def macro(name):
        values = [getattr(r, name) for r in per_class]
        if any(v is None for v in values):
            return UNDEFINED
        if all(v == values[0] for v in values):
            return values[0]  # keep equal rates an exact fixed point
        return sum(values) / len(values)

    report = MetricsReport(*(macro(name) for name in MetricsReport.MEASURES))
    report.per_class = per_class
    return report


def report_from_confusion(cm: ConfusionMatrix) -> MetricsReport:
    return binary_report(cm) if cm.k == 2 else macro_multiclass(cm)


# ---------------------------------------------------------------------------
# rendering


def render_percent(rate) -> str:
    """Rate as a percentage string: three decimals with one trailing
    zero trimmed, so 0.999 -> "99.90" and 0.99786 -> "99.786";
    UNDEFINED renders as "-"."""
    if rate is None:
        return "-"
    s = f"{rate * 100.0:.3f}"
    return s[:-1] if s.endswith("0") else s


# published reference measurements this implementation is compared
# against; cells are verbatim, "-" where no figure was reported
COMPARISON_REFERENCE = (
    ("KNN", "67%", "83%", "75%"),
    ("ELM", "90%", "78%", "84%"),
    ("FCM", "96%", "93.3%", "86.6%"),
    ("U-Net", "-", "-", "91%"),
    ("CapsNet", "-", "-", "92.65%"),
    ("SVM", "90%", "96%", "93%"),
    ("CDLLC", "94.64%", "-", "96.39%"),
    ("CNN", "96.4%", "98.3%", "97.8%"),
    ("ANFIS", "96.6%", "95.3%", "98.67%"),
)

def _cell(rate) -> str:
    return "-" if rate is None else render_percent(rate) + "%"


def render_comparison(report: MetricsReport) -> tuple:
    """The fixed reference rows plus a final row for this model's
    sensitivity / specificity / accuracy."""
    ours = ("Our Approach", _cell(report.sensitivity), _cell(report.specificity),
            _cell(report.accuracy))
    return COMPARISON_REFERENCE + (ours,)


def render_measures(report: MetricsReport) -> tuple:
    """(measure name, percentage cell) rows in the fixed order."""
    return tuple(
        (name, _cell(getattr(report, name))) for name in MetricsReport.MEASURES
    )
