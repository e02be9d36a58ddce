"""Confusion matrices, macro-F1, conditional confusion, and the alpha sweep.

Per-class accuracy throughout means recall, the diagonal of the
row-normalized confusion matrix. Macro-F1 is the unweighted mean over
the whole vocabulary of 2PR/(P+R), with a class contributing 0 when
P + R = 0; a prevalence-weighted variant is reported alongside for
sensitivity checks. Argmax ties resolve to the lowest class index.
"""

from dataclasses import dataclass, replace

import numpy as np

from .balance import BalanceConfig, Dataset, augment, record_holdout_split, upsample
from .classifiers import NetworkClassifier
from .errors import InvalidInputError
from .seeding import NS_CONDCONF, NS_SWEEP, derive_seed
from .surrogates import SURROGATE_KINDS, SurrogateConfig, epoch_surrogate_with_reports

IDENTITY_KIND = "identity"
CONDITIONAL_KINDS = SURROGATE_KINDS + (IDENTITY_KIND,)


@dataclass(frozen=True)
class ConfusionMatrix:
    """Counts with rows = true label, columns = predicted label."""

    counts: np.ndarray
    labels: tuple

    def __post_init__(self):
        counts = np.asarray(self.counts, dtype=np.int64)
        k = len(self.labels)
        if counts.shape != (k, k):
            raise InvalidInputError(f"counts shape {counts.shape} does not match {k} labels")
        if np.any(counts < 0):
            raise InvalidInputError("confusion counts must be non-negative")
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "labels", tuple(self.labels))

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    def row_normalized(self) -> np.ndarray:
        row_sums = self.counts.sum(axis=1, keepdims=True)
        out = np.zeros(self.counts.shape, dtype=np.float64)
        np.divide(self.counts, row_sums, out=out, where=row_sums > 0)
        return out

    def off_diagonal_mass(self) -> float:
        """Fraction of all counts that lie off the diagonal."""
        if self.total == 0:
            return 0.0
        return float((self.counts.sum() - np.trace(self.counts)) / self.counts.sum())


def confusion_from_predictions(true_idx, pred_idx, labels) -> ConfusionMatrix:
    k = len(labels)
    counts = np.zeros((k, k), dtype=np.int64)
    for t, p in zip(true_idx, pred_idx):
        counts[t, p] += 1
    return ConfusionMatrix(counts, tuple(labels))


def f1_scores(confusion: ConfusionMatrix):
    """Per-class F1 plus macro and prevalence-weighted averages."""
    counts = confusion.counts.astype(np.float64)
    diag = np.diag(counts)
    col = counts.sum(axis=0)
    row = counts.sum(axis=1)
    precision = np.divide(diag, col, out=np.zeros_like(diag), where=col > 0)
    recall = np.divide(diag, row, out=np.zeros_like(diag), where=row > 0)
    pr = precision + recall
    f1 = np.divide(2.0 * precision * recall, pr, out=np.zeros_like(pr), where=pr > 0)
    macro = float(f1.mean())
    support = row.sum()
    weighted = float((f1 * row).sum() / support) if support > 0 else 0.0
    return f1, macro, weighted


@dataclass(frozen=True)
class EvaluationResult:
    confusion: ConfusionMatrix
    per_class_recall: np.ndarray
    per_class_f1: np.ndarray
    macro_f1: float
    weighted_f1: float
    probabilities: np.ndarray  # (n_epochs, n_classes), the rows argmax-evaluated


def evaluate(classifier, dataset: Dataset) -> EvaluationResult:
    """Argmax-evaluate a classifier over a dataset."""
    if len(dataset) == 0:
        raise InvalidInputError("cannot evaluate on an empty dataset")
    probs = np.asarray(classifier.predict_batch(dataset))
    pred_idx = probs.argmax(axis=1)
    confusion = confusion_from_predictions(dataset.labels, pred_idx, dataset.label_vocabulary)
    recall = np.diag(confusion.row_normalized())
    f1, macro, weighted = f1_scores(confusion)
    return EvaluationResult(confusion, recall, f1, macro, weighted, probs)


def conditional_confusion(classifier, dataset: Dataset, surrogate_kind: str, seed: int):
    """Confusion of surrogate predictions conditioned on correct originals.

    Epochs the classifier predicts correctly are replaced (all channels)
    by surrogates of the requested kind and re-classified; rows index the
    original (correct) class, columns the surrogate prediction. Epoch i's
    channel c draws from the stream keyed (derive_seed(seed, condconf, i),
    c), and the whole conditional set is surrogated as one block
    (``epoch_surrogate_with_reports``).
    The kind ``"identity"`` skips replacement, which by construction
    yields a diagonal matrix.

    Returns:
        ConfusionMatrix, or None when no epoch was predicted correctly.
    """
    if surrogate_kind not in CONDITIONAL_KINDS:
        raise InvalidInputError(f"unknown surrogate kind {surrogate_kind!r}")
    if len(dataset) == 0:
        raise InvalidInputError("cannot evaluate on an empty dataset")
    probs = np.asarray(classifier.predict_batch(dataset))
    correct = np.flatnonzero(probs.argmax(axis=1) == dataset.labels)
    if correct.size == 0:
        return None

    subset = dataset.take(correct)
    if surrogate_kind != IDENTITY_KIND:
        seeds = [derive_seed(seed, NS_CONDCONF, int(i)) for i in correct]
        config = SurrogateConfig(kind=surrogate_kind)
        subset = replace(subset, x=epoch_surrogate_with_reports(subset.x, seeds, config)[0])
    new_pred = np.asarray(classifier.predict_batch(subset)).argmax(axis=1)
    return confusion_from_predictions(subset.labels, new_pred, dataset.label_vocabulary)


@dataclass(frozen=True)
class SweepRow:
    alpha: float
    fold: int
    macro_f1: float
    per_class_recall: tuple
    per_class_f1: tuple


def alpha_sweep(
    dataset: Dataset,
    group_labels,
    alphas,
    beta: float,
    folds: int,
    train_config,
    seed: int,
) -> list:
    """Train/evaluate over an (alpha, fold) grid.

    For every alpha and fold: record-holdout split, beta up-sampling,
    alpha augmentation with FT surrogates, reference-classifier training,
    evaluation on the held-out records. Each cell derives its own seed
    from (seed, alpha index, fold).
    """
    from .training import train_reference_classifier

    if folds < 1:
        raise InvalidInputError(f"folds must be >= 1, got {folds}")
    if len(alphas) == 0:
        raise InvalidInputError("alphas is empty")
    rows = []
    for ai, alpha in enumerate(alphas):
        for fold in range(folds):
            train_ds, val_ds = record_holdout_split(dataset, fold, folds, group_labels)
            balance_cfg = BalanceConfig(
                beta=beta, alpha=alpha, seed=derive_seed(seed, NS_SWEEP, ai, fold, 0)
            )
            upsampled, flags = upsample(train_ds, balance_cfg)
            augmented = augment(upsampled, flags, balance_cfg)
            cfg = replace(train_config, seed=derive_seed(seed, NS_SWEEP, ai, fold, 1))
            result = train_reference_classifier(augmented, cfg)
            clf = NetworkClassifier(result.descriptor, result.weights, dataset.label_vocabulary)
            ev = evaluate(clf, val_ds)
            rows.append(
                SweepRow(
                    alpha, fold, ev.macro_f1, tuple(ev.per_class_recall), tuple(ev.per_class_f1)
                )
            )
    return rows
