"""Scoring detector output against ground truth.

Per-class precision/recall/F1 over per-second label sequences, with the
0/0 -> 0 convention, macro averaging over the classes present, and a
leave-one-subject-out fold splitter for the engagement studies.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from ..core import ParameterError, ReactionLabel

#: Canonical class ordering for reports and confusion matrices.
CLASS_ORDER = (
    ReactionLabel.NON_REACTION,
    ReactionLabel.SINGING_HUMMING,
    ReactionLabel.WHISTLING,
    ReactionLabel.HEAD_MOTION,
)


def map_to_vocal_domain(labels: list[ReactionLabel]) -> list[ReactionLabel]:
    """Fold labels outside the vocal pipeline's alphabet to non_reaction."""
    return [
        label if label in (ReactionLabel.SINGING_HUMMING, ReactionLabel.WHISTLING)
        else ReactionLabel.NON_REACTION
        for label in labels
    ]


def map_to_motion_domain(labels: list[ReactionLabel]) -> list[ReactionLabel]:
    """Fold labels outside the motion pipeline's alphabet to non_reaction."""
    return [
        label if label is ReactionLabel.HEAD_MOTION else ReactionLabel.NON_REACTION
        for label in labels
    ]


@dataclass(frozen=True)
class ClassMetrics:
    precision: float
    recall: float
    f1: float
    support: int


@dataclass
class EvalReport:
    """Per-class and macro metrics for one truth/prediction pairing."""

    classes: list[ReactionLabel]
    per_class: dict[ReactionLabel, ClassMetrics]
    macro_f1: float
    accuracy: float
    confusion: np.ndarray  # rows: truth, columns: prediction
    filtering_ratio: float | None = None

    def to_dict(self) -> dict:
        out = {
            "classes": [c.value for c in self.classes],
            "per_class": {
                c.value: {
                    "precision": m.precision, "recall": m.recall,
                    "f1": m.f1, "support": m.support,
                } for c, m in self.per_class.items()
            },
            "macro_f1": self.macro_f1,
            "accuracy": self.accuracy,
            "confusion": self.confusion.tolist(),
        }
        if self.filtering_ratio is not None:
            out["filtering_ratio"] = self.filtering_ratio
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"


def _prf(tp: int, fp: int, fn: int) -> tuple[float, float, float]:
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = (2 * precision * recall / (precision + recall)
          if precision + recall else 0.0)
    return precision, recall, f1


def evaluate(
    truth: list[ReactionLabel],
    predicted: list[ReactionLabel],
    filtering_ratio: float | None = None,
) -> EvalReport:
    """Score a per-second prediction sequence against truth.

    Classes present in either sequence participate; the macro F1 averages
    over exactly those, and any precision/recall with an empty denominator
    counts as 0.
    """
    if len(truth) != len(predicted):
        raise ParameterError(
            f"length mismatch: {len(truth)} truth vs {len(predicted)} predicted"
        )
    if not truth:
        raise ParameterError("cannot evaluate empty sequences")
    present = [c for c in CLASS_ORDER if c in set(truth) | set(predicted)]
    index = {c: i for i, c in enumerate(present)}
    confusion = np.zeros((len(present), len(present)), dtype=int)
    for t, p in zip(truth, predicted):
        confusion[index[t], index[p]] += 1
    per_class = {}
    for c in present:
        i = index[c]
        tp = int(confusion[i, i])
        fp = int(confusion[:, i].sum() - tp)
        fn = int(confusion[i, :].sum() - tp)
        precision, recall, f1 = _prf(tp, fp, fn)
        per_class[c] = ClassMetrics(precision, recall, f1,
                                    support=int(confusion[i, :].sum()))
    macro_f1 = float(np.mean([m.f1 for m in per_class.values()]))
    accuracy = float(np.trace(confusion) / confusion.sum())
    return EvalReport(
        classes=present, per_class=per_class, macro_f1=macro_f1,
        accuracy=accuracy, confusion=confusion, filtering_ratio=filtering_ratio,
    )


def loso_folds(subjects: list[str]) -> list[tuple[str, list[int], list[int]]]:
    """Leave-one-subject-out folds over items tagged with subject ids.

    Returns ``(held_out_subject, train_indices, test_indices)`` per unique
    subject, in sorted subject order; the test sets partition the items.
    """
    if len(set(subjects)) < 2:
        raise ParameterError("leave-one-subject-out needs at least two subjects")
    folds = []
    for subject in sorted(set(subjects)):
        test = [i for i, s in enumerate(subjects) if s == subject]
        train = [i for i, s in enumerate(subjects) if s != subject]
        folds.append((subject, train, test))
    return folds
