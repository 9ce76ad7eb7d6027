"""Engagement applications built on top of the detected reaction events.

From each listening session the detectors produce two per-second timelines
(vocal and motion).  This module turns those into a fixed 10-dimensional
:class:`ReactionFeatures` vector, trains small CART decision trees on such
vectors to predict a 1-5 engagement rating or known/unknown song
familiarity, and recommends songs whose stored reaction patterns warp onto a
query pattern (DTW over per-second reaction indices).
"""

from __future__ import annotations

import dataclasses
import math
import numbers
import os
from dataclasses import dataclass

import numpy as np

from .core import (
    MOTION_REACTIONS,
    VOCAL_REACTIONS,
    ParameterError,
    ParseError,
    ReactionEvent,
    ReactionLabel,
    expand_events_to_labels,
    json_document,
    read_csv_rows,
    read_document,
    write_text,
)
from .dsp import dtw_from_cost, dtw_scan

#: Class names for the familiarity task, in class-id order.
FAMILIARITY_CLASSES = ("known", "unknown")

#: Reaction index alphabet used by pattern matching, in the canonical order.
REACTION_INDEX = {label: index for index, label in enumerate(ReactionLabel)}


@dataclass(frozen=True)
class ReactionFeatures:
    """Per-session reaction summary: normalized durations and event rates.

    Durations are fractions of the session; counts are events per minute.
    The vocal and motion timelines keep separate non-reaction entries, so
    each timeline's durations sum to 1.  The fields follow each timeline's
    reactions in the canonical order, then its non-reaction.
    """

    singing_duration: float
    singing_rate: float
    whistling_duration: float
    whistling_rate: float
    vocal_non_reaction_duration: float
    vocal_non_reaction_rate: float
    head_motion_duration: float
    head_motion_rate: float
    motion_non_reaction_duration: float
    motion_non_reaction_rate: float

    def to_vector(self) -> np.ndarray:
        return np.array(dataclasses.astuple(self))


#: The feature names in field order, which is the training CSV's column order.
ReactionFeatures.FEATURE_NAMES = tuple(f.name for f in dataclasses.fields(ReactionFeatures))


def _timeline_features(events, allowed, duration_s):
    """(duration fraction, events/minute) per allowed label, in order, then
    for the non-reaction complement of their union."""
    spans = {label: [] for label in allowed}
    for event in events:
        if event.label is ReactionLabel.NON_REACTION:
            continue
        if event.label not in spans:
            raise ParameterError(
                f"label {event.label} does not belong on this timeline"
            )
        if event.t_start < -1e-9 or event.t_end > duration_s + 1e-9:
            raise ParameterError(
                f"event [{event.t_start:g}, {event.t_end:g}) exceeds the "
                f"{duration_s:g} s session"
            )
        spans[event.label].append((event.t_start, event.t_end))

    out = {}
    covered = []
    for label in allowed:
        merged = _merge_spans(spans[label])
        covered.extend(merged)
        total = sum(t1 - t0 for t0, t1 in merged)
        out[label] = (total / duration_s, len(merged) / (duration_s / 60.0))
    gaps = _complement_spans(_merge_spans(covered), duration_s)
    gap_total = sum(t1 - t0 for t0, t1 in gaps)
    out[ReactionLabel.NON_REACTION] = (
        gap_total / duration_s, len(gaps) / (duration_s / 60.0)
    )
    return out


def _merge_spans(spans):
    merged = []
    for t0, t1 in sorted(spans):
        if merged and t0 <= merged[-1][1] + 1e-9:
            if t0 < merged[-1][1] - 1e-9:
                raise ParameterError("events on one timeline must not overlap")
            merged[-1] = (merged[-1][0], max(merged[-1][1], t1))
        else:
            merged.append((t0, t1))
    return merged


def _complement_spans(merged, duration_s):
    gaps = []
    cursor = 0.0
    for t0, t1 in merged:
        if t0 > cursor + 1e-9:
            gaps.append((cursor, t0))
        cursor = max(cursor, t1)
    if duration_s > cursor + 1e-9:
        gaps.append((cursor, duration_s))
    return gaps


def reaction_features(
    vocal_events: list[ReactionEvent],
    motion_events: list[ReactionEvent],
    duration_s: float,
) -> ReactionFeatures:
    """Summarize one session's two event timelines into the feature vector.

    Vocal events may carry singing/whistling labels, motion events only
    head_motion; explicit non-reaction events are optional because the
    non-reaction share is derived from the uncovered remainder of the
    session.
    """
    if not (math.isfinite(duration_s) and duration_s > 0):
        raise ParameterError("duration_s must be positive")
    vocal = _timeline_features(vocal_events, VOCAL_REACTIONS, duration_s)
    motion = _timeline_features(motion_events, MOTION_REACTIONS, duration_s)
    return ReactionFeatures(*(value for timeline in (vocal, motion)
                              for pair in timeline.values() for value in pair))


# ---------------------------------------------------------------------------
# CART decision tree
# ---------------------------------------------------------------------------

@dataclass
class TreeNode:
    """Internal split (feature/threshold) or leaf (value set, children None)."""

    feature: int = -1
    threshold: float = 0.0
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None
    value: int = 0

    @property
    def is_leaf(self) -> bool:
        return self.left is None


class DecisionTree:
    """CART classifier: greedy Gini splits over feature-midpoint thresholds.

    Determinism rules: candidate thresholds are midpoints of consecutive
    sorted distinct values; equal-impurity splits keep the first one found
    scanning features in index order and thresholds ascending; leaf
    majorities break ties toward the smaller class id.
    """

    def __init__(self, root: TreeNode, num_features: int):
        self.root = root
        self.num_features = num_features

    @classmethod
    def fit(cls, features: np.ndarray, targets: np.ndarray,
            max_depth: int = 4, min_leaf: int = 2) -> "DecisionTree":
        """Train on integer class targets.

        Degenerate inputs (single class, or too few samples to split) yield
        a single majority leaf rather than an error.
        """
        features = np.asarray(features, dtype=float)
        targets = np.asarray(targets)
        if features.ndim != 2 or len(features) == 0:
            raise ParameterError("features must be a non-empty (n, d) matrix")
        if targets.shape != (len(features),):
            raise ParameterError("targets must parallel the feature rows")
        if not np.isfinite(features).all():
            raise ParameterError("features must be finite")
        if max_depth < 0 or min_leaf < 1:
            raise ParameterError("need max_depth >= 0 and min_leaf >= 1")
        targets = targets.astype(int)
        root = _build_node(features, targets, depth=0,
                           max_depth=max_depth, min_leaf=min_leaf)
        return cls(root, features.shape[1])

    def predict(self, vector: np.ndarray) -> int:
        vector = np.asarray(vector, dtype=float)
        if vector.shape != (self.num_features,):
            raise ParameterError(
                f"need a {self.num_features}-element vector, got {vector.shape}"
            )
        node = self.root
        while not node.is_leaf:
            node = node.left if vector[node.feature] <= node.threshold else node.right
        return node.value

    def save(self, path: str | os.PathLike) -> None:
        def encode(node):
            if node.is_leaf:
                return {"value": int(node.value)}
            return {"feature": int(node.feature), "threshold": float(node.threshold),
                    "left": encode(node.left), "right": encode(node.right)}
        write_text(path, json_document(
            {"num_features": self.num_features, "root": encode(self.root)}))

    @classmethod
    def load(cls, path: str | os.PathLike) -> "DecisionTree":
        def decode(obj):
            if "value" in obj:
                return TreeNode(value=int(obj["value"]))
            return TreeNode(feature=int(obj["feature"]),
                            threshold=float(obj["threshold"]),
                            left=decode(obj["left"]), right=decode(obj["right"]))
        return read_document(path, "decision-tree", lambda doc: cls(
            decode(doc["root"]), int(doc["num_features"])))


def _gini(targets):
    _, counts = np.unique(targets, return_counts=True)
    p = counts / len(targets)
    return 1.0 - float(np.sum(p * p))


def _majority(targets):
    values, counts = np.unique(targets, return_counts=True)  # values ascending
    return int(values[np.argmax(counts)])  # first max -> smallest class id


def _build_node(features, targets, depth, max_depth, min_leaf):
    if (depth >= max_depth or len(targets) < 2 * min_leaf
            or (targets == targets[0]).all()):
        return TreeNode(value=_majority(targets))
    best = None  # (impurity, feature, threshold)
    for feature in range(features.shape[1]):
        column = features[:, feature]
        distinct = sorted(set(column.tolist()))  # np.unique imports numpy.ma
        for lo, hi in zip(distinct, distinct[1:]):
            threshold = (lo + hi) / 2.0
            mask = column <= threshold
            n_left = int(mask.sum())
            if n_left < min_leaf or len(targets) - n_left < min_leaf:
                continue
            impurity = (
                n_left * _gini(targets[mask])
                + (len(targets) - n_left) * _gini(targets[~mask])
            ) / len(targets)
            if best is None or impurity < best[0] - 1e-12:
                best = (impurity, feature, threshold)
    if best is None:
        return TreeNode(value=_majority(targets))
    _, feature, threshold = best
    mask = features[:, feature] <= threshold
    return TreeNode(
        feature=feature, threshold=threshold,
        left=_build_node(features[mask], targets[mask], depth + 1, max_depth, min_leaf),
        right=_build_node(features[~mask], targets[~mask], depth + 1, max_depth, min_leaf),
    )


# ---------------------------------------------------------------------------
# rating and familiarity
# ---------------------------------------------------------------------------

def train_rating_tree(features: np.ndarray, ratings: np.ndarray,
                      max_depth: int = 4, min_leaf: int = 2) -> DecisionTree:
    """Fit the engagement-rating tree (targets must be integers 1..5)."""
    ratings = np.asarray(ratings)
    if ratings.size and not np.all((ratings >= 1) & (ratings <= 5)):
        raise ParameterError("ratings must lie in 1..5")
    return DecisionTree.fit(features, ratings, max_depth, min_leaf)


def predict_rating(tree: DecisionTree, features: "ReactionFeatures | np.ndarray") -> int:
    """Predict the 1-5 engagement rating for one session, clamped to range."""
    vector = features.to_vector() if isinstance(features, ReactionFeatures) else features
    return int(min(5, max(1, tree.predict(vector))))


def train_familiarity_tree(features: np.ndarray, labels: list[str],
                           max_depth: int = 4, min_leaf: int = 2) -> DecisionTree:
    """Fit the known/unknown song-familiarity tree."""
    try:
        targets = np.array([FAMILIARITY_CLASSES.index(l) for l in labels])
    except ValueError:
        bad = sorted(set(labels) - set(FAMILIARITY_CLASSES))
        raise ParameterError(f"familiarity labels must be known/unknown, got {bad}") from None
    return DecisionTree.fit(features, targets, max_depth, min_leaf)


def predict_familiarity(tree: DecisionTree, features: "ReactionFeatures | np.ndarray") -> str:
    vector = features.to_vector() if isinstance(features, ReactionFeatures) else features
    value = tree.predict(vector)
    if not 0 <= value < len(FAMILIARITY_CLASSES):
        raise ParameterError(f"tree emitted class id {value} outside the familiarity alphabet")
    return FAMILIARITY_CLASSES[value]


def save_training_csv(path: str | os.PathLike, features: np.ndarray,
                      targets: list) -> None:
    """Write a tree-training table: the 10 feature columns plus ``target``."""
    features = np.asarray(features, dtype=float)
    if features.ndim != 2 or features.shape[1] != len(ReactionFeatures.FEATURE_NAMES):
        raise ParameterError(
            f"features must be (n, {len(ReactionFeatures.FEATURE_NAMES)})"
        )
    if len(targets) != len(features):
        raise ParameterError("targets must parallel the feature rows")
    write_text(path, ",".join(ReactionFeatures.FEATURE_NAMES) + ",target\n" + "".join(
        ",".join(f"{v:.10g}" for v in row) + f",{target}\n"
        for row, target in zip(features, targets)))


def load_training_csv(path: str | os.PathLike) -> tuple[np.ndarray, list[str]]:
    """Read a tree-training table; targets come back as raw strings."""
    rows, targets = [], []
    header = list(ReactionFeatures.FEATURE_NAMES) + ["target"]
    for lineno, row in read_csv_rows(path, header):
        try:
            rows.append([float(v) for v in row[:-1]])
        except ValueError:
            raise ParseError(f"{path}: line {lineno}: non-numeric feature") from None
        targets.append(row[-1].strip())
    if not rows:
        raise ParseError(f"{path}: no training rows")
    return np.array(rows), targets


# ---------------------------------------------------------------------------
# reaction patterns and recommendation
# ---------------------------------------------------------------------------

def combine_timelines(
    vocal_labels: list[ReactionLabel], motion_labels: list[ReactionLabel]
) -> list[ReactionLabel]:
    """Merge per-second vocal and motion labels into one timeline.

    A vocal reaction wins over head motion in the same second (you cannot
    whistle without it being the more specific observation); otherwise the
    motion label stands.
    """
    if len(vocal_labels) != len(motion_labels):
        raise ParameterError("timelines must have equal length")
    combined = []
    for vocal, motion in zip(vocal_labels, motion_labels):
        if vocal is not ReactionLabel.NON_REACTION:
            combined.append(vocal)
        else:
            combined.append(motion)
    return combined


def reaction_index_sequence(labels: list[ReactionLabel]) -> np.ndarray:
    """Encode a per-second label timeline as integers 0..3 for DTW matching."""
    return np.array([REACTION_INDEX[label] for label in labels], dtype=int)


def pattern_from_events(events: list[ReactionEvent], duration_s: float | None = None) -> np.ndarray:
    """Per-second reaction indices from a (possibly combined) event list."""
    return reaction_index_sequence(expand_events_to_labels(events, duration_s))


def _as_pattern(seq) -> np.ndarray:
    seq = np.asarray(seq, dtype=int)
    if seq.ndim != 1 or seq.size == 0:
        raise ParameterError("patterns must be non-empty 1-D sequences")
    return seq


def pattern_distance(a: np.ndarray, b: np.ndarray) -> float:
    """DTW distance between two reaction-index sequences (0/1 local cost)."""
    a = _as_pattern(a)
    b = _as_pattern(b)
    cost = (a[:, None] != b[None, :]).astype(float)
    return dtw_from_cost(cost)


def recommend(
    pattern: np.ndarray,
    pool: dict[str, np.ndarray],
    top_n: int = 5,
) -> list[tuple[str, float]]:
    """Rank stored song patterns by DTW distance to the query pattern.

    Returns up to ``top_n`` ``(song_id, distance)`` pairs, ascending by
    distance with ties broken by song id.  A pool entry with an identical
    reaction pattern therefore comes first with distance 0.  Every member
    is scored exactly (no pruning, no band) in one :func:`dsp.dtw_scan`:
    the pool is padded to its longest member, each distinct query symbol's
    0/1 cost row against it is built once, the scan takes one step per run
    of equal query symbols, and each member is read at its own last column.
    ``top_n`` must be an integer (a ``bool`` is not).
    """
    if isinstance(top_n, bool) or not isinstance(top_n, numbers.Integral):
        raise ParameterError(f"top_n must be an integer, got {top_n!r}")
    if top_n < 1:
        raise ParameterError("top_n must be >= 1")
    if not pool:
        raise ParameterError("recommendation pool is empty")
    query = _as_pattern(pattern)
    members = [_as_pattern(stored) for stored in pool.values()]
    ends = np.array([len(member) for member in members])
    padded = np.zeros((ends.max(), len(members)), dtype=int)
    for column, member in zip(padded.T, members):
        column[:len(member)] = member
    symbols, rows = np.unique(query, return_inverse=True)
    last = dtw_scan(symbols[:, None, None] != padded, rows)
    distances = last[ends - 1, np.arange(len(members))]
    ranked = sorted(zip(pool, map(float, distances)),
                    key=lambda pair: (pair[1], pair[0]))
    return ranked[:top_n]
