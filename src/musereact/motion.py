"""Rhythmic head-motion detection from the earbud gyroscope.

The pipeline mirrors the vocal cascade's shape: a movement prefilter drops
seconds that are clearly still or exercise-level, then a sliding seven-second
gyro window (low-passed at 5 Hz) is summarized into 70 motion units x 18
statistical features and scored by a sequence classifier.  Each window labels
only its final second, so the output advances one second at a time; the
first six seconds of a session have no full window yet and stay
``non_reaction``.

Two classifiers are provided: an LSTM runner that evaluates serialized
weights, and a self-contained heuristic scorer that detects the periodicity a
nodding or head-bobbing wearer imprints on the motion-unit energy series.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

from .core import (
    Error,
    ParameterError,
    ParseError,
    PipelineConfig,
    ReactionEvent,
    ReactionLabel,
    Session,
    merge_labels_to_events,
    second_bounds,
)
from . import dsp

#: Geometry of the classifier input: 7 s of 70 Hz gyro -> 70 units of 7 samples.
WINDOW_SAMPLES = 490
UNIT_SAMPLES = 7
NUM_UNITS = 70
NUM_FEATURES = 18

#: Seconds at the start of a session that cannot see a full window yet.
COLD_START_SECONDS = 6


def motion_prefilter(
    accel: np.ndarray, low_g: float = 0.0092, high_g: float = 0.114
) -> bool:
    """True when movement level rules the second out (closed pass interval).

    Below ``low_g`` the wearer is too still to be moving along with music;
    above ``high_g`` the motion is exercise-scale rather than a listening
    reaction.  Boundary values pass.
    """
    level = dsp.movement_level(accel)
    return not low_g <= level <= high_g


def extract_motion_units(gyro: np.ndarray) -> np.ndarray:
    """Summarize a (490, 3) gyro window into the (70, 18) unit-feature matrix.

    Each unit covers 7 consecutive samples (0.1 s).  Features are laid out
    axis-major -- for each gyro axis x, y, z in turn: max, min, mean, range,
    standard deviation (population), RMS.
    """
    gyro = np.asarray(gyro, dtype=float)
    if (gyro.ndim != 2 or gyro.shape[1] != 3 or gyro.shape[0] < UNIT_SAMPLES
            or gyro.shape[0] % UNIT_SAMPLES):
        raise ParameterError(
            f"window must be (k*{UNIT_SAMPLES}, 3), got {gyro.shape}"
        )
    units = gyro.reshape(-1, UNIT_SAMPLES, 3)
    top = units.max(axis=1)
    bottom = units.min(axis=1)
    mean = units.mean(axis=1)
    spread = units.std(axis=1)
    rms = np.sqrt(np.mean(np.square(units), axis=1))
    features = np.empty((units.shape[0], NUM_FEATURES))
    for axis in range(3):
        features[:, axis * 6 + 0] = top[:, axis]
        features[:, axis * 6 + 1] = bottom[:, axis]
        features[:, axis * 6 + 2] = mean[:, axis]
        features[:, axis * 6 + 3] = top[:, axis] - bottom[:, axis]
        features[:, axis * 6 + 4] = spread[:, axis]
        features[:, axis * 6 + 5] = rms[:, axis]
    return features


# ---------------------------------------------------------------------------
# sequence classifiers
# ---------------------------------------------------------------------------

class SequenceClassifier:
    """Scores a (70, 18) unit-feature sequence.

    ``classify`` returns the probability pair ``(head_motion,
    non_reaction)`` and must be deterministic for identical input.
    """

    def classify(self, units: np.ndarray) -> tuple[float, float]:
        raise NotImplementedError


_LSTM_MATRIX_KEYS = ("Wi", "Wf", "Wo", "Wc", "Ui", "Uf", "Uo", "Uc", "Wd")
_LSTM_VECTOR_KEYS = ("bi", "bf", "bo", "bc", "bd")


@dataclass(frozen=True, eq=False)
class LstmWeights:
    """Weights of a single-layer LSTM plus ReLU/dense/softmax head.

    Input kernels ``W*`` are (input, hidden), recurrent kernels ``U*`` are
    (hidden, hidden), the dense head ``Wd`` is (hidden, 2).  Serialized as a
    JSON object of row-major nested lists under the same key names.
    """

    Wi: np.ndarray
    Wf: np.ndarray
    Wo: np.ndarray
    Wc: np.ndarray
    Ui: np.ndarray
    Uf: np.ndarray
    Uo: np.ndarray
    Uc: np.ndarray
    bi: np.ndarray
    bf: np.ndarray
    bo: np.ndarray
    bc: np.ndarray
    Wd: np.ndarray
    bd: np.ndarray

    def __post_init__(self):
        for key in _LSTM_MATRIX_KEYS + _LSTM_VECTOR_KEYS:
            object.__setattr__(self, key, np.asarray(getattr(self, key), dtype=float))
        hidden = self.bi.shape[0] if self.bi.ndim == 1 else 0
        inputs = self.Wi.shape[0] if self.Wi.ndim == 2 else 0
        if hidden == 0 or inputs == 0:
            raise ParameterError("weight shapes are malformed")
        expect = {
            "Wi": (inputs, hidden), "Wf": (inputs, hidden),
            "Wo": (inputs, hidden), "Wc": (inputs, hidden),
            "Ui": (hidden, hidden), "Uf": (hidden, hidden),
            "Uo": (hidden, hidden), "Uc": (hidden, hidden),
            "bi": (hidden,), "bf": (hidden,), "bo": (hidden,), "bc": (hidden,),
            "Wd": (hidden, 2), "bd": (2,),
        }
        for key, shape in expect.items():
            arr = getattr(self, key)
            if arr.shape != shape:
                raise ParameterError(f"{key} must have shape {shape}, got {arr.shape}")
            if not np.isfinite(arr).all():
                raise ParameterError(f"{key} contains non-finite values")

    @property
    def hidden_size(self) -> int:
        return self.bi.shape[0]

    @property
    def input_size(self) -> int:
        return self.Wi.shape[0]

    @classmethod
    def zeros(cls, input_size: int = NUM_FEATURES, hidden_size: int = 32) -> "LstmWeights":
        mk = lambda *shape: np.zeros(shape)
        return cls(
            Wi=mk(input_size, hidden_size), Wf=mk(input_size, hidden_size),
            Wo=mk(input_size, hidden_size), Wc=mk(input_size, hidden_size),
            Ui=mk(hidden_size, hidden_size), Uf=mk(hidden_size, hidden_size),
            Uo=mk(hidden_size, hidden_size), Uc=mk(hidden_size, hidden_size),
            bi=mk(hidden_size), bf=mk(hidden_size),
            bo=mk(hidden_size), bc=mk(hidden_size),
            Wd=mk(hidden_size, 2), bd=mk(2),
        )

    @classmethod
    def random(cls, rng: np.random.Generator, input_size: int = NUM_FEATURES,
               hidden_size: int = 32, scale: float = 0.1) -> "LstmWeights":
        mk = lambda *shape: rng.normal(0.0, scale, shape)
        return cls(
            Wi=mk(input_size, hidden_size), Wf=mk(input_size, hidden_size),
            Wo=mk(input_size, hidden_size), Wc=mk(input_size, hidden_size),
            Ui=mk(hidden_size, hidden_size), Uf=mk(hidden_size, hidden_size),
            Uo=mk(hidden_size, hidden_size), Uc=mk(hidden_size, hidden_size),
            bi=mk(hidden_size), bf=mk(hidden_size),
            bo=mk(hidden_size), bc=mk(hidden_size),
            Wd=mk(hidden_size, 2), bd=mk(2),
        )

    def to_json(self) -> str:
        obj = {key: getattr(self, key).tolist()
               for key in _LSTM_MATRIX_KEYS + _LSTM_VECTOR_KEYS}
        return json.dumps(obj, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "LstmWeights":
        try:
            obj = json.loads(text)
            kwargs = {key: np.asarray(obj[key], dtype=float)
                      for key in _LSTM_MATRIX_KEYS + _LSTM_VECTOR_KEYS}
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"bad LSTM weight document: {exc}") from None
        return cls(**kwargs)

    @classmethod
    def load(cls, path: str | os.PathLike) -> "LstmWeights":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json(fh.read())

    def save(self, path: str | os.PathLike) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json())


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def lstm_forward(weights: LstmWeights, sequence: np.ndarray) -> np.ndarray:
    """Run the LSTM over a feature sequence; returns softmax probabilities.

    Standard recurrence with sigmoid input/forget/output gates and tanh cell
    candidate, zero initial state; the final hidden state passes through
    ReLU and a dense layer to two logits.  All-zero weights therefore give
    exactly (0.5, 0.5).
    """
    sequence = np.asarray(sequence, dtype=float)
    if sequence.ndim != 2 or sequence.shape[1] != weights.input_size:
        raise ParameterError(
            f"sequence must be (n, {weights.input_size}), got {sequence.shape}"
        )
    if sequence.shape[0] == 0:
        raise ParameterError("sequence must be non-empty")
    h = np.zeros(weights.hidden_size)
    c = np.zeros(weights.hidden_size)
    for x in sequence:
        i = _sigmoid(x @ weights.Wi + h @ weights.Ui + weights.bi)
        f = _sigmoid(x @ weights.Wf + h @ weights.Uf + weights.bf)
        o = _sigmoid(x @ weights.Wo + h @ weights.Uo + weights.bo)
        g = np.tanh(x @ weights.Wc + h @ weights.Uc + weights.bc)
        c = f * c + i * g
        h = o * np.tanh(c)
    logits = np.maximum(h, 0.0) @ weights.Wd + weights.bd
    logits = logits - logits.max()
    exp = np.exp(logits)
    return exp / exp.sum()


class LstmClassifier(SequenceClassifier):
    """Sequence classifier backed by serialized LSTM weights."""

    def __init__(self, weights: LstmWeights):
        self.weights = weights

    @classmethod
    def from_file(cls, path: str | os.PathLike) -> "LstmClassifier":
        return cls(LstmWeights.load(path))

    def classify(self, units: np.ndarray) -> tuple[float, float]:
        probs = lstm_forward(self.weights, units)
        return float(probs[0]), float(probs[1])


class HeuristicMotionClassifier(SequenceClassifier):
    """Training-free scorer for rhythmic head motion.

    Looks at the per-unit movement energy (the L2 norm of the three axis
    standard deviations, one value per 0.1 s).  A wearer bobbing along at
    1-3 Hz makes that series strongly periodic, so the score combines a
    normalized autocorrelation peak in the matching lag range with the
    spectral peakiness of the series, each computed over the full window and
    a trailing sub-window (to react quickly at span onsets), through a
    logistic squash.
    """

    def __init__(self, ac_weight: float = 6.0, peak_weight: float = 4.0,
                 bias: float = -5.0, min_lag: int = 2, max_lag: int = 12,
                 subwindows: tuple[int, ...] = (NUM_UNITS, 30)):
        if not 1 <= min_lag < max_lag:
            raise ParameterError("need 1 <= min_lag < max_lag")
        self.ac_weight = ac_weight
        self.peak_weight = peak_weight
        self.bias = bias
        self.min_lag = min_lag
        self.max_lag = max_lag
        self.subwindows = subwindows

    def classify(self, units: np.ndarray) -> tuple[float, float]:
        units = np.asarray(units, dtype=float)
        if units.ndim != 2 or units.shape[1] != NUM_FEATURES:
            raise ParameterError(f"expected (n, {NUM_FEATURES}) units, got {units.shape}")
        energy = np.linalg.norm(units[:, [4, 10, 16]], axis=1)  # per-axis std cols
        score = 0.0
        for length in self.subwindows:
            series = energy[-min(length, len(energy)):]
            if len(series) <= self.max_lag + 1:
                continue
            score = max(score, self._score_series(series))
        return score, 1.0 - score

    def _score_series(self, series: np.ndarray) -> float:
        x = series - series.mean()
        power_total = float(np.dot(x, x))
        if power_total <= 0.0:
            return 0.0
        spectrum = np.fft.rfft(x, n=2 * len(x))
        r = np.fft.irfft(spectrum * np.conj(spectrum))[:self.max_lag + 1]
        ac_peak = float(np.max(r[self.min_lag:self.max_lag + 1]) / r[0])
        psd = np.abs(np.fft.rfft(x)) ** 2
        nondc = psd[1:]
        peakiness = float(nondc.max() / nondc.sum()) if nondc.sum() > 0 else 0.0
        z = self.ac_weight * ac_peak + self.peak_weight * peakiness + self.bias
        return float(_sigmoid(z))


# ---------------------------------------------------------------------------
# the assembled pipeline
# ---------------------------------------------------------------------------

@dataclass
class MotionStats:
    """Where each second of the session stopped in the motion cascade."""

    total_seconds: int = 0
    prefiltered: int = 0
    classified: int = 0
    cold_start: int = 0
    errors: int = 0

    @property
    def filtering_ratio(self) -> float:
        if self.total_seconds == 0:
            return 0.0
        return self.prefiltered / self.total_seconds


@dataclass
class MotionResult:
    labels: list[ReactionLabel]
    events: list[ReactionEvent]
    stats: MotionStats
    diagnostics: list[str]


def run_motion_pipeline(
    session: Session,
    classifier: SequenceClassifier | None = None,
    config: PipelineConfig = PipelineConfig(),
) -> MotionResult:
    """Label every full second of a session as head_motion / non_reaction.

    The gyro stream is low-passed once (first-order, 5 Hz); each second is
    then labeled from the trailing 490-sample window ending at that second's
    boundary.  Seconds without a full window (the first six of a session)
    and seconds rejected by the movement prefilter are ``non_reaction``.
    Per-second stage errors downgrade to ``non_reaction`` with a diagnostic.
    """
    config.validate()
    session.validate()
    if classifier is None:
        classifier = HeuristicMotionClassifier()
    gyro_filtered = dsp.lowpass_first_order(
        session.gyro, config.imu_rate_hz, config.imu_lowpass_hz
    )
    window_samples = int(round(config.motion_window_s * config.imu_rate_hz))

    stats = MotionStats()
    diagnostics: list[str] = []
    labels: list[ReactionLabel] = []
    bounds = second_bounds(session)
    for second, (start, boundary) in enumerate(zip(bounds, bounds[1:])):
        stats.total_seconds += 1
        try:
            labels.append(_label_second(
                session, gyro_filtered, classifier, config,
                start, boundary, window_samples, stats,
            ))
        except Error as exc:
            stats.errors += 1
            diagnostics.append(f"second {second}: {exc}")
            labels.append(ReactionLabel.NON_REACTION)
    return MotionResult(
        labels=labels,
        events=merge_labels_to_events(labels),
        stats=stats,
        diagnostics=diagnostics,
    )


def _label_second(session, gyro_filtered, classifier, config,
                  start, boundary, window_samples, stats):
    """Label the second whose IMU samples are ``[start, boundary)``."""
    if config.enable_motion_filter and motion_prefilter(
        session.accel[start:boundary],
        config.motion_movement_low_g, config.motion_movement_high_g,
    ):
        stats.prefiltered += 1
        return ReactionLabel.NON_REACTION
    if boundary < window_samples:
        stats.cold_start += 1
        return ReactionLabel.NON_REACTION
    units = extract_motion_units(gyro_filtered[boundary - window_samples:boundary])
    p_head, _ = classifier.classify(units)
    stats.classified += 1
    if p_head > config.motion_decision_threshold:
        return ReactionLabel.HEAD_MOTION
    return ReactionLabel.NON_REACTION
