"""Rhythmic head-motion detection from the earbud gyroscope.

The pipeline mirrors the vocal cascade's shape: a movement prefilter, one
:func:`dsp.movement_filter` pass over the session's level table, drops
seconds that are clearly still or exercise-level, then a sliding seven-second
gyro window (low-passed at 5 Hz) is summarized into 70 motion units x 18
statistical features and scored by a sequence classifier.  Each window labels
only its final second, so the output advances one second at a time; the
first six seconds of a session have no full window yet and stay
``non_reaction``.  Each second's last stage (``motion_filter``, ``cold_start``
or ``classifier``) and any failure land in a :class:`core.CascadeStats`.

Two classifiers are provided: an LSTM runner that evaluates serialized
weights, and a self-contained heuristic scorer that detects the periodicity a
nodding or head-bobbing wearer imprints on the motion-unit energy series.
"""

from __future__ import annotations

import functools
import json
import os
from dataclasses import dataclass

import numpy as np

from .core import (
    IMU_RATE_HZ,
    CascadeResult,
    CascadeStats,
    Stage,
    Error,
    ParameterError,
    ParseError,
    PipelineConfig,
    ReactionLabel,
    Session,
    read_json,
    second_bounds,
)
from . import dsp

#: Geometry of the classifier input: 7 s of 70 Hz gyro -> 70 units of 7 samples.
WINDOW_SAMPLES = 490
UNIT_SAMPLES = 7
NUM_UNITS = 70
NUM_FEATURES = 18

#: Windows scored per ``classify_many`` call; bounds the scratch memory of a block.
MOTION_BLOCK = 128

#: Lag range, in units, that :class:`HeuristicMotionClassifier` searches for
#: the autocorrelation peak: periods of 0.2-1.2 s, which bracket 1-3 Hz bobbing.
_MIN_LAG = 2
_MAX_LAG = 12


def motion_prefilter(
    accel: np.ndarray, low_g: float = PipelineConfig.motion_movement_low_g,
    high_g: float = PipelineConfig.motion_movement_high_g,
) -> bool:
    """True when movement level rules the second out (closed pass interval).

    Below ``low_g`` the wearer is too still to be moving along with music;
    above ``high_g`` the motion is exercise-scale rather than a listening
    reaction.  Boundary values pass.  Per slice; :func:`run_motion_pipeline`
    settles every second at once with :func:`dsp.movement_filter`.
    """
    return not low_g <= dsp.movement_level(accel) <= high_g


def extract_motion_units(gyro: np.ndarray) -> np.ndarray:
    """Summarize a (490, 3) gyro window into the (70, 18) unit-feature matrix.

    Each unit covers 7 consecutive samples (0.1 s).  Features are laid out
    axis-major -- for each gyro axis x, y, z in turn: max, min, mean, range,
    standard deviation (population), RMS.  A stack of windows
    ``(..., 490, 3)`` gives ``(..., 70, 18)``.
    """
    gyro = np.asarray(gyro, dtype=float)
    if (gyro.ndim < 2 or gyro.shape[-1] != 3 or gyro.shape[-2] < UNIT_SAMPLES
            or gyro.shape[-2] % UNIT_SAMPLES):
        raise ParameterError(
            f"window must be (k*{UNIT_SAMPLES}, 3), got {gyro.shape}"
        )
    num_units = gyro.shape[-2] // UNIT_SAMPLES
    units = gyro.reshape(*gyro.shape[:-2], num_units, UNIT_SAMPLES, 3)
    top = units.max(axis=-2)
    bottom = units.min(axis=-2)
    features = (top, bottom, units.mean(axis=-2), top - bottom, units.std(axis=-2),
                np.sqrt(np.mean(np.square(units), axis=-2)))
    return np.stack(features, axis=-1).reshape(*gyro.shape[:-2], num_units, NUM_FEATURES)


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

    def classify_many(self, units: np.ndarray) -> np.ndarray:
        """``p_head`` of every sequence in a ``(n, 70, 18)`` stack."""
        return np.array([self.classify(sequence)[0] for sequence in units], dtype=float)


def _lstm_shapes(inputs: int, hidden: int) -> dict[str, tuple[int, ...]]:
    """Shape of every LSTM parameter, in ``LstmWeights`` field order.

    ``LstmWeights.random`` draws in this order, so it must not change.
    """
    return {
        "Wi": (inputs, hidden), "Wf": (inputs, hidden),
        "Wo": (inputs, hidden), "Wc": (inputs, hidden),
        "Ui": (hidden, hidden), "Uf": (hidden, hidden),
        "Uo": (hidden, hidden), "Uc": (hidden, hidden),
        "bi": (hidden,), "bf": (hidden,), "bo": (hidden,), "bc": (hidden,),
        "Wd": (hidden, 2), "bd": (2,),
    }


_LSTM_KEYS = tuple(_lstm_shapes(0, 0))


@dataclass(frozen=True, eq=False)
class LstmWeights:
    """Weights of a single-layer LSTM plus ReLU/dense/softmax head.

    Input kernels ``W*`` are (input, hidden), recurrent kernels ``U*`` are
    (hidden, hidden), the dense head ``Wd`` is (hidden, 2).  Serialized as a
    JSON object of row-major nested lists under the same key names.  The
    arrays must not be changed in place: :attr:`fused` is derived once.
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
        for key in _LSTM_KEYS:
            object.__setattr__(self, key, np.asarray(getattr(self, key), dtype=float))
        hidden = self.bi.shape[0] if self.bi.ndim == 1 else 0
        inputs = self.Wi.shape[0] if self.Wi.ndim == 2 else 0
        if hidden == 0 or inputs == 0:
            raise ParameterError("weight shapes are malformed")
        for key, shape in _lstm_shapes(inputs, hidden).items():
            arr = getattr(self, key)
            if arr.shape != shape:
                raise ParameterError(f"{key} must have shape {shape}, got {arr.shape}")
            if not np.isfinite(arr).all():
                raise ParameterError(f"{key} contains non-finite values")

    @functools.cached_property
    def fused(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Gates i, f, o, c side by side: (input, 4h), (hidden, 4h) and (4h,)."""
        return (np.hstack([self.Wi, self.Wf, self.Wo, self.Wc]),
                np.hstack([self.Ui, self.Uf, self.Uo, self.Uc]),
                np.concatenate([self.bi, self.bf, self.bo, self.bc]))

    @property
    def hidden_size(self) -> int:
        return self.bi.shape[0]

    @property
    def input_size(self) -> int:
        return self.Wi.shape[0]

    @classmethod
    def zeros(cls) -> "LstmWeights":
        return cls(**{key: np.zeros(shape) for key, shape
                      in _lstm_shapes(NUM_FEATURES, 32).items()})

    @classmethod
    def random(cls, rng: np.random.Generator, input_size: int = NUM_FEATURES,
               hidden_size: int = 32, scale: float = 0.1) -> "LstmWeights":
        return cls(**{key: rng.normal(0.0, scale, shape) for key, shape
                      in _lstm_shapes(input_size, hidden_size).items()})

    def to_json(self) -> str:
        obj = {key: getattr(self, key).tolist() for key in _LSTM_KEYS}
        return json.dumps(obj, sort_keys=True) + "\n"

    @classmethod
    def load(cls, path: str | os.PathLike) -> "LstmWeights":
        obj = read_json(path)
        try:
            kwargs = {key: np.asarray(obj[key], dtype=float)
                      for key in _LSTM_KEYS}
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"{path}: bad LSTM weight document: {exc}") from None
        return cls(**kwargs)

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
    exactly (0.5, 0.5).  A ``(T, F)`` sequence gives ``(2,)``; a stack
    ``(n, T, F)`` is stepped together, all four gates in one product per
    step, and gives ``(n, 2)``.
    """
    sequence = np.asarray(sequence, dtype=float)
    if sequence.ndim not in (2, 3) or sequence.shape[-1] != weights.input_size:
        raise ParameterError(
            f"sequence must be ([n,] T, {weights.input_size}), got {sequence.shape}"
        )
    if sequence.shape[-2] == 0:
        raise ParameterError("sequence must be non-empty")
    w_in, w_rec, bias = weights.fused
    hidden = weights.hidden_size
    batch = sequence.reshape(-1, *sequence.shape[-2:])
    h = np.zeros((len(batch), hidden))
    c = np.zeros_like(h)
    for x in np.swapaxes(batch, 0, 1):  # step t of every sequence
        z = x @ w_in + h @ w_rec + bias
        gates = _sigmoid(z[:, :3 * hidden])
        c = gates[:, hidden:2 * hidden] * c + gates[:, :hidden] * np.tanh(z[:, 3 * hidden:])
        h = gates[:, 2 * hidden:] * np.tanh(c)
    logits = np.maximum(h, 0.0) @ weights.Wd + weights.bd
    logits -= logits.max(axis=1, keepdims=True)
    exp = np.exp(logits)
    return (exp / exp.sum(axis=1, keepdims=True)).reshape(*sequence.shape[:-2], 2)


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

    def classify_many(self, units: np.ndarray) -> np.ndarray:
        return lstm_forward(self.weights, units)[:, 0]


class HeuristicMotionClassifier(SequenceClassifier):
    """Training-free scorer for rhythmic head motion.

    Looks at the per-unit movement energy (the L2 norm of the three axis
    standard deviations, one value per 0.1 s).  A wearer bobbing along at
    1-3 Hz makes that series strongly periodic, so the score combines a
    normalized autocorrelation peak in the matching lag range with the
    spectral peakiness of the series, each computed over the full window and
    a trailing sub-window (to react quickly at span onsets), through a
    logistic squash.

    The calibration is fixed: ``sigmoid(6 * ac_peak + 4 * peakiness - 5)``,
    with the autocorrelation peak taken over lags of 2-12 units (0.2-1.2 s)
    and the best score of the full 70-unit window and its trailing 30 units.
    """

    def classify(self, units: np.ndarray) -> tuple[float, float]:
        units = np.asarray(units, dtype=float)
        if units.ndim != 2 or units.shape[1] != NUM_FEATURES:
            raise ParameterError(f"expected (n, {NUM_FEATURES}) units, got {units.shape}")
        energy = np.linalg.norm(units[:, [4, 10, 16]], axis=1)  # per-axis std cols
        score = 0.0
        for length in (NUM_UNITS, 30):
            series = energy[-min(length, len(energy)):]
            if len(series) <= _MAX_LAG + 1:
                continue
            score = max(score, self._score_series(series))
        return score, 1.0 - score

    def _score_series(self, series: np.ndarray) -> float:
        x = series - series.mean()
        power_total = float(np.dot(x, x))
        if power_total <= 0.0:
            return 0.0
        spectrum = np.fft.rfft(x, n=2 * len(x))
        r = np.fft.irfft(spectrum * np.conj(spectrum))[:_MAX_LAG + 1]
        ac_peak = float(np.max(r[_MIN_LAG:_MAX_LAG + 1]) / r[0])
        psd = np.abs(np.fft.rfft(x)) ** 2
        nondc = psd[1:]
        peakiness = float(nondc.max() / nondc.sum()) if nondc.sum() > 0 else 0.0
        z = 6.0 * ac_peak + 4.0 * peakiness - 5.0
        return float(_sigmoid(z))


# ---------------------------------------------------------------------------
# the assembled pipeline
# ---------------------------------------------------------------------------

def run_motion_pipeline(
    session: Session,
    classifier: SequenceClassifier | None = None,
    config: PipelineConfig = PipelineConfig(),
) -> CascadeResult:
    """Label every full second of a session as head_motion / non_reaction.

    The gyro stream is low-passed once (first-order, 5 Hz); each second is
    then labeled from the trailing 490-sample window ending at that second's
    boundary.  Seconds without a full window (the first six of a session)
    and seconds rejected by the movement prefilter are ``non_reaction``.
    The windows left are scored :data:`MOTION_BLOCK` at a time.  A stage
    error downgrades its second to ``non_reaction`` and lands in
    ``stats.failures``; nothing smooths, so ``observed`` is ``labels``.
    """
    session.validate()
    if classifier is None:
        classifier = HeuristicMotionClassifier()
    gyro_filtered = dsp.lowpass_first_order(
        session.gyro, IMU_RATE_HZ, config.imu_lowpass_hz
    )

    bounds = second_bounds(session)
    settled, failures = [False] * (len(bounds) - 1), {}
    if config.enable_motion_filter:
        settled, failures = dsp.movement_filter(
            session.accel, bounds, config.motion_movement_low_g, config.motion_movement_high_g)
    stages = [Stage.MOTION_FILTER if out else
              Stage.CLASSIFIER if boundary >= WINDOW_SAMPLES else Stage.COLD_START
              for out, boundary in zip(settled, bounds[1:])]

    labels = [ReactionLabel.NON_REACTION] * len(stages)
    pending = [second for second, stage in enumerate(stages) if stage == Stage.CLASSIFIER]
    offsets = np.arange(-WINDOW_SAMPLES, 0)
    for first in range(0, len(pending), MOTION_BLOCK):
        block = pending[first:first + MOTION_BLOCK]
        ends = np.array([bounds[second + 1] for second in block])
        units = extract_motion_units(gyro_filtered[ends[:, None] + offsets])
        try:
            scores = classifier.classify_many(units)
        except Error:  # redo the block window by window; only failing seconds downgrade
            scores = [_p_head_or_error(classifier, window) for window in units]
        for second, p_head in zip(block, scores, strict=True):
            if isinstance(p_head, Error):
                failures[second] = p_head
            elif p_head > config.motion_decision_threshold:
                labels[second] = ReactionLabel.HEAD_MOTION
    return CascadeResult(labels, labels, CascadeStats(stages, failures))


def _p_head_or_error(classifier, units):
    try:
        return classifier.classify(units)[0]
    except Error as exc:
        return exc
