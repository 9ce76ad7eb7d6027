"""Rhythmic head-motion detection from the earbud gyroscope.

The pipeline mirrors the vocal cascade's shape: a movement prefilter that
always runs (its band tunes it), one :func:`dsp.movement_filter` pass, drops
seconds that are clearly still or exercise-level, then a sliding seven-second
gyro window (low-passed at 5 Hz) is summarized into 70 motion units x 18
statistical features and scored by a sequence classifier.  Each window labels
only its final second, so the output advances one second at a time; the
first six seconds of a session have no full window yet and stay
``non_reaction``.  Each second's last stage (``motion_filter``, ``cold_start``
or ``classifier``) and any failure land in a :class:`core.CascadeStats`.
Each block of windows summarizes its distinct 0.1 s units once, gathers every
window's 70 rows from that table and scores the stack in one call.

Two classifiers are provided: an LSTM runner that evaluates serialized
weights, and a self-contained heuristic scorer that detects the periodicity a
nodding or head-bobbing wearer imprints on the motion-unit energy series;
both score a whole stack as arrays.
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass

import numpy as np

from .core import (
    IMU_RATE_HZ,
    CascadeResult,
    CascadeStats,
    Stage,
    ConfigError,
    Error,
    ParameterError,
    PipelineConfig,
    ReactionLabel,
    Session,
    read_document,
    second_bounds,
    write_jsonl,
)
from . import dsp

#: Geometry of the classifier input: 7 s of 70 Hz gyro -> 70 units of 7 samples.
WINDOW_SAMPLES = 490
UNIT_SAMPLES = 7
NUM_UNITS = 70
NUM_FEATURES = 18

#: Corner frequency of the first-order low-pass applied to the gyro stream.
GYRO_LOWPASS_HZ = 5.0

#: Windows scored per ``classify_many`` call; bounds the scratch memory of a block.
MOTION_BLOCK = 128

#: Lag range, in units, that :class:`HeuristicMotionClassifier` searches for
#: the autocorrelation peak: periods of 0.2-1.2 s, which bracket 1-3 Hz bobbing.
_MIN_LAG = 2
_MAX_LAG = 12


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
    def random(cls, rng: np.random.Generator, input_size: int = NUM_FEATURES,
               hidden_size: int = 32, scale: float = 0.1) -> "LstmWeights":
        return cls(**{key: rng.normal(0.0, scale, shape) for key, shape
                      in _lstm_shapes(input_size, hidden_size).items()})

    @classmethod
    def load(cls, path: str | os.PathLike) -> "LstmWeights":
        # __post_init__ converts and checks every array
        return read_document(path, "LSTM weight",
                             lambda obj: cls(**{key: obj[key] for key in _LSTM_KEYS}))

    def save(self, path: str | os.PathLike) -> None:
        """One compact line, the layout of a JSON-lines record."""
        write_jsonl(path, [{key: getattr(self, key).tolist() for key in _LSTM_KEYS}])


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
        """The classifier of the weights at ``path``; weights not sized for
        the motion-unit features raise :class:`ConfigError` naming the file."""
        weights = LstmWeights.load(path)
        if weights.input_size != NUM_FEATURES:
            raise ConfigError(f"{path}: LSTM input size {weights.input_size} does not "
                              f"match the {NUM_FEATURES} motion-unit features")
        return cls(weights)

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
        score = float(self.classify_many(np.asarray(units, dtype=float)[None])[0])
        return score, 1.0 - score

    def classify_many(self, units: np.ndarray) -> np.ndarray:
        units = np.asarray(units, dtype=float)
        if units.ndim != 3 or units.shape[2] != NUM_FEATURES:
            raise ParameterError(f"expected (n, T, {NUM_FEATURES}) units, got {units.shape}")
        energy = np.linalg.norm(units[..., [4, 10, 16]], axis=2)  # per-axis std cols
        score = np.zeros(len(units))
        for length in (NUM_UNITS, 30):
            series = energy[:, -min(length, energy.shape[1]):]
            if series.shape[1] > _MAX_LAG + 1:
                new = self._score_series(series)
                score = np.where(new > score, new, score)  # Python max(score, new)
        return score

    @staticmethod
    def _score_series(series: np.ndarray) -> np.ndarray:
        """Score of each row of an ``(n, m)`` energy stack; rows whose centred
        power is not positive score 0, spectra summing to 0 have peakiness 0."""
        x = series - series.mean(axis=1, keepdims=True)
        valid = ~((x * x).sum(axis=1) <= 0.0)  # 0 or NaN exactly when a dot is
        spectrum = np.fft.rfft(x, n=2 * x.shape[1], axis=1)
        r = np.fft.irfft(spectrum * np.conj(spectrum), axis=1)[:, :_MAX_LAG + 1]
        ac_peak = np.zeros(len(x))
        np.divide(r[:, _MIN_LAG:].max(axis=1), r[:, 0], out=ac_peak, where=valid)
        nondc = (np.abs(np.fft.rfft(x, axis=1)) ** 2)[:, 1:]
        total = nondc.sum(axis=1)
        peakiness = np.zeros(len(x))
        np.divide(nondc.max(axis=1), total, out=peakiness, where=total > 0)
        return np.where(valid, _sigmoid(6.0 * ac_peak + 4.0 * peakiness - 5.0), 0.0)


# ---------------------------------------------------------------------------
# the assembled pipeline
# ---------------------------------------------------------------------------

def run_motion_pipeline(
    session: Session,
    classifier: SequenceClassifier | None = None,
    config: PipelineConfig = PipelineConfig(),
) -> CascadeResult:
    """Label every full second of a session as head_motion / non_reaction.

    Each second is labeled from the trailing 490-sample window of low-passed
    gyro (first-order, 5 Hz) ending at that second's boundary.  Seconds
    without a full window (the first six of a session) and seconds rejected
    by the movement prefilter are ``non_reaction``.  The filter is causal,
    so only the gyro up to the last window left is filtered, by
    :func:`dsp.lowpass_first_order_loop`, and none when no window is left;
    the windows are those of the whole filtered stream, bit for bit.  They
    are scored :data:`MOTION_BLOCK` at a time.  Only the seconds the
    prefilter leaves are visited, in Python.  A stage error downgrades its
    second to ``non_reaction`` and lands in ``stats.failures``; nothing
    smooths, so ``observed`` is ``labels``.
    """
    session.validate()
    if classifier is None:
        classifier = HeuristicMotionClassifier()

    bounds = np.asarray(second_bounds(session))
    settled, failures = dsp.movement_filter(
        session.accel, bounds, config.motion_movement_low_g, config.motion_movement_high_g)
    stages = [Stage.MOTION_FILTER] * len(settled)
    labels = [ReactionLabel.NON_REACTION] * len(settled)
    unsettled = np.flatnonzero(~settled)
    cold = bounds[unsettled + 1] < WINDOW_SAMPLES
    for second, is_cold in zip(unsettled.tolist(), cold.tolist()):
        stages[second] = Stage.COLD_START if is_cold else Stage.CLASSIFIER
    pending = unsettled[~cold]
    if len(pending):
        gyro_filtered = dsp.lowpass_first_order_loop(
            session.gyro[:bounds[pending[-1] + 1]], IMU_RATE_HZ, GYRO_LOWPASS_HZ)
    unit_starts = np.arange(-WINDOW_SAMPLES, 0, UNIT_SAMPLES)
    for first in range(0, len(pending), MOTION_BLOCK):
        block = pending[first:first + MOTION_BLOCK]
        ends = bounds[block + 1]
        # Windows overlap, so summarize each distinct unit of the block once.
        starts, where = np.unique(ends[:, None] + unit_starts, return_inverse=True)
        table = extract_motion_units(gyro_filtered[starts[:, None] + np.arange(UNIT_SAMPLES)])
        units = table.reshape(-1, NUM_FEATURES)[where.reshape(len(block), NUM_UNITS)]
        try:
            scores = classifier.classify_many(units)
        except Error:  # redo the block window by window; only failing seconds downgrade
            scores = [_p_head_or_error(classifier, window) for window in units]
        for second, p_head in zip(block.tolist(), scores, strict=True):
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
