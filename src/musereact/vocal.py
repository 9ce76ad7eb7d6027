"""Vocal-reaction detection: singing/humming and whistling, second by second.

The pipeline runs a cascade per one-second segment, cheapest stage first:

1. movement prefilter  -- wearers who sing or whistle also move a little;
   a movement level outside ``[vocal_movement_low_g, vocal_movement_high_g]``
   settles the segment as ``non_reaction`` without touching the audio.
2. sound prefilter     -- segments quieter than ``sound_db_threshold``
   cannot contain an audible vocal reaction.
3. sound-event classifier on a 96x64 log-mel patch (any
   :class:`SoundEventClassifier`; deployments replay per-segment score
   files, tests plug in synthetic classifiers).
4. label mapping with rank relaxation -- each second's label is final, or
   a vocal candidate deferred to correction: a confident top-1 maps
   directly (speech/music defers as singing); a low-margin result defers
   the first vocal class among the top ``relax_top_k`` ranks.
5. music-aware correction -- a deferred candidate stands only if the
   wearer's pitch contour warps onto the reference melody around the
   current song position (DTW over chroma, at most ``dtw_threshold``).
6. HMM smoothing -- a Viterbi decode over the trailing ``smoothing_window``
   observations removes isolated flips.

``run_vocal_pipeline`` settles stage 1 in one pass over the level table, then
walks the rest from stage 2, recording in a :class:`core.CascadeStats` the last
stage each second entered and each failure; each stage is also exposed alone.
"""

from __future__ import annotations

import io
import json
import math
import os
from dataclasses import dataclass

import numpy as np
import scipy.fft

from .core import (
    CLASSIFIER_RATE_HZ,
    CascadeResult,
    CascadeStats,
    ConfigError,
    Error,
    InsufficientDataError,
    ParameterError,
    ParseError,
    PipelineConfig,
    PipelineLabel,
    ReactionLabel,
    Session,
    Stage,
    VOCAL_STATES,
    read_csv_rows,
    read_json,
    read_text,
    second_bounds,
    segment_session,  # unused here; benchmarks/layers.py traces vocal.segment_session
)
from . import dsp
from .musicinfo import MusicInfoStore, NoteTrack, note_window


# ---------------------------------------------------------------------------
# classifier scores
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ScoreVector:
    """Class names with a probability distribution over them."""

    class_names: tuple[str, ...]
    scores: np.ndarray

    def __post_init__(self):
        names = tuple(self.class_names)
        scores = np.asarray(self.scores, dtype=float)
        if len(names) != len(scores) or scores.ndim != 1:
            raise ParameterError("class_names and scores must be parallel 1-D")
        if len(names) < 2:
            raise ParameterError("a score vector needs at least two classes")
        if len(set(names)) != len(names):
            raise ParameterError("class names must be unique")
        if not np.isfinite(scores).all() or (scores < -1e-9).any():
            raise ParameterError("scores must be finite and non-negative")
        if abs(float(scores.sum()) - 1.0) > 1e-6:
            raise ParameterError(f"scores must sum to 1, got {scores.sum():.8f}")
        object.__setattr__(self, "class_names", names)
        object.__setattr__(self, "scores", scores)

    def ranked(self) -> np.ndarray:
        """Class indices by descending score; ties keep file order."""
        return np.argsort(-self.scores, kind="stable")

    def margin(self) -> float:
        """Difference between the top two scores (the *least margin*)."""
        order = self.ranked()
        return float(self.scores[order[0]] - self.scores[order[1]])

    def top(self, k: int = 1) -> list[tuple[str, float]]:
        order = self.ranked()[:k]
        return [(self.class_names[i], float(self.scores[i])) for i in order]


class SoundEventClassifier:
    """Interface for per-segment sound-event classification.

    ``classify`` must be deterministic for identical input.  Classifiers
    that replay recorded scores set ``needs_patch = False`` so the pipeline
    can skip the log-mel front end entirely.
    """

    needs_patch: bool = True

    def classify(self, patch: np.ndarray | None, index: int) -> ScoreVector:
        raise NotImplementedError


class ScoreFileClassifier(SoundEventClassifier):
    """Replays per-segment scores recorded in a ``scores.jsonl`` file.

    Each line is ``{"index": i, "classes": [...], "scores": [...]}`` with at
    least five entries.  Scores are renormalized on load so that truncated
    top-k dumps are accepted.
    """

    needs_patch = False

    def __init__(self, scores_by_index: dict[int, ScoreVector]):
        self._scores = dict(scores_by_index)

    @classmethod
    def from_file(cls, path: str | os.PathLike) -> "ScoreFileClassifier":
        return cls(load_score_file(path))

    def classify(self, patch, index: int) -> ScoreVector:
        try:
            return self._scores[index]
        except KeyError:
            raise InsufficientDataError(f"no recorded scores for segment {index}") from None


def load_score_file(path: str | os.PathLike) -> dict[int, ScoreVector]:
    out: dict[int, ScoreVector] = {}
    lines = io.StringIO(read_text(path), newline=None)
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:  # ScoreVector's own ParameterError is a ValueError too
            obj = json.loads(line)
            index = obj["index"]
            if type(index) is not int:  # not a float, bool or string
                raise ValueError("index must be an integer")
            if index < 0:
                raise ValueError("index must be >= 0")
            names = [str(n) for n in obj["classes"]]
            raw = np.asarray(obj["scores"], dtype=float)
            if raw.ndim != 1 or len(names) < 5 or len(raw) != len(names):
                raise ValueError("need >= 5 parallel class/score entries")
            if not np.isfinite(raw).all() or (raw < 0).any():
                raise ValueError("scores must be finite and >= 0")
            with np.errstate(over="ignore"):
                total = raw.sum()
            if not 0 < total < math.inf:
                raise ValueError(f"scores must have a finite sum > 0, got {total:g}")
            vector = ScoreVector(tuple(names), raw / total)
        except (KeyError, TypeError, ValueError, OverflowError, RecursionError) as exc:
            raise ParseError(f"{path}: line {lineno}: {exc}") from None
        if index in out:
            raise ParseError(f"{path}: line {lineno}: duplicate index {index}")
        out[index] = vector
    return out


def save_score_file(path: str | os.PathLike, scores_by_index: dict[int, ScoreVector]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for index in sorted(scores_by_index):
            vector = scores_by_index[index]
            fh.write(json.dumps(
                {"index": index,
                 "classes": list(vector.class_names),
                 "scores": [float(s) for s in vector.scores]},
                sort_keys=True,
            ) + "\n")


# ---------------------------------------------------------------------------
# pitch tracking
# ---------------------------------------------------------------------------

PITCH_HOP_S = 0.1
PITCH_FRAMES_PER_SEGMENT = 10
#: f0 range :class:`AutocorrelationPitchTracker` searches: sung and whistled pitch.
PITCH_MIN_HZ = 80.0
PITCH_MAX_HZ = 1000.0
_PITCH_HEADER = ["t", "f0", "confidence"]


class PitchTracker:
    """Estimates (f0, confidence) at 0.1 s steps across a one-second segment."""

    def track(
        self, audio: np.ndarray | None, sample_rate: int, t_start: float
    ) -> tuple[np.ndarray, np.ndarray]:
        """Return parallel ``(f0s, confidences)`` arrays of length 10 covering
        ``[t_start, t_start + 1)`` in session time."""
        raise NotImplementedError


class FilePitchTracker(PitchTracker):
    """Replays a recorded ``pitch.csv`` (``t,f0,confidence`` on a 0.1 s grid)."""

    def __init__(self, t0: float, f0s: np.ndarray, confidences: np.ndarray):
        self._t0 = float(t0)
        self._f0s = np.asarray(f0s, dtype=float)
        self._confs = np.asarray(confidences, dtype=float)
        if self._f0s.shape != self._confs.shape or self._f0s.ndim != 1:
            raise ParameterError("f0 and confidence arrays must be parallel 1-D")

    @classmethod
    def from_file(cls, path: str | os.PathLike) -> "FilePitchTracker":
        times, f0s, confs = [], [], []
        for lineno, row in read_csv_rows(path, _PITCH_HEADER):
            try:
                t, f0, conf = (float(v) for v in row)
            except ValueError:
                raise ParseError(f"{path}: line {lineno}: non-numeric field") from None
            if not all(map(math.isfinite, (t, f0, conf))):
                raise ParseError(f"{path}: line {lineno}: non-finite field")
            if times and abs(t - (times[0] + len(times) * PITCH_HOP_S)) > 1e-6:
                raise ParseError(
                    f"{path}: line {lineno}: time {t:g} breaks the 0.1 s grid"
                )
            times.append(t)
            f0s.append(f0)
            confs.append(conf)
        if not times:
            raise ParseError(f"{path}: no pitch rows")
        return cls(times[0], np.array(f0s), np.array(confs))

    def track(self, audio, sample_rate, t_start: float):
        first = int(round((t_start - self._t0) / PITCH_HOP_S))
        last = first + PITCH_FRAMES_PER_SEGMENT
        if first < 0 or last > len(self._f0s):
            raise InsufficientDataError(
                f"recorded pitch does not cover [{t_start:g}, {t_start + 1:g}) s"
            )
        return self._f0s[first:last].copy(), self._confs[first:last].copy()


def save_pitch_file(path: str | os.PathLike, f0s: np.ndarray, confs: np.ndarray) -> None:
    """Write the ``t,f0,confidence`` CSV that :meth:`FilePitchTracker.from_file`
    replays, one row per 0.1 s from t = 0."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(_PITCH_HEADER) + "\n")
        for k in range(len(f0s)):
            fh.write(f"{k * PITCH_HOP_S:.1f},{f0s[k]:.6g},{confs[k]:.6g}\n")


class AutocorrelationPitchTracker(PitchTracker):
    """Reference tracker: FFT autocorrelation peak per 0.1 s frame.

    Confidence is the normalized autocorrelation at the best lag, which is
    near 1 for clean periodic signals and near 0 for noise or silence.
    """

    def track(self, audio, sample_rate, t_start: float = 0.0):
        if audio is None:
            raise InsufficientDataError("pitch tracking needs segment audio")
        audio = np.asarray(audio, dtype=float)
        frame = int(round(PITCH_HOP_S * sample_rate))
        if len(audio) < frame * PITCH_FRAMES_PER_SEGMENT:
            raise InsufficientDataError(
                f"need {frame * PITCH_FRAMES_PER_SEGMENT} samples, got {len(audio)}"
            )
        lag_min = max(1, int(round(sample_rate / PITCH_MAX_HZ)))
        lag_max = min(frame - 1, int(round(sample_rate / PITCH_MIN_HZ)))
        if lag_min >= lag_max:
            raise ParameterError("pitch range too narrow for this sample rate")
        frames = audio[:frame * PITCH_FRAMES_PER_SEGMENT].reshape(-1, frame)
        frames = frames - frames.mean(axis=1, keepdims=True)
        # A circular autocorrelation of length n equals the linear one at
        # every lag below n - frame + 1, so this n is exact up to lag_max.
        n = scipy.fft.next_fast_len(frame + lag_max, real=True)
        spectrum = np.fft.rfft(frames, n=n, axis=1)
        r = np.fft.irfft(spectrum * np.conj(spectrum), n=n, axis=1)[:, :lag_max + 1]
        voiced = r[:, 0] > 0  # a silent frame keeps f0 0, confidence 0
        lags = lag_min + np.argmax(r[:, lag_min:], axis=1)
        f0s = np.where(voiced, sample_rate / lags, 0.0)
        confs = np.zeros(len(frames))
        np.divide(r[np.arange(len(frames)), lags], r[:, 0], out=confs, where=voiced)
        return f0s, np.maximum(confs, 0.0)


# ---------------------------------------------------------------------------
# prefilters
# ---------------------------------------------------------------------------

def vocal_motion_prefilter(
    accel: np.ndarray, low_g: float = PipelineConfig.vocal_movement_low_g,
    high_g: float = PipelineConfig.vocal_movement_high_g,
) -> bool:
    """True when the movement level of one second rules out a vocal reaction.

    Passing (False) requires the level to sit inside ``[low_g, high_g]``,
    boundaries included: too still means no one is singing, too violent
    means exercise-scale motion.  Per slice; :func:`run_vocal_pipeline` settles
    every second at once with :func:`dsp.movement_filter`.
    """
    return not low_g <= dsp.movement_level(accel) <= high_g


def vocal_sound_prefilter(
    audio: np.ndarray,
    threshold_db: float = PipelineConfig.sound_db_threshold,
    calibration_db: float = PipelineConfig.db_calibration,
) -> bool:
    """True when the segment is too quiet to contain an audible reaction."""
    if audio is None:
        raise InsufficientDataError("sound prefilter needs segment audio")
    return dsp.sound_level_db(audio, calibration_db) < threshold_db


# ---------------------------------------------------------------------------
# label mapping and rank relaxation
# ---------------------------------------------------------------------------

def _scan_ranks(scores: ScoreVector, config: PipelineConfig, depth: int,
                deferred: bool) -> PipelineLabel:
    """The first vocal class among the top ``depth`` ranks, deferred when
    ``deferred`` or when it is speech/music (a singing candidate), else a
    final ``non_reaction``; exact because the class lists are disjoint."""
    singing, whistling = ReactionLabel.SINGING_HUMMING, ReactionLabel.WHISTLING
    classes = {}
    for names, label, defer in ((config.singing_classes, singing, deferred),
                                (config.whistling_classes, whistling, deferred),
                                (config.ambiguous_classes, singing, True)):
        classes.update((n.lower(), (label, defer)) for n in names)
    for idx in scores.ranked()[:depth]:
        found = classes.get(scores.class_names[idx].lower())
        if found is not None:
            return PipelineLabel(*found)
    return PipelineLabel(ReactionLabel.NON_REACTION)


def map_labels(scores: ScoreVector, config: PipelineConfig = PipelineConfig()) -> PipelineLabel:
    """Map the top-1 class to a pipeline label.

    Singing-type names give a final ``singing_humming``, whistling-type
    names a final ``whistling``.  Speech/music gives a ``singing_humming``
    candidate deferred to correction (the wearer may be singing along -- or
    somebody nearby is talking).  Anything else is a final
    ``non_reaction``.  Matching is case-insensitive.
    """
    return _scan_ranks(scores, config, 1, deferred=False)


def relax_rank(scores: ScoreVector, config: PipelineConfig = PipelineConfig()) -> PipelineLabel:
    """Label mapping that rescues low-margin classifications.

    When the top-1 score leads its runner-up by at least
    ``config.margin_threshold`` the plain mapping applies.  Otherwise the
    ranks 1..``relax_top_k`` are scanned for the first vocal-like class,
    whose reaction is deferred to correction as a candidate; if none
    appears the second is a final ``non_reaction``.
    """
    if scores.margin() >= config.margin_threshold:
        return map_labels(scores, config)
    return _scan_ranks(scores, config, config.relax_top_k, deferred=True)


# ---------------------------------------------------------------------------
# music-aware correction
# ---------------------------------------------------------------------------

def correct_with_music(
    label: PipelineLabel,
    audio: np.ndarray | None,
    sample_rate: int,
    note_track: NoteTrack,
    pitch_tracker: PitchTracker,
    t_start_session: float,
    t_start_song: float,
    config: PipelineConfig = PipelineConfig(),
) -> ReactionLabel:
    """Settle a deferred label by comparing the wearer's pitch to the melody.

    The tracker's chroma contour for the segment is DTW-aligned against the
    reference melody around the song position ``[t_start_song,
    t_start_song + 1)``, widened by ``config.note_window_margin_s``.  A
    distance above ``config.dtw_threshold`` rejects the candidate as
    ``non_reaction``; otherwise the candidate reaction is the label.
    """
    if not label.deferred:
        raise ParameterError("correction applies to deferred labels only")
    f0s, confs = pitch_tracker.track(audio, sample_rate, t_start_session)
    observed = dsp.chroma_sequence(f0s, confs, config.pitch_conf_threshold)
    reference = note_window(note_track, t_start_song, t_start_song + 1.0,
                            config.note_window_margin_s)
    distance = dsp.dtw_distance(observed, reference)
    if distance > config.dtw_threshold:
        return ReactionLabel.NON_REACTION
    return label.label


# ---------------------------------------------------------------------------
# HMM smoothing
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class HmmParams:
    """Discrete HMM over the vocal labels (observations share the alphabet)."""

    states: tuple[ReactionLabel, ...]
    initial: np.ndarray      # (S,)
    transition: np.ndarray   # (S, S) row: from-state
    emission: np.ndarray     # (S, S) row: true state, column: observed label

    def __post_init__(self):
        states = tuple(ReactionLabel(s) for s in self.states)
        initial = np.asarray(self.initial, dtype=float)
        transition = np.asarray(self.transition, dtype=float)
        emission = np.asarray(self.emission, dtype=float)
        s = len(states)
        if s < 2 or len(set(states)) != s:
            raise ParameterError("need >= 2 distinct states")
        if initial.shape != (s,) or transition.shape != (s, s) or emission.shape != (s, s):
            raise ParameterError("parameter shapes must match the state count")
        for name, rows in (("initial", initial[None, :]),
                           ("transition", transition), ("emission", emission)):
            if not np.isfinite(rows).all() or (rows < 0).any():
                raise ParameterError(f"{name} must be finite and non-negative")
            if np.abs(rows.sum(axis=1) - 1.0).max() > 1e-9:
                raise ParameterError(f"{name} rows must sum to 1")
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "initial", initial)
        object.__setattr__(self, "transition", transition)
        object.__setattr__(self, "emission", emission)

    def state_index(self, label: ReactionLabel) -> int:
        try:
            return self.states.index(label)
        except ValueError:
            raise ParameterError(f"label {label} is not an HMM state") from None

    def to_json(self) -> str:
        return json.dumps({
            "states": [s.value for s in self.states],
            "initial": self.initial.tolist(),
            "transition": self.transition.tolist(),
            "emission": self.emission.tolist(),
        }, sort_keys=True, indent=2) + "\n"

    def save(self, path: str | os.PathLike) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json())

    @classmethod
    def load(cls, path: str | os.PathLike) -> "HmmParams":
        obj = read_json(path)
        try:  # __post_init__ converts and checks every field
            return cls(states=obj["states"], initial=obj["initial"],
                       transition=obj["transition"], emission=obj["emission"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"{path}: bad HMM document: {exc}") from None


def train_hmm(
    sequences: list[tuple[list[ReactionLabel], list[ReactionLabel]]],
    laplace: float = 1.0,
    states: tuple[ReactionLabel, ...] = VOCAL_STATES,
) -> HmmParams:
    """Count-based supervised HMM estimation with add-``laplace`` smoothing.

    ``sequences`` holds ``(true_labels, observed_labels)`` pairs of equal
    length.  Initial probabilities come from first true labels, transitions
    from consecutive true-label pairs, and emissions from (true, observed)
    co-occurrence; every count table gets ``laplace`` added before row
    normalization so unseen events keep non-zero probability.
    """
    if not sequences:
        raise ParameterError("need at least one training sequence")
    if laplace <= 0:
        raise ParameterError("laplace must be > 0")
    index = {label: i for i, label in enumerate(states)}
    s = len(states)
    init = np.zeros(s)
    trans = np.zeros((s, s))
    emis = np.zeros((s, s))
    for true_seq, obs_seq in sequences:
        if len(true_seq) != len(obs_seq) or not true_seq:
            raise ParameterError("each pair needs equal-length non-empty sequences")
        try:
            t_idx = [index[label] for label in true_seq]
            o_idx = [index[label] for label in obs_seq]
        except KeyError as exc:
            raise ParameterError(f"label {exc.args[0]} is not an HMM state") from None
        init[t_idx[0]] += 1
        for a, b in zip(t_idx, t_idx[1:]):
            trans[a, b] += 1
        for a, o in zip(t_idx, o_idx):
            emis[a, o] += 1
    init += laplace
    trans += laplace
    emis += laplace
    return HmmParams(
        states=tuple(states),
        initial=init / init.sum(),
        transition=trans / trans.sum(axis=1, keepdims=True),
        emission=emis / emis.sum(axis=1, keepdims=True),
    )


def viterbi_path(
    hmm: HmmParams, observed: list[ReactionLabel]
) -> tuple[list[ReactionLabel], float]:
    """Most likely state path for an observed label window (log domain).

    Returns the path and its joint log probability.  Probability ties pick
    the earlier state in ``hmm.states`` order at every step.
    """
    if not observed:
        raise ParameterError("need at least one observation")
    obs = [hmm.state_index(label) for label in observed]
    with np.errstate(divide="ignore"):
        log_init = np.log(hmm.initial)
        log_trans = np.log(hmm.transition)
        log_emis = np.log(hmm.emission)
    n, s = len(obs), len(hmm.states)
    delta = log_init + log_emis[:, obs[0]]
    pointers = np.zeros((n, s), dtype=int)
    for t in range(1, n):
        candidates = delta[:, None] + log_trans       # (from, to)
        best_from = np.argmax(candidates, axis=0)     # first max = lowest index
        delta = candidates[best_from, np.arange(s)] + log_emis[:, obs[t]]
        pointers[t] = best_from
    last = int(np.argmax(delta))
    logprob = float(delta[last])
    path_idx = [last]
    for t in range(n - 1, 0, -1):
        path_idx.append(int(pointers[t, path_idx[-1]]))
    path_idx.reverse()
    return [hmm.states[i] for i in path_idx], logprob


def smooth(window: list[ReactionLabel], hmm: HmmParams) -> ReactionLabel:
    """Smoothed label for the newest second, given the trailing observations.

    Decodes the window with Viterbi and returns the state at the final
    position, so a single flip surrounded by agreeing neighbours is pulled
    back to its context.
    """
    path, _ = viterbi_path(hmm, window)
    return path[-1]


# ---------------------------------------------------------------------------
# the assembled pipeline
# ---------------------------------------------------------------------------

def run_vocal_pipeline(
    session: Session,
    classifier: SoundEventClassifier,
    pitch_tracker: PitchTracker | None = None,
    note_store: MusicInfoStore | None = None,
    hmm: HmmParams | None = None,
    config: PipelineConfig = PipelineConfig(),
) -> CascadeResult:
    """Run the full vocal cascade over a session, one label per second.

    Correction (stage 5) needs both a pitch tracker and a note track for
    ``session.song_id``; enabling it without either raises
    :class:`ConfigError` up front.  Smoothing runs only when a trained
    ``hmm`` is supplied, and one lacking a vocal label raises :class:`ConfigError`
    up front.  A stage error inside one second downgrades it to ``non_reaction``
    and lands in ``stats.failures`` instead of aborting the session.
    """
    if config.enable_correction:
        if pitch_tracker is None:
            raise ConfigError("correction is enabled but no pitch tracker was given")
        if note_store is None:
            raise ConfigError("correction is enabled but no note store was given")
        note_track = note_store.get(session.song_id)  # ConfigError when missing
    else:
        note_track = None
    smoothing = config.enable_smoothing and hmm is not None
    missing = [label for label in VOCAL_STATES if smoothing and label not in hmm.states]
    if missing:
        raise ConfigError(f"label {missing[0]} is not an HMM state")

    session.validate()
    bounds = second_bounds(session)
    rate = session.audio_rate
    total = len(bounds) - 1
    stages = [Stage.MOTION_FILTER] * total
    settled, failures = np.zeros(total, dtype=bool), {}
    if config.enable_motion_filter:
        settled, failures = dsp.movement_filter(
            session.accel, bounds, config.vocal_movement_low_g, config.vocal_movement_high_g)

    def settle(i):
        """Second ``i`` through stages 2-5, entering each in ``stages[i]``."""
        audio = None if session.audio is None else session.audio[i * rate:(i + 1) * rate]
        stages[i] = Stage.SOUND_FILTER
        if (config.enable_sound_filter and audio is not None
                and vocal_sound_prefilter(
                    audio, config.sound_db_threshold, config.db_calibration)):
            return ReactionLabel.NON_REACTION

        stages[i] = Stage.CLASSIFIER
        patch = None
        if classifier.needs_patch:
            if audio is None:
                raise InsufficientDataError("classifier needs audio but session has none")
            patch = dsp.log_mel_patch(preprocess_segment_audio(audio, rate, config))
        scores = classifier.classify(patch, i)
        label = (relax_rank if config.enable_relaxation else map_labels)(scores, config)

        if label.deferred and config.enable_correction:
            stages[i] = Stage.CORRECTION
            return correct_with_music(
                label, audio, rate, note_track, pitch_tracker,
                float(i), session.start_offset_in_song + i, config)
        return label.label  # with correction off, candidates stand

    observed = [ReactionLabel.NON_REACTION] * total
    for i in np.flatnonzero(~settled).tolist():
        try:
            observed[i] = settle(i)
        except Error as exc:
            failures[i] = exc

    labels = observed
    if smoothing:
        window = config.smoothing_window
        labels = [smooth(observed[max(0, i + 1 - window):i + 1], hmm) for i in range(total)]
    return CascadeResult(labels, observed, CascadeStats(stages, failures))


def preprocess_segment_audio(
    audio: np.ndarray, sample_rate: int, config: PipelineConfig = PipelineConfig()
) -> np.ndarray:
    """Audio front end for the classifier: resample to 16 kHz, then a
    first-order 2 kHz low-pass to match the band the vocal classes live in."""
    x = dsp.resample(audio, sample_rate, CLASSIFIER_RATE_HZ)
    return dsp.lowpass_first_order(x, CLASSIFIER_RATE_HZ, config.audio_lowpass_hz)
