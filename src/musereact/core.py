"""Shared data model for earbud music-reaction sensing.

A recording *session* bundles the two streams an earbud provides while a
person listens to music: a 6-axis IMU stream (3-axis accelerometer in g,
3-axis gyroscope in deg/s) sampled at a nominal 70 Hz, and an optional mono
audio stream at 44.1 kHz.  Detection pipelines walk the session's whole
seconds, cut at :func:`second_bounds`, and emit one :class:`ReactionLabel`
per second, which callers usually coalesce into :class:`ReactionEvent`
spans.  :class:`ReactionLabel` declares its members in the canonical order,
and :data:`VOCAL_REACTIONS` and :data:`MOTION_REACTIONS` split them by timeline.

This module also defines the exception hierarchy, the single
:class:`PipelineConfig` object that carries every tunable threshold, and the
on-disk session-directory layout shared by the CLI and the synthetic-data
tools::

    <session>/
        meta.json     session/subject/song/place identifiers
        imu.csv       t,ax,ay,az,gx,gy,gz   (accel in g, gyro in deg/s)
        audio.wav     mono 16-bit PCM, 44.1 kHz (optional)
        scores.jsonl  per-second classifier scores (optional, see vocal)
        pitch.csv     t,f0,confidence at 0.1 s steps (optional, see vocal)
        labels.csv    t_start,t_end,label ground truth (optional)

Every headered CSV of the package -- ``imu.csv`` and ``labels.csv`` here,
``pitch.csv``, note tracks and training tables elsewhere -- follows the rules
of :func:`read_csv_rows`, the reference reader and error reporter.  It raises
:class:`ParseError` naming the file and line for a missing file, bytes that
are not UTF-8, an empty file, a wrong header or a wrong field count, and
skips blank lines; each format parses only its own fields.  The three
numeric formats -- ``imu.csv`` (:func:`read_csv_matrix`), ``pitch.csv`` and
note tracks -- are parsed in bulk by :func:`parse_csv_bulk`, the last two
checked on their 0.1 s grid by :func:`off_grid`; any file refused there goes
to the format's row reader, so its values and errors are the reference's.

Every file of the package is written and read through the file layer here:
:func:`write_bytes` and :func:`read_bytes` open every file, and build the
rest: :func:`write_wav` and :func:`read_wav` (``audio.wav``),
:func:`write_text` (UTF-8, newlines as given), :func:`json_document`
(keys sorted, 2-space indent), :func:`write_jsonl` and :func:`read_jsonl` (a
bad line raises ``<path>: line N: <msg>``), and :func:`read_document`, which
builds a model from the object of :func:`read_json` (``<path>: bad <kind>
document: <msg>``).
"""

from __future__ import annotations

import csv
import dataclasses
import enum
import io
import json
import math
import os
import struct
import sys
import warnings
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass

import numpy as np

IMU_RATE_HZ = 70.0
AUDIO_RATE_HZ = 44100
#: Rate the audio front end resamples to before the 96x64 log-mel patch.
CLASSIFIER_RATE_HZ = 16000

#: Allowed deviation of the IMU rate from nominal before a session is rejected.
IMU_RATE_TOLERANCE_HZ = 5.0

#: Maximum tolerated disagreement between the IMU span and the audio span.
STREAM_ALIGNMENT_TOLERANCE_S = 1.0

#: Longest session, in seconds, that an event file or a corpus spec may
#: describe (24 h).  Both size per-second arrays from the numbers they hold.
MAX_SESSION_S = 24 * 3600.0


class Error(Exception):
    """Base class for all package errors."""


class ParameterError(Error, ValueError):
    """An argument violates a documented precondition."""


class InsufficientDataError(ParameterError):
    """Not enough samples to compute the requested quantity."""


class EmptyWindowError(ParameterError):
    """A requested time window selects no data at all."""


class AlignmentError(Error):
    """Session streams disagree in time by more than the tolerance."""


class ParseError(Error):
    """A file could not be parsed; the message names the offending line."""


class ConfigError(Error):
    """Configuration is inconsistent or refers to missing resources."""


class ReactionLabel(str, enum.Enum):
    """Per-second reaction classes emitted by the detection pipelines."""

    NON_REACTION = "non_reaction"
    SINGING_HUMMING = "singing_humming"
    WHISTLING = "whistling"
    HEAD_MOTION = "head_motion"

    def __str__(self) -> str:  # so f-strings produce the wire value
        return self.value


#: The reactions each timeline carries besides ``non_reaction``.
VOCAL_REACTIONS = (ReactionLabel.SINGING_HUMMING, ReactionLabel.WHISTLING)
MOTION_REACTIONS = (ReactionLabel.HEAD_MOTION,)

#: Canonical state order for the vocal pipeline (index = tie-break priority).
VOCAL_STATES = (ReactionLabel.NON_REACTION, *VOCAL_REACTIONS)


def parse_label(text: str) -> ReactionLabel:
    try:
        return ReactionLabel(text.strip())
    except (AttributeError, ValueError):  # AttributeError: not a string
        raise ParameterError(f"unknown reaction label {text!r}") from None


@dataclass(frozen=True)
class PipelineLabel:
    """A second's vocal label after stage 4: final, or a deferred candidate.

    With ``deferred`` False, ``label`` is the second's decision.  With it
    True, ``label`` is the vocal reaction (``singing_humming`` or
    ``whistling``) that music correction must confirm, or reject as
    ``non_reaction``.
    """

    label: ReactionLabel
    deferred: bool = False

    def __post_init__(self):
        if self.deferred and self.label not in VOCAL_REACTIONS:
            raise ParameterError(
                f"a deferred label must be a vocal reaction, got {self.label}")


class Stage(str, enum.Enum):
    """A stage a second can enter: the vocal cascade runs both prefilters,
    the classifier and (for a deferred label) correction; the motion cascade
    its movement prefilter, then a cold start (no full window) or the classifier."""

    MOTION_FILTER = "motion_filter"
    SOUND_FILTER = "sound_filter"
    COLD_START = "cold_start"
    CLASSIFIER = "classifier"
    CORRECTION = "correction"


@dataclass(frozen=True)
class CascadeStats:
    """What happened to each second of a cascade run, from which every count
    is derived: ``stages[i]`` is the last stage second ``i`` entered, and
    ``failures`` maps each second whose stage raised (and so is labeled
    ``non_reaction``) to its error."""

    stages: list[Stage]
    failures: dict[int, Error]

    def count(self, *stages: Stage) -> int:
        """Seconds settled in one of ``stages``; failed seconds are left out."""
        return sum(stage in stages and i not in self.failures
                   for i, stage in enumerate(self.stages))

    @property
    def errors(self) -> int:
        return len(self.failures)

    @property
    def filtering_ratio(self) -> float:
        """Fraction of seconds a prefilter settled, so no classifier ran (0 for none)."""
        return self.count(Stage.MOTION_FILTER, Stage.SOUND_FILTER) / max(len(self.stages), 1)


@dataclass(frozen=True)
class CascadeResult:
    """Per-second labels, the labels before smoothing (the labels themselves
    where nothing smooths) and the record of the run."""

    labels: list[ReactionLabel]
    observed: list[ReactionLabel]
    stats: CascadeStats


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

#: JSON form of each config or corpus-spec field type: (description, check,
#: conversion).  ``type(...)`` rather than ``isinstance`` so booleans are not numbers.
_JSON_FIELD_TYPES = {
    "float": ("a number", lambda v: type(v) in (int, float), float),
    "int": ("an integer", lambda v: type(v) is int, int),
    "bool": ("true or false", lambda v: type(v) is bool, bool),
    "str": ("a string", lambda v: type(v) is str, str),
    "tuple[str, ...]": ("a list of names",
                        lambda v: type(v) is list and all(type(n) is str for n in v),
                        tuple),
    "tuple[tuple[int, int, ReactionLabel], ...]": (
        "a list of [start, end, label] spans with integer bounds",
        lambda v: type(v) is list and all(
            type(span) is list and [type(x) for x in span] == [int, int, str] for span in v),
        lambda v: tuple((t0, t1, ReactionLabel(label)) for t0, t1, label in v)),
}


def json_fields(cls, raw: dict, kind: str) -> dict:
    """The fields of dataclass ``cls`` that JSON object ``raw`` gives; a key of
    no field or a value not of its field's JSON type raises :class:`ConfigError`."""
    types = {f.name: f.type for f in dataclasses.fields(cls)}
    unknown = sorted(set(raw) - set(types))
    if unknown:
        raise ConfigError(f"unknown {kind} keys: {', '.join(unknown)}")
    values = {}
    for name, value in raw.items():
        what, accepts, convert = _JSON_FIELD_TYPES[types[name]]
        if not accepts(value):
            raise ConfigError(f"{name} must be {what}")
        try:
            values[name] = convert(value)
        except OverflowError:  # a JSON integer beyond float range
            raise ConfigError(f"{name} must be finite") from None
    return values


#: Keys of older config documents (``PipelineConfig.save`` writes every
#: field) that are no longer fields: each loads only at the value of the
#: behaviour now fixed.  Key -> (JSON type, that value as JSON text, what to
#: set instead).
_REMOVED_CONFIG_KEYS = {
    "enable_motion_filter": ("bool", "true", "movement bands of [0, 1e308] (vocal_movement_"
                             "low_g/high_g, motion_movement_low_g/high_g) pass every second"),
    "enable_sound_filter": ("bool", "true", "a sound_db_threshold at or below "
                            "db_calibration - 240 passes every second"),
    "enable_relaxation": ("bool", "true", "a margin_threshold of 0 relaxes no second"),
    "note_window_margin_s": ("float", "0.5", "tune dtw_threshold instead"),
    "pitch_conf_threshold": ("float", "0.5", "tune dtw_threshold instead"),
    "smoothing_window": ("int", "6", "enable_smoothing false turns smoothing off"),
    "imu_lowpass_hz": ("float", "5.0", "tune motion_decision_threshold instead"),
    "relax_top_k": ("int", "5", "a margin_threshold of 0 relaxes no second"),
    "singing_classes": ("tuple[str, ...]", '["singing", "humming"]',
                        "the class map is fixed with the classifier"),
    "whistling_classes": ("tuple[str, ...]", '["whistling", "whistle"]',
                          "the class map is fixed with the classifier"),
    "ambiguous_classes": ("tuple[str, ...]", '["speech", "music"]',
                          "the class map is fixed with the classifier"),
}


@dataclass(frozen=True)
class PipelineConfig:
    """Every tunable threshold of the detection pipelines, with defaults.

    The defaults reproduce the published operating point and are written only
    here.  Every instance is valid: construction, and so :meth:`replace`,
    :meth:`from_dict` and :meth:`load`, runs :meth:`validate`.  The prefilters
    and rank relaxation always run; a threshold is how each is tuned or
    neutralised.
    """

    # --- vocal pipeline: prefilters -------------------------------------
    # Neutral values: a movement band [0, 1e308]; sound_db_threshold <= db_calibration - 240.
    vocal_movement_low_g: float = 0.0104
    vocal_movement_high_g: float = 0.12
    sound_db_threshold: float = 49.0
    db_calibration: float = 94.0

    # --- vocal pipeline: audio front end --------------------------------
    audio_lowpass_hz: float = 2000.0

    # --- vocal pipeline: classification ---------------------------------
    # margin_threshold 0 maps every top-1 class directly (no margin is < 0).
    margin_threshold: float = 0.9

    # --- vocal pipeline: music-information correction -------------------
    dtw_threshold: float = 30.0

    # --- motion pipeline ------------------------------------------------
    motion_movement_low_g: float = 0.0092
    motion_movement_high_g: float = 0.114
    motion_decision_threshold: float = 0.5

    # --- stage toggles (ablations) --------------------------------------
    enable_correction: bool = True
    enable_smoothing: bool = True

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        """Raise :class:`ConfigError` if any value is out of range."""
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if f.type == "float" and not math.isfinite(value):
                raise ConfigError(f"{f.name} must be finite, got {value!r}")
        for low, high in (
            ("vocal_movement_low_g", "vocal_movement_high_g"),
            ("motion_movement_low_g", "motion_movement_high_g"),
        ):
            if not 0 <= getattr(self, low) < getattr(self, high):
                raise ConfigError(f"need 0 <= {low} < {high}")
        if not 0 < self.audio_lowpass_hz < CLASSIFIER_RATE_HZ / 2:
            raise ConfigError(f"audio_lowpass_hz must lie in (0, {CLASSIFIER_RATE_HZ / 2:g}), "
                              "below Nyquist")
        from .musicinfo import DTW_REACH  # here, as musicinfo imports this module
        if not 0 <= self.dtw_threshold < DTW_REACH:
            raise ConfigError(f"dtw_threshold must lie in [0, {DTW_REACH:g})")
        if not 0 <= self.motion_decision_threshold <= 1:
            raise ConfigError("motion_decision_threshold must lie in [0, 1]")

    def to_json(self) -> str:
        return json_document(dataclasses.asdict(self))

    @classmethod
    def from_dict(cls, raw: dict) -> "PipelineConfig":
        """A config from a JSON object's fields; an unknown key or a value not
        of its field's JSON type raises :class:`ConfigError`.  A removed key
        (:data:`_REMOVED_CONFIG_KEYS`) at the value now fixed is ignored; at
        any other value it raises, naming what to set instead."""
        for key in sorted(_REMOVED_CONFIG_KEYS.keys() & raw.keys()):
            kind, fixed, instead = _REMOVED_CONFIG_KEYS[key]
            if not (_JSON_FIELD_TYPES[kind][1](raw[key]) and raw[key] == json.loads(fixed)):
                raise ConfigError(f"{key} was removed and can only be {fixed}; {instead}")
        return cls(**json_fields(cls, {key: value for key, value in raw.items()
                                       if key not in _REMOVED_CONFIG_KEYS}, "config"))

    @classmethod
    def load(cls, path: str | os.PathLike) -> "PipelineConfig":
        """The config at ``path``; a :class:`ConfigError` names the file."""
        try:
            return cls.from_dict(read_json(path))
        except ConfigError as exc:
            raise ConfigError(f"{path}: {exc}") from None

    def save(self, path: str | os.PathLike) -> None:
        write_text(path, self.to_json())

    def replace(self, **changes) -> "PipelineConfig":
        return dataclasses.replace(self, **changes)


# ---------------------------------------------------------------------------
# sessions and segmentation
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class Session:
    """One earbud recording: IMU stream plus optional synchronized audio.

    Timestamps are seconds from session start.  ``start_offset_in_song``
    places second 0 of the session on the song's own timeline, which the
    music-information correction stage needs.

    ``audio`` is ``int16`` PCM as loaded, standing for its samples scaled by
    1/32767, or float samples in [-1, 1]; other dtypes become float.
    :meth:`audio_samples` gives float samples of the slice asked for only.

    A session that passes :meth:`validate` is frozen: its arrays are
    read-only, so the data the pipelines read is the data that was checked.
    The arrays are not copied, so a caller's own float array becomes
    read-only too, and changing the data through another view of the same
    buffer is unsupported.
    """

    session_id: str
    subject_id: str
    song_id: str
    place: str
    imu_t: np.ndarray          # (n,) seconds, strictly increasing
    accel: np.ndarray          # (n, 3) in g
    gyro: np.ndarray           # (n, 3) in deg/s
    audio: np.ndarray | None = None   # mono int16 PCM, or float samples in [-1, 1]
    audio_rate: int = AUDIO_RATE_HZ
    start_offset_in_song: float = 0.0

    def __post_init__(self):
        self.imu_t = np.asarray(self.imu_t, dtype=float)
        self.accel = np.asarray(self.accel, dtype=float)
        self.gyro = np.asarray(self.gyro, dtype=float)
        if self.audio is not None:
            audio = np.asarray(self.audio)
            self.audio = audio if audio.dtype == np.int16 else audio.astype(float, copy=False)

    def __setattr__(self, name, value):
        # Any assignment, the constructor's included, voids a passed check.
        object.__setattr__(self, name, value)
        object.__setattr__(self, "_checked", False)

    def validate(self) -> None:
        """Check shapes, finiteness, IMU timing and audio alignment.

        Audio must be ``int16`` or floating; ``int16`` audio, which holds no
        NaN or inf, is not scanned for finiteness.  A passed check makes
        ``imu_t``, ``accel``, ``gyro`` and ``audio`` read-only and records
        the pass and the IMU step.  A later call returns at once, reading no
        array, unless a field has been assigned since or an array's
        ``writeable`` flag has been turned back on; then it checks in full.
        A failed check records nothing and freezes nothing.
        """
        if self._frozen():
            return
        n = self.imu_t.shape[0]
        if self.imu_t.ndim != 1 or n < 2:
            raise InsufficientDataError("IMU stream needs at least two samples")
        if self.accel.shape != (n, 3) or self.gyro.shape != (n, 3):
            raise ParameterError("accel and gyro must both be (n, 3)")
        if not (_all_finite(self.imu_t) and _all_finite(self.accel)
                and _all_finite(self.gyro)):
            raise ParameterError("IMU stream contains non-finite values")
        dt = np.diff(self.imu_t)
        if (dt <= 0).any():
            raise ParameterError("IMU timestamps must be strictly increasing")
        if self.imu_t[0] < 0:
            raise ParameterError("IMU timestamps must start at or after 0")
        step = _median(dt)
        rate = 1.0 / step
        if abs(rate - IMU_RATE_HZ) > IMU_RATE_TOLERANCE_HZ:
            raise ParameterError(
                f"IMU rate {rate:.1f} Hz outside nominal {IMU_RATE_HZ:.0f} "
                f"+/- {IMU_RATE_TOLERANCE_HZ:.0f} Hz"
            )
        if self.audio is not None:
            if self.audio.ndim != 1:
                raise ParameterError("audio must be a mono 1-D array")
            if self.audio.dtype != np.int16:
                if self.audio.dtype.kind != "f":
                    raise ParameterError(
                        f"audio must be int16 PCM or float samples, got {self.audio.dtype}")
                if not _all_finite(self.audio):
                    raise ParameterError("audio contains non-finite values")
            if self.audio_rate <= 0:
                raise ParameterError("audio_rate must be positive")
            imu_span = float(self.imu_t[-1] - self.imu_t[0]) + step
            skew = abs(len(self.audio) / self.audio_rate - imu_span)
            if skew > STREAM_ALIGNMENT_TOLERANCE_S:
                raise AlignmentError(
                    f"audio and IMU spans disagree by {skew:.2f} s "
                    f"(> {STREAM_ALIGNMENT_TOLERANCE_S:.0f} s)"
                )
        for array in self._arrays():
            array.flags.writeable = False
        object.__setattr__(self, "_imu_step", step)
        object.__setattr__(self, "_checked", True)

    def _arrays(self) -> list[np.ndarray]:
        return [a for a in (self.imu_t, self.accel, self.gyro, self.audio) if a is not None]

    def _frozen(self) -> bool:
        """True while the last passed check still holds (see :meth:`validate`)."""
        return self._checked and not any(a.flags.writeable for a in self._arrays())

    def audio_samples(self, start: int, stop: int) -> np.ndarray:
        """Float samples ``audio[start:stop]``; ``int16`` PCM is divided by 32767."""
        if self.audio.dtype == np.int16:
            return np.divide(self.audio[start:stop], 32767.0, dtype=float)
        return self.audio[start:stop]

    @property
    def duration_s(self) -> float:
        """Session length in seconds (audio span when audio is present)."""
        if self.audio is not None:
            return len(self.audio) / self.audio_rate
        step = self._imu_step if self._frozen() else _median(np.diff(self.imu_t))
        return float(self.imu_t[-1] - self.imu_t[0] + step)


def _median(x: np.ndarray) -> float:
    """``np.median`` of a 1-D array at numpy's own partition points, as
    ``np.median``'s NaN check imports ``numpy.ma``.  Bit for bit, but a zero
    median there is +0.0 (numpy sums from it; a zero step is refused), and an
    empty array or one holding a NaN (sorted last) gives NaN without a warning."""
    if not len(x):
        return math.nan
    half, odd = len(x) // 2, len(x) % 2
    part = np.partition(x, (half, -1) if odd else (half - 1, half, -1))
    return math.nan if np.isnan(part[-1]) else float(
        part[half] if odd else (part[half - 1] + part[half]) / 2)


def _all_finite(x: np.ndarray) -> bool:
    """``np.isfinite(x).all()`` in one pass, without a bool temporary.

    Every square is >= 0, so nothing cancels in the sum of squares: any inf
    or NaN element makes it non-finite.  A finite array can only fail the
    fast test by overflowing (some ``|x| > ~1.3e154``); the elementwise test
    then decides.
    """
    flat = x.ravel()
    with np.errstate(over="ignore"):  # numpy's own loop: BLAS would start threads
        squares = float(np.einsum("i,i->", flat, flat))
    return math.isfinite(squares) or bool(np.isfinite(flat).all())


@dataclass(eq=False)
class SensorSegment:
    """One second of aligned sensor data, cut from a session."""

    index: int
    t_start: float
    t_end: float
    imu_t: np.ndarray
    accel: np.ndarray
    gyro: np.ndarray
    audio: np.ndarray | None
    audio_rate: int


def second_bounds(session: Session) -> list[int]:
    """IMU sample index at which each whole second of the session starts.

    Returns ``count + 1`` indices for the ``count = floor(duration)`` whole
    seconds: second ``i`` owns ``imu_t[bounds[i]:bounds[i + 1]]``, exactly the
    samples with ``i <= t < i + 1`` because timestamps are strictly
    increasing.  One binary search per second keeps the cost linear in the
    session length.
    """
    count = int(math.floor(session.duration_s + 1e-9))
    seconds = np.arange(count + 1, dtype=float)
    return np.searchsorted(session.imu_t, seconds, side="left").tolist()


def segment_session(session: Session) -> list[SensorSegment]:
    """Cut a session into consecutive non-overlapping one-second segments.

    Segment ``i`` covers ``[i, i+1)`` seconds: IMU samples are selected by
    timestamp, audio by exact sample index.  Any trailing partial second is
    dropped, so concatenating the slices reproduces the first
    ``floor(duration)`` seconds of the input exactly.

    Selection is linear in the session length (see :func:`second_bounds`),
    and every segment array is a view into the session's arrays, which the
    session's check made read-only: copy a segment's data to change it.  A
    public helper: the pipelines slice the session at :func:`second_bounds`
    and do not use it.
    """
    session.validate()
    bounds = second_bounds(session)
    segments = []
    for i, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
        audio = None
        if session.audio is not None:
            audio = session.audio_samples(i * session.audio_rate, (i + 1) * session.audio_rate)
        segments.append(SensorSegment(
            index=i, t_start=float(i), t_end=float(i + 1),
            imu_t=session.imu_t[lo:hi],
            accel=session.accel[lo:hi],
            gyro=session.gyro[lo:hi],
            audio=audio,
            audio_rate=session.audio_rate,
        ))
    return segments


# ---------------------------------------------------------------------------
# events
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ReactionEvent:
    """A maximal span of consecutive seconds sharing one label."""

    label: ReactionLabel
    t_start: float
    t_end: float

    def __post_init__(self):
        if not (math.isfinite(self.t_start) and math.isfinite(self.t_end)):
            raise ParameterError("event bounds must be finite")
        if self.t_end <= self.t_start:
            raise ParameterError(
                f"event must have positive length, got [{self.t_start}, {self.t_end})"
            )

    @property
    def duration_s(self) -> float:
        return self.t_end - self.t_start


def merge_labels_to_events(labels: list[ReactionLabel]) -> list[ReactionEvent]:
    """Coalesce a per-second label sequence into maximal constant-label events.

    Label ``i`` covers ``[i, i + 1)`` seconds, so the returned events tile
    ``[0, len(labels))`` exactly; an empty sequence yields no events.
    """
    events = []
    run_start = 0
    for i in range(1, len(labels) + 1):
        if i == len(labels) or labels[i] != labels[run_start]:
            events.append(ReactionEvent(
                label=labels[run_start],
                t_start=float(run_start),
                t_end=float(i),
            ))
            run_start = i
    return events


def expand_events_to_labels(
    events: list[ReactionEvent],
    duration_s: float | None = None,
) -> list[ReactionLabel]:
    """Sample an event list back to one label per second.

    Second ``i`` takes the label of the event covering its midpoint ``i + 0.5``
    (the later one where two events meet there), else ``non_reaction``.
    ``duration_s`` defaults to the latest event end.  Events must not overlap.
    """
    ordered = sorted(events, key=lambda e: (e.t_start, e.t_end))
    for prev, cur in zip(ordered, ordered[1:]):
        if cur.t_start < prev.t_end - 1e-9:
            raise ParameterError(
                f"events overlap near t={cur.t_start:g} ({prev.label} vs {cur.label})"
            )
    if duration_s is None:
        duration_s = max((e.t_end for e in ordered), default=0.0)
    count = max(int(math.floor(duration_s + 1e-9)), 0)
    labels = [ReactionLabel.NON_REACTION] * count
    # In start order, each event paints the seconds whose midpoints it covers
    # within 1e-9; it may cover none of the count.
    for e in ordered:
        first = max(math.ceil(e.t_start - 0.5 - 1e-9), 0)
        last = min(math.floor(e.t_end - 0.5 + 1e-9), count - 1)
        if first <= last:
            labels[first:last + 1] = [e.label] * (last + 1 - first)
    return labels


# ---------------------------------------------------------------------------
# on-disk session directories
# ---------------------------------------------------------------------------

_IMU_HEADER = ["t", "ax", "ay", "az", "gx", "gy", "gz"]
_LABEL_HEADER = ["t_start", "t_end", "label"]

#: Directory of a written corpus that holds the shared note tracks.
NOTES_DIR = "notes"


def _fmt(value: float) -> str:
    return f"{value:.10g}"


def save_session_dir(path: str | os.PathLike, session: Session) -> None:
    """Write ``meta.json``, ``imu.csv`` and (if present) ``audio.wav``: ``int16``
    audio as it is, float audio clipped to [-1, 1], scaled by 32767 and rounded."""
    os.makedirs(path, exist_ok=True)
    meta = {
        "session_id": session.session_id,
        "subject_id": session.subject_id,
        "song_id": session.song_id,
        "place": session.place,
        "audio_rate": session.audio_rate,
        "start_offset_in_song": session.start_offset_in_song,
    }
    write_text(os.path.join(path, "meta.json"), json_document(meta))
    imu = io.StringIO()
    # Python's % formatting, so each field reads as _fmt writes it.
    np.savetxt(imu, np.column_stack([session.imu_t, session.accel, session.gyro]),
               fmt="%.10g", delimiter=",", header=",".join(_IMU_HEADER), comments="")
    write_text(os.path.join(path, "imu.csv"), imu.getvalue())
    if session.audio is not None:
        pcm = session.audio
        if pcm.dtype != np.int16:
            pcm = np.clip(pcm, -1.0, 1.0)  # the one float temporary
            pcm *= 32767.0
            np.round(pcm, out=pcm)
            pcm = pcm.astype(np.int16)
        write_wav(os.path.join(path, "audio.wav"), session.audio_rate, pcm)


def session_meta(path: str | os.PathLike) -> tuple[dict, str]:
    """Session directory ``path``'s ``meta.json``, its names checked, and the
    session's id: its ``session_id``, else the directory's name."""
    meta_path = os.path.join(path, "meta.json")
    meta = read_json(meta_path)
    for key in ("session_id", "subject_id", "song_id", "place"):
        if not isinstance(meta.get(key, ""), str):
            raise ParseError(f"{meta_path}: {key} must be a string")
    session_id = meta.get("session_id", os.path.basename(os.path.normpath(path)))
    if "session_id" in meta and not is_plain_file_name(session_id):
        raise ParseError(f"{meta_path}: session_id must be a plain file name")
    return meta, session_id


def load_session_dir(path: str | os.PathLike) -> Session:
    """Read a session directory back into a validated :class:`Session`, whose
    ``audio`` is the ``int16`` PCM of ``audio.wav`` as read, not converted."""
    meta, session_id = session_meta(path)
    meta_path = os.path.join(path, "meta.json")
    audio_rate = meta.get("audio_rate", AUDIO_RATE_HZ)
    if type(audio_rate) is not int or audio_rate <= 0:  # bool is not an int here
        raise ParseError(f"{meta_path}: audio_rate must be a positive integer")
    offset = meta.get("start_offset_in_song", 0.0)
    if type(offset) not in (int, float) or not abs(offset) <= sys.float_info.max:
        raise ParseError(f"{meta_path}: start_offset_in_song must be a finite number")

    data = read_csv_matrix(os.path.join(path, "imu.csv"), _IMU_HEADER)

    audio = None
    wav_path = os.path.join(path, "audio.wav")
    if os.path.exists(wav_path):
        wav_rate, audio = read_wav(wav_path)
        if "audio_rate" in meta and wav_rate != audio_rate:
            raise ParseError(f"{meta_path}: audio_rate {audio_rate} disagrees with "
                             f"the {wav_rate} Hz of {wav_path}")
        audio_rate = wav_rate

    session = Session(
        session_id=session_id,
        subject_id=meta.get("subject_id", ""),
        song_id=meta.get("song_id", ""),
        place=meta.get("place", ""),
        imu_t=data[:, 0], accel=data[:, 1:4], gyro=data[:, 4:7],
        audio=audio, audio_rate=audio_rate,
        start_offset_in_song=float(offset),
    )
    try:
        session.validate()
    except Error as exc:  # same type, naming the session directory
        raise type(exc)(f"{path}: {exc}") from None
    return session


def read_bytes(path: str | os.PathLike) -> bytes:
    """The package's one file reader: the whole file's bytes.  A missing file
    or a directory raises :class:`ParseError` naming the path."""
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except FileNotFoundError:
        raise ParseError(f"{path}: file not found") from None
    except IsADirectoryError:
        raise ParseError(f"{path}: is a directory") from None


def write_bytes(path: str | os.PathLike, *chunks) -> None:
    """The package's one file writer: the bytes-like ``chunks``, in order."""
    with open(path, "wb") as fh:
        for chunk in chunks:
            fh.write(chunk)


def read_text(path: str | os.PathLike) -> str:
    """The whole file as UTF-8 text, newlines left as they are.

    A missing file or undecodable bytes raise :class:`ParseError` naming the
    path (and, for bad bytes, the line they sit on).
    """
    data = read_bytes(path)
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = data.count(b"\n", 0, exc.start) + 1
        raise ParseError(f"{path}: line {lineno}: not UTF-8 text") from None


def write_text(path: str | os.PathLike, text: str) -> None:
    """``text`` as UTF-8, newlines as given."""
    write_bytes(path, text.encode("utf-8"))


#: The canonical header of a mono 16-bit PCM WAV file: the RIFF chunk, a
#: 16-byte ``fmt `` chunk and the ``data`` chunk's id and size.
_WAV_HEADER = struct.Struct("<4sI4s4sIHHIIHH4sI")

#: The tail shared by the sub-format GUIDs of ``WAVE_FORMAT_EXTENSIBLE``,
#: whose first 4 bytes hold the plain format tag.
_WAV_GUID_TAIL = b"\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71"


def write_wav(path: str | os.PathLike, rate: int, pcm: np.ndarray) -> None:
    """Write mono ``int16`` samples as a 16-bit PCM WAV file with the
    canonical 44-byte header (the bytes ``scipy.io.wavfile.write`` gives)."""
    pcm = np.ascontiguousarray(pcm, dtype="<i2")
    if pcm.nbytes > 0xFFFFFFFF - 36:
        raise ParameterError("audio exceeds the 4 GiB size limit of a WAV file")
    write_bytes(path, _WAV_HEADER.pack(b"RIFF", 36 + pcm.nbytes, b"WAVE", b"fmt ", 16,
                                       1, 1, rate, 2 * rate, 2, 16, b"data", pcm.nbytes),
                pcm)


def read_wav(path: str | os.PathLike) -> tuple[int, np.ndarray]:
    """The rate and the samples of a mono 16-bit PCM WAV file.

    The samples are a read-only ``int16`` view of the file's bytes.  Chunks
    before ``data`` other than ``fmt `` are skipped with their pad byte, and
    ``WAVE_FORMAT_EXTENSIBLE`` stands for its sub-format.  A file cut short,
    a missing chunk, a compressed format or a rate of 0 Hz raises
    :class:`ParseError` "not a readable WAV file"; then more than one
    channel "expected mono audio", and samples of another type "expected
    16-bit PCM, got <type>".
    """
    data = read_bytes(path)
    unreadable = ParseError(f"{path}: not a readable WAV file")
    if data[:4] != b"RIFF" or data[8:12] != b"WAVE":
        raise unreadable
    fmt, pos = None, 12
    while True:
        if pos + 8 > len(data):
            raise unreadable
        chunk_id, size = struct.unpack_from("<4sI", data, pos)
        pos += 8
        if pos + size > len(data):
            raise unreadable
        if chunk_id == b"data":
            break
        if chunk_id == b"fmt ":
            if size < 16:
                raise unreadable
            fmt = list(struct.unpack_from("<HHIIHH", data, pos))
            if fmt[0] == 0xFFFE and size >= 40:  # cbSize, then the sub-format GUID
                extension, sub_format = struct.unpack_from("<H6xI", data, pos + 16)
                if extension >= 22 and data[pos + 28:pos + 40] == _WAV_GUID_TAIL:
                    fmt[0] = sub_format
        pos += size + size % 2
    if fmt is None:
        raise unreadable
    tag, channels, rate, _, block_align, bits = fmt
    if tag not in (1, 3) or rate == 0 or block_align != channels * -(-bits // 8):
        raise unreadable
    if channels != 1:
        raise ParseError(f"{path}: expected mono audio")
    kind = "uint8" if tag == 1 and bits <= 8 else f"{'int' if tag == 1 else 'float'}{bits}"
    if kind != "int16":
        raise ParseError(f"{path}: expected 16-bit PCM, got {kind}")
    return rate, np.frombuffer(data, "<i2", count=size // 2, offset=pos)


def json_document(obj) -> str:
    """``obj`` as a JSON document: keys sorted, 2-space indent, final newline."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def write_jsonl(path: str | os.PathLike, objects: Iterable) -> None:
    """Write a JSON-lines file: each object compact on one line, keys sorted."""
    write_text(path, "".join(json.dumps(obj, sort_keys=True) + "\n" for obj in objects))


def read_jsonl(path: str | os.PathLike, parse: Callable) -> Iterator[tuple[int, object]]:
    """Yield ``(line number, parse(value))`` for each JSON line of ``path``.

    Blank lines are skipped and any newline style is accepted.  A line that
    is not JSON raises :class:`ParseError` ``<path>: line N: <msg> at column
    C``; one whose value ``parse`` refuses with ``KeyError``, ``TypeError``,
    ``ValueError``, ``OverflowError`` or ``RecursionError`` raises
    ``<path>: line N: <msg>``.
    """
    lines = io.StringIO(read_text(path), newline=None)
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            yield lineno, parse(json.loads(line.rstrip("\n")))
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}: line {lineno}: {exc.msg} at column {exc.colno}") from None
        except (KeyError, TypeError, ValueError, OverflowError, RecursionError) as exc:
            raise ParseError(f"{path}: line {lineno}: {exc}") from None


def read_document(path: str | os.PathLike, kind: str, build: Callable) -> object:
    """``build`` of the JSON object at ``path`` (:func:`read_json`).

    A ``KeyError``, ``TypeError``, ``ValueError`` or ``OverflowError`` from
    ``build`` raises :class:`ParseError` ``<path>: bad <kind> document: <msg>``.
    """
    doc = read_json(path)
    try:
        return build(doc)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"{path}: bad {kind} document: {exc}") from None


def read_json(path: str | os.PathLike) -> dict:
    """The package's one JSON-document reader: the object at ``path``.

    Bad JSON raises :class:`ParseError` ``<path>: line N: <msg> at column C``
    (``<path>: <msg>`` for numbers or nesting too large to decode), and any
    other top-level value ``<path>: expected a JSON object``.
    """
    try:
        doc = json.loads(read_text(path))
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: line {exc.lineno}: {exc.msg} at column {exc.colno}") from None
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"{path}: {exc}") from None
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: expected a JSON object")
    return doc


def is_plain_file_name(name: str) -> bool:
    """True when ``name`` can only name an entry inside a directory."""
    return name not in ("", ".", "..") and not any(c in name for c in "/\\\0")


def read_csv_rows(
    path: str | os.PathLike, header: list[str]
) -> Iterator[tuple[int, list[str]]]:
    """Yield the data rows of a headered CSV file as ``(line number, fields)``.

    This is the package's reference CSV reader and its error reporter.  It
    owns what every format shares: the file must exist, decode as UTF-8,
    start with exactly ``header`` (fields stripped) and give every non-blank
    row ``len(header)`` fields; blank lines are skipped.  Faults raise
    :class:`ParseError` naming the path and the line.  Field parsing is left
    to the caller; rows are yielded one at a time so that no format holds
    more than its own parsed values.
    """
    reader = csv.reader(io.StringIO(read_text(path), newline=""))
    first = next(reader, None)
    if first is None:
        raise ParseError(f"{path}: line 1: empty file")
    if [h.strip() for h in first] != list(header):
        raise ParseError(f"{path}: line 1: expected header {','.join(header)}")
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != len(header):
            raise ParseError(f"{path}: line {lineno}: expected {len(header)} fields")
        yield lineno, row


def parse_csv_bulk(text: str, header: list[str], dtype=float) -> np.ndarray | None:
    """The rows of a headered CSV ``text`` parsed by one ``np.loadtxt`` call.

    None when ``text`` does not start with exactly the header line, holds no
    rows, or has a body ``loadtxt`` refuses or shapes otherwise; the caller
    then reads the file row by row.  A plain ``dtype`` gives an ``(n,
    len(header))`` array, a structured one (a field per column) a 1-D array.
    """
    line = ",".join(header) + "\n"
    body = text[len(line):]
    if not (text.startswith(line) and body.strip("\r\n")):  # loadtxt warns on no rows
        return None
    dtype = np.dtype(dtype)
    try:
        with warnings.catch_warnings():
            # numpy < 1.25 reads "3.0" into an int column through a float, warning.
            warnings.simplefilter("error", DeprecationWarning)
            # comments=None: a '#' line is a field like any other.
            table = np.loadtxt(io.StringIO(body), delimiter=",", comments=None,
                               ndmin=1 if dtype.names else 2, dtype=dtype)
    except (ValueError, DeprecationWarning):
        return None
    return table if dtype.names or table.shape[1] == len(header) else None


def off_grid(times: np.ndarray, origin: float, hop_s: float) -> bool:
    """Whether any ``times[k]`` is not within 1e-6 s of ``origin + k * hop_s``,
    a NaN included: the row readers' grid check, with their float operations."""
    return not (np.abs(times - (origin + np.arange(len(times)) * hop_s)) <= 1e-6).all()


def read_csv_matrix(path: str | os.PathLike, header: list[str]) -> np.ndarray:
    """The numbers of a headered CSV file as an ``(n, len(header))`` float array:
    :func:`parse_csv_bulk`'s or, for any text it refuses, those of the reference
    :func:`read_csv_matrix_rows`, whose :class:`ParseError` it raises."""
    table = parse_csv_bulk(read_text(path), header)
    return read_csv_matrix_rows(path, header) if table is None else table


def read_csv_matrix_rows(path: str | os.PathLike, header: list[str]) -> np.ndarray:
    """:func:`read_csv_matrix`'s reference: every row parsed with ``float()``."""
    rows = []
    for lineno, row in read_csv_rows(path, header):
        try:
            rows.append([float(v) for v in row])
        except ValueError:
            raise ParseError(f"{path}: line {lineno}: non-numeric field") from None
    return np.array(rows, dtype=float).reshape(len(rows), len(header))


def save_labels(path: str | os.PathLike, events: list[ReactionEvent]) -> None:
    """Write ground-truth events as ``t_start,t_end,label`` CSV."""
    write_text(path, ",".join(_LABEL_HEADER) + "\n" + "".join(
        f"{_fmt(event.t_start)},{_fmt(event.t_end)},{event.label.value}\n"
        for event in events))


def _read_event(label: ReactionLabel, t_start: float, t_end: float) -> ReactionEvent:
    """An event read from a file; one ending past :data:`MAX_SESSION_S`
    raises :class:`ParameterError`."""
    event = ReactionEvent(label, t_start, t_end)
    if event.t_end > MAX_SESSION_S:
        raise ParameterError(
            f"event ends at {event.t_end:g} s, past the {MAX_SESSION_S:g} s "
            f"session-length bound")
    return event


def load_labels(path: str | os.PathLike) -> list[ReactionEvent]:
    events = []
    for lineno, row in read_csv_rows(path, _LABEL_HEADER):
        try:
            t0, t1 = float(row[0]), float(row[1])
        except ValueError:
            raise ParseError(f"{path}: line {lineno}: non-numeric time bound") from None
        try:
            events.append(_read_event(parse_label(row[2]), t0, t1))
        except ParameterError as exc:
            raise ParseError(f"{path}: line {lineno}: {exc}") from None
    return events


def save_events_jsonl(path: str | os.PathLike, events: list[ReactionEvent]) -> None:
    """Write detected events as JSON lines ``{label, t_start, t_end}``."""
    write_jsonl(path, ({"label": event.label.value,
                        "t_start": event.t_start, "t_end": event.t_end}
                       for event in events))


def _event_time(obj, key: str) -> float:
    """Field ``key`` of an events line: a JSON number, not a bool or a string."""
    value = obj[key]
    if type(value) not in (int, float):
        raise ValueError(f"{key} must be a number")
    return float(value)


def load_events_jsonl(path: str | os.PathLike) -> list[ReactionEvent]:
    return [event for _, event in read_jsonl(path, lambda obj: _read_event(
        parse_label(obj["label"]), _event_time(obj, "t_start"), _event_time(obj, "t_end")))]


def list_session_dirs(root: str | os.PathLike) -> list[str]:
    """Find session directories (those holding ``meta.json``) under ``root``."""
    return [os.path.join(root, name) for name in sorted(os.listdir(root))
            if os.path.exists(os.path.join(root, name, "meta.json"))]
