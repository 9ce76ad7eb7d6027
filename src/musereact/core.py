"""Shared data model for earbud music-reaction sensing.

A recording *session* bundles the two streams an earbud provides while a
person listens to music: a 6-axis IMU stream (3-axis accelerometer in g,
3-axis gyroscope in deg/s) sampled at a nominal 70 Hz, and an optional mono
audio stream at 44.1 kHz.  Detection pipelines walk the session's whole
seconds, cut at :func:`second_bounds`, and emit one :class:`ReactionLabel`
per second, which callers usually coalesce into :class:`ReactionEvent`
spans.

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
``pitch.csv``, note tracks and training tables elsewhere -- is read by
:func:`read_csv_rows`.  It raises :class:`ParseError` naming the file and
line for a missing file, bytes that are not UTF-8, an empty file, a wrong
header or a wrong field count, and skips blank lines; each format parses
only its own fields.
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
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np
import scipy.io.wavfile

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


#: Canonical state order for the vocal pipeline (index = tie-break priority).
VOCAL_STATES = (
    ReactionLabel.NON_REACTION,
    ReactionLabel.SINGING_HUMMING,
    ReactionLabel.WHISTLING,
)


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
        if self.deferred and self.label not in VOCAL_STATES[1:]:  # vocal reactions
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


@dataclass(frozen=True)
class PipelineConfig:
    """Every tunable threshold of the detection pipelines, with defaults.

    The defaults reproduce the published operating point and are written only
    here.  Every instance is valid: construction, and so :meth:`replace`,
    :meth:`from_dict` and :meth:`load`, runs :meth:`validate`.
    """

    # --- vocal pipeline: prefilters -------------------------------------
    vocal_movement_low_g: float = 0.0104
    vocal_movement_high_g: float = 0.12
    sound_db_threshold: float = 49.0
    db_calibration: float = 94.0

    # --- vocal pipeline: audio front end --------------------------------
    audio_lowpass_hz: float = 2000.0

    # --- vocal pipeline: classification ---------------------------------
    margin_threshold: float = 0.9
    relax_top_k: int = 5
    singing_classes: tuple[str, ...] = ("singing", "humming")
    whistling_classes: tuple[str, ...] = ("whistling", "whistle")
    ambiguous_classes: tuple[str, ...] = ("speech", "music")

    # --- vocal pipeline: music-information correction -------------------
    dtw_threshold: float = 30.0
    note_window_margin_s: float = 0.5
    pitch_conf_threshold: float = 0.5

    # --- vocal pipeline: temporal smoothing -----------------------------
    smoothing_window: int = 6

    # --- motion pipeline ------------------------------------------------
    motion_movement_low_g: float = 0.0092
    motion_movement_high_g: float = 0.114
    imu_lowpass_hz: float = 5.0
    motion_decision_threshold: float = 0.5

    # --- stage toggles (ablations) --------------------------------------
    enable_motion_filter: bool = True
    enable_sound_filter: bool = True
    enable_relaxation: bool = True
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
            if f.type == "tuple[str, ...]" and (
                    not value or any(not isinstance(v, str) or not v for v in value)):
                raise ConfigError(f"{f.name} must be a non-empty tuple of names")
        owners: dict[str, str] = {}  # the stage-4 rank scan needs disjoint lists
        for name in ("singing_classes", "whistling_classes", "ambiguous_classes"):
            for cls in getattr(self, name):
                first = owners.setdefault(cls.lower(), name)
                if first != name:
                    raise ConfigError(f"class {cls!r} is in both {first} and {name}")
        for low, high in (
            ("vocal_movement_low_g", "vocal_movement_high_g"),
            ("motion_movement_low_g", "motion_movement_high_g"),
        ):
            if not 0 <= getattr(self, low) < getattr(self, high):
                raise ConfigError(f"need 0 <= {low} < {high}")
        for name, nyquist in (("audio_lowpass_hz", CLASSIFIER_RATE_HZ / 2),
                              ("imu_lowpass_hz", IMU_RATE_HZ / 2)):
            if not 0 < getattr(self, name) < nyquist:
                raise ConfigError(f"{name} must lie in (0, {nyquist:g}), below Nyquist")
        for name, least in (("relax_top_k", 1), ("smoothing_window", 1),
                            ("note_window_margin_s", 0)):
            if getattr(self, name) < least:
                raise ConfigError(f"{name} must be >= {least}")
        from . import dsp, musicinfo  # here, as both modules import this one
        # A segment's DTW distance is at most UNVOICED_COST per window frame
        # (a window outnumbers its 10 pitch frames), so no higher threshold rejects.
        reach = dsp.UNVOICED_COST * musicinfo.longest_note_window(self.note_window_margin_s)
        if not 0 <= self.dtw_threshold < reach:
            raise ConfigError(f"dtw_threshold must lie in [0, {reach:g}) at "
                              f"note_window_margin_s {self.note_window_margin_s:g}")
        if not self.pitch_conf_threshold > 0:  # a silent frame: f0 0 at confidence 0
            raise ConfigError("pitch_conf_threshold must be > 0")
        if not 0 <= self.motion_decision_threshold <= 1:
            raise ConfigError("motion_decision_threshold must lie in [0, 1]")

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_dict(cls, raw: dict) -> "PipelineConfig":
        """A config from a JSON object's fields; an unknown key or a value not
        of its field's JSON type raises :class:`ConfigError`."""
        return cls(**json_fields(cls, raw, "config"))

    @classmethod
    def load(cls, path: str | os.PathLike) -> "PipelineConfig":
        return cls.from_dict(read_json(path))

    def save(self, path: str | os.PathLike) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json())

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
    """

    session_id: str
    subject_id: str
    song_id: str
    place: str
    imu_t: np.ndarray          # (n,) seconds, strictly increasing
    accel: np.ndarray          # (n, 3) in g
    gyro: np.ndarray           # (n, 3) in deg/s
    audio: np.ndarray | None = None   # mono float samples in [-1, 1]
    audio_rate: int = AUDIO_RATE_HZ
    start_offset_in_song: float = 0.0

    def __post_init__(self):
        self.imu_t = np.asarray(self.imu_t, dtype=float)
        self.accel = np.asarray(self.accel, dtype=float)
        self.gyro = np.asarray(self.gyro, dtype=float)
        if self.audio is not None:
            self.audio = np.asarray(self.audio, dtype=float)

    def validate(self) -> None:
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
        step = float(np.median(dt))
        rate = 1.0 / step
        if abs(rate - IMU_RATE_HZ) > IMU_RATE_TOLERANCE_HZ:
            raise ParameterError(
                f"IMU rate {rate:.1f} Hz outside nominal {IMU_RATE_HZ:.0f} "
                f"+/- {IMU_RATE_TOLERANCE_HZ:.0f} Hz"
            )
        if self.audio is not None:
            if self.audio.ndim != 1:
                raise ParameterError("audio must be a mono 1-D array")
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

    @property
    def duration_s(self) -> float:
        """Session length in seconds (audio span when audio is present)."""
        if self.audio is not None:
            return len(self.audio) / self.audio_rate
        return float(self.imu_t[-1] - self.imu_t[0] + np.median(np.diff(self.imu_t)))


def _all_finite(x: np.ndarray) -> bool:
    """``np.isfinite(x).all()`` in one pass, without a bool temporary.

    Every square is >= 0, so nothing cancels in the sum of squares: any inf
    or NaN element makes it non-finite.  A finite array can only fail the
    fast test by overflowing (some ``|x| > ~1.3e154``); the elementwise test
    then decides.
    """
    flat = x.ravel()
    with np.errstate(over="ignore"):
        squares = float(flat @ flat)
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
    and every segment array is a view into the session's arrays: callers
    must copy a segment's data before mutating it.  A public helper: the
    pipelines slice the session at :func:`second_bounds` and do not use it.
    """
    session.validate()
    bounds = second_bounds(session)
    segments = []
    for i, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
        audio = None
        if session.audio is not None:
            audio = session.audio[i * session.audio_rate:(i + 1) * session.audio_rate]
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

    Second ``i`` is labeled by the event covering its midpoint ``i + 0.5``;
    seconds no event covers are ``non_reaction``.  ``duration_s`` defaults
    to the latest event end.  Events must not overlap.
    """
    ordered = sorted(events, key=lambda e: (e.t_start, e.t_end))
    for prev, cur in zip(ordered, ordered[1:]):
        if cur.t_start < prev.t_end - 1e-9:
            raise ParameterError(
                f"events overlap near t={cur.t_start:g} ({prev.label} vs {cur.label})"
            )
    if duration_s is None:
        duration_s = max((e.t_end for e in ordered), default=0.0)
    count = int(math.floor(duration_s + 1e-9))
    labels = [ReactionLabel.NON_REACTION] * count
    for event in ordered:
        first = int(math.ceil(event.t_start - 0.5 - 1e-9))
        last = int(math.floor(event.t_end - 0.5 + 1e-9))
        for i in range(max(first, 0), min(last, count - 1) + 1):
            if event.t_start - 1e-9 <= i + 0.5 <= event.t_end + 1e-9:
                labels[i] = event.label
    return labels


# ---------------------------------------------------------------------------
# on-disk session directories
# ---------------------------------------------------------------------------

_IMU_HEADER = ["t", "ax", "ay", "az", "gx", "gy", "gz"]
_LABEL_HEADER = ["t_start", "t_end", "label"]


def _fmt(value: float) -> str:
    return f"{value:.10g}"


def save_session_dir(path: str | os.PathLike, session: Session) -> None:
    """Write ``meta.json``, ``imu.csv`` and (if present) ``audio.wav``."""
    os.makedirs(path, exist_ok=True)
    meta = {
        "session_id": session.session_id,
        "subject_id": session.subject_id,
        "song_id": session.song_id,
        "place": session.place,
        "audio_rate": session.audio_rate,
        "start_offset_in_song": session.start_offset_in_song,
    }
    with open(os.path.join(path, "meta.json"), "w", encoding="utf-8") as fh:
        fh.write(json.dumps(meta, sort_keys=True, indent=2) + "\n")
    with open(os.path.join(path, "imu.csv"), "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(_IMU_HEADER) + "\n")
        for i in range(len(session.imu_t)):
            row = [session.imu_t[i], *session.accel[i], *session.gyro[i]]
            fh.write(",".join(_fmt(v) for v in row) + "\n")
    if session.audio is not None:
        pcm = np.round(np.clip(session.audio, -1.0, 1.0) * 32767.0).astype(np.int16)
        scipy.io.wavfile.write(
            os.path.join(path, "audio.wav"), session.audio_rate, pcm
        )


def load_session_dir(path: str | os.PathLike) -> Session:
    """Read a session directory back into a validated :class:`Session`."""
    meta_path = os.path.join(path, "meta.json")
    meta = read_json(meta_path)
    for key in ("session_id", "subject_id", "song_id", "place"):
        if not isinstance(meta.get(key, ""), str):
            raise ParseError(f"{meta_path}: {key} must be a string")
    session_id = meta.get("session_id", os.path.basename(os.path.normpath(path)))
    if "session_id" in meta and not is_plain_file_name(session_id):
        raise ParseError(f"{meta_path}: session_id must be a plain file name")
    audio_rate = meta.get("audio_rate", AUDIO_RATE_HZ)
    if type(audio_rate) is not int or audio_rate <= 0:  # bool is not an int here
        raise ParseError(f"{meta_path}: audio_rate must be a positive integer")
    offset = meta.get("start_offset_in_song", 0.0)
    if type(offset) not in (int, float) or not abs(offset) <= sys.float_info.max:
        raise ParseError(f"{meta_path}: start_offset_in_song must be a finite number")

    imu_path = os.path.join(path, "imu.csv")
    rows = list(read_csv_rows(imu_path, _IMU_HEADER))
    data = np.empty((len(rows), 7), dtype=float)
    for i, (lineno, row) in enumerate(rows):
        try:
            data[i] = [float(v) for v in row]
        except ValueError:
            raise ParseError(f"{imu_path}: line {lineno}: non-numeric field") from None

    audio = None
    wav_path = os.path.join(path, "audio.wav")
    if os.path.exists(wav_path):
        with warnings.catch_warnings():
            # scipy warns, and returns what it read, when the data chunk ends early
            warnings.simplefilter("ignore", scipy.io.wavfile.WavFileWarning)
            warnings.filterwarnings("error", "Reached EOF", scipy.io.wavfile.WavFileWarning)
            try:
                wav_rate, pcm = scipy.io.wavfile.read(wav_path)
            except (ValueError, struct.error, scipy.io.wavfile.WavFileWarning):
                raise ParseError(f"{wav_path}: not a readable WAV file") from None
        if "audio_rate" in meta and wav_rate != audio_rate:
            raise ParseError(f"{meta_path}: audio_rate {audio_rate} disagrees with "
                             f"the {wav_rate} Hz of {wav_path}")
        audio_rate = wav_rate
        if pcm.ndim != 1:
            raise ParseError(f"{wav_path}: expected mono audio")
        if pcm.dtype != np.int16:
            raise ParseError(f"{wav_path}: expected 16-bit PCM, got {pcm.dtype}")
        audio = pcm.astype(float) / 32767.0

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


def read_text(path: str | os.PathLike) -> str:
    """The whole file as UTF-8 text, newlines left as they are.

    A missing file or undecodable bytes raise :class:`ParseError` naming the
    path (and, for bad bytes, the line they sit on).
    """
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except FileNotFoundError:
        raise ParseError(f"{path}: file not found") from None
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = data.count(b"\n", 0, exc.start) + 1
        raise ParseError(f"{path}: line {lineno}: not UTF-8 text") from None


def read_json(path: str | os.PathLike) -> dict:
    """The package's one JSON-document reader: the object at ``path``.

    Bad JSON raises :class:`ParseError` ``<path>: line N: <msg>`` (``<path>:
    <msg>`` for numbers or nesting too large to decode), and any other
    top-level value ``<path>: expected a JSON object``.
    """
    try:
        doc = json.loads(read_text(path))
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: line {exc.lineno}: {exc.msg}") from None
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

    This is the one CSV reader of the package.  It owns what every format
    shares: the file must exist, decode as UTF-8, start with exactly
    ``header`` (fields stripped) and give every non-blank row
    ``len(header)`` fields; blank lines are skipped.  Faults raise
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


def save_labels(path: str | os.PathLike, events: list[ReactionEvent]) -> None:
    """Write ground-truth events as ``t_start,t_end,label`` CSV."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(_LABEL_HEADER) + "\n")
        for event in events:
            fh.write(f"{_fmt(event.t_start)},{_fmt(event.t_end)},{event.label.value}\n")


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
    with open(path, "w", encoding="utf-8") as fh:
        for event in events:
            fh.write(json.dumps(
                {"label": event.label.value,
                 "t_start": event.t_start, "t_end": event.t_end},
                sort_keys=True,
            ) + "\n")


def load_events_jsonl(path: str | os.PathLike) -> list[ReactionEvent]:
    events = []
    lines = io.StringIO(read_text(path), newline=None)
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
            events.append(_read_event(
                parse_label(obj["label"]), float(obj["t_start"]), float(obj["t_end"])))
        except (KeyError, TypeError, ValueError, OverflowError, RecursionError) as exc:
            raise ParseError(f"{path}: line {lineno}: {exc}") from None
    return events


def list_session_dirs(root: str | os.PathLike) -> list[str]:
    """Find session directories (those holding ``meta.json``) under ``root``."""
    found = []
    for name in sorted(os.listdir(root)):
        candidate = os.path.join(root, name)
        if os.path.isdir(candidate) and os.path.exists(os.path.join(candidate, "meta.json")):
            found.append(candidate)
    return found
