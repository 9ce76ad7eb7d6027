"""Synthetic listening sessions with full ground truth.

Each generated session carries everything the detectors consume -- IMU
stream, audio, per-segment classifier scores, a pitch track, the song's
reference melody -- plus the per-second truth labels, so pipelines can be
evaluated end to end.  Generation is a pure function of the
:class:`SyntheticSpec` (including its seed): generating twice produces
bit-identical sessions.

Sessions are scripted in whole seconds.  Every non-scripted second draws a
background role from the place profile: *still* (fails the movement
prefilters), *active-quiet* (moves enough to pass the movement stage but is
too quiet for the sound stage), or *chatter* (loud nearby speech that
passes both prefilters and must be rejected by the music-aware correction).
"""

from __future__ import annotations

import math
import os
import zlib
from dataclasses import dataclass

import numpy as np
# numpy 2 loads numpy.random on first use: load it with the package, not
# inside the first session generated.
from numpy.random import default_rng

from ..core import (
    AUDIO_RATE_HZ,
    IMU_RATE_HZ,
    MAX_SESSION_S,
    MOTION_REACTIONS,
    NOTES_DIR,
    VOCAL_REACTIONS,
    ConfigError,
    ParameterError,
    ParseError,
    ReactionEvent,
    ReactionLabel,
    Session,
    expand_events_to_labels,
    is_plain_file_name,
    json_fields,
    merge_labels_to_events,
    save_labels,
    save_session_dir,
)
from ..engage import reaction_features
from ..musicinfo import NOTE_HOP_S, NoteTrack, save_note_track
from ..vocal import (
    FilePitchTracker,
    ScoreFileClassifier,
    ScoreVector,
    save_pitch_file,
    save_score_file,
)
from .metrics import map_to_motion_domain, map_to_vocal_domain

#: Sound-event taxonomy used for synthetic score vectors.  The first six
#: names are the vocal-relevant classes the pipeline watches for.
TAXONOMY = (
    "Speech", "Music", "Singing", "Humming", "Whistling", "Whistle",
    "Typing", "Silence", "Vehicle", "Animal", "Keyboard", "Traffic",
)
_OTHERS = TAXONOMY[6:]

ACTIVITIES = ("sedentary", "still", "exercise")

# Background roles for non-scripted seconds.
_STILL, _ACTIVE_QUIET, _CHATTER, _EXERCISE = "still", "active_quiet", "chatter", "exercise"


@dataclass(frozen=True)
class PlaceProfile:
    """Environment knobs: how noisy, how busy, how confusable a place is."""

    name: str
    ambient_db: float          # loudness floor of quiet seconds
    chatter_prob: float        # P(non-scripted second is loud nearby speech)
    active_quiet_prob: float   # P(non-scripted second moves but stays quiet)
    score_miss_prob: float     # P(reaction second scored with no vocal class in top 5)
    score_low_margin_prob: float  # P(reaction second scored with a low margin)
    pitch_jitter_prob: float   # P(a singing pitch frame is corrupted)
    gyro_noise_dps: float      # gyroscope noise floor


PLACE_PROFILES: dict[str, PlaceProfile] = {
    "lounge": PlaceProfile("lounge", 30.0, 0.04, 0.25, 0.03, 0.30, 0.05, 2.0),
    "office": PlaceProfile("office", 38.0, 0.10, 0.35, 0.05, 0.35, 0.08, 2.5),
    "car":    PlaceProfile("car",    44.0, 0.06, 0.50, 0.08, 0.40, 0.10, 4.0),
    "cafe":   PlaceProfile("cafe",   42.0, 0.30, 0.35, 0.07, 0.45, 0.12, 3.0),
}


@dataclass(frozen=True)
class SyntheticSpec:
    """Compact description of one synthetic session."""

    session_id: str
    subject_id: str
    song_id: str
    place: str = "lounge"
    duration_s: int = 45
    script: tuple[tuple[int, int, ReactionLabel], ...] = ()
    activity: str = "sedentary"
    start_offset_in_song: int = 0
    seed: int = 0

    @property
    def note_frames(self) -> int:
        """Note-track length covering the session's song span, with 2 s to spare."""
        return int((self.start_offset_in_song + self.duration_s + 2) / NOTE_HOP_S)

    def validate(self) -> None:
        if self.place not in PLACE_PROFILES:
            raise ParameterError(
                f"unknown place {self.place!r}; choose from {sorted(PLACE_PROFILES)}"
            )
        if self.activity not in ACTIVITIES:
            raise ParameterError(f"unknown activity {self.activity!r}")
        # Both size synthetic arrays, so both are bounded.
        if not 1 <= self.duration_s <= MAX_SESSION_S:
            raise ParameterError(f"duration_s must lie in [1, {MAX_SESSION_S:g}] s")
        if not 0 <= self.start_offset_in_song <= MAX_SESSION_S:
            raise ParameterError(
                f"start_offset_in_song must lie in [0, {MAX_SESSION_S:g}] s")
        if self.seed < 0:
            raise ParameterError("seed must be >= 0")
        for name in (self.session_id, self.song_id):  # both name written files
            if not is_plain_file_name(name):
                raise ParameterError(f"{name!r} cannot name a session or note file")
        if self.session_id == NOTES_DIR:
            raise ParameterError(f"session_id {NOTES_DIR!r} names the note directory")
        prev_end = 0
        for t0, t1, label in self.script:
            if not (isinstance(t0, int) and isinstance(t1, int)):
                raise ParameterError("script spans must use whole seconds")
            if not 0 <= t0 < t1 <= self.duration_s:
                raise ParameterError(f"span [{t0}, {t1}) falls outside the session")
            if t0 < prev_end:
                raise ParameterError("script spans must be sorted and disjoint")
            if label not in VOCAL_REACTIONS + MOTION_REACTIONS:
                raise ParameterError(f"script spans must be reactions, got {label}")
            prev_end = t1
        if self.script and self.activity != "sedentary":
            raise ParameterError("still/exercise sessions cannot contain reactions")


@dataclass(eq=False)
class GeneratedSession:
    """A synthetic session plus all its ground truth and playback artifacts."""

    spec: SyntheticSpec
    session: Session
    truth: list[ReactionLabel]            # combined per-second labels
    vocal_truth: list[ReactionLabel]      # head_motion folded to non_reaction
    motion_truth: list[ReactionLabel]     # vocal reactions folded to non_reaction
    note_track: NoteTrack
    scores: dict[int, ScoreVector]
    pitch_f0: np.ndarray
    pitch_conf: np.ndarray

    def classifier(self) -> ScoreFileClassifier:
        return ScoreFileClassifier(self.scores)

    def pitch_tracker(self) -> FilePitchTracker:
        return FilePitchTracker(0.0, self.pitch_f0, self.pitch_conf)

    def truth_events(self) -> list[ReactionEvent]:
        return merge_labels_to_events(self.truth)

    def write(self, path: str | os.PathLike) -> None:
        """Write the session directory (without the shared note track)."""
        save_session_dir(path, self.session)
        save_score_file(os.path.join(path, "scores.jsonl"), self.scores)
        save_pitch_file(os.path.join(path, "pitch.csv"),
                        self.pitch_f0, self.pitch_conf)
        save_labels(os.path.join(path, "labels.csv"), self.truth_events())


# ---------------------------------------------------------------------------
# melodies
# ---------------------------------------------------------------------------

def make_melody(song_id: str, num_symbols: int) -> NoteTrack:
    """Deterministic pseudo-melody for a song id (fully voiced).

    A random walk over pitch classes holding each note for 0.3-0.6 s,
    seeded from a hash of the id, so every session of the same song sees
    the same melody and longer requests extend shorter ones.
    """
    if num_symbols < 1:
        raise ParameterError("num_symbols must be >= 1")
    rng = default_rng(zlib.crc32(song_id.encode("utf-8")))
    symbols = np.empty(num_symbols, dtype=int)
    note = int(rng.integers(0, 12))
    filled = 0
    while filled < num_symbols:
        hold = int(rng.integers(3, 7))
        symbols[filled:filled + hold] = note
        filled += hold
        note = (note + int(rng.choice([-4, -3, -2, -1, 1, 2, 3, 4]))) % 12
    return NoteTrack(song_id=song_id, symbols=symbols)


def _chroma_to_hz(chroma: int, octave_shift: int = 0) -> float:
    return 440.0 * 2.0 ** ((chroma - 9) / 12.0 + octave_shift)


# ---------------------------------------------------------------------------
# session generation
# ---------------------------------------------------------------------------

def generate_session(
    spec: SyntheticSpec, note_track: NoteTrack | None = None
) -> GeneratedSession:
    """Fabricate one session deterministically from its spec.

    ``note_track`` defaults to :func:`make_melody` for the spec's song,
    sized to cover the session's position in the song with slack.
    """
    spec.validate()
    profile = PLACE_PROFILES[spec.place]
    rng = default_rng(spec.seed)
    duration = spec.duration_s
    if note_track is None:
        note_track = make_melody(spec.song_id, spec.note_frames)

    truth = expand_events_to_labels(
        [ReactionEvent(label, t0, t1) for t0, t1, label in spec.script], duration)

    roles = _draw_roles(rng, truth, spec.activity, profile)
    accel, gyro, imu_t = _make_imu(rng, spec, truth, roles, profile)
    audio = _make_audio(rng, spec, truth, roles, profile, note_track)
    scores = _make_scores(rng, truth, roles, profile)
    pitch_f0, pitch_conf = _make_pitch(rng, spec, truth, roles, profile, note_track)

    session = Session(
        session_id=spec.session_id,
        subject_id=spec.subject_id,
        song_id=spec.song_id,
        place=spec.place,
        imu_t=imu_t, accel=accel, gyro=gyro,
        audio=audio, audio_rate=AUDIO_RATE_HZ,
        start_offset_in_song=float(spec.start_offset_in_song),
    )
    session.validate()
    return GeneratedSession(
        spec=spec, session=session, truth=truth,
        vocal_truth=map_to_vocal_domain(truth),
        motion_truth=map_to_motion_domain(truth),
        note_track=note_track, scores=scores,
        pitch_f0=pitch_f0, pitch_conf=pitch_conf,
    )


def _draw_roles(rng, truth, activity, profile):
    """Assign a background role to every non-reaction second."""
    roles = []
    for label in truth:
        if label is not ReactionLabel.NON_REACTION:
            roles.append(None)
        elif activity == "still":
            roles.append(_STILL)
        elif activity == "exercise":
            roles.append(_EXERCISE)
        else:
            u = rng.random()
            if u < profile.chatter_prob:
                roles.append(_CHATTER)
            elif u < profile.chatter_prob + profile.active_quiet_prob:
                roles.append(_ACTIVE_QUIET)
            else:
                roles.append(_STILL)
    return roles


#: Per-second accelerometer noise scale (g) by role.  Reactions and the
#: active roles land inside both prefilter pass bands; still and exercise
#: land below and above them.
_ACCEL_SIGMA = {
    _STILL: 0.003,
    _ACTIVE_QUIET: 0.03,
    _CHATTER: 0.035,
    _EXERCISE: 0.5,
    ReactionLabel.SINGING_HUMMING: 0.03,
    ReactionLabel.WHISTLING: 0.03,
    ReactionLabel.HEAD_MOTION: 0.04,
}


def _make_imu(rng, spec, truth, roles, profile):
    rate = int(IMU_RATE_HZ)
    n = spec.duration_s * rate
    imu_t = np.arange(n) / rate
    sigma = np.empty(spec.duration_s)
    for s in range(spec.duration_s):
        key = truth[s] if roles[s] is None else roles[s]
        sigma[s] = _ACCEL_SIGMA[key]
    accel = rng.normal(0.0, 1.0, (n, 3)) * np.repeat(sigma, rate)[:, None]
    accel[:, 2] += 1.0  # gravity
    gyro = rng.normal(0.0, profile.gyro_noise_dps, (n, 3))
    for t0, t1, label in spec.script:
        if label is not ReactionLabel.HEAD_MOTION:
            continue
        freq = rng.uniform(1.0, 3.0)
        amp = rng.uniform(25.0, 60.0)
        direction = np.array([rng.uniform(0.2, 0.5), 1.0, rng.uniform(0.2, 0.5)])
        direction /= np.linalg.norm(direction)
        t = imu_t[t0 * rate:t1 * rate] - t0
        wave = np.sin(2.0 * np.pi * freq * t + rng.uniform(0.0, 2.0 * np.pi))
        gyro[t0 * rate:t1 * rate] += amp * wave[:, None] * direction[None, :]
    return accel, gyro, imu_t


def _make_audio(rng, spec, truth, roles, profile, note_track):
    n = spec.duration_s * AUDIO_RATE_HZ
    ambient_rms = 10.0 ** ((profile.ambient_db - 94.0) / 20.0)
    audio = rng.normal(0.0, ambient_rms, n)
    for s, role in enumerate(roles):
        if role == _CHATTER:
            chatter_db = rng.uniform(54.0, 62.0)
            chatter_rms = 10.0 ** ((chatter_db - 94.0) / 20.0)
            lo = s * AUDIO_RATE_HZ
            audio[lo:lo + AUDIO_RATE_HZ] += rng.normal(0.0, chatter_rms, AUDIO_RATE_HZ)
    for t0, t1, label in spec.script:
        if label is ReactionLabel.HEAD_MOTION:
            continue
        shift = -1 if label is ReactionLabel.SINGING_HUMMING else 1
        level_db = rng.uniform(56.0, 66.0)
        amp = math.sqrt(2.0) * 10.0 ** ((level_db - 94.0) / 20.0)
        samples = (t1 - t0) * AUDIO_RATE_HZ
        steps = (t1 - t0) * 10
        base = (spec.start_offset_in_song + t0) * 10
        freqs = np.empty(steps)
        for k in range(steps):
            sym = note_track.symbols[min(base + k, len(note_track) - 1)]
            freqs[k] = _chroma_to_hz(int(sym), shift) if sym >= 0 else 0.0
        inst = np.repeat(freqs, AUDIO_RATE_HZ // 10)
        phase = 2.0 * np.pi * np.cumsum(inst) / AUDIO_RATE_HZ
        lo = t0 * AUDIO_RATE_HZ
        audio[lo:lo + samples] += amp * np.sin(phase) * (inst > 0)
    return np.clip(audio, -1.0, 1.0, out=audio)


def _score_vector(weights: dict[str, float]) -> ScoreVector:
    """Distribute leftover mass uniformly over the unnamed taxonomy entries."""
    scores = np.zeros(len(TAXONOMY))
    for name, weight in weights.items():
        scores[TAXONOMY.index(name)] = weight
    rest = np.flatnonzero(scores == 0.0)
    scores[rest] = (1.0 - scores.sum()) / len(rest)
    return ScoreVector(TAXONOMY, scores)


def _make_scores(rng, truth, roles, profile):
    scores = {}
    for s, label in enumerate(truth):
        role = roles[s]
        if label in VOCAL_REACTIONS:
            if label is ReactionLabel.SINGING_HUMMING:
                confident = ("Singing", "Humming")
                low_pool = ("Speech", "Singing", "Humming", "Music")
            else:
                confident = ("Whistling", "Whistle")
                low_pool = ("Whistling", "Whistle")
            u = rng.random()
            if u < profile.score_miss_prob:
                top5 = list(rng.permutation(len(_OTHERS))[:5])
                weights = dict(zip((_OTHERS[i] for i in top5),
                                   (0.30, 0.22, 0.16, 0.12, 0.08)))
            elif u < profile.score_miss_prob + profile.score_low_margin_prob:
                top = low_pool[int(rng.integers(len(low_pool)))]
                runner = "Typing" if top == "Speech" else "Speech"
                weights = {top: 0.38, runner: 0.30}
            else:
                top = confident[int(rng.integers(2))]
                weights = {top: 0.95}
        elif role == _CHATTER:
            top, runner = ("Speech", "Music") if rng.random() < 0.8 else ("Music", "Speech")
            if rng.random() < 0.3:
                weights = {top: 0.95}
            else:
                weights = {top: 0.50, runner: 0.20}
        elif label is ReactionLabel.HEAD_MOTION or role in (_ACTIVE_QUIET, _EXERCISE):
            weights = {("Typing" if rng.random() < 0.5 else "Silence"): 0.95}
        else:
            weights = {"Silence": 0.95}
        scores[s] = _score_vector(weights)
    return scores


def _make_pitch(rng, spec, truth, roles, profile, note_track):
    frames = spec.duration_s * 10
    f0 = np.zeros(frames)
    conf = np.full(frames, 0.05)
    chatter_hz = 180.0
    for k in range(frames):
        s = k // 10
        label, role = truth[s], roles[s]
        if label in VOCAL_REACTIONS:
            shift = -1 if label is ReactionLabel.SINGING_HUMMING else 1
            sym = note_track.symbols[min(spec.start_offset_in_song * 10 + k,
                                         len(note_track) - 1)]
            if sym < 0:
                continue
            if rng.random() < profile.pitch_jitter_prob:
                if rng.random() < 0.5:
                    conf[k] = rng.uniform(0.1, 0.4)  # dropped frame
                    f0[k] = _chroma_to_hz(int(sym), shift)
                else:
                    off = int(rng.choice([-2, -1, 1, 2]))
                    f0[k] = _chroma_to_hz((int(sym) + off) % 12, shift)
                    conf[k] = rng.uniform(0.75, 0.9)
            else:
                f0[k] = _chroma_to_hz(int(sym), shift)
                conf[k] = rng.uniform(0.85, 0.98)
        elif role == _CHATTER:
            chatter_hz = float(np.clip(
                chatter_hz * 2.0 ** (rng.normal(0.0, 0.5) / 12.0), 100.0, 500.0
            ))
            f0[k] = chatter_hz
            conf[k] = float(np.clip(rng.normal(0.45, 0.18), 0.05, 0.8))
    return f0, conf


# ---------------------------------------------------------------------------
# corpora
# ---------------------------------------------------------------------------

def _make_script(rng, duration_s, labels, span_range=(5, 9), gap_range=(6, 14)):
    """Random disjoint reaction spans with non-reaction gaps between them.

    The default ranges leave roughly 40% of the seconds inside reaction
    spans -- reactions are occasional, most listening time is passive.
    """
    script = []
    cursor = int(rng.integers(2, 5))
    while True:
        length = int(rng.integers(span_range[0], span_range[1] + 1))
        if cursor + length > duration_s - 2:
            break
        label = labels[int(rng.integers(len(labels)))]
        script.append((cursor, cursor + length, label))
        cursor += length + int(rng.integers(gap_range[0], gap_range[1] + 1))
    return tuple(script)


_VOCAL_SPAN_LABELS = (
    ReactionLabel.SINGING_HUMMING,
    ReactionLabel.SINGING_HUMMING,
    ReactionLabel.WHISTLING,
)


def make_vocal_corpus(
    num_sessions: int,
    place: str,
    base_seed: int,
    duration_s: int = 45,
) -> list[SyntheticSpec]:
    """Specs for a corpus of singing/whistling sessions in one place."""
    specs = []
    for i in range(num_sessions):
        rng = default_rng([base_seed, i])
        specs.append(SyntheticSpec(
            session_id=f"v{i:03d}",
            subject_id=f"subj{i % 6:02d}",
            song_id=f"song{i % 5:02d}",
            place=place,
            duration_s=duration_s,
            script=_make_script(rng, duration_s, _VOCAL_SPAN_LABELS),
            start_offset_in_song=int(rng.integers(0, 8)),
            seed=int(rng.integers(0, 2**31)),
        ))
    return specs


def make_motion_corpus(
    num_sessions: int,
    place: str,
    base_seed: int,
    duration_s: int = 45,
) -> list[SyntheticSpec]:
    """Specs for head-motion sessions (long nodding spans) in one place."""
    specs = []
    for i in range(num_sessions):
        rng = default_rng([base_seed, 1000 + i])
        specs.append(SyntheticSpec(
            session_id=f"m{i:03d}",
            subject_id=f"subj{i % 6:02d}",
            song_id=f"song{i % 3:02d}",
            place=place,
            duration_s=duration_s,
            script=_make_script(rng, duration_s, (ReactionLabel.HEAD_MOTION,),
                                span_range=(15, 25), gap_range=(6, 10)),
            start_offset_in_song=0,
            seed=int(rng.integers(0, 2**31)),
        ))
    return specs


# ---------------------------------------------------------------------------
# engagement dataset
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class EngagementDataset:
    """Per-session reaction features with rating/familiarity targets."""

    features: np.ndarray            # (n, 10)
    ratings: np.ndarray             # (n,) integers 1..5
    familiarity: list[str]          # "known" / "unknown"
    subjects: list[str]


def make_engagement_dataset(
    num_subjects: int = 8,
    sessions_per_subject: int = 6,
    seed: int = 0,
) -> EngagementDataset:
    """Synthetic engagement study: reactions scale with how much the
    listener likes (rating) and knows (familiarity) the song.

    A rating-``r`` listener bobs along in roughly ``r`` nod spans; a known
    song invites sustained singing while an unknown one gets at most a short
    hum.  Feature vectors come from :func:`reaction_features` applied to the
    scripted truth events, so the whole engage stack is exercised.
    """
    rng = default_rng(seed)
    duration_s = 60
    rows, ratings, familiarity, subjects = [], [], [], []
    for subject in range(num_subjects):
        for _ in range(sessions_per_subject):
            rating = int(rng.integers(1, 6))
            known = bool(rng.random() < 0.5)
            vocal_events, motion_events = _engagement_script(rng, duration_s, rating, known)
            feats = reaction_features(vocal_events, motion_events, float(duration_s))
            rows.append(feats.to_vector())
            ratings.append(rating)
            familiarity.append("known" if known else "unknown")
            subjects.append(f"subj{subject:02d}")
    return EngagementDataset(
        features=np.array(rows), ratings=np.array(ratings),
        familiarity=familiarity, subjects=subjects,
    )


def _engagement_script(rng, duration_s, rating, known):
    """Truth events for one engagement session (vocal and motion timelines
    are independent; a listener can nod and sing in the same second)."""
    motion_lengths = [4] * rating
    if rating > 1 and rng.random() < 0.1:
        motion_lengths.pop()  # occasionally distracted
    if rng.random() < 0.5:
        motion_lengths[0] += int(rng.integers(-1, 2))
    if known:
        vocal_plan = [(ReactionLabel.SINGING_HUMMING, 6 + int(rng.integers(0, 2)))
                      for _ in range(2)]
    else:
        vocal_plan = [(ReactionLabel.SINGING_HUMMING, 4 + int(rng.integers(0, 2)))]
    if rng.random() < 0.6:
        vocal_plan.append((ReactionLabel.WHISTLING, int(rng.integers(2, 5))))

    def place(plan):
        events, cursor = [], int(rng.integers(0, 3))
        for label, length in plan:
            start = cursor + int(rng.integers(1, 4))
            if start + length > duration_s:
                break
            events.append(ReactionEvent(label, float(start), float(start + length)))
            cursor = start + length
        return events

    vocal_events = place(vocal_plan)
    motion_events = place([(ReactionLabel.HEAD_MOTION, l) for l in motion_lengths])
    return vocal_events, motion_events


# ---------------------------------------------------------------------------
# corpus files
# ---------------------------------------------------------------------------

def parse_corpus_spec(obj: dict, base_seed: int = 0) -> list[SyntheticSpec]:
    """Turn a corpus-description JSON object into session specs.

    Layout: ``{"sessions": [{"session_id", "subject_id", "song_id", "place",
    "duration_s", "script": [[t0, t1, label], ...], ...}]}``: typed
    :class:`SyntheticSpec` fields (:func:`core.json_fields`), defaulting to the
    spec's own, with ids and ``seed`` derived from the position and ``base_seed``.
    """
    if not isinstance(obj, dict) or not isinstance(obj.get("sessions"), list):
        raise ParseError("corpus spec must be an object with a 'sessions' list")
    specs = []
    for i, raw in enumerate(obj["sessions"]):
        if not isinstance(raw, dict):
            raise ParseError(f"corpus spec, session {i}: expected a JSON object")
        try:
            spec = SyntheticSpec(**{
                "session_id": f"s{i:03d}", "subject_id": f"subj{i:02d}",
                "song_id": f"song{i:02d}", "seed": base_seed * 100003 + i,
                **json_fields(SyntheticSpec, raw, "session")})
            spec.validate()
        except (ConfigError, ValueError) as exc:  # ParameterError too
            raise ParseError(f"corpus spec, session {i}: {exc}") from None
        specs.append(spec)
    if not specs:
        raise ParseError("corpus spec contains no sessions")
    return specs


def write_corpus(out_dir: str | os.PathLike, specs: list[SyntheticSpec]) -> list[str]:
    """Generate every spec and write session dirs plus shared note tracks.

    Returns the written session directory paths.  Note tracks live under
    ``<out_dir>/notes/<song_id>.csv``, each long enough for every session
    of that song.
    """
    needed: dict[str, int] = {}
    first: dict[str, int] = {}
    for i, spec in enumerate(specs):
        spec.validate()
        if first.setdefault(spec.session_id, i) != i:
            raise ParameterError(f"corpus spec, session {i}: session_id "
                                 f"{spec.session_id!r} repeats session {first[spec.session_id]}")
        needed[spec.song_id] = max(needed.get(spec.song_id, 0), spec.note_frames)
    notes_dir = os.path.join(out_dir, NOTES_DIR)
    os.makedirs(notes_dir, exist_ok=True)
    tracks = {}
    for song_id, length in sorted(needed.items()):
        track = make_melody(song_id, length)
        tracks[song_id] = track
        save_note_track(os.path.join(notes_dir, f"{song_id}.csv"), track)
    paths = []
    for spec in specs:
        generated = generate_session(spec, note_track=tracks[spec.song_id])
        path = os.path.join(out_dir, spec.session_id)
        generated.write(path)
        paths.append(path)
    return paths
