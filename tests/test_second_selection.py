"""Per-second IMU selection pinned to the boolean-mask oracle.

Both pipelines pick each second's IMU samples through ``core.second_bounds``
(one binary search per second).  The oracle here is the selection they used
before it: a boolean mask over the whole IMU array for every second, and a
count of the samples before each second's end for the motion window.  The
motion oracle also classifies one window at a time, where the pipeline
scores the windows in blocks of ``MOTION_BLOCK``.  Both oracles settle
stage 1 with the band test on ``harness.movement_level_oracle``, which
shares no code with ``dsp.movement_levels``.  The vocal oracle runs the
public stage functions from stage 2 on mask-cut segments and smooths each
second as it is labeled, where the pipeline smooths in one pass at the
end; recording classifier and tracker wrappers check that every stage saw
the same audio.
"""

import dataclasses
import math

import numpy as np
import pytest

from musereact import dsp, vocal
from musereact.core import (
    IMU_RATE_HZ,
    Error,
    InsufficientDataError,
    PipelineConfig,
    ReactionLabel,
    SensorSegment,
    Session,
    Stage,
    second_bounds,
    segment_session,
)
from musereact.harness import SyntheticSpec, generate_session, movement_level_oracle
from musereact.motion import (
    GYRO_LOWPASS_HZ,
    MOTION_BLOCK,
    WINDOW_SAMPLES,
    HeuristicMotionClassifier,
    LstmClassifier,
    LstmWeights,
    SequenceClassifier,
    extract_motion_units,
    run_motion_pipeline,
)
from musereact.musicinfo import MusicInfoStore

N = ReactionLabel.NON_REACTION
S = ReactionLabel.SINGING_HUMMING
H = ReactionLabel.HEAD_MOTION

CONFIG = PipelineConfig().replace(dtw_threshold=30.0)

#: The "overflowing" variant squares 1e200 on purpose, in the pipelines and
#: in the oracles alike.
pytestmark = pytest.mark.filterwarnings(
    "ignore:overflow encountered in multiply:RuntimeWarning",
    "ignore:invalid value encountered in subtract:RuntimeWarning")


def mask_segments(session):
    """Oracle: segments cut with one boolean mask per second (copies)."""
    session.validate()
    count = int(math.floor(session.duration_s + 1e-9))
    rate = session.audio_rate
    segments = []
    for i in range(count):
        mask = (session.imu_t >= i) & (session.imu_t < i + 1)
        audio = None if session.audio is None else session.audio[i * rate:(i + 1) * rate]
        segments.append(SensorSegment(
            index=i, t_start=float(i), t_end=float(i + 1),
            imu_t=session.imu_t[mask], accel=session.accel[mask],
            gyro=session.gyro[mask], audio=audio, audio_rate=rate,
        ))
    return segments


def mask_motion(session, classifier, config):
    """Oracle: the motion cascade with per-second masks and sample counts.

    Returns the labels, the stage each second last entered, the hand counts
    and the message of each failed second."""
    session.validate()
    gyro_filtered = dsp.lowpass_first_order(
        session.gyro, IMU_RATE_HZ, GYRO_LOWPASS_HZ)
    window = WINDOW_SAMPLES
    counts = dict.fromkeys(("total", "prefiltered", "cold_start", "classified", "errors"), 0)
    labels, stages, failures = [], [], {}
    for second in range(int(math.floor(session.duration_s + 1e-9))):
        counts["total"] += 1
        mask = (session.imu_t >= second) & (session.imu_t < second + 1)
        boundary = int(np.count_nonzero(session.imu_t < second + 1))
        stage, label = Stage.MOTION_FILTER, N
        try:
            if not (config.motion_movement_low_g <= movement_level_oracle(session.accel[mask])
                    <= config.motion_movement_high_g):
                counts["prefiltered"] += 1
            elif boundary < window:
                stage = Stage.COLD_START
                counts["cold_start"] += 1
            else:
                stage = Stage.CLASSIFIER
                units = extract_motion_units(gyro_filtered[boundary - window:boundary])
                p_head, _ = classifier.classify(units)
                counts["classified"] += 1
                label = H if p_head > config.motion_decision_threshold else N
        except Error as exc:
            counts["errors"] += 1
            failures[second] = str(exc)
        labels.append(label)
        stages.append(stage)
    return labels, stages, counts, failures


def assert_motion_record(result, stages, counts, failures):
    """The pipeline's record equals the oracle's, and its derived counts
    equal the oracle's hand counts."""
    record = result.stats
    assert record.stages == stages
    assert {i: str(exc) for i, exc in record.failures.items()} == failures
    assert result.observed is result.labels
    assert counts == {
        "total": len(record.stages),
        "prefiltered": record.count(Stage.MOTION_FILTER),
        "cold_start": record.count(Stage.COLD_START),
        "classified": record.count(Stage.CLASSIFIER),
        "errors": record.errors,
    }
    assert record.filtering_ratio == counts["prefiltered"] / counts["total"]


def mask_vocal(session, classifier, pitch_tracker, note_track, hmm, config):
    """Oracle: the vocal cascade on mask-cut segments, one public stage
    function at a time, smoothing each second as it is labeled.

    Returns the labels, the observed labels, the stage each second last
    entered, the hand counts and the message of each failed second."""
    counts = dict.fromkeys(("total", "motion_filtered", "sound_filtered", "classified",
                            "corrected", "errors"), 0)
    observed, labels, stages, failures = [], [], [], {}
    for segment in mask_segments(session):
        counts["total"] += 1
        stage, label = Stage.MOTION_FILTER, N
        try:
            if not (config.vocal_movement_low_g <= movement_level_oracle(segment.accel)
                    <= config.vocal_movement_high_g):
                counts["motion_filtered"] += 1
            else:
                stage = Stage.SOUND_FILTER
                if vocal.vocal_sound_prefilter(segment.audio, config.sound_db_threshold,
                                               config.db_calibration):
                    counts["sound_filtered"] += 1
                else:
                    stage = Stage.CLASSIFIER
                    patch = dsp.log_mel_patch(vocal.preprocess_segment_audio(
                        segment.audio, segment.audio_rate, config))
                    deferred = vocal.relax_rank(
                        classifier.classify(patch, segment.index), config)
                    label = deferred.label
                    if deferred.deferred:
                        stage = Stage.CORRECTION
                        counts["corrected"] += 1
                        label = vocal.correct_with_music(
                            deferred, segment.audio, segment.audio_rate, note_track,
                            pitch_tracker, segment.t_start,
                            session.start_offset_in_song + segment.t_start, config)
                    counts["classified"] += 1
        except Error as exc:
            label = N
            counts["errors"] += 1
            failures[segment.index] = str(exc)
        stages.append(stage)
        observed.append(label)
        labels.append(vocal.smooth(observed[-vocal.SMOOTHING_WINDOW:], hmm))
    return labels, observed, stages, counts, failures


def _retime(session, imu_t, keep=None):
    keep = slice(None) if keep is None else keep
    return dataclasses.replace(
        session, imu_t=imu_t[keep], accel=session.accel[keep], gyro=session.gyro[keep])


def _jittered(session):
    rng = np.random.default_rng(3)
    jitter = rng.uniform(0.0, 0.6, len(session.imu_t)) / 70.0
    return _retime(session, np.arange(len(session.imu_t)) / 70.0 + jitter)


def _on_integer_seconds(session):
    t = np.arange(len(session.imu_t)) / 70.0
    assert np.count_nonzero(t == np.floor(t)) >= 25
    return _retime(session, t)


def _starts_after_zero(session):
    return _retime(session, session.imu_t + 1.5)


def _gap(session):
    t = session.imu_t
    one_left = np.flatnonzero((t >= 10) & (t < 11))[35]
    keep = ~(((t >= 10) & (t < 11)) | ((t >= 14) & (t < 15)))
    keep[one_left] = True
    return _retime(session, t, keep)


def _mixed_start(session):
    """Second 1 keeps one IMU sample and second 4 none: among the first
    seven seconds some settle, some fail and some start cold, and the
    first full window moves from second 6 to second 8."""
    t = session.imu_t
    keep = ~(((t >= 1) & (t < 2)) | ((t >= 4) & (t < 5)))
    keep[np.flatnonzero(t >= 1)[0]] = True
    return _retime(session, t, keep)


def _overflowing(session):
    """Finite accelerations whose squares overflow: the movement table holds
    NaN for their seconds, and the prefilters recompute those levels."""
    accel = session.accel.copy()
    t = session.imu_t
    accel[(t >= 12) & (t < 13)] *= 1e200
    accel[np.flatnonzero(t >= 20)[3]] = [-1e200, 0.0, 0.0]
    return dataclasses.replace(session, accel=accel)


VARIANTS = {
    "jittered": _jittered,
    "on_integer_seconds": _on_integer_seconds,
    "starts_after_zero": _starts_after_zero,
    "gap": _gap,
    "mixed_start": _mixed_start,
    "overflowing": _overflowing,
}


@pytest.fixture(scope="module")
def generated():
    return generate_session(SyntheticSpec(
        session_id="sel", subject_id="s", song_id="tune", place="office",
        duration_s=30, script=((4, 10, S), (14, 22, H)), seed=21,
    ))


@pytest.fixture(params=sorted(VARIANTS))
def variant(request, generated):
    session = VARIANTS[request.param](generated.session)
    session.validate()
    return request.param, session


def test_bounds_match_masks(variant):
    _, session = variant
    bounds = second_bounds(session)
    for i, segment in enumerate(mask_segments(session)):
        picked = np.flatnonzero((session.imu_t >= i) & (session.imu_t < i + 1))
        assert bounds[i + 1] - bounds[i] == len(picked) == len(segment.imu_t)
        if len(picked):
            assert (bounds[i], bounds[i + 1]) == (picked[0], picked[-1] + 1)


def test_segments_equal_oracle_and_are_views(variant):
    _, session = variant
    got, want = segment_session(session), mask_segments(session)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert (g.index, g.t_start, g.t_end) == (w.index, w.t_start, w.t_end)
        for name in ("imu_t", "accel", "gyro", "audio"):
            np.testing.assert_array_equal(getattr(g, name), getattr(w, name))
        if len(g.imu_t):
            assert np.shares_memory(g.imu_t, session.imu_t)
            assert np.shares_memory(g.accel, session.accel)
            assert np.shares_memory(g.gyro, session.gyro)


def test_motion_equals_oracle(variant):
    name, session = variant
    classifier = HeuristicMotionClassifier()
    result = run_motion_pipeline(session, classifier, CONFIG)
    labels, stages, counts, failures = mask_motion(session, classifier, CONFIG)
    assert result.labels == labels
    assert_motion_record(result, stages, counts, failures)
    if name == "gap":
        assert sorted(failures) == [10, 14]
    if name == "starts_after_zero":
        assert 0 in failures
    if name == "mixed_start":
        settled, cold = Stage.MOTION_FILTER, Stage.COLD_START
        assert stages[:9] == [settled, settled, settled, cold, settled, cold, cold, cold,
                              Stage.CLASSIFIER]
        assert sorted(failures) == [1, 4]
    if name == "overflowing":
        levels = dsp.movement_levels(session.accel, second_bounds(session))
        assert np.isnan(levels[[12, 20]]).all()
        assert labels[12] == labels[20] == N and not failures


class RecordingPatchClassifier(vocal.SoundEventClassifier):
    """Replays recorded scores, keeping every log-mel patch it is shown."""

    def __init__(self, scores):
        self.replay = vocal.ScoreFileClassifier(scores)
        self.patches = {}

    def classify(self, patch, index):
        self.patches[index] = patch
        return self.replay.classify(None, index)


class RecordingTracker(vocal.AutocorrelationPitchTracker):
    """The autocorrelation tracker, keeping the audio of every call."""

    def __init__(self):
        self.calls = []

    def track(self, audio, sample_rate, t_start=0.0):
        self.calls.append((t_start, sample_rate, np.array(audio)))
        return super().track(audio, sample_rate, t_start)


#: Sticky states and noisy observations: smoothing flips isolated seconds.
HMM = vocal.HmmParams(
    states=(N, S, ReactionLabel.WHISTLING),
    initial=np.full(3, 1 / 3),
    transition=np.array([[0.9, 0.05, 0.05], [0.05, 0.9, 0.05], [0.05, 0.05, 0.9]]),
    emission=np.array([[0.6, 0.2, 0.2], [0.2, 0.6, 0.2], [0.2, 0.2, 0.6]]),
)


def test_vocal_equals_oracle(variant, generated):
    name, session = variant
    store = MusicInfoStore({"tune": generated.note_track})
    got_classifier, got_tracker = RecordingPatchClassifier(generated.scores), RecordingTracker()
    got = vocal.run_vocal_pipeline(session, got_classifier, got_tracker, store, HMM, CONFIG)
    classifier, tracker = RecordingPatchClassifier(generated.scores), RecordingTracker()
    labels, observed, stages, counts, failures = mask_vocal(
        session, classifier, tracker, generated.note_track, HMM, CONFIG)
    assert got.labels == labels
    assert got.observed == observed
    record = got.stats
    assert record.stages == stages
    assert {i: str(exc) for i, exc in record.failures.items()} == failures
    assert counts == {
        "total": len(record.stages),
        "motion_filtered": record.count(Stage.MOTION_FILTER),
        "sound_filtered": record.count(Stage.SOUND_FILTER),
        "classified": record.count(Stage.CLASSIFIER, Stage.CORRECTION),
        "corrected": record.stages.count(Stage.CORRECTION),
        "errors": record.errors,
    }
    assert record.filtering_ratio == (
        (counts["motion_filtered"] + counts["sound_filtered"]) / counts["total"])
    assert sorted(got_classifier.patches) == sorted(classifier.patches)
    for index, patch in classifier.patches.items():
        np.testing.assert_array_equal(got_classifier.patches[index], patch)
    assert len(got_tracker.calls) == len(tracker.calls) == counts["corrected"] > 0
    for (got_t, got_rate, got_audio), (t, rate, audio) in zip(got_tracker.calls, tracker.calls):
        assert (got_t, got_rate) == (t, rate)
        np.testing.assert_array_equal(got_audio, audio)
    assert counts["motion_filtered"] and counts["sound_filtered"] and counts["classified"]
    assert labels != observed
    if name == "gap":
        assert sorted(failures) == [10, 14]


def steady_session(classified, gap_at=None):
    """A session whose prefilter passes every second, so exactly
    ``classified`` windows reach the classifier: six cold-start seconds,
    then one window per second.  ``gap_at`` names a second left without
    IMU samples, which fails its prefilter instead."""
    duration = 6 + classified + (gap_at is not None)
    rng = np.random.default_rng(classified)
    t = np.arange(duration * 70) / 70.0
    accel = np.array([0.0, 0.0, 1.0]) + rng.normal(0, 0.03, (len(t), 3))
    gyro = rng.normal(0, 5, (len(t), 3))
    gyro[:, 1] += np.where((t % 40) < 20, 40 * np.sin(2 * np.pi * 2 * t), 0.0)
    keep = np.floor(t) != gap_at
    session = Session(session_id="steady", subject_id="s", song_id="tune",
                      place="office", imu_t=t[keep], accel=accel[keep], gyro=gyro[keep])
    session.validate()
    return session


class RaisingClassifier(SequenceClassifier):
    """The heuristic, except that the chosen windows raise."""

    def __init__(self, bad_windows):
        self.heuristic = HeuristicMotionClassifier()
        self.bad_windows = bad_windows

    def classify(self, units):
        if any(np.array_equal(units, bad) for bad in self.bad_windows):
            raise InsufficientDataError("chosen window")
        return self.heuristic.classify(units)


class RecordingLstm(LstmClassifier):
    def __init__(self, weights):
        super().__init__(weights)
        self.blocks = []

    def classify_many(self, units):
        self.blocks.append(len(units))
        return super().classify_many(units)


@pytest.mark.parametrize("classified", [0, 1, MOTION_BLOCK - 1, MOTION_BLOCK,
                                        MOTION_BLOCK + 1])
@pytest.mark.parametrize("kind", ["heuristic", "lstm", "raising"])
def test_motion_blocks_equal_per_second_oracle(classified, kind):
    gap_at = None
    if kind == "raising":  # a prefilter error among the classifier's errors
        gap_at = 6 + classified // 2 if classified else 3
    session = steady_session(classified, gap_at)
    bounds = second_bounds(session)
    windowed = [second for second in range(len(bounds) - 1)
                if second != gap_at and bounds[second + 1] >= WINDOW_SAMPLES]
    assert len(windowed) == classified
    chosen = sorted({windowed[0], windowed[len(windowed) // 2], windowed[-1]}
                    if windowed else set())
    if kind == "heuristic":
        classifier = HeuristicMotionClassifier()
    elif kind == "lstm":
        classifier = RecordingLstm(LstmWeights.random(np.random.default_rng(5), scale=0.5))
    else:
        filtered = dsp.lowpass_first_order(session.gyro, IMU_RATE_HZ, GYRO_LOWPASS_HZ)
        classifier = RaisingClassifier([
            extract_motion_units(filtered[bounds[s + 1] - WINDOW_SAMPLES:bounds[s + 1]])
            for s in chosen])

    result = run_motion_pipeline(session, classifier, CONFIG)
    labels, stages, counts, failures = mask_motion(session, classifier, CONFIG)
    assert result.labels == labels
    assert_motion_record(result, stages, counts, failures)
    if kind == "lstm":
        full, rest = divmod(classified, MOTION_BLOCK)
        assert classifier.blocks == [MOTION_BLOCK] * full + [rest] * (rest > 0)
    if kind == "raising":
        assert sorted(failures) == sorted([gap_at, *chosen])
        assert counts["classified"] == classified - len(chosen)
    if classified > 20:
        assert H in labels[6:] and N in labels[6:]


class RecordingHeuristic(HeuristicMotionClassifier):
    """The heuristic, keeping every window it scores."""

    def __init__(self):
        self.windows = []

    def classify_many(self, units):
        self.windows.extend(units)
        return super().classify_many(units)


def _still_tail(session, seconds):
    """``session`` held still over its last ``seconds`` seconds, so the
    prefilter settles them and the last scored window ends early."""
    accel = session.accel.copy()
    accel[session.imu_t >= math.floor(session.duration_s) - seconds] = [0.0, 0.0, 1.0]
    return dataclasses.replace(session, accel=accel)


PREFIX_SESSIONS = {
    "generated": lambda generated: generated.session,
    "still_tail": lambda generated: _still_tail(steady_session(30), 8),
    "cold_start_only": lambda generated: steady_session(0),
    "still": lambda generated: generate_session(SyntheticSpec(
        session_id="still", subject_id="s", song_id="tune", place="lounge",
        duration_s=20, activity="still", seed=4)).session,
}


@pytest.mark.parametrize("kind", sorted(PREFIX_SESSIONS))
def test_motion_filters_only_the_gyro_its_windows_read(monkeypatch, generated, kind):
    """The pipeline low-passes the gyro up to the end of the last window it
    scores, and none when no second reaches the classifier.  Its labels,
    stages and failures are the whole-stream reference's, and every window
    it scores is the window of the whole stream filtered by lfilter."""
    session = PREFIX_SESSIONS[kind](generated)
    filtered_lengths = []
    loop = dsp.lowpass_first_order_loop
    monkeypatch.setattr(dsp, "lowpass_first_order_loop", lambda signal, *design: (
        filtered_lengths.append(len(signal)), loop(signal, *design))[1])
    classifier = RecordingHeuristic()
    result = run_motion_pipeline(session, classifier, CONFIG)
    labels, stages, counts, failures = mask_motion(session, HeuristicMotionClassifier(), CONFIG)
    assert result.labels == labels
    assert_motion_record(result, stages, counts, failures)

    bounds = second_bounds(session)
    pending = [second for second, stage in enumerate(stages) if stage == Stage.CLASSIFIER]
    assert filtered_lengths == ([bounds[pending[-1] + 1]] if pending else [])
    whole = dsp.lowpass_first_order(session.gyro, IMU_RATE_HZ, GYRO_LOWPASS_HZ)
    want = [extract_motion_units(whole[bounds[s + 1] - WINDOW_SAMPLES:bounds[s + 1]])
            for s in pending]
    assert len(classifier.windows) == len(want)
    for got_window, want_window in zip(classifier.windows, want):
        assert got_window.tobytes() == want_window.tobytes()
    if kind in ("cold_start_only", "still"):
        assert not pending
    if kind == "still_tail":
        assert pending and filtered_lengths[0] <= len(session.gyro) - 8 * 70
