"""Per-second IMU selection pinned to the boolean-mask oracle.

Both pipelines pick each second's IMU samples through ``core.second_bounds``
(one binary search per second).  The oracle here is the selection they used
before it: a boolean mask over the whole IMU array for every second, and a
count of the samples before each second's end for the motion window.  The
motion oracle also classifies one window at a time, where the pipeline
scores the windows in blocks of ``MOTION_BLOCK``.
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
    second_bounds,
    segment_session,
)
from musereact.harness import SyntheticSpec, generate_session
from musereact.motion import (
    MOTION_BLOCK,
    WINDOW_SAMPLES,
    HeuristicMotionClassifier,
    LstmClassifier,
    LstmWeights,
    MotionStats,
    SequenceClassifier,
    extract_motion_units,
    motion_prefilter,
    run_motion_pipeline,
)
from musereact.musicinfo import MusicInfoStore

N = ReactionLabel.NON_REACTION
S = ReactionLabel.SINGING_HUMMING
H = ReactionLabel.HEAD_MOTION

CONFIG = PipelineConfig().replace(dtw_threshold=30.0)


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
    """Oracle: the motion cascade with per-second masks and sample counts."""
    session.validate()
    gyro_filtered = dsp.lowpass_first_order(
        session.gyro, IMU_RATE_HZ, config.imu_lowpass_hz)
    window = WINDOW_SAMPLES
    stats, labels, diagnostics = MotionStats(), [], []
    for second in range(int(math.floor(session.duration_s + 1e-9))):
        stats.total_seconds += 1
        mask = (session.imu_t >= second) & (session.imu_t < second + 1)
        boundary = int(np.count_nonzero(session.imu_t < second + 1))
        try:
            if motion_prefilter(session.accel[mask], config.motion_movement_low_g,
                                config.motion_movement_high_g):
                stats.prefiltered += 1
                label = N
            elif boundary < window:
                stats.cold_start += 1
                label = N
            else:
                units = extract_motion_units(gyro_filtered[boundary - window:boundary])
                p_head, _ = classifier.classify(units)
                stats.classified += 1
                label = H if p_head > config.motion_decision_threshold else N
        except Error as exc:
            stats.errors += 1
            diagnostics.append(f"second {second}: {exc}")
            label = N
        labels.append(label)
    return labels, stats, diagnostics


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


VARIANTS = {
    "jittered": _jittered,
    "on_integer_seconds": _on_integer_seconds,
    "starts_after_zero": _starts_after_zero,
    "gap": _gap,
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
    labels, stats, diagnostics = mask_motion(session, classifier, CONFIG)
    assert result.labels == labels
    assert result.stats == stats
    assert result.diagnostics == diagnostics
    if name == "gap":
        assert [d.split(":")[0] for d in diagnostics] == ["second 10", "second 14"]
    if name == "starts_after_zero":
        assert diagnostics[0].startswith("second 0:")


def test_vocal_equals_oracle(variant, generated, monkeypatch):
    name, session = variant

    def run():
        return vocal.run_vocal_pipeline(
            session, generated.classifier(),
            pitch_tracker=generated.pitch_tracker(),
            note_store=MusicInfoStore({"tune": generated.note_track}),
            config=CONFIG,
        )

    got = run()
    monkeypatch.setattr(vocal, "segment_session", mask_segments)
    want = run()
    assert got.labels == want.labels
    assert got.observed == want.observed
    assert got.stats == want.stats
    assert got.diagnostics == want.diagnostics
    if name == "gap":
        assert [d.split(":")[0] for d in got.diagnostics] == ["segment 10", "segment 14"]


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
        filtered = dsp.lowpass_first_order(session.gyro, IMU_RATE_HZ, CONFIG.imu_lowpass_hz)
        classifier = RaisingClassifier([
            extract_motion_units(filtered[bounds[s + 1] - WINDOW_SAMPLES:bounds[s + 1]])
            for s in chosen])

    result = run_motion_pipeline(session, classifier, CONFIG)
    labels, stats, diagnostics = mask_motion(session, classifier, CONFIG)
    assert result.labels == labels
    assert result.stats == stats
    assert result.diagnostics == diagnostics
    if kind == "lstm":
        full, rest = divmod(classified, MOTION_BLOCK)
        assert classifier.blocks == [MOTION_BLOCK] * full + [rest] * (rest > 0)
    if kind == "raising":
        assert [d.split(":")[0] for d in diagnostics] == [
            f"second {second}" for second in sorted([gap_at, *chosen])]
        assert stats.classified == classified - len(chosen)
    if classified > 20:
        assert H in labels[6:] and N in labels[6:]
