"""Tests for domain types, session handling, segmentation, and file IO."""

import dataclasses
import json
import math
import os
import struct
import tempfile
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.io.wavfile
from hypothesis import example, given, settings
from hypothesis import strategies as st

from musereact import core, dsp, engage, harness, motion, musicinfo, vocal
from musereact.core import (
    AlignmentError,
    ConfigError,
    ParameterError,
    ParseError,
    PipelineConfig,
    PipelineLabel,
    ReactionEvent,
    ReactionLabel,
    Session,
    expand_events_to_labels,
    merge_labels_to_events,
    parse_label,
    segment_session,
)

N = ReactionLabel.NON_REACTION
S = ReactionLabel.SINGING_HUMMING
W = ReactionLabel.WHISTLING
H = ReactionLabel.HEAD_MOTION


def make_session(duration_s=10.0, rate_hz=70.0, audio_rate=44100,
                 with_audio=True, seed=0):
    """Build a small valid session with noise sensor streams."""
    rng = np.random.default_rng(seed)
    n = int(round(duration_s * rate_hz))
    t = np.arange(n) / rate_hz
    accel = rng.normal(0.0, 0.01, (n, 3)) + np.array([0.0, 0.0, 1.0])
    gyro = rng.normal(0.0, 2.0, (n, 3))
    audio = None
    if with_audio:
        audio = rng.uniform(-0.1, 0.1, int(round(duration_s * audio_rate)))
    return Session(
        session_id="sess", subject_id="subj", song_id="song", place="office",
        imu_t=t, accel=accel, gyro=gyro, audio=audio, audio_rate=audio_rate,
    )


class TestReactionLabel:
    def test_round_trip_all_variants(self):
        for label in ReactionLabel:
            assert parse_label(label.value) is label

    def test_str_is_wire_value(self):
        assert str(ReactionLabel.SINGING_HUMMING) == "singing_humming"
        assert f"{ReactionLabel.NON_REACTION}" == "non_reaction"

    def test_unknown_name_rejected(self):
        with pytest.raises(ParameterError):
            parse_label("dancing")

    def test_vocal_states_order(self):
        assert core.VOCAL_STATES == (N, S, W)

    def test_timelines_split_the_labels(self):
        """Each label is non_reaction, a vocal reaction or a motion reaction,
        and exactly one of them."""
        parts = ((N,), core.VOCAL_REACTIONS, core.MOTION_REACTIONS)
        assert sorted(label for part in parts for label in part) == sorted(ReactionLabel)
        assert core.VOCAL_REACTIONS == (S, W) and core.MOTION_REACTIONS == (H,)

    def test_declared_order_is_the_canonical_order(self):
        assert list(ReactionLabel) == [N, S, W, H]
        assert engage.REACTION_INDEX == {N: 0, S: 1, W: 2, H: 3}
        assert harness.metrics.CLASS_ORDER == (N, S, W, H)

    def test_domain_maps_keep_only_their_timeline(self):
        labels = list(ReactionLabel)
        assert harness.map_to_vocal_domain(labels) == [N, S, W, N]
        assert harness.map_to_motion_domain(labels) == [N, N, N, H]


class TestPipelineLabel:
    def test_final_holds_label(self):
        lab = PipelineLabel(S)
        assert lab.label is S
        assert lab.deferred is False

    def test_uncertain_candidate_restricted(self):
        assert PipelineLabel(S, deferred=True).label is S
        assert PipelineLabel(W, deferred=True).label is W
        for label in (H, N):
            with pytest.raises(ParameterError) as err:
                PipelineLabel(label, deferred=True)
            assert str(err.value) == f"a deferred label must be a vocal reaction, got {label}"


class TestPipelineConfig:
    def test_defaults_validate(self):
        PipelineConfig().validate()

    def test_fields_are_what_is_tuned_or_deployed(self):
        """Fixed design values (sensing geometry, the gyro low-pass, the note
        window margin, the pitch confidence cut, the smoothing window, the
        classifier's class map and the relaxation depth) are module
        constants, not fields."""
        assert [f.name for f in dataclasses.fields(PipelineConfig)] == [
            "vocal_movement_low_g", "vocal_movement_high_g", "sound_db_threshold",
            "db_calibration", "audio_lowpass_hz", "margin_threshold", "dtw_threshold",
            "motion_movement_low_g", "motion_movement_high_g", "motion_decision_threshold",
            "enable_correction", "enable_smoothing"]

    def test_range_filters_ordered(self):
        with pytest.raises(ConfigError):
            PipelineConfig(vocal_movement_low_g=0.2, vocal_movement_high_g=0.1).validate()
        with pytest.raises(ConfigError):
            PipelineConfig(motion_movement_low_g=0.5, motion_movement_high_g=0.1).validate()

    def test_non_finite_rejected(self):
        with pytest.raises(ConfigError):
            PipelineConfig(sound_db_threshold=float("nan")).validate()
        with pytest.raises(ConfigError):
            PipelineConfig(dtw_threshold=float("inf")).validate()

    def test_json_round_trip(self):
        cfg = PipelineConfig().replace(dtw_threshold=30.0, margin_threshold=0.75)
        again = PipelineConfig.from_dict(json.loads(cfg.to_json()))
        assert again == cfg

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            PipelineConfig.from_dict({"no_such_threshold": 1.0})

    def test_save_load(self, tmp_path):
        cfg = PipelineConfig().replace(margin_threshold=0.8)
        path = tmp_path / "config.json"
        cfg.save(path)
        assert PipelineConfig.load(path) == cfg

    @pytest.mark.parametrize("doc, message", [
        ({"dtw_threshold": True}, "dtw_threshold must be a number"),
        ({"dtw_threshold": [30]}, "dtw_threshold must be a number"),
        ({"dtw_threshold": 10 ** 400}, "dtw_threshold must be finite"),
        ({"margin_threshold": "0.9"}, "margin_threshold must be a number"),
        ({"motion_decision_threshold": False}, "motion_decision_threshold must be a number"),
        ({"enable_correction": 0}, "enable_correction must be true or false"),
        ({"enable_smoothing": "true"}, "enable_smoothing must be true or false"),
        ({"sound_db_threshold": -10 ** 400}, "sound_db_threshold must be finite"),
    ])
    def test_field_types_checked_before_ranges(self, doc, message):
        with pytest.raises(ConfigError) as err:
            PipelineConfig.from_dict(doc)
        assert str(err.value) == message

    @pytest.mark.parametrize("name, value, message", [
        ("audio_lowpass_hz", 0.0, "audio_lowpass_hz must lie in (0, 8000), below Nyquist"),
        ("audio_lowpass_hz", 8000.0, "audio_lowpass_hz must lie in (0, 8000), below Nyquist"),
        ("audio_lowpass_hz", 7999.0, None),
        ("audio_lowpass_hz", 1e-3, None),
        ("motion_decision_threshold", -0.01, "motion_decision_threshold must lie in [0, 1]"),
        ("motion_decision_threshold", 1.01, "motion_decision_threshold must lie in [0, 1]"),
        ("motion_decision_threshold", 0.0, None),
        ("motion_decision_threshold", 1.0, None),
    ])
    def test_range_bounds(self, name, value, message):
        if message is None:
            assert getattr(PipelineConfig().replace(**{name: value}), name) == value
        else:
            with pytest.raises(ConfigError) as err:
                PipelineConfig().replace(**{name: value})
            assert str(err.value) == message

    def test_json_integers_fill_float_fields(self):
        cfg = PipelineConfig.from_dict({"dtw_threshold": 30, "margin_threshold": 1})
        assert cfg == PipelineConfig().replace(dtw_threshold=30.0, margin_threshold=1.0)
        assert type(cfg.dtw_threshold) is float

    def test_partial_json_fills_defaults(self):
        cfg = PipelineConfig.from_dict({"dtw_threshold": 42.0})
        assert cfg.dtw_threshold == 42.0
        assert cfg.margin_threshold == PipelineConfig().margin_threshold

    def test_every_constructor_validates(self, tmp_path):
        message = "^motion_decision_threshold must lie in \\[0, 1\\]$"
        with pytest.raises(ConfigError, match=message):
            PipelineConfig().replace(motion_decision_threshold=2.0)
        with pytest.raises(ConfigError, match=message):
            PipelineConfig(motion_decision_threshold=2.0)
        path = tmp_path / "config.json"
        path.write_text('{"motion_decision_threshold": 2}')
        with pytest.raises(ConfigError) as err:
            PipelineConfig.load(path)
        assert str(err.value) == f"{path}: motion_decision_threshold must lie in [0, 1]"

    def test_dtw_threshold_must_be_able_to_reject(self):
        """Ten unvoiced frames against the longest window ``note_window``
        returns cost 6 per window frame; a threshold at that distance or above
        could never reject a segment."""
        track = musicinfo.NoteTrack("tune", np.zeros(400, dtype=int))
        widest = max((musicinfo.note_window(track, k * 0.05, k * 0.05 + 1.0)
                      for k in range(1, 400)), key=len)
        reach = dsp.dtw_distance(np.full(10, dsp.UNVOICED), widest)
        assert reach == musicinfo.DTW_REACH == 126.0
        PipelineConfig(dtw_threshold=reach - 0.1)
        with pytest.raises(ConfigError) as err:
            PipelineConfig(dtw_threshold=reach)
        assert str(err.value) == "dtw_threshold must lie in [0, 126)"

    def test_default_dtw_threshold_can_reject(self):
        assert PipelineConfig().dtw_threshold == 30.0
        with pytest.raises(ConfigError):
            PipelineConfig(dtw_threshold=130.0)

    def test_pipelines_do_not_validate_again(self, monkeypatch):
        gen = harness.generate_session(harness.SyntheticSpec(
            "s", "u0", "tune", duration_s=8, script=((2, 7, S),), seed=1))
        config = PipelineConfig()

        def fail(self):
            raise AssertionError("validate ran again")
        monkeypatch.setattr(PipelineConfig, "validate", fail)
        vocal.run_vocal_pipeline(
            gen.session, gen.classifier(), gen.pitch_tracker(),
            musicinfo.MusicInfoStore({"tune": gen.note_track}), config=config)
        motion.run_motion_pipeline(gen.session, config=config)


#: Values of each config field's type, small numbers drawn often.
FIELD_VALUE = {
    "float": st.floats() | st.floats(-0.5, 1.5) | st.floats(-2.0, 200.0),
    "bool": st.booleans(),
}

#: Keyword arguments for ``PipelineConfig``: up to four fields, each of its type.
CONFIG_FIELDS = st.lists(
    st.sampled_from(dataclasses.fields(PipelineConfig)),
    unique_by=lambda f: f.name, max_size=4,
).flatmap(lambda fields: st.fixed_dictionaries(
    {f.name: FIELD_VALUE[f.type] for f in fields}))


@pytest.fixture(scope="module")
def ten_second_session():
    """A 10 s singing session whose deferred seconds reach correction."""
    return harness.generate_session(harness.SyntheticSpec(
        "prop", "u0", "tune", "cafe", duration_s=10, script=((2, 9, S),), seed=1))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(fields=CONFIG_FIELDS)
@example(fields={"motion_decision_threshold": 2.0})
def test_a_config_that_constructs_runs_both_pipelines(ten_second_session, fields):
    """Either construction raises ConfigError, or both pipelines run over the
    session with no per-second diagnostics and no warnings."""
    try:
        config = PipelineConfig(**fields)
    except ConfigError:
        return
    gen = ten_second_session
    hmm = vocal.train_hmm([(gen.vocal_truth, gen.vocal_truth)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = vocal.run_vocal_pipeline(
            gen.session, gen.classifier(), gen.pitch_tracker(),
            musicinfo.MusicInfoStore({"tune": gen.note_track}), hmm, config)
        moved = motion.run_motion_pipeline(gen.session, config=config)
    assert result.stats.failures == {} and moved.stats.failures == {}


class TestSessionValidation:
    def test_valid_session_passes(self):
        make_session().validate()

    def test_timestamps_must_increase(self):
        sess = make_session()
        t = sess.imu_t.copy()
        t[5] = t[4]
        bad = Session(
            session_id="s", subject_id="u", song_id="g", place="office",
            imu_t=t, accel=sess.accel, gyro=sess.gyro,
            audio=sess.audio, audio_rate=sess.audio_rate,
        )
        with pytest.raises(ParameterError):
            bad.validate()

    def test_rate_out_of_tolerance(self):
        # 50 Hz is outside 70 +/- 5
        sess = make_session(rate_hz=50.0)
        with pytest.raises(ParameterError):
            sess.validate()
        make_session(rate_hz=66.0).validate()
        make_session(rate_hz=74.0).validate()

    def test_audio_imu_skew_limit(self):
        # 10 s of IMU against 12 s of audio exceeds the 1 s alignment budget
        sess = make_session(duration_s=10.0)
        bad = Session(
            session_id="s", subject_id="u", song_id="g", place="office",
            imu_t=sess.imu_t, accel=sess.accel, gyro=sess.gyro,
            audio=np.zeros(12 * 44100), audio_rate=44100,
        )
        with pytest.raises(AlignmentError):
            bad.validate()

    def test_audio_optional(self):
        sess = make_session(with_audio=False)
        sess.validate()
        assert sess.audio is None

    def test_duration_prefers_audio(self):
        sess = make_session(duration_s=10.0)
        assert sess.duration_s == pytest.approx(10.0, abs=1e-6)

    @pytest.mark.parametrize("name", ["imu_t", "accel", "gyro", "audio"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_values_rejected(self, name, value):
        sess = make_session()
        array = getattr(sess, name).copy()
        array.flat[array.size // 2] = value
        setattr(sess, name, array)
        with pytest.raises(ParameterError, match="non-finite"):
            sess.validate()

    @pytest.mark.parametrize("dtype", [np.int32, np.uint16, np.bool_, np.complex128])
    def test_audio_neither_int16_nor_float_rejected(self, dtype):
        """Only int16 PCM is scaled when read, so other integer audio would
        reach the pipelines unscaled."""
        sess = make_session()
        sess.audio = (sess.audio * 32767).astype(dtype)
        with pytest.raises(ParameterError, match=(
                f"^audio must be int16 PCM or float samples, got {np.dtype(dtype)}$")):
            sess.validate()

    @pytest.mark.parametrize("name", ["accel", "gyro", "audio"])
    def test_huge_finite_values_accepted(self, name):
        """Their squares overflow, so the elementwise check must decide,
        without a floating-point warning."""
        sess = make_session()
        array = getattr(sess, name).copy()
        array.flat[::97] = 1e200
        array.flat[1::89] = -3e199
        setattr(sess, name, array)
        with np.errstate(over="ignore"):
            assert not math.isfinite(float(array.ravel() @ array.ravel()))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sess.validate()


class TestFrozenSession:
    """A passed check freezes the session, and a later check on the unchanged
    session reads no array; any change to it makes the next check a full one."""

    ARRAYS = ("imu_t", "accel", "gyro", "audio")

    @staticmethod
    def count_scans(monkeypatch):
        """The size of each array ``core._all_finite`` scans from now on."""
        scanned = []
        real = core._all_finite

        def counting(x):
            scanned.append(x.size)
            return real(x)
        monkeypatch.setattr(core, "_all_finite", counting)
        return scanned

    def test_second_validate_scans_nothing(self, monkeypatch):
        sess = make_session()
        scanned = self.count_scans(monkeypatch)
        sess.validate()
        assert sorted(scanned) == sorted(getattr(sess, n).size for n in self.ARRAYS)
        sess.validate()
        sess.validate()
        assert len(scanned) == 4

    def test_validate_makes_every_array_read_only(self):
        sess = make_session()
        assert all(getattr(sess, name).flags.writeable for name in self.ARRAYS)
        sess.validate()
        assert not any(getattr(sess, name).flags.writeable for name in self.ARRAYS)
        segment = segment_session(sess)[1]
        assert not any(getattr(segment, name).flags.writeable for name in self.ARRAYS)

    @pytest.mark.parametrize("name", ARRAYS)
    def test_in_place_write_after_validate_raises(self, name):
        sess = make_session()
        sess.validate()
        with pytest.raises(ValueError, match="read-only"):
            getattr(sess, name).flat[3] = np.nan

    @pytest.mark.parametrize("name,bad,message", [
        ("imu_t", lambda s: np.where(np.arange(s.imu_t.size) == 9, np.nan, s.imu_t),
         "IMU stream contains non-finite values"),
        ("accel", lambda s: np.full_like(s.accel, np.inf),
         "IMU stream contains non-finite values"),
        ("gyro", lambda s: np.full_like(s.gyro, np.nan), "IMU stream contains non-finite values"),
        ("audio", lambda s: np.append(s.audio[:-1], np.nan),
         "audio contains non-finite values"),
        ("audio_rate", lambda s: 0, "audio_rate must be positive"),
    ])
    def test_reassigning_a_field_checks_in_full(self, monkeypatch, name, bad, message):
        sess = make_session()
        sess.validate()
        scanned = self.count_scans(monkeypatch)
        setattr(sess, name, bad(sess))
        with pytest.raises(ParameterError, match=f"^{message}$"):
            sess.validate()
        assert scanned
        with pytest.raises(ParameterError, match=f"^{message}$"):
            sess.validate()

    @pytest.mark.parametrize("name", ARRAYS)
    def test_writeable_again_forces_a_full_check(self, monkeypatch, name):
        sess = make_session()
        sess.validate()
        scanned = self.count_scans(monkeypatch)
        array = getattr(sess, name)
        array.flags.writeable = True
        sess.validate()
        assert len(scanned) == 4 and not array.flags.writeable
        array.flags.writeable = True
        array.flat[array.size // 2] = np.nan
        with pytest.raises(ParameterError, match="non-finite"):
            sess.validate()

    def test_failed_check_records_and_freezes_nothing(self, monkeypatch):
        sess = make_session()
        sess.audio[100] = np.inf
        scanned = self.count_scans(monkeypatch)
        for _ in range(2):
            with pytest.raises(ParameterError, match="^audio contains non-finite values$"):
                sess.validate()
        assert len(scanned) == 8
        assert all(getattr(sess, name).flags.writeable for name in self.ARRAYS)

    def test_duration_reuses_the_checked_imu_step(self, monkeypatch):
        """Without audio, the duration is the IMU span plus the median step:
        computed while unchecked or re-opened, the checked step otherwise."""
        sess = make_session(with_audio=False, seed=4)
        rng = np.random.default_rng(4)
        sess.imu_t = np.arange(sess.imu_t.size) / 70.0 + rng.uniform(0.0, 0.004, sess.imu_t.size)

        def expected(s):
            return float(s.imu_t[-1] - s.imu_t[0] + np.median(np.diff(s.imu_t)))
        want = expected(sess)
        assert sess.duration_s == want  # unchecked
        sess.validate()
        with monkeypatch.context() as patched:
            patched.setattr(np, "median", None)  # the frozen session needs no median
            assert sess.duration_s == want
        sess.imu_t.flags.writeable = True  # re-opened, then changed
        sess.imu_t *= 70.0 / 72.0
        assert sess.duration_s == expected(sess) != want
        sess.validate()
        assert sess.duration_s == expected(sess)

    def test_unchecked_duration_of_bad_timestamps_is_nan(self):
        """As ``np.median`` gives: NaN for a NaN step and for no step at all."""
        sess = make_session(with_audio=False)
        sess.imu_t = sess.imu_t.copy()
        sess.imu_t[5] = np.nan
        assert math.isnan(sess.duration_s)
        sess = make_session(duration_s=1 / 70, with_audio=False)
        assert sess.imu_t.size == 1 and math.isnan(sess.duration_s)

    def test_replace_of_a_checked_session_checks_in_full(self, monkeypatch):
        sess = make_session()
        sess.validate()
        scanned = self.count_scans(monkeypatch)
        copy = dataclasses.replace(sess, session_id="other")
        assert copy.audio is sess.audio
        copy.validate()
        assert len(scanned) == 4
        with pytest.raises(AlignmentError):
            dataclasses.replace(sess, audio=sess.audio[:44100]).validate()


#: Values the finiteness check must tell apart: non-finite, finite but with an
#: overflowing square, signed zero and subnormals.
SPECIAL_VALUES = np.array([np.nan, np.inf, -np.inf, 1e200, -1e200, 1.4e154, -0.0,
                           5e-324, 2.2e-308, 0.0])


def test_all_finite_equals_isfinite_all():
    rng = np.random.default_rng(8)
    shapes = [(0,), (1,), (7,), (64,), (33, 3), (5, 4, 3)]
    overflowed_but_finite = 0
    for trial in range(400):
        x = rng.normal(0.0, 1.0, shapes[trial % len(shapes)])
        hits = rng.random(x.shape) < rng.choice([0.0, 0.02, 0.3, 1.0])
        pool = SPECIAL_VALUES if trial % 2 else SPECIAL_VALUES[3:]  # finite only
        x[hits] = rng.choice(pool, int(hits.sum()))
        views = [x, x[::2], x[::-1], x.T]
        if x.ndim > 1:
            views += [x[:, 1:], x[..., ::-2]]
        for view in views:
            want = bool(np.isfinite(view).all())
            assert core._all_finite(view) is want
            with np.errstate(over="ignore"):
                squares = float(view.ravel() @ view.ravel())
            overflowed_but_finite += want and not math.isfinite(squares)
    assert overflowed_but_finite > 50  # the elementwise fallback ran


#: Nonzero finite values; a few repeat often, so middle elements tie.
MEDIAN_VALUES = st.sampled_from([1 / 70, 1 / 69, 0.5, -3.0]) | st.floats(
    -1e300, 1e300, allow_nan=False).filter(bool)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(values=st.lists(MEDIAN_VALUES, min_size=1, max_size=199))
@example(values=[1 / 70] * 4200)
def test_partition_median_is_numpys_bit_for_bit(values):
    """``Session.validate``'s IMU step median equals ``np.median``."""
    x = np.array(values)
    assert np.float64(core._median(x)).tobytes() == np.float64(np.median(x)).tobytes()


class TestSegmentation:
    def test_partial_tail_dropped(self):
        sess = make_session(duration_s=10.7)
        segments = segment_session(sess)
        assert len(segments) == 10

    def test_exactly_one_second(self):
        assert len(segment_session(make_session(duration_s=1.0))) == 1

    def test_below_one_second(self):
        assert segment_session(make_session(duration_s=0.5)) == []

    def test_segment_times_tile(self):
        segments = segment_session(make_session(duration_s=5.0))
        for i, seg in enumerate(segments):
            assert seg.index == i
            assert seg.t_start == pytest.approx(float(i))
            assert seg.t_end == pytest.approx(float(i + 1))

    def test_audio_slices_cover_stream_exactly(self):
        """Concatenated audio slices reproduce the first N seconds bit for bit."""
        sess = make_session(duration_s=4.0, seed=3)
        segments = segment_session(sess)
        joined = np.concatenate([seg.audio for seg in segments])
        np.testing.assert_array_equal(joined, sess.audio[: len(joined)])
        assert all(len(seg.audio) == 44100 for seg in segments)

    def test_imu_slices_disjoint(self):
        sess = make_session(duration_s=6.0)
        segments = segment_session(sess)
        total = sum(len(seg.imu_t) for seg in segments)
        # every sample with t < n_segments lands in exactly one segment
        assert total == int(np.sum(sess.imu_t < len(segments)))
        for seg in segments:
            assert np.all(seg.imu_t >= seg.t_start - 1e-12)
            assert np.all(seg.imu_t < seg.t_end)


class TestReactionEvent:
    def test_positive_length_enforced(self):
        with pytest.raises(ParameterError):
            ReactionEvent(label=S, t_start=2.0, t_end=2.0)
        with pytest.raises(ParameterError):
            ReactionEvent(label=S, t_start=3.0, t_end=2.0)

    def test_duration(self):
        assert ReactionEvent(label=S, t_start=1.0, t_end=3.5).duration_s == 2.5


class TestEventMerging:
    def test_run_length_merge(self):
        events = merge_labels_to_events([S, S, N, N, N])
        assert events == [
            ReactionEvent(label=S, t_start=0.0, t_end=2.0),
            ReactionEvent(label=N, t_start=2.0, t_end=5.0),
        ]

    def test_single_label(self):
        assert merge_labels_to_events([N]) == [ReactionEvent(label=N, t_start=0.0, t_end=1.0)]

    def test_alternating_labels(self):
        events = merge_labels_to_events([S, W, S])
        assert len(events) == 3
        assert [e.label for e in events] == [S, W, S]
        assert all(e.duration_s == pytest.approx(1.0) for e in events)

    def test_empty(self):
        assert merge_labels_to_events([]) == []

    def test_adjacent_events_have_distinct_labels(self):
        rng = np.random.default_rng(11)
        labels_pool = [N, S, W]
        for _ in range(50):
            labels = [labels_pool[i] for i in rng.integers(0, 3, size=20)]
            events = merge_labels_to_events(labels)
            for a, b in zip(events, events[1:]):
                assert a.label != b.label
                assert a.t_end == pytest.approx(b.t_start)

    def test_round_trip_with_expand(self):
        rng = np.random.default_rng(7)
        labels_pool = [N, S, W, H]
        for _ in range(25):
            labels = [labels_pool[i] for i in rng.integers(0, 4, size=15)]
            events = merge_labels_to_events(labels)
            back = expand_events_to_labels(events, duration_s=15.0)
            assert back == labels

    def test_expand_fills_gaps(self):
        events = [ReactionEvent(label=S, t_start=2.0, t_end=4.0)]
        labels = expand_events_to_labels(events, duration_s=6.0)
        assert labels == [N, N, S, S, N, N]

    def test_expand_rejects_overlap(self):
        events = [
            ReactionEvent(label=S, t_start=0.0, t_end=3.0),
            ReactionEvent(label=W, t_start=2.0, t_end=4.0),
        ]
        with pytest.raises(ParameterError):
            expand_events_to_labels(events, duration_s=5.0)


#: Event bounds on whole and half seconds, within a few 1e-9 of a second's
#: midpoint, and anywhere in between.
_EVENT_TIMES = st.one_of(
    st.tuples(st.integers(0, 12), st.sampled_from([-2e-9, -1e-9, -5e-10, 0.0, 5e-10,
                                                   1e-9, 2e-9])).map(lambda p: p[0] + 0.5 + p[1]),
    st.integers(-2, 14).map(float),
    st.floats(-2.0, 14.0),
)


@st.composite
def _event_lists(draw):
    """Events between consecutive sorted bounds, some pulled back over the
    previous event by up to 3e-9 (past the 1e-9 overlap tolerance), in any
    order."""
    bounds = sorted(draw(st.lists(_EVENT_TIMES, max_size=10)))
    events = []
    for t0, t1 in zip(bounds, bounds[1:]):
        if t1 > t0 and draw(st.booleans()):
            back = draw(st.sampled_from([0.0, 0.0, 5e-10, 1e-9, 3e-9]))
            events.append(ReactionEvent(draw(st.sampled_from([S, W, H, N])), t0 - back, t1))
    return draw(st.permutations(events))


def _expand_outcome(expand, events, duration_s):
    try:
        return expand(events, duration_s)
    except ParameterError as exc:
        return "ParameterError", str(exc)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(events=_event_lists(),
       duration_s=st.none() | _EVENT_TIMES | st.sampled_from([0.0, -3.0, 13.0 - 1e-9]))
@example(events=[ReactionEvent(S, 0.0, 1.5 - 5e-10),  # covers second 1 within 1e-9
                 ReactionEvent(W, 1.5 - 1.4e-9, 1.5 - 1.1e-9)],  # covers no second
         duration_s=3.0)
@example(events=[ReactionEvent(S, 0.0, 1.5), ReactionEvent(W, 1.5, 3.0)], duration_s=None)
@example(events=[ReactionEvent(S, 0.0, 3.0), ReactionEvent(W, 2.0, 4.0)], duration_s=5.0)
@example(events=[ReactionEvent(S, -2.0, -1.0), ReactionEvent(S, 2.0, 3.0)],
         duration_s=None)  # a run wholly before 0: its slice would delete seconds
@example(events=[ReactionEvent(W, 2.5, 4.0), ReactionEvent(H, 0.0, 2.5)],
         duration_s=5.0)  # both cover second 2's midpoint; the later takes it
@example(events=[ReactionEvent(W, 2.6, 3.4)], duration_s=5.0)  # covers no second
@example(events=[ReactionEvent(S, 1.0, 9.0), ReactionEvent(H, 10.0, 12.0)],
         duration_s=4.0)  # one runs past the count, one starts after it
def test_expand_events_equals_the_loop_oracle(events, duration_s):
    """The painter gives the per-second loop's labels, or its overlap error
    with its message."""
    want = _expand_outcome(harness.expand_events_loop_oracle, events, duration_s)
    assert _expand_outcome(expand_events_to_labels, events, duration_s) == want


class TestSessionDirIO:
    def test_round_trip(self, tmp_path):
        sess = make_session(duration_s=3.0, seed=5)
        root = tmp_path / "sess"
        core.save_session_dir(root, sess)
        assert (root / "meta.json").is_file()
        assert (root / "imu.csv").is_file()
        assert (root / "audio.wav").is_file()
        loaded = core.load_session_dir(root)
        assert loaded.session_id == sess.session_id
        assert loaded.subject_id == sess.subject_id
        assert loaded.song_id == sess.song_id
        assert loaded.place == sess.place
        np.testing.assert_allclose(loaded.imu_t, sess.imu_t, atol=1e-9)
        np.testing.assert_allclose(loaded.accel, sess.accel, atol=1e-9)
        np.testing.assert_allclose(loaded.gyro, sess.gyro, atol=1e-9)
        # audio survives 16-bit quantization
        assert len(loaded.audio) == len(sess.audio)
        np.testing.assert_allclose(loaded.audio_samples(0, len(loaded.audio)), sess.audio,
                                   atol=1.0 / 32767)

    def test_round_trip_without_audio(self, tmp_path):
        sess = make_session(duration_s=2.0, with_audio=False)
        core.save_session_dir(tmp_path / "s2", sess)
        assert not (tmp_path / "s2" / "audio.wav").exists()
        loaded = core.load_session_dir(tmp_path / "s2")
        assert loaded.audio is None

    def test_save_is_deterministic(self, tmp_path):
        sess = make_session(duration_s=2.0, seed=9)
        core.save_session_dir(tmp_path / "a", sess)
        core.save_session_dir(tmp_path / "b", sess)
        for name in ("meta.json", "imu.csv", "audio.wav"):
            a = (tmp_path / "a" / name).read_bytes()
            b = (tmp_path / "b" / name).read_bytes()
            assert a == b

    def test_missing_meta_rejected(self, tmp_path):
        (tmp_path / "empty").mkdir()
        with pytest.raises((ParseError, OSError)):
            core.load_session_dir(tmp_path / "empty")

    def test_bad_imu_row_reports_line(self, tmp_path):
        sess = make_session(duration_s=2.0)
        root = tmp_path / "bad"
        core.save_session_dir(root, sess)
        lines = (root / "imu.csv").read_text().splitlines()
        lines[3] = "not,a,number,at,all,x,y"
        (root / "imu.csv").write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError) as err:
            core.load_session_dir(root)
        assert "line 4" in str(err.value)

    def test_list_session_dirs(self, tmp_path):
        for name in ("b", "a", "c"):
            core.save_session_dir(tmp_path / name, make_session(duration_s=2.0))
        (tmp_path / "not_a_session").mkdir()
        found = core.list_session_dirs(tmp_path)
        assert [os.path.basename(p) for p in found] == ["a", "b", "c"]


#: The tail of every WAVE_FORMAT_EXTENSIBLE sub-format GUID; its first 4
#: bytes hold the plain format tag.
GUID_TAIL = b"\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71"


def wav_chunk(chunk_id: bytes, payload: bytes, order: str = "<") -> bytes:
    """One RIFF chunk, with its pad byte when the payload's length is odd."""
    return chunk_id + struct.pack(order + "I", len(payload)) + payload + b"\0" * (len(payload) % 2)


def wav_file(rate: int, pcm, layout: str = "extensible", tag: int = 1,
             channels: int = 1, bits: int = 16) -> bytes:
    """A WAV file of ``pcm`` built by hand.  ``layout`` is ``extensible`` (a
    40-byte WAVE_FORMAT_EXTENSIBLE fmt chunk for format ``tag``), ``list``
    (an odd-sized LIST chunk before the data), ``unknown`` (an odd-sized
    chunk of an id no reader knows) or ``rifx`` (the big-endian variant)."""
    order = ">" if layout == "rifx" else "<"
    align = channels * bits // 8
    fmt = struct.pack(order + "HHIIHH", tag, channels, rate, rate * align, align, bits)
    if layout == "extensible":
        fmt = (struct.pack("<HHIIHHHHI", 0xFFFE, channels, rate, rate * align, align, bits,
                           22, bits, 4) + struct.pack("<I", tag) + GUID_TAIL)
    chunks = [wav_chunk(b"fmt ", fmt, order)]
    if layout in ("list", "unknown"):
        info = b"INFOISFT" + struct.pack("<I", 5) + b"test\0"
        chunks.append(wav_chunk(b"LIST" if layout == "list" else b"junq", info))
    chunks.append(wav_chunk(b"data", np.asarray(pcm, dtype=order + "i2").tobytes(), order))
    body = b"WAVE" + b"".join(chunks)
    return (b"RIFX" if layout == "rifx" else b"RIFF") + struct.pack(order + "I", len(body)) + body


def scipy_read(path):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", scipy.io.wavfile.WavFileWarning)  # unknown chunks
        return scipy.io.wavfile.read(path)


PCM16 = st.lists(st.sampled_from([-32768, -32767, 0, 32767]) | st.integers(-32768, 32767),
                 max_size=300)


class TestWavFile:
    """``core.write_wav`` writes ``scipy.io.wavfile.write``'s bytes, and
    ``core.read_wav`` reads what ``scipy.io.wavfile.read`` reads from every
    mono 16-bit PCM layout it accepts."""

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(rate=st.sampled_from([8000, 16000, 44100, 48000]) | st.integers(1, 2**31 - 1),
           samples=PCM16)
    @example(rate=44100, samples=[])
    @example(rate=1, samples=[-32768, 32767, -32767])
    def test_round_trip_matches_scipy(self, rate, samples):
        pcm = np.array(samples, dtype=np.int16)
        with tempfile.TemporaryDirectory() as root:
            ours, theirs = os.path.join(root, "ours.wav"), os.path.join(root, "theirs.wav")
            core.write_wav(ours, rate, pcm)
            scipy.io.wavfile.write(theirs, rate, pcm)
            with open(ours, "rb") as fh, open(theirs, "rb") as gh:
                assert fh.read() == gh.read()
            for layout in (None, "extensible", "list", "unknown"):
                if layout is not None:
                    with open(theirs, "wb") as fh:
                        fh.write(wav_file(rate, pcm, layout))
                got_rate, got = core.read_wav(theirs)
                want_rate, want = scipy_read(theirs)
                assert got_rate == want_rate == rate
                assert got.dtype == want.dtype == np.int16
                assert got.tobytes() == want.tobytes() == pcm.tobytes()

    def test_samples_are_a_view_of_the_file_bytes(self, tmp_path):
        core.write_wav(tmp_path / "a.wav", 44100, np.arange(-50, 50, dtype=np.int16))
        _, pcm = core.read_wav(tmp_path / "a.wav")
        assert isinstance(pcm.base, bytes) and not pcm.flags.writeable

    @pytest.mark.parametrize("data, message", [
        (wav_file(44100, [1, 2, 3], "rifx"), "not a readable WAV file"),
        (wav_file(44100, [1, 2, 3], "list")[:-3], "not a readable WAV file"),
        (wav_file(44100, [1, 2, 3], "extensible", tag=2), "not a readable WAV file"),
        (wav_file(44100, [1, 2], "extensible", tag=3, bits=32), "expected 16-bit PCM, got float32"),
        (wav_file(44100, [1, 2], "extensible", tag=3, channels=2, bits=32),
         "expected mono audio"),
    ], ids=["rifx", "cut_data", "adpcm", "extensible_float32", "extensible_stereo"])
    def test_rejects_with_one_line(self, tmp_path, data, message):
        (tmp_path / "a.wav").write_bytes(data)
        with pytest.raises(ParseError) as err:
            core.read_wav(tmp_path / "a.wav")
        assert str(err.value) == f"{tmp_path / 'a.wav'}: {message}"

    def test_rifx_is_a_contract_change(self, tmp_path):
        """scipy reads the big-endian variant; the file layer does not."""
        (tmp_path / "a.wav").write_bytes(wav_file(44100, [1, -2, 3], "rifx"))
        rate, pcm = scipy_read(tmp_path / "a.wav")
        assert rate == 44100 and pcm.tolist() == [1, -2, 3]


def wav_chunks(data: bytes) -> list[tuple[int, int]]:
    """(offset, payload length) of each chunk after ``WAVE``, as written."""
    chunks, pos = [], 12
    while pos + 8 <= len(data):
        size = struct.unpack_from("<I", data, pos + 4)[0]
        chunks.append((pos, size))
        pos += 8 + size + size % 2
    return chunks


#: Values a mutated 16- or 32-bit header field takes: zero, one, the
#: extremes, off-by-ones of the canonical values, the tags of other formats.
WAV_FIELD_VALUES = st.sampled_from([0, 1, 2, 3, 8, 15, 16, 17, 18, 22, 24, 32, 39, 40,
                                    8000, 0xFFFE, 0xFFFF]) | st.integers(0, 2**16 - 1)
WAV_SIZE_VALUES = st.sampled_from([0, 1, 0xFFFFFFFF, 2**31]) | st.integers(0, 2**32 - 1)


def session_wav(layout: str) -> bytearray:
    """3 s of 8 kHz mono PCM as a WAV file: ``plain`` is ``core.write_wav``'s
    canonical header, any other layout is :func:`wav_file`'s."""
    pcm = np.arange(3 * 8000, dtype=np.int16) % 251 - 125
    if layout != "plain":
        return bytearray(wav_file(8000, pcm, layout))
    return bytearray(struct.pack("<4sI4s4sIHHIIHH4sI", b"RIFF", 36 + pcm.nbytes, b"WAVE",
                                 b"fmt ", 16, 1, 1, 8000, 16000, 2, 16, b"data", pcm.nbytes)
                     + pcm.tobytes())


#: A canonical WAV whose rate field reads 0 Hz.
ZERO_RATE_WAV = session_wav("plain")
ZERO_RATE_WAV[24:28] = bytes(4)


@st.composite
def mutated_wav(draw):
    """The bytes of :func:`session_wav` in one of four layouts, with one
    header mutation: a chunk size (exact, off by a little, or any), a field
    of the ``fmt `` chunk or of its extensible sub-format, the pad byte of an
    odd-sized chunk, or a cut inside a chunk."""
    layout = draw(st.sampled_from(["plain", "extensible", "list", "unknown"]))
    return bytes(mutate_wav_header(draw, session_wav(layout)))


def mutate_wav_header(draw, data: bytearray) -> bytearray:
    """``data``, a WAV file whose first chunk is ``fmt ``, with one header
    mutation drawn by ``draw`` as :func:`mutated_wav` describes."""
    chunks = wav_chunks(data)
    kind = draw(st.sampled_from(["size", "fmt", "pad", "cut"]))
    if kind == "size":  # the RIFF chunk's or another chunk's
        at, size = draw(st.sampled_from([(0, len(data) - 8)] + chunks))
        value = draw(st.integers(-2, 2).map(lambda d: (size + d) % 2**32) | WAV_SIZE_VALUES)
        struct.pack_into("<I", data, at + 4, value)
    elif kind == "fmt":  # fmt is the first chunk in every layout
        offset = draw(st.sampled_from([0, 2, 4, 8, 12, 14, 16, 18, 20, 24, 28, 39]))
        width = 4 if offset in (4, 8, 20, 24) else 1 if offset == 39 else 2
        value = draw(WAV_FIELD_VALUES) % 2 ** (8 * width)
        data[20 + offset:20 + offset + width] = value.to_bytes(width, "little")
    elif kind == "pad":  # the first odd-sized chunk (else fmt) loses the byte after
        at, size = next((c for c in chunks if c[1] % 2), chunks[0])  # or takes it
        if draw(st.booleans()):
            del data[at + 8 + size]
        else:
            struct.pack_into("<I", data, at + 4, size + 1)
    else:  # inside the RIFF header or inside a chunk, its header included
        at, length = draw(st.sampled_from([(0, 12)] + [(at, 8 + size) for at, size in chunks]))
        del data[at + draw(st.integers(0, length - 1)):]
    return data


class TestWavHeaderMutations:
    """A session directory whose ``audio.wav`` header is mutated loads, or
    raises :class:`ParseError` naming the WAV file; never anything else.
    The one exception: a well-formed WAV whose data chunk was shortened (or
    its rate changed, when ``meta.json`` gives none) reads as audio of
    another span, and the alignment check names the session directory, as
    ``test_cli.py::TestAudioWav::test_session_error_names_the_directory``
    pins."""

    SESSION = make_session(duration_s=3.0, audio_rate=8000, seed=4)

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(data=mutated_wav(), meta_rate=st.booleans())
    @example(data=bytes(ZERO_RATE_WAV), meta_rate=False)  # once a ParameterError
    def test_loads_or_names_the_file(self, data, meta_rate):
        with tempfile.TemporaryDirectory() as root:
            core.save_session_dir(root, self.SESSION)
            if not meta_rate:
                meta = json.loads(open(os.path.join(root, "meta.json")).read())
                del meta["audio_rate"]
                core.write_text(os.path.join(root, "meta.json"), json.dumps(meta))
            wav = os.path.join(root, "audio.wav")
            core.write_bytes(wav, data)
            try:
                session = core.load_session_dir(root)
            except AlignmentError as exc:
                assert str(exc).startswith(f"{root}: audio and IMU spans disagree")
            except ParseError as exc:
                assert wav in str(exc)
            else:
                assert session.audio.dtype == np.int16


class PatchKeepingClassifier(vocal.SoundEventClassifier):
    """Replays recorded scores, keeping every log-mel patch it is shown."""

    def __init__(self, scores):
        self.replay = vocal.ScoreFileClassifier(scores)
        self.patches = {}

    def classify(self, patch, index):
        self.patches[index] = patch
        return self.replay.classify(None, index)


class TestPcmAudio:
    """A loaded session keeps the int16 PCM of its ``audio.wav``; each read
    converts only its own slice, to the samples the whole-file conversion gives."""

    def test_int16_is_kept_and_not_scanned(self, monkeypatch):
        sess = make_session(duration_s=3.0)
        pcm = np.round(sess.audio * 32767.0).astype(np.int16)
        sess = dataclasses.replace(sess, audio=pcm)
        assert sess.audio is pcm
        assert dataclasses.replace(sess, audio=pcm.astype(np.int32)).audio.dtype == float
        scanned = TestFrozenSession.count_scans(monkeypatch)
        sess.validate()
        assert pcm.size not in scanned and len(scanned) == 3
        with pytest.raises(AlignmentError):
            dataclasses.replace(sess, audio=pcm[:44100]).validate()

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1), rate=st.sampled_from([8000, 16000, 44100]),
           seconds=st.integers(1, 3), tail=st.integers(0, 999))
    @example(seed=0, rate=8000, seconds=1, tail=0)
    def test_each_second_equals_the_whole_file_conversion(self, seed, rate, seconds, tail):
        rng = np.random.default_rng(seed)
        pcm = rng.integers(-32768, 32768, seconds * rate + tail).astype(np.int16)
        pcm[rng.integers(0, pcm.size, 8)] = -32768
        pcm[rng.integers(0, pcm.size, 8)] = 32767
        sess = dataclasses.replace(make_session(duration_s=1.0, with_audio=False),
                                   audio=pcm, audio_rate=rate)
        whole = np.divide(pcm, 32767.0, dtype=float)
        for i in range(seconds + 1):
            got = sess.audio_samples(i * rate, (i + 1) * rate)
            assert got.dtype == np.float64
            assert got.tobytes() == whole[i * rate:(i + 1) * rate].tobytes()

    def test_load_then_save_is_byte_identical(self, tmp_path):
        """Kept as int16, every sample round-trips, -32768 included (a float
        session is clipped to [-1, 1], where -32768 would come back -32767)."""
        core.save_session_dir(tmp_path / "a", make_session(duration_s=3.0))
        pcm = np.random.default_rng(2).integers(-32768, 32768, 3 * 44100).astype(np.int16)
        pcm[[0, 7, -1]] = [-32768, 32767, -32768]
        scipy.io.wavfile.write(tmp_path / "a" / "audio.wav", 44100, pcm)
        loaded = core.load_session_dir(tmp_path / "a")
        assert loaded.audio.dtype == np.int16
        np.testing.assert_array_equal(loaded.audio, pcm)
        core.save_session_dir(tmp_path / "b", loaded)
        assert ((tmp_path / "b" / "audio.wav").read_bytes()
                == (tmp_path / "a" / "audio.wav").read_bytes())

    def test_load_peak_memory_stays_near_the_pcm_bytes(self, tmp_path):
        core.save_session_dir(tmp_path, make_session(duration_s=60.0))
        tracemalloc.start()
        try:
            loaded = core.load_session_dir(tmp_path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert loaded.audio.nbytes == 60 * 44100 * 2
        assert peak < 1.5 * loaded.audio.nbytes

    @settings(max_examples=15, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 10_000), place=st.sampled_from(sorted(harness.PLACE_PROFILES)),
           label=st.sampled_from([S, W]), start=st.integers(0, 4), length=st.integers(2, 5))
    def test_pipelines_read_pcm_as_its_float_conversion(self, seed, place, label, start,
                                                        length):
        spec = harness.SyntheticSpec("pcm", "u0", "tune", place, duration_s=10,
                                     script=((start, start + length, label),), seed=seed)
        generated = harness.generate_session(spec)
        with tempfile.TemporaryDirectory() as root:
            core.save_session_dir(root, generated.session)
            loaded = core.load_session_dir(root)
        assert loaded.audio.dtype == np.int16
        converted = dataclasses.replace(
            loaded, audio=np.divide(loaded.audio, 32767.0, dtype=float))
        store = musicinfo.MusicInfoStore({"tune": generated.note_track})
        runs = []
        for session in (loaded, converted):
            classifier = PatchKeepingClassifier(generated.scores)
            results = (vocal.run_vocal_pipeline(session, classifier,
                                                vocal.AutocorrelationPitchTracker(), store),
                       motion.run_motion_pipeline(session, motion.HeuristicMotionClassifier()))
            runs.append((
                [(r.labels, r.observed, r.stats.stages,
                  {i: (type(e), str(e)) for i, e in r.stats.failures.items()})
                 for r in results],
                {i: patch.tobytes() for i, patch in classifier.patches.items()}))
        assert runs[0] == runs[1]
        assert runs[0][1]  # some second reached the classifier


class TestLabelAndEventFiles:
    def test_labels_csv_round_trip(self, tmp_path):
        events = [
            ReactionEvent(label=N, t_start=0.0, t_end=5.0),
            ReactionEvent(label=S, t_start=5.0, t_end=9.0),
            ReactionEvent(label=W, t_start=9.0, t_end=12.0),
        ]
        path = tmp_path / "labels.csv"
        core.save_labels(path, events)
        assert core.load_labels(path) == events

    def test_events_jsonl_round_trip(self, tmp_path):
        events = [
            ReactionEvent(label=S, t_start=1.0, t_end=4.0),
            ReactionEvent(label=H, t_start=6.0, t_end=8.5),
        ]
        path = tmp_path / "events.jsonl"
        core.save_events_jsonl(path, events)
        assert core.load_events_jsonl(path) == events

    def test_jsonl_lines_are_sorted_json(self, tmp_path):
        path = tmp_path / "events.jsonl"
        core.save_events_jsonl(path, [ReactionEvent(label=S, t_start=0.0, t_end=2.0)])
        line = path.read_text().splitlines()[0]
        assert line == json.dumps(json.loads(line), sort_keys=True)

    def test_bad_label_in_csv(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text("t_start,t_end,label\n0.0,1.0,jazz_hands\n")
        with pytest.raises((ParseError, ParameterError)):
            core.load_labels(path)


def _session_view(session):
    return session.imu_t.tolist(), session.accel.tolist(), session.gyro.tolist()


#: Every headered CSV format: (file name, header, data rows, load, view).
#: ``load`` takes the CSV path; ``view`` turns its result into plain data.
CSV_FORMATS = {
    "imu": ("imu.csv", "t,ax,ay,az,gx,gy,gz",
            [f"{k / 70:.10g},0,0.01,1,{k % 5},0,-1" for k in range(140)],
            lambda path: core.load_session_dir(os.path.dirname(path)),
            _session_view),
    "labels": ("labels.csv", "t_start,t_end,label",
               ["0,5,singing_humming", "5,9,whistling", "9,12,head_motion"],
               core.load_labels, list),
    "pitch": ("pitch.csv", "t,f0,confidence",
              [f"{k * 0.1:.1f},{200 + k},0.{k % 10}" for k in range(12)],
              vocal.FilePitchTracker.from_file,
              lambda tracker: [a.tolist() for a in tracker.track(None, 0, 0.0)]),
    "note_track": ("tune.csv", "t,chroma",
                   [f"{k * 0.1:.1f},{'U' if k % 4 == 3 else k % 12}" for k in range(15)],
                   musicinfo.load_note_track,
                   lambda track: track.symbols.tolist()),
    "training": ("train.csv",
                 "singing_duration,singing_rate,whistling_duration,whistling_rate,"
                 "vocal_non_reaction_duration,vocal_non_reaction_rate,"
                 "head_motion_duration,head_motion_rate,"
                 "motion_non_reaction_duration,motion_non_reaction_rate,target",
                 [",".join(["0.5"] * 10 + [str(k % 5 + 1)]) for k in range(4)],
                 engage.load_training_csv,
                 lambda table: (table[0].tolist(), table[1])),
}


class TestHeaderedCsvFormats:
    """All five CSV formats go through ``core.read_csv_rows``."""

    @staticmethod
    def write(tmp_path, fmt, data: bytes | None):
        """Write ``data`` (None: nothing) as the format's file, next to the
        ``meta.json`` the imu loader needs."""
        name = CSV_FORMATS[fmt][0]
        (tmp_path / "meta.json").write_text('{"session_id": "s"}')
        path = tmp_path / name
        if data is not None:
            path.write_bytes(data)
        return path

    @pytest.mark.parametrize("fmt", sorted(CSV_FORMATS))
    @pytest.mark.parametrize("case", ["missing", "empty", "header", "fields", "bytes"])
    def test_bad_file_is_parse_error_naming_path_and_line(self, tmp_path, fmt, case):
        _, header, rows, load, _ = CSV_FORMATS[fmt]
        n = header.count(",") + 1
        good = f"{header}\n{rows[0]}\n".encode()
        data, expected = {
            "missing": (None, "file not found"),
            "empty": (b"", "line 1: empty file"),
            "header": (f"x{header}\n{rows[0]}\n".encode(),
                       f"line 1: expected header {header}"),
            "fields": (good + f"{rows[1]},0\n".encode(), f"line 3: expected {n} fields"),
            "bytes": (good + b"\xff\xfe" + rows[1].encode() + b"\n",
                      "line 3: not UTF-8 text"),
        }[case]
        path = self.write(tmp_path, fmt, data)
        with pytest.raises(ParseError) as err:
            load(path)
        assert str(err.value) == f"{path}: {expected}"

    @pytest.mark.parametrize("fmt", sorted(CSV_FORMATS))
    def test_blank_lines_are_skipped(self, tmp_path, fmt):
        _, header, rows, load, view = CSV_FORMATS[fmt]
        spaced = [header, ""] + [line for row in rows for line in (row, "")]
        results = []
        for name, lines in (("plain", [header, *rows]), ("spaced", spaced)):
            (tmp_path / name).mkdir()
            text = "\n".join(lines) + "\n"
            results.append(view(load(self.write(tmp_path / name, fmt, text.encode()))))
        assert results[0] == results[1]


_MATRIX_HEADER = ["t", "x", "y"]

#: A field as files hold it, or mangle it: forms both readers take (``.5``,
#: ``nan``, padding), forms only ``float()`` takes (``1_0``, full-width
#: digits, quotes), and forms neither takes.
_MATRIX_FIELDS = st.one_of(
    st.sampled_from(["0", "-0", "1", "-2.5", ".5", "5.", "+1", "1e3", "1E-400", "1e999",
                     "nan", "-nan", "Infinity", "-inf", "1_0", "１", '"1"', "'1'",
                     " 1", "1 ", "\t1\t", "\xa01", "\x0b1", "", " ", "#", "#1", "1#",
                     "\x00", "\ufeff1", "x", "0x1p3", "1d5"]),
    st.floats().map(repr),
    st.text(alphabet="0123456789.eE+-_ #\t\"'\x00\r\n,", max_size=6),
)
_MATRIX_ROWS = st.one_of(
    st.lists(st.floats().map(repr), min_size=3, max_size=3).map(",".join),
    st.lists(_MATRIX_FIELDS, min_size=3, max_size=3).map(",".join),
    st.lists(_MATRIX_FIELDS, max_size=4).map(",".join),
)
_MATRIX_TEXTS = st.builds(
    lambda head, rows, last_newline: "".join([head, *rows]) if last_newline
    else "".join([head, *rows]).rstrip("\n"),
    st.sampled_from(["t,x,y\n"] * 6 + ["t,x,y\r\n", "t,x,y", " t, x ,y\n",
                                       "\ufefft,x,y\n", "t,x\n", ""]),
    st.lists(st.builds(str.__add__, _MATRIX_ROWS,
                       st.sampled_from(["\n"] * 4 + ["\r\n", "\r"])), max_size=6),
    st.booleans(),
)


def _matrix_outcome(read):
    """The array ``read()`` returns, or the type and message of what it raises."""
    try:
        return read()
    except Exception as exc:  # csv.Error too: Python 3.10 rejects a NUL
        return type(exc).__name__, str(exc)


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(text=_MATRIX_TEXTS)
@example(text="t,x,y\n1,2,3\n")
@example(text='t,x,y\n"1",2,3\n')
@example(text="t,x,y\n1_0,2,3\n")
@example(text="t,x,y\n１,2,3\n")
@example(text="t,x,y\n1,2,3\r4,5,6\r")
@example(text="t,x,y\n1,2,3\n   \n4,5,6\n")
@example(text="t,x,y\n#1,2,3\n1,2,3\n")
@example(text="t,x,y\n1,2,3#\n")
@example(text="t,x,y\n1,2,3,\n")
@example(text="t,x,y\n1,2\x00,3\n")
@example(text="\ufefft,x,y\n1,2,3\n")
@example(text="t,x,y\n\ufeff1,2,3\n")
@example(text="t,x,y\n")
@example(text="t,x,y\n\n\r\n")
@example(text="t,x,y\n1,2,3")
@example(text="t,x,y\nnan,Infinity,-inf\n")
@example(text="t,x,y\n.5,5.,-0\n")
@example(text="t,x,y\n 1 ,\t2\t, 3\n")
def test_read_csv_matrix_equals_the_row_path(tmp_path_factory, text):
    """For any text, the bulk reader gives the row-by-row reader's array (NaN
    and the sign of zero included), or raises its error with its message;
    and it warns about nothing."""
    path = tmp_path_factory.getbasetemp() / "matrix.csv"
    path.write_bytes(text.encode())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _matrix_outcome(lambda: core.read_csv_matrix(path, _MATRIX_HEADER))
    want = _matrix_outcome(
        lambda: core.read_csv_matrix_rows(path, _MATRIX_HEADER))
    if isinstance(want, tuple):
        assert isinstance(got, tuple) and got == want
    else:
        assert isinstance(got, np.ndarray) and got.dtype == want.dtype == float
        assert got.shape == want.shape == (len(want), 3)
        assert np.array_equal(got, want, equal_nan=True)
        assert np.array_equal(np.signbit(got), np.signbit(want))


def test_written_imu_and_pitch_files_are_read_in_bulk(tmp_path, monkeypatch):
    """``imu.csv`` and ``pitch.csv`` as the writers write them never take the
    row path, and read as it reads them."""
    core.save_session_dir(tmp_path, make_session(duration_s=3.0))
    pitch_path = tmp_path / "pitch.csv"
    vocal.save_pitch_file(pitch_path, np.linspace(0, 300, 30), np.linspace(0, 1, 30))
    imu_rows = core.read_csv_matrix_rows(tmp_path / "imu.csv", core._IMU_HEADER)
    pitch_rows = vocal.FilePitchTracker._from_rows(pitch_path).track(None, 0, 1.0)
    monkeypatch.setattr(core, "read_csv_matrix_rows", None)
    monkeypatch.setattr(vocal.FilePitchTracker, "_from_rows", None)
    session = core.load_session_dir(tmp_path)
    assert np.array_equal(np.column_stack([session.imu_t, session.accel, session.gyro]),
                          imu_rows)
    pitch = vocal.FilePitchTracker.from_file(pitch_path).track(None, 0, 1.0)
    assert all(np.array_equal(a, b) for a, b in zip(pitch, pitch_rows))


def test_an_int_read_through_a_float_is_refused(monkeypatch):
    """numpy 1.23 and 1.24 read ``3.0`` into an int column through a float and
    warn, where later numpy raises: the warning refuses the text too, so the
    row reader, which rejects ``3.0``, reports it."""
    args = ("t,chroma\n0.0,3\n", ["t", "chroma"], [("t", float), ("chroma", int)])
    assert core.parse_csv_bulk(*args)["chroma"].tolist() == [3]

    def warning_loadtxt(*a, real=np.loadtxt, **kw):
        warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.",
                      DeprecationWarning)
        return real(*a, **kw)

    monkeypatch.setattr(np, "loadtxt", warning_loadtxt)
    assert core.parse_csv_bulk(*args) is None


@pytest.mark.parametrize("times, origin, off", [
    ([0.0, 0.1, 0.2], 0.0, False), ([2.3, 2.4000009], 2.3, False),
    ([0.0, 0.100002], 0.0, True), ([0.0, float("nan")], 0.0, True),
    ([0.0, float("inf")], 0.0, True), ([], 0.0, False)])
def test_off_grid(times, origin, off):
    assert core.off_grid(np.array(times), origin, 0.1) is off


#: JSON document loaders: name -> (file name, load function taking the file path).
JSON_LOADERS = {
    "config": ("config.json", PipelineConfig.load),
    "hmm": ("hmm.json", vocal.HmmParams.load),
    "lstm": ("lstm.json", motion.LstmWeights.load),
    "tree": ("tree.json", engage.DecisionTree.load),
    "meta": ("meta.json", lambda path: core.load_session_dir(os.path.dirname(path))),
}


class TestJsonDocuments:
    """The JSON loaders read through ``core.read_json``."""

    @pytest.mark.parametrize("loader", sorted(JSON_LOADERS))
    @pytest.mark.parametrize("data, expected", [
        (None, "file not found"),
        (b'{\n  "a": "\xff"\n}\n', "line 2: not UTF-8 text"),
        (b'{"a": \n', "line 2: Expecting value at column 1"),
        (b"[1, 2]\n", "expected a JSON object"),
    ], ids=["missing", "not_utf8", "syntax", "not_object"])
    def test_bad_file_is_parse_error_naming_path(self, tmp_path, loader, data, expected):
        name, load = JSON_LOADERS[loader]
        path = tmp_path / name
        if data is not None:
            path.write_bytes(data)
        with pytest.raises(ParseError) as err:
            load(str(path))
        assert str(err.value) == f"{path}: {expected}"

    def test_nesting_too_deep_is_parse_error_naming_path(self, tmp_path):
        path = tmp_path / "deep.json"
        path.write_bytes(b"[" * 100_000)
        with pytest.raises(ParseError) as err:
            core.read_json(path)
        assert str(err.value).startswith(f"{path}: ")

    @pytest.mark.parametrize("loader, doc, expected", [
        ("hmm", {"states": ["non_reaction", "whistling"]}, "bad HMM document: 'initial'"),
        ("lstm", {}, "bad LSTM weight document: 'Wi'"),
        ("tree", {"root": {"value": 1}}, "bad decision-tree document: 'num_features'"),
        ("tree", {"root": {"value": "x"}, "num_features": 2},
         "bad decision-tree document: invalid literal for int() with base 10: 'x'"),
        ("tree", {"root": {"value": 1e400}, "num_features": 10},
         "bad decision-tree document: cannot convert float infinity to integer"),
        ("tree", {"root": {"value": 1}, "num_features": 1e400},
         "bad decision-tree document: cannot convert float infinity to integer"),
    ])
    def test_json_that_is_no_model_names_path_and_kind(self, tmp_path, loader, doc, expected):
        name, load = JSON_LOADERS[loader]
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError) as err:
            load(str(path))
        assert str(err.value) == f"{path}: {expected}"


class TestJsonLines:
    def test_blank_lines_are_skipped_and_any_newline_ends_a_line(self, tmp_path):
        path = tmp_path / "x.jsonl"
        path.write_bytes(b'{"a": 1}\r\n  \r\n{"a": 2}\r{"a": 3}\n\n')
        assert list(core.read_jsonl(path, lambda obj: obj["a"])) == [(1, 1), (3, 2), (4, 3)]

    @pytest.mark.parametrize("line, message", [
        (b'{"b": 1}', "'a'"),
        (b'{"a": 1', "Expecting ',' delimiter at column 8"),
        (b'  {"a": x}', "Expecting value at column 9"),
        (b"[1]", "list indices must be integers or slices, not str"),
    ])
    def test_bad_line_names_path_and_line(self, tmp_path, line, message):
        path = tmp_path / "x.jsonl"
        path.write_bytes(b'{"a": 1}\n' + line + b"\n")
        with pytest.raises(ParseError) as err:
            list(core.read_jsonl(path, lambda obj: obj["a"]))
        assert str(err.value) == f"{path}: line 2: {message}"

    def test_write_jsonl_writes_one_sorted_compact_line_per_object(self, tmp_path):
        path = tmp_path / "x.jsonl"
        core.write_jsonl(path, [{"b": [1, 2], "a": "é"}, {}])
        assert path.read_bytes() == '{"a": "\\u00e9", "b": [1, 2]}\n{}\n'.encode()
