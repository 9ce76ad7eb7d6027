"""Tests for domain types, session handling, segmentation, and file IO."""

import dataclasses
import json
import math
import os
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from musereact import core, engage, harness, motion, musicinfo, vocal
from musereact.core import (
    AlignmentError,
    ConfigError,
    LabelKind,
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


class TestPipelineLabel:
    def test_final_holds_label(self):
        lab = PipelineLabel.final(S)
        assert lab.kind is LabelKind.FINAL
        assert lab.label is S
        assert lab.candidate is None

    def test_uncertain_candidate_restricted(self):
        assert PipelineLabel.uncertain(S).candidate is S
        assert PipelineLabel.uncertain(W).candidate is W
        with pytest.raises(ParameterError):
            PipelineLabel.uncertain(H)
        with pytest.raises(ParameterError):
            PipelineLabel.uncertain(N)

    def test_ambiguous_has_no_payload(self):
        lab = PipelineLabel.ambiguous()
        assert lab.kind is LabelKind.AMBIGUOUS
        assert lab.label is None and lab.candidate is None


class TestPipelineConfig:
    def test_defaults_validate(self):
        PipelineConfig().validate()

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
        cfg = PipelineConfig().replace(dtw_threshold=30.0, smoothing_window=4)
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
        ({"smoothing_window": 4.0}, "smoothing_window must be an integer"),
        ({"relax_top_k": False}, "relax_top_k must be an integer"),
        ({"enable_correction": 0}, "enable_correction must be true or false"),
        ({"singing_classes": "sing"}, "singing_classes must be a list of names"),
        ({"singing_classes": ["sing", 3]}, "singing_classes must be a list of names"),
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
        ("imu_lowpass_hz", 0.0, "imu_lowpass_hz must lie in (0, 35), below Nyquist"),
        ("imu_lowpass_hz", 35.0, "imu_lowpass_hz must lie in (0, 35), below Nyquist"),
        ("imu_lowpass_hz", 34.9, None),
        ("imu_lowpass_hz", 1e-3, None),
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
        cfg = PipelineConfig.from_dict({"dtw_threshold": 30, "smoothing_window": 4})
        assert cfg == PipelineConfig().replace(dtw_threshold=30.0, smoothing_window=4)
        assert type(cfg.dtw_threshold) is float

    def test_partial_json_fills_defaults(self):
        cfg = PipelineConfig.from_dict({"dtw_threshold": 42.0})
        assert cfg.dtw_threshold == 42.0
        assert cfg.margin_threshold == PipelineConfig().margin_threshold

    def test_every_constructor_validates(self, tmp_path):
        with pytest.raises(ConfigError, match="^relax_top_k must be >= 1$"):
            PipelineConfig().replace(relax_top_k=0)
        with pytest.raises(ConfigError, match="^smoothing_window must be >= 1$"):
            PipelineConfig(smoothing_window=0)
        path = tmp_path / "config.json"
        path.write_text('{"relax_top_k": 0}')
        with pytest.raises(ConfigError, match="^relax_top_k must be >= 1$"):
            PipelineConfig.load(path)

    def test_negative_note_window_margin_rejected(self):
        with pytest.raises(ConfigError, match="^note_window_margin_s must be >= 0$"):
            PipelineConfig(note_window_margin_s=-1.0)
        PipelineConfig(note_window_margin_s=0.0)

    def test_pitch_conf_threshold_must_be_positive(self):
        """A tracker reports a silent frame as f0 0 at confidence 0; a
        threshold of 0 would call it voiced, and correction could not map it."""
        with pytest.raises(ConfigError, match="^pitch_conf_threshold must be > 0$"):
            PipelineConfig(pitch_conf_threshold=0.0)
        PipelineConfig(pitch_conf_threshold=1e-9)

    @pytest.mark.parametrize("margin, reach", [(0.0, 66.0), (0.5, 126.0), (1.0, 186.0)])
    def test_dtw_threshold_must_be_able_to_reject(self, margin, reach):
        """Ten unvoiced frames against the longest window ``note_window`` can
        return cost 6 per window frame; a threshold at that distance or above
        could never reject a segment."""
        PipelineConfig(note_window_margin_s=margin, dtw_threshold=reach - 0.1)
        with pytest.raises(ConfigError) as err:
            PipelineConfig(note_window_margin_s=margin, dtw_threshold=reach)
        assert str(err.value) == (f"dtw_threshold must lie in [0, {reach:g}) "
                                  f"at note_window_margin_s {margin:g}")

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
    "int": st.integers() | st.integers(-2, 10),
    "bool": st.booleans(),
    "tuple[str, ...]": st.lists(st.text(max_size=8), max_size=3).map(tuple),
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
@example(fields={"note_window_margin_s": -1.0})
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
    assert result.diagnostics == [] and moved.diagnostics == []


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
        np.testing.assert_allclose(loaded.audio, sess.audio, atol=1.0 / 32767)

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
                 ",".join(engage.ReactionFeatures.FEATURE_NAMES) + ",target",
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
        (b'{"a": \n', "line 2: Expecting value"),
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
