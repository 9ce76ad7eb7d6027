"""Tests for the synthetic-session generator, evaluation metrics, and the
reference oracles."""

import dataclasses
import os

import numpy as np
import pytest

from musereact import core
from musereact.core import ParameterError, ReactionLabel
from musereact.dsp import dtw_distance
from musereact.harness import (
    EvalReport,
    SyntheticSpec,
    dtw_oracle,
    evaluate,
    generate_session,
    loso_folds,
    make_engagement_dataset,
    make_melody,
    make_motion_corpus,
    make_vocal_corpus,
    map_to_motion_domain,
    map_to_vocal_domain,
    parse_corpus_spec,
    viterbi_oracle,
    write_corpus,
)
from musereact.vocal import HmmParams, viterbi_path
from musereact.core import VOCAL_STATES

N = ReactionLabel.NON_REACTION
S = ReactionLabel.SINGING_HUMMING
W = ReactionLabel.WHISTLING
H = ReactionLabel.HEAD_MOTION


def base_spec(**overrides):
    base = dict(
        session_id="s0", subject_id="u0", song_id="tune", place="lounge",
        duration_s=20, script=((4, 10, S),), seed=7,
    )
    base.update(overrides)
    return SyntheticSpec(**base)


class TestSyntheticSpec:
    def test_valid_spec(self):
        base_spec().validate()

    def test_overlapping_spans_rejected(self):
        with pytest.raises(ParameterError):
            base_spec(script=((2, 8, S), (6, 12, W))).validate()

    def test_span_outside_session_rejected(self):
        with pytest.raises(ParameterError):
            base_spec(script=((15, 25, S),)).validate()

    def test_still_activity_forbids_script(self):
        with pytest.raises(ParameterError):
            base_spec(activity="still").validate()
        base_spec(activity="still", script=()).validate()

    def test_unknown_place_rejected(self):
        with pytest.raises(ParameterError):
            base_spec(place="spaceship").validate()


class TestGenerateSession:
    def test_truth_matches_script(self):
        generated = generate_session(base_spec(script=((4, 10, S), (13, 17, W))))
        truth = generated.truth
        assert len(truth) == 20
        assert truth[4:10] == [S] * 6
        assert truth[13:17] == [W] * 4
        assert truth[0:4] == [N] * 4

    def test_empty_script_all_non_reaction(self):
        generated = generate_session(base_spec(script=()))
        assert generated.truth == [N] * 20

    def test_domain_truths(self):
        generated = generate_session(base_spec(
            place="office", script=((2, 6, S), (10, 15, H))))
        assert generated.vocal_truth[3] is S
        assert generated.vocal_truth[12] is N     # motion span is not vocal
        assert generated.motion_truth[12] is H
        assert generated.motion_truth[3] is N

    def test_session_validates(self):
        generated = generate_session(base_spec())
        generated.session.validate()
        assert generated.session.duration_s == pytest.approx(20.0, abs=0.05)

    def test_scores_cover_every_second(self):
        generated = generate_session(base_spec())
        assert sorted(generated.scores) == list(range(20))
        clf = generated.classifier()
        assert clf.classify(None, 0).scores.sum() == pytest.approx(1.0, abs=1e-6)

    def test_deterministic_generation(self):
        spec = base_spec(script=((5, 15, S),), duration_s=20, seed=7)
        a = generate_session(spec)
        b = generate_session(spec)
        np.testing.assert_array_equal(a.session.audio, b.session.audio)
        np.testing.assert_array_equal(a.session.gyro, b.session.gyro)
        np.testing.assert_array_equal(a.pitch_f0, b.pitch_f0)

    def test_deterministic_on_disk(self, tmp_path):
        """Same spec written twice produces byte-identical session dirs."""
        spec = base_spec(script=((5, 15, S),), seed=7)
        generate_session(spec).write(tmp_path / "a")
        generate_session(spec).write(tmp_path / "b")
        names = sorted(os.listdir(tmp_path / "a"))
        assert names == sorted(os.listdir(tmp_path / "b"))
        for name in names:
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes(), name

    def test_written_session_loads(self, tmp_path):
        generated = generate_session(base_spec())
        generated.write(tmp_path / "sess")
        loaded = core.load_session_dir(tmp_path / "sess")
        assert loaded.session_id == "s0"
        assert loaded.start_offset_in_song == generated.session.start_offset_in_song
        truth = core.load_labels(tmp_path / "sess" / "labels.csv")
        assert core.expand_events_to_labels(truth, 20.0) == generated.truth


class TestMakeMelody:
    def test_fully_voiced_and_in_range(self):
        track = make_melody("anthem", 300)
        assert np.all(track.symbols >= 0)
        assert np.all(track.symbols <= 11)

    def test_prefix_stable(self):
        short = make_melody("anthem", 100)
        long = make_melody("anthem", 400)
        np.testing.assert_array_equal(long.symbols[:100], short.symbols)

    def test_distinct_songs_differ(self):
        a = make_melody("song_a", 200)
        b = make_melody("song_b", 200)
        assert not np.array_equal(a.symbols, b.symbols)


class TestCorpora:
    def test_vocal_corpus_shape(self):
        specs = make_vocal_corpus(num_sessions=6, place="cafe", base_seed=0)
        assert len(specs) == 6
        for spec in specs:
            spec.validate()
            assert spec.place == "cafe"
            assert any(label in (S, W) for _, _, label in spec.script)
        assert len({spec.seed for spec in specs}) == 6

    def test_motion_corpus_shape(self):
        specs = make_motion_corpus(num_sessions=4, place="office", base_seed=1)
        assert len(specs) == 4
        for spec in specs:
            spec.validate()
            labels = {label for _, _, label in spec.script}
            assert labels == {H}

    def test_engagement_dataset_consistency(self):
        ds = make_engagement_dataset(num_subjects=4, sessions_per_subject=3, seed=0)
        n = 12
        assert len(ds.features) == n
        assert len(ds.ratings) == n
        assert len(ds.familiarity) == n
        assert len(ds.subjects) == n
        assert all(1 <= r <= 5 for r in ds.ratings)
        assert set(ds.familiarity) <= {"known", "unknown"}
        assert len(set(ds.subjects)) == 4


class TestCorpusSpecFile:
    def test_parse_minimal(self):
        obj = {
            "sessions": [
                {"session_id": "a", "subject_id": "u", "song_id": "g",
                 "place": "lounge", "duration_s": 15,
                 "script": [[3, 9, "singing_humming"]]},
            ]
        }
        specs = parse_corpus_spec(obj)
        assert len(specs) == 1
        assert specs[0].script == ((3, 9, S),)

    def test_omitted_fields_take_the_spec_defaults(self):
        spec, = parse_corpus_spec({"sessions": [{}]}, base_seed=2)
        defaults = SyntheticSpec("s000", "subj00", "song00", seed=2 * 100003)
        assert spec == defaults

    def test_bad_label_rejected(self):
        obj = {"sessions": [
            {"session_id": "a", "subject_id": "u", "song_id": "g",
             "place": "lounge", "duration_s": 15, "script": [[3, 9, "yodeling"]]},
        ]}
        with pytest.raises(core.ParseError):
            parse_corpus_spec(obj)

    def test_write_corpus_layout(self, tmp_path):
        specs = make_vocal_corpus(num_sessions=2, place="lounge", base_seed=3,
                                  duration_s=20)
        dirs = write_corpus(tmp_path, specs)
        assert len(dirs) == 2
        assert (tmp_path / "notes").is_dir()
        for d in dirs:
            loaded = core.load_session_dir(d)
            loaded.validate()

    def test_write_corpus_refuses_a_repeated_session_id(self, tmp_path):
        specs = make_vocal_corpus(num_sessions=3, place="lounge", base_seed=3, duration_s=2)
        specs[2] = dataclasses.replace(specs[2], session_id=specs[0].session_id)
        with pytest.raises(ParameterError) as err:
            write_corpus(tmp_path / "out", specs)
        assert str(err.value) == (
            f"corpus spec, session 2: session_id {specs[0].session_id!r} repeats session 0")
        assert not (tmp_path / "out").exists()


class TestEvaluate:
    def test_perfect_predictions(self):
        truth = [S, N, W, N]
        report = evaluate(truth, truth)
        assert report.macro_f1 == pytest.approx(1.0)
        assert report.accuracy == pytest.approx(1.0)
        for metrics in report.per_class.values():
            assert metrics.f1 == pytest.approx(1.0)

    def test_hand_computed_counts(self):
        truth = [S, S, N, N]
        pred = [S, N, N, N]
        report = evaluate(truth, pred)
        s = report.per_class[S]
        n = report.per_class[N]
        assert s.precision == pytest.approx(1.0)
        assert s.recall == pytest.approx(0.5)
        assert s.f1 == pytest.approx(2 / 3)
        assert n.precision == pytest.approx(2 / 3)
        assert n.recall == pytest.approx(1.0)
        assert report.macro_f1 == pytest.approx((2 / 3 + 0.8) / 2)

    def test_absent_class_not_counted(self):
        report = evaluate([N, N], [N, N])
        assert list(report.per_class) == [N]

    def test_filtering_ratio_passthrough(self):
        report = evaluate([N], [N], filtering_ratio=0.4)
        assert report.filtering_ratio == 0.4
        assert "macro_f1" in report.to_dict()
        assert report.to_dict()["filtering_ratio"] == 0.4

    def test_length_mismatch_rejected(self):
        with pytest.raises(ParameterError):
            evaluate([N, N], [N])

    def test_domain_mapping(self):
        assert map_to_vocal_domain([S, H, W]) == [S, N, W]
        assert map_to_motion_domain([S, H, W]) == [N, H, N]


class TestLosoFolds:
    def test_three_subjects_three_folds(self):
        subjects = ["a", "b", "a", "c", "b", "c"]
        folds = loso_folds(subjects)
        assert [s for s, _, _ in folds] == ["a", "b", "c"]

    def test_partition_properties(self):
        rng = np.random.default_rng(9)
        subjects = [f"u{int(i)}" for i in rng.integers(0, 5, 30)]
        folds = loso_folds(subjects)
        seen_test = []
        for subject, train, test in folds:
            assert sorted(train + test) == list(range(30))
            assert all(subjects[i] == subject for i in test)
            assert all(subjects[i] != subject for i in train)
            seen_test.extend(test)
        assert sorted(seen_test) == list(range(30))

    def test_single_subject_rejected(self):
        with pytest.raises(ParameterError):
            loso_folds(["solo", "solo"])


class TestOracles:
    def test_dtw_oracle_single_elements(self):
        assert dtw_oracle(np.array([4]), np.array([4])) == 0.0
        assert dtw_oracle(np.array([0]), np.array([11])) == 1.0
        assert dtw_oracle(np.array([-1]), np.array([3])) == 6.0

    def test_dtw_oracle_rectangular(self):
        a = np.array([2])
        b = np.array([2, 2, 2])
        assert dtw_oracle(a, b) == 0.0
        assert dtw_distance(a, b) == 0.0

    def test_viterbi_oracle_prefers_early_state_on_ties(self):
        hmm = HmmParams(
            states=VOCAL_STATES,
            initial=np.full(3, 1 / 3),
            transition=np.full((3, 3), 1 / 3),
            emission=np.full((3, 3), 1 / 3),
        )
        path, _ = viterbi_oracle(hmm, [W, W])
        assert path == [N, N]
        assert viterbi_path(hmm, [W, W])[0] == [N, N]
