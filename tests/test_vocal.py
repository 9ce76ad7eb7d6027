"""Tests for the vocal reaction pipeline: prefilters, label mapping,
rank relaxation, music-aware correction, HMM smoothing, and the cascade."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from musereact import vocal
from musereact.core import (
    ConfigError,
    InsufficientDataError,
    ParameterError,
    ParseError,
    PipelineConfig,
    PipelineLabel,
    ReactionLabel,
    Stage,
    VOCAL_STATES,
    merge_labels_to_events,
)
from musereact.dsp import UNVOICED
from musereact.harness import (
    SyntheticSpec,
    evaluate,
    generate_session,
    pitch_loop_oracle,
    viterbi_oracle,
)
from musereact.musicinfo import MusicInfoStore, NoteTrack, note_window
from musereact.vocal import (
    AutocorrelationPitchTracker,
    FilePitchTracker,
    HmmParams,
    ScoreFileClassifier,
    ScoreVector,
    correct_with_music,
    map_labels,
    relax_rank,
    run_vocal_pipeline,
    smooth,
    train_hmm,
    viterbi_path,
    vocal_motion_prefilter,
    vocal_sound_prefilter,
)

N = ReactionLabel.NON_REACTION
S = ReactionLabel.SINGING_HUMMING
W = ReactionLabel.WHISTLING

NAMES = ("Singing", "Humming", "Whistling", "Whistle", "Speech", "Music", "Typing", "Silence")


def scores_for(**weights):
    """ScoreVector over NAMES with the given weights, rest spread evenly."""
    total = sum(weights.values())
    rest = [n for n in NAMES if n not in weights]
    fill = (1.0 - total) / len(rest)
    values = [weights.get(n, fill) for n in NAMES]
    return ScoreVector(class_names=list(NAMES), scores=np.array(values))


def sticky_hmm(self_prob=0.9, emit_diag=0.8):
    k = len(VOCAL_STATES)
    off_t = (1.0 - self_prob) / (k - 1)
    off_e = (1.0 - emit_diag) / (k - 1)
    transition = np.full((k, k), off_t)
    emission = np.full((k, k), off_e)
    np.fill_diagonal(transition, self_prob)
    np.fill_diagonal(emission, emit_diag)
    return HmmParams(
        states=VOCAL_STATES,
        initial=np.full(k, 1.0 / k),
        transition=transition,
        emission=emission,
    )


class TestScoreVector:
    def test_must_sum_to_one(self):
        with pytest.raises(ParameterError):
            ScoreVector(class_names=["a", "b"], scores=np.array([0.5, 0.4]))

    def test_lengths_must_match(self):
        with pytest.raises(ParameterError):
            ScoreVector(class_names=["a", "b", "c"], scores=np.array([0.5, 0.5]))

    def test_needs_two_classes(self):
        with pytest.raises(ParameterError):
            ScoreVector(class_names=["only"], scores=np.array([1.0]))

    def test_margin(self):
        sv = scores_for(Singing=0.6, Speech=0.3)
        assert sv.margin() == pytest.approx(0.3)

    def test_ranked_is_stable_for_ties(self):
        sv = ScoreVector(class_names=["a", "b", "c"], scores=np.array([0.4, 0.4, 0.2]))
        assert list(sv.ranked()) == [0, 1, 2]

    def test_top(self):
        sv = scores_for(Whistle=0.7, Singing=0.2)
        names = [name for name, _ in sv.top(2)]
        assert names == ["Whistle", "Singing"]


class TestScoreFile:
    def test_round_trip(self, tmp_path):
        table = {0: scores_for(Singing=0.9), 3: scores_for(Speech=0.5, Music=0.3)}
        path = tmp_path / "scores.jsonl"
        vocal.save_score_file(path, table)
        loaded = vocal.load_score_file(path)
        assert sorted(loaded) == [0, 3]
        np.testing.assert_allclose(loaded[0].scores, table[0].scores, atol=1e-9)
        assert tuple(loaded[3].class_names) == NAMES

    def test_duplicate_index_rejected(self, tmp_path):
        path = tmp_path / "dup.jsonl"
        vocal.save_score_file(path, {0: scores_for(Singing=0.9)})
        path.write_text(path.read_text() * 2)
        with pytest.raises(ParseError):
            vocal.load_score_file(path)

    def test_negative_index_rejected(self, tmp_path):
        path = tmp_path / "neg.jsonl"
        vocal.save_score_file(path, {0: scores_for(Singing=0.9), -4: scores_for(Singing=0.9)})
        with pytest.raises(ParseError) as info:
            vocal.load_score_file(path)
        assert str(info.value) == f"{path}: line 1: index must be >= 0"

    def test_classifier_missing_index(self, tmp_path):
        path = tmp_path / "one.jsonl"
        vocal.save_score_file(path, {0: scores_for(Singing=0.9)})
        clf = ScoreFileClassifier.from_file(path)
        assert clf.needs_patch is False
        assert clf.classify(None, 0).top(1)[0][0] == "Singing"
        with pytest.raises(InsufficientDataError):
            clf.classify(None, 7)


class TestPrefilters:
    def test_default_band(self):
        def accel_with_level(level):
            # alternating magnitudes 1 +/- level produce population std = level
            mags = np.tile([1.0 - level, 1.0 + level], 35)
            return np.column_stack([mags, np.zeros(70), np.zeros(70)])

        assert vocal_motion_prefilter(accel_with_level(0.011)) is False
        assert vocal_motion_prefilter(accel_with_level(0.119)) is False
        assert vocal_motion_prefilter(accel_with_level(0.009)) is True
        assert vocal_motion_prefilter(accel_with_level(0.13)) is True

    def test_band_boundaries_are_inclusive(self):
        # magnitudes 1.0 / 1.5 give a movement level of exactly 0.25,
        # a value with an exact binary representation
        mags = np.tile([1.0, 1.5], 35)
        accel = np.column_stack([mags, np.zeros(70), np.zeros(70)])
        assert vocal_motion_prefilter(accel, low_g=0.25, high_g=0.5) is False
        assert vocal_motion_prefilter(accel, low_g=0.1, high_g=0.25) is False
        assert vocal_motion_prefilter(accel, low_g=0.250001, high_g=0.5) is True
        assert vocal_motion_prefilter(accel, low_g=0.1, high_g=0.249999) is True

    def test_still_wearer_filtered(self):
        accel = np.tile([0.0, 0.0, 1.0], (70, 1))
        assert vocal_motion_prefilter(accel) is True

    def test_silence_filtered(self):
        assert vocal_sound_prefilter(np.zeros(44100)) is True

    def test_loud_audio_passes(self):
        audio = np.tile([1.0, -1.0], 22050)  # rms 1 -> 94 dB
        assert vocal_sound_prefilter(audio) is False

    def test_forty_four_db_filtered(self):
        audio = np.tile([10 ** -2.5, -(10 ** -2.5)], 22050)  # 94 - 50 = 44 dB
        assert vocal_sound_prefilter(audio) is True

    def test_no_audio_raises(self):
        with pytest.raises(InsufficientDataError):
            vocal_sound_prefilter(None)


class TestLabelMapping:
    @pytest.mark.parametrize("name,expected", [
        ("Singing", S), ("Humming", S), ("Whistling", W), ("Whistle", W),
    ])
    def test_direct_classes(self, name, expected):
        assert map_labels(scores_for(**{name: 0.9})) == PipelineLabel(expected)

    @pytest.mark.parametrize("name", ["Speech", "Music"])
    def test_ambiguous_classes(self, name):
        assert map_labels(scores_for(**{name: 0.9})) == PipelineLabel(S, deferred=True)

    def test_irrelevant_class_is_non_reaction(self):
        label = map_labels(scores_for(Typing=0.9))
        assert label == PipelineLabel(N)

    def test_case_insensitive(self):
        sv = ScoreVector(class_names=["SINGING", "typing"], scores=np.array([0.9, 0.1]))
        assert map_labels(sv).label is S


class TestRankRelaxation:
    def test_confident_margin_maps_directly(self):
        label = relax_rank(scores_for(Singing=0.95))
        assert label == PipelineLabel(S)

    def test_low_margin_whistle_in_top5(self):
        sv = scores_for(Typing=0.4, Whistle=0.3)
        assert relax_rank(sv) == PipelineLabel(W, deferred=True)

    def test_low_margin_singing_in_top5(self):
        sv = scores_for(Typing=0.4, Humming=0.3)
        assert relax_rank(sv) == PipelineLabel(S, deferred=True)

    def test_low_margin_ambiguous_counts_as_singing_candidate(self):
        sv = scores_for(Typing=0.4, Speech=0.3)
        assert relax_rank(sv) == PipelineLabel(S, deferred=True)

    def test_rank_order_decides_candidate(self):
        # whistle ranks above humming, so the candidate is whistling
        sv = scores_for(Typing=0.4, Whistle=0.3, Humming=0.2)
        assert relax_rank(sv) == PipelineLabel(W, deferred=True)

    def test_no_vocal_class_in_top5(self):
        sv = ScoreVector(
            class_names=["Typing", "Silence", "Vehicle", "Animal", "Traffic", "Whistle"],
            scores=np.array([0.30, 0.25, 0.20, 0.12, 0.08, 0.05]),
        )
        assert relax_rank(sv) == PipelineLabel(N)

    def test_boundary_margin_counts_as_confident(self):
        # 0.9375 and 0.0625 are exact binary fractions, so the margin is
        # exactly 0.875 and the >= comparison is deterministic
        sv = ScoreVector(class_names=["Speech", "Typing"],
                         scores=np.array([0.9375, 0.0625]))
        config = PipelineConfig().replace(margin_threshold=0.875)
        assert relax_rank(sv, config) == PipelineLabel(S, deferred=True)
        just_above = PipelineConfig().replace(margin_threshold=0.8750001)
        assert relax_rank(sv, just_above) == PipelineLabel(S, deferred=True)


class ConstantPitchTracker(vocal.PitchTracker):
    """Emits the same chroma contour for every segment."""

    def __init__(self, symbols, conf=0.9):
        self.symbols = np.asarray(symbols)
        self.conf = conf

    def track(self, audio, sample_rate, t_start):
        f0 = np.array([
            440.0 * 2.0 ** ((s - 9) / 12.0) if s != UNVOICED else 0.0
            for s in self.symbols
        ])
        conf = np.where(self.symbols == UNVOICED, 0.0, self.conf)
        return f0, conf


class TestCorrection:
    def make_track(self, symbols):
        return NoteTrack(song_id="tune", symbols=np.asarray(symbols))

    def test_final_label_rejected(self):
        track = self.make_track([0] * 40)
        with pytest.raises(ParameterError):
            correct_with_music(
                PipelineLabel(S), None, 44100, track,
                ConstantPitchTracker([0] * 10), 0.0, 1.0)

    def test_matching_contour_resolves_ambiguous_to_singing(self):
        symbols = (np.arange(40) // 4) % 12
        track = self.make_track(symbols)
        tracker = ConstantPitchTracker(symbols[15:25])  # matches song second 1.5..2.5
        out = correct_with_music(
            PipelineLabel(S, deferred=True), None, 44100, track, tracker,
            t_start_session=0.0, t_start_song=1.7,
            config=PipelineConfig(dtw_threshold=30.0))
        assert out is S

    def test_matching_contour_resolves_uncertain_to_candidate(self):
        symbols = np.full(40, 7)
        track = self.make_track(symbols)
        tracker = ConstantPitchTracker([7] * 10)
        out = correct_with_music(
            PipelineLabel(W, deferred=True), None, 44100, track, tracker,
            t_start_session=0.0, t_start_song=1.0,
            config=PipelineConfig(dtw_threshold=30.0))
        assert out is W

    def test_unvoiced_segment_rejected(self):
        """Ten unvoiced frames against a voiced reference cost 6 each."""
        track = self.make_track(np.arange(40) % 12)
        tracker = ConstantPitchTracker([UNVOICED] * 10)
        out = correct_with_music(
            PipelineLabel(S, deferred=True), None, 44100, track, tracker,
            t_start_session=0.0, t_start_song=1.0,
            config=PipelineConfig(dtw_threshold=30.0))
        assert out is N

    def test_threshold_is_inclusive(self):
        # 10 unvoiced frames against a 10-symbol reference align on the
        # diagonal for a distance of exactly 60; a threshold of 60 accepts
        track = self.make_track(np.full(10, 0))
        tracker = ConstantPitchTracker([UNVOICED] * 10)
        out = correct_with_music(
            PipelineLabel(S, deferred=True), None, 44100, track, tracker,
            t_start_session=0.0, t_start_song=0.0,
            config=PipelineConfig(dtw_threshold=60.0))
        assert out is S
        rejected = correct_with_music(
            PipelineLabel(S, deferred=True), None, 44100, track, tracker,
            t_start_session=0.0, t_start_song=0.0,
            config=PipelineConfig(dtw_threshold=59.9))
        assert rejected is N

    def test_default_threshold_rejects_unvoiced_against_the_longest_window(self):
        """At the default margin a one-second window can hold 21 frames, so
        ten unvoiced frames reach a distance of 6 * 21 = 126; the default
        threshold must sit below that to reject them."""
        track = self.make_track(np.arange(100) % 12)
        t_song = 51 * 0.05
        assert len(note_window(track, t_song, t_song + 1.0)) == 21
        out = correct_with_music(
            PipelineLabel(S, deferred=True), None, 44100, track,
            ConstantPitchTracker([UNVOICED] * 10), 0.0, t_song)
        assert out is N


def three_kind_oracle(scores, config, relax):
    """Stages 4-5 as three label kinds, written out separately: ("final",
    label), ("ambiguous", None) for a speech/music top-1, or ("uncertain",
    candidate) for a low-margin second with a vocal class in the top ranks."""
    lower = [n.lower() for n in scores.class_names]
    order = sorted(range(len(lower)), key=lambda i: -scores.scores[i])
    singing = {n.lower() for n in config.singing_classes}
    whistling = {n.lower() for n in config.whistling_classes}
    ambiguous = {n.lower() for n in config.ambiguous_classes}
    margin = scores.scores[order[0]] - scores.scores[order[1]]
    if not relax or margin >= config.margin_threshold:
        top = lower[order[0]]
        if top in singing:
            return "final", S
        if top in whistling:
            return "final", W
        if top in ambiguous:
            return "ambiguous", None
        return "final", N
    for i in order[:config.relax_top_k]:
        if lower[i] in whistling:
            return "uncertain", W
        if lower[i] in singing or lower[i] in ambiguous:
            return "uncertain", S
    return "final", N


def resolve_oracle(kind, label, accepted):
    """The second's label after correction: ``accepted`` is whether the pitch
    contour passes DTW, None when correction is off."""
    if kind == "final":
        return label
    if accepted is False:
        return N
    return S if kind == "ambiguous" else label


#: Class names the mapping test draws from; each lands in at most one list.
POOL = ("sing", "hum", "whistle", "tweet", "speech", "music", "typing", "silence")
CASES = (str.lower, str.upper, str.title)


@st.composite
def mapping_case(draw):
    """A score vector with ties, a disjoint class-list config and a margin."""
    groups = draw(st.lists(st.integers(0, 3), min_size=len(POOL), max_size=len(POOL)))
    lists = []
    for g in range(3):  # 0 singing, 1 whistling, 2 ambiguous, 3 none
        names = [draw(st.sampled_from(CASES))(n) for n, k in zip(POOL, groups) if k == g]
        if names:  # sometimes repeat a name inside its list
            names += draw(st.lists(st.sampled_from(names), max_size=1))
        lists.append(tuple(names) or (f"unused{g}",))
    config = PipelineConfig().replace(
        singing_classes=lists[0], whistling_classes=lists[1], ambiguous_classes=lists[2],
        relax_top_k=draw(st.integers(1, 9)),
        margin_threshold=draw(st.sampled_from([0.0, 0.125, 0.25, 0.5, 0.9, 1.0])
                              | st.floats(0.0, 1.0)))
    names = draw(st.lists(st.sampled_from(POOL), min_size=2, max_size=len(POOL), unique=True))
    weights = np.array(draw(st.lists(st.integers(0, 8), min_size=len(names),
                                     max_size=len(names)).filter(any)), dtype=float)
    scores = ScoreVector([draw(st.sampled_from(CASES))(n) for n in names],
                         weights / weights.sum())
    return scores, config


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(case=mapping_case())
def test_stage_4_and_5_match_the_three_kind_oracle(case):
    scores, config = case
    track = NoteTrack(song_id="tune", symbols=np.full(40, 7))
    accept, reject = ConstantPitchTracker([7] * 10), ConstantPitchTracker([UNVOICED] * 10)
    for relax, label in ((False, map_labels(scores, config)),
                         (True, relax_rank(scores, config))):
        kind, expected = three_kind_oracle(scores, config, relax)
        assert label.deferred is (kind != "final")
        assert label.label is resolve_oracle(kind, expected, None)
        for tracker, accepted in ((accept, True), (reject, False)):
            if label.deferred:
                out = correct_with_music(label, None, 44100, track, tracker, 0.0, 1.0, config)
                assert out is resolve_oracle(kind, expected, accepted)


class TestFilePitchTracker:
    def test_round_trip(self, tmp_path):
        f0s = np.abs(np.random.default_rng(0).normal(200, 50, 50))
        confs = np.random.default_rng(1).uniform(0, 1, 50)
        path = tmp_path / "pitch.csv"
        with open(path, "w") as fh:
            fh.write("t,f0,confidence\n")
            for i, (f, c) in enumerate(zip(f0s, confs)):
                fh.write(f"{i * 0.1:.1f},{f:.6f},{c:.6f}\n")
        tracker = FilePitchTracker.from_file(path)
        got_f0, got_conf = tracker.track(None, 44100, 2.0)
        np.testing.assert_allclose(got_f0, f0s[20:30], atol=1e-5)
        np.testing.assert_allclose(got_conf, confs[20:30], atol=1e-5)

    def test_out_of_range_request(self, tmp_path):
        path = tmp_path / "pitch.csv"
        path.write_text("t,f0,confidence\n0.0,100.0,0.9\n")
        tracker = FilePitchTracker.from_file(path)
        with pytest.raises(InsufficientDataError):
            tracker.track(None, 44100, 5.0)

    @pytest.mark.parametrize("row", ["nan,100.0,0.9", "inf,100.0,0.9",
                                     "0.1,-inf,0.9", "0.1,100.0,nan"])
    def test_non_finite_field_names_the_line(self, tmp_path, row):
        """A NaN or infinite time used to pass the grid check and then end
        in a ValueError or OverflowError when a second was tracked."""
        path = tmp_path / "pitch.csv"
        path.write_text(f"t,f0,confidence\n0.0,100.0,0.9\n{row}\n")
        with pytest.raises(ParseError, match=r"pitch\.csv: line 3: non-finite field"):
            FilePitchTracker.from_file(path)


class TestAutocorrelationPitchTracker:
    def test_pure_tone(self):
        sr = 16000
        t = np.arange(sr) / sr
        audio = 0.5 * np.sin(2 * np.pi * 220.0 * t)
        f0s, confs = AutocorrelationPitchTracker().track(audio, sr, 0.0)
        assert f0s.shape == (10,)
        voiced = confs > 0.5
        assert np.all(voiced)
        np.testing.assert_allclose(f0s, 220.0, rtol=0.03)

    def test_noise_has_low_confidence(self):
        rng = np.random.default_rng(8)
        audio = rng.normal(0, 0.1, 16000)
        _, confs = AutocorrelationPitchTracker().track(audio, 16000, 0.0)
        assert np.median(confs) < 0.5

    @pytest.mark.parametrize("sr", [16000, 44100])
    @pytest.mark.parametrize("seed", range(4))
    def test_equals_per_frame_oracle(self, sr, seed):
        """One short FFT over all ten frames gives the per-frame ``2*frame``
        FFT's lags exactly and its confidences within 1e-12."""
        rng = np.random.default_rng(seed)
        frame = sr // 10
        t = np.arange(frame) / sr
        frames = []
        for kind in rng.permutation(["periodic", "noisy", "silent", "constant"] * 3)[:10]:
            if kind == "periodic":
                f0 = rng.uniform(80.0, 1000.0)
                x = sum(rng.uniform(0.1, 0.5) * np.sin(2 * np.pi * f0 * k * t + rng.uniform(0, 6))
                        for k in (1, 2, 3))
                frames.append(x + rng.normal(0, 0.02, frame))
            elif kind == "noisy":
                frames.append(rng.normal(0, 0.1, frame))
            else:
                frames.append(np.full(frame, 0.0 if kind == "silent" else 0.25))
        audio = np.concatenate(frames + [rng.normal(0, 0.1, 17)])
        f0s, confs = AutocorrelationPitchTracker().track(audio, sr, 0.0)
        want_f0s, want_confs = pitch_loop_oracle(audio, sr, 80.0, 1000.0)
        np.testing.assert_array_equal(f0s, want_f0s)
        np.testing.assert_allclose(confs, want_confs, rtol=0, atol=1e-12)


class TestHmmTraining:
    def test_all_non_reaction_sequence(self):
        hmm = train_hmm([([N] * 5, [N] * 5)])
        i = hmm.state_index(N)
        # four N->N transitions, laplace 1, three states
        assert hmm.transition[i, i] == pytest.approx((4 + 1) / (4 + 3))
        np.testing.assert_allclose(hmm.transition.sum(axis=1), 1.0, atol=1e-12)
        np.testing.assert_allclose(hmm.emission.sum(axis=1), 1.0, atol=1e-12)
        np.testing.assert_allclose(hmm.initial.sum(), 1.0, atol=1e-12)

    def test_two_state_toy_hand_counts(self):
        true = [N, N, S, S, N]
        observed = [N, S, S, S, N]
        hmm = train_hmm([(true, observed)], laplace=1.0, states=(N, S))
        np.testing.assert_allclose(hmm.initial, [2 / 3, 1 / 3], atol=1e-12)
        # true chain N,N,S,S,N: one of each transition type
        np.testing.assert_allclose(hmm.transition, [[0.5, 0.5], [0.5, 0.5]], atol=1e-12)
        # true N observes N,S,N; true S observes S,S
        np.testing.assert_allclose(hmm.emission, [[0.6, 0.4], [0.25, 0.75]], atol=1e-12)

    def test_faithful_observations_give_identity_emission(self):
        rng = np.random.default_rng(9)
        labels = [VOCAL_STATES[i] for i in rng.integers(0, 3, 200)]
        hmm = train_hmm([(labels, labels)], laplace=1e-9)
        np.testing.assert_allclose(hmm.emission, np.eye(3), atol=1e-6)

    def test_empty_training_rejected(self):
        with pytest.raises(ParameterError):
            train_hmm([])


class TestHmmParams:
    def test_rows_must_be_stochastic(self):
        with pytest.raises(ParameterError):
            HmmParams(
                states=VOCAL_STATES,
                initial=np.array([0.5, 0.4, 0.2]),
                transition=np.full((3, 3), 1 / 3),
                emission=np.full((3, 3), 1 / 3),
            )

    def test_json_round_trip(self, tmp_path):
        hmm = sticky_hmm()
        path = tmp_path / "hmm.json"
        hmm.save(path)
        loaded = HmmParams.load(path)
        assert loaded.states == hmm.states
        np.testing.assert_allclose(loaded.initial, hmm.initial, atol=1e-12)
        np.testing.assert_allclose(loaded.transition, hmm.transition, atol=1e-12)
        np.testing.assert_allclose(loaded.emission, hmm.emission, atol=1e-12)


class TestViterbi:
    def test_emission_dominant_returns_last_observed(self):
        hmm = HmmParams(
            states=VOCAL_STATES,
            initial=np.full(3, 1 / 3),
            transition=np.full((3, 3), 1 / 3),
            emission=np.array([[0.98, 0.01, 0.01],
                               [0.01, 0.98, 0.01],
                               [0.01, 0.01, 0.98]]),
        )
        assert smooth([S, S, N, W], hmm) is W
        assert smooth([W, N], hmm) is N

    def test_sticky_hmm_absorbs_isolated_flip(self):
        hmm = sticky_hmm(self_prob=0.9, emit_diag=0.8)
        assert smooth([S, S, N, S, S, S], hmm) is S

    def test_window_of_one_is_initial_times_emission(self):
        hmm = HmmParams(
            states=VOCAL_STATES,
            initial=np.array([0.1, 0.8, 0.1]),
            transition=np.full((3, 3), 1 / 3),
            emission=np.array([[0.6, 0.2, 0.2],
                               [0.4, 0.3, 0.3],
                               [0.2, 0.2, 0.6]]),
        )
        # observing N: initial * P(obs N | state) = [0.06, 0.32, 0.02] -> S
        assert smooth([N], hmm) is S

    def test_uniform_hmm_breaks_ties_toward_first_state(self):
        hmm = HmmParams(
            states=VOCAL_STATES,
            initial=np.full(3, 1 / 3),
            transition=np.full((3, 3), 1 / 3),
            emission=np.full((3, 3), 1 / 3),
        )
        path, _ = viterbi_path(hmm, [S, W, S])
        assert path == [N, N, N]

    def test_agrees_with_oracle_sample(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            init = rng.dirichlet(np.ones(3))
            trans = rng.dirichlet(np.ones(3), size=3)
            emis = rng.dirichlet(np.ones(3), size=3)
            hmm = HmmParams(states=VOCAL_STATES, initial=init,
                            transition=trans, emission=emis)
            observed = [VOCAL_STATES[i] for i in rng.integers(0, 3, 6)]
            path, logp = viterbi_path(hmm, observed)
            oracle_path, oracle_logp = viterbi_oracle(hmm, observed)
            assert logp == pytest.approx(oracle_logp, abs=1e-9)
            assert path == oracle_path

    def test_empty_window_rejected(self):
        with pytest.raises(ParameterError):
            smooth([], sticky_hmm())


def singing_spec(**overrides):
    base = dict(
        session_id="v0", subject_id="subj", song_id="tune", place="lounge",
        duration_s=30, script=((5, 12, S), (18, 24, W)),
        start_offset_in_song=3, seed=7,
    )
    base.update(overrides)
    return SyntheticSpec(**base)


class CountingClassifier(vocal.SoundEventClassifier):
    """Fails the test if the pipeline consults it."""

    needs_patch = False

    def __init__(self):
        self.calls = 0

    def classify(self, patch, index):
        self.calls += 1
        return scores_for(Silence=0.9)


class TestVocalPipeline:
    def test_still_silent_session_never_reaches_classifier(self):
        spec = SyntheticSpec(
            session_id="still", subject_id="s", song_id="tune", place="lounge",
            duration_s=12, script=(), activity="still", seed=1,
        )
        generated = generate_session(spec)
        clf = CountingClassifier()
        config = PipelineConfig().replace(enable_correction=False, enable_smoothing=False)
        result = run_vocal_pipeline(generated.session, clf, config=config)
        assert result.labels == [N] * 12
        assert result.stats.filtering_ratio == pytest.approx(1.0)
        assert clf.calls == 0

    def test_singing_session_events_cover_truth(self):
        generated = generate_session(singing_spec())
        config = PipelineConfig().replace(dtw_threshold=30.0)
        result = run_vocal_pipeline(
            generated.session,
            generated.classifier(),
            pitch_tracker=generated.pitch_tracker(),
            note_store=MusicInfoStore({"tune": generated.note_track}),
            config=config,
        )
        report = evaluate(generated.vocal_truth, result.labels)
        assert report.macro_f1 > 0.85
        labels_in_events = {e.label for e in merge_labels_to_events(result.labels)}
        assert S in labels_in_events and W in labels_in_events

    def test_correction_enabled_requires_tracker_and_store(self):
        generated = generate_session(singing_spec())
        with pytest.raises(ConfigError):
            run_vocal_pipeline(generated.session, generated.classifier(),
                               config=PipelineConfig())

    def test_hmm_without_a_vocal_label_rejected_up_front(self):
        generated = generate_session(singing_spec())
        hmm = HmmParams(states=(N, S), initial=[0.5, 0.5], transition=np.full((2, 2), 0.5),
                        emission=np.full((2, 2), 0.5))
        clf = CountingClassifier()
        config = PipelineConfig().replace(enable_correction=False)
        with pytest.raises(ConfigError) as info:
            run_vocal_pipeline(generated.session, clf, hmm=hmm, config=config)
        assert str(info.value) == "label whistling is not an HMM state"
        assert clf.calls == 0
        result = run_vocal_pipeline(generated.session, clf, hmm=hmm,
                                    config=config.replace(enable_smoothing=False))
        assert result.labels == result.observed  # no smoothing, so no check

    def test_unknown_song_rejected_up_front(self):
        generated = generate_session(singing_spec())
        with pytest.raises(ConfigError):
            run_vocal_pipeline(
                generated.session, generated.classifier(),
                pitch_tracker=generated.pitch_tracker(),
                note_store=MusicInfoStore({}),
                config=PipelineConfig(),
            )

    def test_failing_segment_is_non_reaction(self):
        class FlakyClassifier(vocal.SoundEventClassifier):
            needs_patch = False

            def __init__(self, inner):
                self.inner = inner

            def classify(self, patch, index):
                if index == 7:
                    raise InsufficientDataError("synthetic per-segment failure")
                return self.inner.classify(patch, index)

        generated = generate_session(singing_spec())
        config = PipelineConfig().replace(
            dtw_threshold=30.0, enable_smoothing=False)
        result = run_vocal_pipeline(
            generated.session,
            FlakyClassifier(generated.classifier()),
            pitch_tracker=generated.pitch_tracker(),
            note_store=MusicInfoStore({"tune": generated.note_track}),
            config=config,
        )
        assert result.labels[7] is N
        assert result.stats.errors == 1
        assert list(result.stats.failures) == [7]
        assert result.stats.stages[7] == Stage.CLASSIFIER

    def test_stats_account_for_every_segment(self):
        generated = generate_session(singing_spec(seed=21))
        config = PipelineConfig().replace(dtw_threshold=30.0)
        result = run_vocal_pipeline(
            generated.session, generated.classifier(),
            pitch_tracker=generated.pitch_tracker(),
            note_store=MusicInfoStore({"tune": generated.note_track}),
            config=config,
        )
        st = result.stats
        stages = (Stage.MOTION_FILTER, Stage.SOUND_FILTER, Stage.CLASSIFIER, Stage.CORRECTION)
        assert len(st.stages) == 30
        assert st.count(*stages) + st.errors == 30
        assert st.filtering_ratio == pytest.approx(
            st.count(Stage.MOTION_FILTER, Stage.SOUND_FILTER) / 30)

    def test_never_emits_head_motion(self):
        generated = generate_session(singing_spec(seed=33))
        config = PipelineConfig().replace(dtw_threshold=30.0)
        result = run_vocal_pipeline(
            generated.session, generated.classifier(),
            pitch_tracker=generated.pitch_tracker(),
            note_store=MusicInfoStore({"tune": generated.note_track}),
            config=config,
        )
        assert ReactionLabel.HEAD_MOTION not in result.labels

    def test_correction_disabled_backs_off_to_candidates(self):
        generated = generate_session(singing_spec())
        config = PipelineConfig().replace(
            enable_correction=False, enable_smoothing=False)
        result = run_vocal_pipeline(generated.session, generated.classifier(),
                                    config=config)
        assert len(result.labels) == 30
        assert all(lab in (N, S, W) for lab in result.labels)

    def test_smoothing_corrects_isolated_flip(self):
        class Replay(vocal.SoundEventClassifier):
            needs_patch = False

            def __init__(self, labels):
                self.labels = labels

            def classify(self, patch, index):
                return {
                    N: scores_for(Silence=0.95),
                    S: scores_for(Singing=0.95),
                    W: scores_for(Whistle=0.95),
                }[self.labels[index]]

        spec = SyntheticSpec(
            session_id="flip", subject_id="s", song_id="tune", place="lounge",
            duration_s=12, script=((0, 12, S),), seed=2,
        )
        generated = generate_session(spec)
        # classifier observes S everywhere except an isolated flip at second 6
        observed = [S] * 12
        observed[6] = N
        config = PipelineConfig().replace(
            enable_motion_filter=False, enable_sound_filter=False,
            enable_correction=False)
        result = run_vocal_pipeline(
            generated.session, Replay(observed),
            hmm=sticky_hmm(self_prob=0.9, emit_diag=0.8), config=config)
        assert result.observed[6] is N      # pre-smoothing sees the flip
        assert result.labels[6] is S        # smoothing absorbs it
        assert result.labels == [S] * 12
