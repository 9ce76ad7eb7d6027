"""Tests for the vocal reaction pipeline: prefilters, label mapping,
rank relaxation, music-aware correction, HMM smoothing, and the cascade."""

import dataclasses

import numpy as np
import pytest
import scipy.fft
from hypothesis import example, given, settings
from hypothesis import strategies as st

from musereact import core, dsp, vocal
from musereact.core import (
    CLASSIFIER_RATE_HZ,
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
    relax_rank,
    run_vocal_pipeline,
    smooth,
    smooth_labels,
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
        names = [sv.class_names[i] for i in sv.ranked()[:2]]
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
        clf = ScoreFileClassifier(vocal.load_score_file(path))
        assert clf.needs_patch is False
        sv = clf.classify(None, 0)
        assert sv.class_names[sv.ranked()[0]] == "Singing"
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


def float_samples(pcm):
    """The float samples ``int16`` PCM stands for (``Session.audio_samples``)."""
    return np.divide(pcm, 32767.0, dtype=float)


def uniform_pcm(seed, n=44100):
    return np.random.default_rng(seed).integers(-32768, 32768, n).astype(np.int16)


@st.composite
def pcm_slices(draw):
    """``int16`` slices of 1-44,100 samples: uniform, Gaussian at several
    scales, constant, all zero or at full scale."""
    n = draw(st.integers(1, 44100))
    kind = draw(st.sampled_from(["uniform", "gaussian", "constant", "zero", "full_scale"]))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    rng = np.random.default_rng(seed)
    if kind == "uniform":
        return uniform_pcm(seed, n)
    if kind == "gaussian":
        scale = draw(st.sampled_from([0.5, 3.0, 100.0, 3000.0, 20000.0]))
        pcm = np.clip(np.round(rng.normal(0.0, scale, n)), -32768, 32767)
    elif kind == "constant":
        pcm = np.full(n, draw(st.integers(-32768, 32767)))
    elif kind == "zero":
        pcm = np.zeros(n)
    else:
        pcm = rng.choice([-32768, 32767], n)
    return pcm.astype(np.int16)


class TestPcmSoundLevel:
    """Stage 2 on ``int16`` PCM measures exact integer energy; its decisions
    are those of the float samples ``pcm / 32767``."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(pcm=pcm_slices(),
           where=st.sampled_from(["at", "ulp_above", "ulp_below", "margin_above",
                                  "margin_below", "random"]),
           calibration=st.sampled_from([94.0, 0.0, -57.3, 130.0]),
           random_threshold=st.floats(-200.0, 200.0))
    # Integer levels one ulp below and above the float level, at the default
    # calibration: without the re-measure, "at" and "ulp_above" decide wrongly.
    @example(pcm=uniform_pcm(68), where="at", calibration=94.0, random_threshold=0.0)
    @example(pcm=uniform_pcm(54), where="ulp_above", calibration=94.0, random_threshold=0.0)
    @example(pcm=np.zeros(44100, np.int16), where="at", calibration=94.0, random_threshold=0.0)
    @example(pcm=np.full(44100, -32768, np.int16), where="at", calibration=94.0,
             random_threshold=0.0)
    def test_decision_equals_the_float_path(self, pcm, where, calibration, random_threshold):
        samples = float_samples(pcm)
        level = dsp.sound_level_db(samples, calibration)
        assert abs(dsp.sound_level_db(pcm, calibration) - level) <= 1e-12
        margin = vocal._PCM_LEVEL_MARGIN_DB
        threshold = {
            "at": level,
            "ulp_above": np.nextafter(level, np.inf),
            "ulp_below": np.nextafter(level, -np.inf),
            "margin_above": level + margin,
            "margin_below": level - margin,
            "random": random_threshold,
        }[where]
        assert (vocal_sound_prefilter(pcm, threshold, calibration)
                == vocal_sound_prefilter(samples, threshold, calibration))

    @pytest.mark.parametrize("seed", range(4))
    def test_threshold_at_the_float_level_measures_the_float_samples(self, monkeypatch, seed):
        pcm = uniform_pcm(seed)
        level = dsp.sound_level_db(float_samples(pcm))
        measured = []
        real = dsp.sound_level_db
        monkeypatch.setattr(dsp, "sound_level_db", lambda audio, calibration_db: (
            measured.append(np.asarray(audio).dtype), real(audio, calibration_db))[1])
        assert vocal_sound_prefilter(pcm, level) is False
        assert measured == [np.int16, np.float64]
        measured.clear()
        assert vocal_sound_prefilter(pcm, level + 1.0) is True
        assert measured == [np.int16]

    @pytest.mark.parametrize("calibration", [94.0, 0.0, -57.3, 130.0, 1e6])
    def test_zero_pcm_measures_the_silence_floor(self, calibration):
        """README's silence rule holds for PCM: ``db_calibration - 240`` exactly."""
        assert dsp.sound_level_db(np.zeros(44100, np.int16), calibration) == calibration - 240
        assert vocal_sound_prefilter(np.zeros(44100, np.int16), calibration - 240,
                                     calibration) is False

    def test_full_scale_pcm_is_pcm_over_32767(self):
        pcm = np.tile(np.array([32767, -32767], np.int16), 500)
        assert dsp.sound_level_db(pcm, calibration_db=94.0) == pytest.approx(94.0, abs=1e-9)

    def test_a_slice_past_the_exact_guard_takes_the_float_path(self, monkeypatch):
        sums = []
        einsum = np.einsum
        monkeypatch.setattr(np, "einsum", lambda *args: (sums.append(args), einsum(*args))[1])
        monkeypatch.setattr(dsp, "_PCM_EXACT_SAMPLES", 100)
        pcm = uniform_pcm(1, 101)
        assert dsp.sound_level_db(pcm[:100]) == pytest.approx(
            dsp.sound_level_db(float_samples(pcm[:100])), abs=1e-12)
        assert len(sums) == 1
        assert dsp.sound_level_db(pcm) == dsp.sound_level_db(float_samples(pcm))
        assert len(sums) == 1


#: A config under which stage 4 maps every top-1 class directly.
PLAIN = PipelineConfig(margin_threshold=0.0)


class TestLabelMapping:
    @pytest.mark.parametrize("name,expected", [
        ("Singing", S), ("Humming", S), ("Whistling", W), ("Whistle", W),
    ])
    def test_direct_classes(self, name, expected):
        assert relax_rank(scores_for(**{name: 0.9}), PLAIN) == PipelineLabel(expected)

    @pytest.mark.parametrize("name", ["Speech", "Music"])
    def test_ambiguous_classes(self, name):
        assert relax_rank(scores_for(**{name: 0.9}), PLAIN) == PipelineLabel(S, deferred=True)

    def test_irrelevant_class_is_non_reaction(self):
        label = relax_rank(scores_for(Typing=0.9), PLAIN)
        assert label == PipelineLabel(N)

    def test_case_insensitive(self):
        sv = ScoreVector(class_names=["SINGING", "typing"], scores=np.array([0.9, 0.1]))
        assert relax_rank(sv, PLAIN).label is S


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


#: Class names the default config maps (in several cases) and some it does not.
RANKED_NAMES = ("Singing", "humming", "Whistle", "WHISTLING", "Speech", "music",
                "Typing", "Silence", "Vehicle", "Animal")


@st.composite
def tied_score_vectors(draw):
    """Score vectors of small integer weights, so ties and zero margins are common."""
    names = draw(st.lists(st.sampled_from(RANKED_NAMES), min_size=2, max_size=8, unique=True))
    weights = draw(st.lists(st.integers(0, 3), min_size=len(names), max_size=len(names))
                   .filter(any))
    return ScoreVector(class_names=names, scores=np.array(weights) / sum(weights))


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(scores=tied_score_vectors())
@example(scores=ScoreVector(("Typing", "Singing"), np.array([0.5, 0.5])))
def test_zero_margin_threshold_is_plain_label_mapping(scores):
    """No margin is negative, so ``margin_threshold = 0`` neutralises rank
    relaxation: every vector, ties included, maps through its top-1 class
    (the first of the highest scores)."""
    assert scores.margin() >= 0.0
    top = scores.class_names[int(np.argmax(scores.scores))].lower()
    label, deferred = vocal.CLASS_MAP.get(top, (N, False))
    assert relax_rank(scores, PLAIN) == PipelineLabel(label, deferred)


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
    candidate) for a low-margin second with a vocal class in the top 5 ranks."""
    lower = [n.lower() for n in scores.class_names]
    order = sorted(range(len(lower)), key=lambda i: -scores.scores[i])
    singing, whistling = {"singing", "humming"}, {"whistling", "whistle"}
    ambiguous = {"speech", "music"}
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
    for i in order[:5]:
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


#: Class names the mapping test draws from: every mapped name, and near misses.
POOL = ("singing", "humming", "whistling", "whistle", "speech", "music",
        "sing", "hum", "typing", "silence")
CASES = (str.lower, str.upper, str.title)


@st.composite
def mapping_case(draw):
    """A score vector with ties, over more names than relaxation scans, and a
    config with a drawn margin threshold."""
    config = PipelineConfig().replace(
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
    for relax, label in ((False, relax_rank(scores, PLAIN)),
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


#: How a ``pitch.csv`` row on the grid may be written or broken, given its time.
_PITCH_ROWS = {
    "good": lambda t: f"{t:.1f},200,0.5",
    "quoted": lambda t: f'"{t:.1f}",200,0.5',  # only the row path reads it
    "nan": lambda t: f"{t:.1f},nan,0.5",
    "inf": lambda t: "inf,200,0.5",
    "late": lambda t: f"{t + 0.05:.2f},200,0.5",
    "early": lambda t: f"{t - 0.05:.2f},200,0.5",
    "non_numeric": lambda t: f"{t:.1f},x,0.5",
    "short": lambda t: f"{t:.1f},200",
    "blank": lambda t: "",
}


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(t0=st.sampled_from([0.0, 0.1, 2.3, 1e6]),
       kinds=st.lists(st.sampled_from(sorted(_PITCH_ROWS)), max_size=8))
def test_pitch_file_read_in_bulk_equals_the_row_check(tmp_path_factory, t0, kinds):
    """``from_file`` replays what the row-by-row reader replays, or raises its
    error for the first offending line, whichever fault comes first."""
    path = tmp_path_factory.getbasetemp() / "pitch.csv"
    rows = [_PITCH_ROWS[kind](t0 + k * 0.1) for k, kind in enumerate(kinds)]
    path.write_text("t,f0,confidence\n" + "".join(f"{row}\n" for row in rows))

    def outcome(read):
        try:
            tracker = read(path)
        except ParseError as exc:
            return str(exc)
        return tracker._t0, tracker._f0s.tolist(), tracker._confs.tolist()

    assert outcome(FilePitchTracker.from_file) == outcome(FilePitchTracker._from_rows)


def test_a_refused_pitch_file_is_read_row_by_row_once(tmp_path, monkeypatch):
    """A file the bulk parser refuses goes straight to the row reader: one pass
    of ``core.read_csv_rows``, not a failed matrix read and then another."""
    path = tmp_path / "pitch.csv"
    path.write_text("t,f0,confidence\n0.0,200,0.5\n0.1,x,0.5\n")
    calls = []

    def spy(*args, real=core.read_csv_rows):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(core, "read_csv_rows", spy)
    monkeypatch.setattr(vocal, "read_csv_rows", spy)
    with pytest.raises(ParseError, match=r"pitch\.csv: line 3: non-numeric field$"):
        FilePitchTracker.from_file(path)
    assert calls == [(path, vocal._PITCH_HEADER)]


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

    def test_fft_length_is_scipys_next_fast_len(self):
        for n in range(1, 200_001):
            assert vocal._next_fast_len(n) == scipy.fft.next_fast_len(n, real=True), n


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

    def test_patch_classifier_gets_float_samples_past_stage_2_only(self, monkeypatch):
        """Stage 2 measures the PCM slice itself; the log-mel front end takes
        float samples of each second it classifies, once, and a replayed
        tracker none."""
        generated = generate_session(singing_spec())
        pcm = np.round(np.clip(generated.session.audio, -1.0, 1.0) * 32767.0).astype(np.int16)
        session = dataclasses.replace(generated.session, audio=pcm)

        class PatchReplay(ScoreFileClassifier):
            needs_patch = True

        seconds = []
        real = core.Session.audio_samples
        monkeypatch.setattr(core.Session, "audio_samples", lambda self, start, stop: (
            seconds.append(start // self.audio_rate), real(self, start, stop))[1])
        result = run_vocal_pipeline(
            session, PatchReplay(generated.scores), generated.pitch_tracker(),
            MusicInfoStore({"tune": generated.note_track}),
            config=PipelineConfig().replace(dtw_threshold=30.0))
        stages = result.stats.stages
        assert Stage.SOUND_FILTER in stages and Stage.CORRECTION in stages
        assert seconds == [i for i, stage in enumerate(stages)
                           if stage in (Stage.CLASSIFIER, Stage.CORRECTION)]

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

    @staticmethod
    def silent_stages(config):
        """Stages of a session whose audio is all zeros, every second past stage 1."""
        session = generate_session(singing_spec()).session
        session = dataclasses.replace(session, audio=np.zeros_like(session.audio))
        classifier = ScoreFileClassifier(dict.fromkeys(range(30), scores_for(Silence=0.9)))
        config = config.replace(vocal_movement_low_g=0.0, vocal_movement_high_g=1e308,
                                enable_correction=False, enable_smoothing=False)
        return set(run_vocal_pipeline(session, classifier, config=config).stats.stages)

    @pytest.mark.parametrize("calibration", [94.0, 0.0, -57.3, 130.0, 1e6])
    def test_threshold_at_the_silence_floor_passes_digital_silence(self, calibration):
        """An all-zero second measures ``db_calibration - 240`` dB, so a
        ``sound_db_threshold`` there neutralises the sound prefilter."""
        config = PipelineConfig(db_calibration=calibration,
                                sound_db_threshold=calibration - 240)
        assert self.silent_stages(config) == {Stage.CLASSIFIER}

    def test_default_threshold_settles_digital_silence(self):
        assert self.silent_stages(PipelineConfig()) == {Stage.SOUND_FILTER}

    def test_16_khz_session_reaches_the_patch_only_low_passed(self):
        """Audio recorded at the classifier rate is not resampled: each patch is
        the log-mel of the second's audio after the 2 kHz low-pass alone."""
        session = generate_session(singing_spec()).session
        audio = dsp.resample(session.audio, session.audio_rate, CLASSIFIER_RATE_HZ)
        session = dataclasses.replace(session, audio=audio, audio_rate=CLASSIFIER_RATE_HZ)

        class Recording(vocal.SoundEventClassifier):
            def __init__(self):
                self.patches = {}

            def classify(self, patch, index):
                self.patches[index] = patch
                return scores_for(Silence=0.9)

        config = PipelineConfig().replace(
            vocal_movement_low_g=0.0, vocal_movement_high_g=1e308,
            sound_db_threshold=PipelineConfig.db_calibration - 240,
            enable_correction=False, enable_smoothing=False)
        classifier = Recording()
        result = run_vocal_pipeline(session, classifier, config=config)
        assert sorted(classifier.patches) == list(range(len(result.labels)))
        for i, patch in classifier.patches.items():
            second = audio[i * CLASSIFIER_RATE_HZ:(i + 1) * CLASSIFIER_RATE_HZ]
            np.testing.assert_array_equal(patch, dsp.log_mel_patch(dsp.lowpass_first_order(
                second, CLASSIFIER_RATE_HZ, config.audio_lowpass_hz)))

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
            vocal_movement_low_g=0.0, vocal_movement_high_g=1e308,
            sound_db_threshold=PipelineConfig.db_calibration - 240,
            enable_correction=False)
        result = run_vocal_pipeline(
            generated.session, Replay(observed),
            hmm=sticky_hmm(self_prob=0.9, emit_diag=0.8), config=config)
        assert result.observed[6] is N      # pre-smoothing sees the flip
        assert result.labels[6] is S        # smoothing absorbs it
        assert result.labels == [S] * 12


@st.composite
def hmms_and_windows(draw):
    """An HMM over 2-4 labels whose rows are small integer weights normalized,
    so zero probabilities (-inf logs) and exact ties are common, with an
    observed sequence and a smoothing window of 1-8."""
    k = draw(st.integers(2, 4))
    states = draw(st.permutations(list(ReactionLabel)))[:k]

    def rows(count):
        weights = draw(st.lists(st.lists(st.integers(0, 3), min_size=k, max_size=k)
                                .filter(any), min_size=count, max_size=count))
        return np.array([np.array(w) / sum(w) for w in weights])

    hmm = HmmParams(states=states, initial=rows(1)[0], transition=rows(k), emission=rows(k))
    observed = draw(st.lists(st.sampled_from(states), max_size=20))
    return hmm, observed, draw(st.integers(1, 8))


class TestBatchedSmoothing:
    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(hmms_and_windows())
    def test_equals_viterbi_on_each_trailing_window(self, case):
        hmm, observed, window = case
        expected = [viterbi_path(hmm, observed[max(0, i + 1 - window):i + 1])[0][-1]
                    for i in range(len(observed))]
        assert smooth_labels(observed, hmm, window) == expected
        if observed:
            assert smooth(observed[-window:], hmm) is expected[-1]

    def test_window_must_be_positive(self):
        with pytest.raises(ParameterError):
            smooth_labels([S], sticky_hmm(), 0)

    def test_pipeline_never_runs_viterbi_per_second(self, monkeypatch):
        """A 60 s session is smoothed without one ``viterbi_path`` call, and
        its labels are those of the per-window decode."""
        calls = []
        monkeypatch.setattr(vocal, "viterbi_path",
                            lambda *args: calls.append(1) or viterbi_path(*args))
        generated = generate_session(singing_spec(duration_s=60, script=((5, 25, S),
                                                                          (32, 50, W))))
        hmm = sticky_hmm(self_prob=0.7, emit_diag=0.6)
        result = run_vocal_pipeline(
            generated.session, generated.classifier(),
            pitch_tracker=generated.pitch_tracker(),
            note_store=MusicInfoStore({"tune": generated.note_track}), hmm=hmm,
            config=PipelineConfig().replace(dtw_threshold=30.0))
        assert calls == []
        window = vocal.SMOOTHING_WINDOW
        assert result.labels == [
            viterbi_path(hmm, result.observed[max(0, i + 1 - window):i + 1])[0][-1]
            for i in range(60)]
        assert result.labels != result.observed
