"""Tests for the head-motion pipeline: prefilter, motion units, LSTM
inference, the heuristic classifier, and the per-second cascade."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from musereact import dsp, motion
from musereact.core import (
    IMU_RATE_HZ,
    ParameterError,
    PipelineConfig,
    ReactionLabel,
    Session,
    Stage,
    merge_labels_to_events,
    second_bounds,
)
from musereact.harness import SyntheticSpec, evaluate, generate_session, lstm_loop_oracle
from musereact.motion import (
    GYRO_LOWPASS_HZ,
    NUM_FEATURES,
    HeuristicMotionClassifier,
    LstmClassifier,
    LstmWeights,
    extract_motion_units,
    lstm_forward,
    run_motion_pipeline,
)
from musereact.vocal import vocal_motion_prefilter

N = ReactionLabel.NON_REACTION
H = ReactionLabel.HEAD_MOTION

#: All-zero weights of the default shape: the LSTM answers (0.5, 0.5).
ZERO_WEIGHTS = LstmWeights.random(np.random.default_rng(0), scale=0.0)


def motion_spec(**overrides):
    base = dict(
        session_id="m0", subject_id="subj", song_id="tune", place="office",
        duration_s=45, script=((8, 25, H), (32, 41, H)), seed=11,
    )
    base.update(overrides)
    return SyntheticSpec(**base)


class TestMotionPrefilter:
    def test_default_band(self):
        def accel_with_level(level):
            mags = np.tile([1.0 - level, 1.0 + level], 35)
            return np.column_stack([mags, np.zeros(70), np.zeros(70)])

        def motion_prefilter(accel):
            config = PipelineConfig()
            return vocal_motion_prefilter(
                accel, config.motion_movement_low_g, config.motion_movement_high_g)

        assert motion_prefilter(accel_with_level(0.01)) is False
        assert motion_prefilter(accel_with_level(0.1)) is False
        assert motion_prefilter(accel_with_level(0.005)) is True
        assert motion_prefilter(accel_with_level(0.2)) is True

    def test_band_boundaries_are_inclusive(self):
        mags = np.tile([1.0, 1.5], 35)  # movement level exactly 0.25
        accel = np.column_stack([mags, np.zeros(70), np.zeros(70)])
        assert vocal_motion_prefilter(accel, low_g=0.25, high_g=0.5) is False
        assert vocal_motion_prefilter(accel, low_g=0.1, high_g=0.25) is False
        assert vocal_motion_prefilter(accel, low_g=0.250001, high_g=0.5) is True


class TestMotionUnits:
    def test_shape_contract(self):
        rng = np.random.default_rng(0)
        units = extract_motion_units(rng.normal(0, 10, (490, 3)))
        assert units.shape == (70, 18)
        assert np.all(np.isfinite(units))

    def test_constant_gyro(self):
        c = 3.5
        units = extract_motion_units(np.full((490, 3), c))
        for axis in range(3):
            base = axis * 6
            np.testing.assert_allclose(units[:, base + 0], c)        # max
            np.testing.assert_allclose(units[:, base + 1], c)        # min
            np.testing.assert_allclose(units[:, base + 2], c)        # mean
            np.testing.assert_allclose(units[:, base + 3], 0.0)      # range
            np.testing.assert_allclose(units[:, base + 4], 0.0)      # std
            np.testing.assert_allclose(units[:, base + 5], abs(c))   # rms

    def test_alternating_unit_hand_values(self):
        """x-axis samples [1,-1,1,-1,1,-1,1] across one 100 ms unit."""
        gyro = np.zeros((7, 3))
        gyro[:, 0] = [1, -1, 1, -1, 1, -1, 1]
        units = extract_motion_units(gyro)
        assert units.shape == (1, 18)
        assert units[0, 0] == 1.0                                    # max
        assert units[0, 1] == -1.0                                   # min
        assert units[0, 2] == pytest.approx(1 / 7)                   # mean
        assert units[0, 3] == 2.0                                    # range
        assert units[0, 4] == pytest.approx(np.sqrt(1 - 1 / 49))     # std
        assert units[0, 5] == pytest.approx(1.0)                     # rms

    def test_units_are_ordered_statistics(self):
        rng = np.random.default_rng(1)
        units = extract_motion_units(rng.normal(0, 5, (490, 3)))
        for axis in range(3):
            base = axis * 6
            assert np.all(units[:, base + 1] <= units[:, base + 2])  # min <= mean
            assert np.all(units[:, base + 2] <= units[:, base + 0])  # mean <= max
            assert np.all(units[:, base + 3] >= 0)
            assert np.all(units[:, base + 4] >= 0)

    def test_rms_identity(self):
        """rms^2 = mean^2 + std^2 holds with the population std."""
        rng = np.random.default_rng(2)
        units = extract_motion_units(rng.normal(0, 5, (490, 3)))
        for axis in range(3):
            base = axis * 6
            np.testing.assert_allclose(
                units[:, base + 5] ** 2,
                units[:, base + 2] ** 2 + units[:, base + 4] ** 2,
                atol=1e-9,
            )

    def test_stack_equals_each_window(self):
        windows = np.random.default_rng(9).normal(0, 5, (2, 3, 490, 3))
        stacked = extract_motion_units(windows)
        assert stacked.shape == (2, 3, 70, 18)
        for index in np.ndindex(2, 3):
            np.testing.assert_array_equal(stacked[index], extract_motion_units(windows[index]))

    def test_length_must_be_multiple_of_unit(self):
        with pytest.raises(ParameterError):
            extract_motion_units(np.zeros((489, 3)))
        with pytest.raises(ParameterError):
            extract_motion_units(np.zeros((490, 2)))


class TestLstm:
    def test_zero_weights_are_indifferent(self):
        weights = ZERO_WEIGHTS
        rng = np.random.default_rng(3)
        out = lstm_forward(weights, rng.normal(0, 1, (70, 18)))
        np.testing.assert_allclose(out, [0.5, 0.5], atol=1e-12)

    def test_output_is_a_distribution(self):
        rng = np.random.default_rng(4)
        weights = LstmWeights.random(rng)
        for _ in range(10):
            out = lstm_forward(weights, rng.normal(0, 1, (70, 18)))
            assert out.shape == (2,)
            assert np.all(out > 0)
            assert out.sum() == pytest.approx(1.0, abs=1e-6)

    def test_scalar_hand_computation(self):
        """1 feature, 1 hidden unit, 1 timestep, recomputed with np scalars."""
        wi, bi = 0.5, 0.1
        wf, bf = 0.3, -0.2
        wo, bo = 0.8, 0.0
        wc, bc = 1.2, 0.05
        wd = np.array([[1.0, -1.0]])
        bd = np.array([0.1, -0.1])
        weights = LstmWeights(
            Wi=np.array([[wi]]), Wf=np.array([[wf]]), Wo=np.array([[wo]]),
            Wc=np.array([[wc]]),
            Ui=np.zeros((1, 1)), Uf=np.zeros((1, 1)), Uo=np.zeros((1, 1)),
            Uc=np.zeros((1, 1)),
            bi=np.array([bi]), bf=np.array([bf]), bo=np.array([bo]),
            bc=np.array([bc]),
            Wd=wd, bd=bd,
        )
        x = 0.7

        def sigmoid(v):
            return 1.0 / (1.0 + np.exp(-v))

        i = sigmoid(wi * x + bi)
        o = sigmoid(wo * x + bo)
        c = i * np.tanh(wc * x + bc)
        h = o * np.tanh(c)
        logits = max(h, 0.0) * wd[0] + bd
        expected = np.exp(logits) / np.exp(logits).sum()

        out = lstm_forward(weights, np.array([[x]]))
        np.testing.assert_allclose(out, expected, atol=1e-9)

    def test_feature_permutation_invariance(self):
        rng = np.random.default_rng(5)
        weights = LstmWeights.random(rng)
        seq = rng.normal(0, 1, (70, 18))
        perm = rng.permutation(18)
        permuted = LstmWeights(
            Wi=weights.Wi[perm], Wf=weights.Wf[perm],
            Wo=weights.Wo[perm], Wc=weights.Wc[perm],
            Ui=weights.Ui, Uf=weights.Uf, Uo=weights.Uo, Uc=weights.Uc,
            bi=weights.bi, bf=weights.bf, bo=weights.bo, bc=weights.bc,
            Wd=weights.Wd, bd=weights.bd,
        )
        np.testing.assert_allclose(
            lstm_forward(permuted, seq[:, perm]),
            lstm_forward(weights, seq),
            atol=1e-12,
        )

    def test_random_draws_in_field_order(self):
        """Wi..Uc, then bi..bc, then Wd, bd: stored LSTM outputs depend on it."""
        weights = LstmWeights.random(np.random.default_rng(0))
        rng = np.random.default_rng(0)
        n, h = 18, 32
        expected = [("Wi", (n, h)), ("Wf", (n, h)), ("Wo", (n, h)), ("Wc", (n, h)),
                    ("Ui", (h, h)), ("Uf", (h, h)), ("Uo", (h, h)), ("Uc", (h, h)),
                    ("bi", (h,)), ("bf", (h,)), ("bo", (h,)), ("bc", (h,)),
                    ("Wd", (h, 2)), ("bd", (2,))]
        for key, shape in expected:
            np.testing.assert_array_equal(
                getattr(weights, key), rng.normal(0.0, 0.1, shape))

    def test_shape_validation(self):
        weights = ZERO_WEIGHTS
        with pytest.raises(ParameterError):
            LstmWeights(
                Wi=weights.Wi[:, :-1], Wf=weights.Wf, Wo=weights.Wo, Wc=weights.Wc,
                Ui=weights.Ui, Uf=weights.Uf, Uo=weights.Uo, Uc=weights.Uc,
                bi=weights.bi, bf=weights.bf, bo=weights.bo, bc=weights.bc,
                Wd=weights.Wd, bd=weights.bd,
            )

    def test_json_round_trip(self, tmp_path):
        rng = np.random.default_rng(6)
        weights = LstmWeights.random(rng)
        path = tmp_path / "lstm.json"
        weights.save(path)
        loaded = LstmWeights.load(path)
        seq = rng.normal(0, 1, (70, 18))
        np.testing.assert_allclose(
            lstm_forward(loaded, seq), lstm_forward(weights, seq), atol=1e-12)

    @pytest.mark.parametrize("n", [1, 7, 200])
    @pytest.mark.parametrize("steps", [1, 70])
    @pytest.mark.parametrize("inputs,hidden", [(1, 1), (5, 3), (18, 32)])
    def test_batch_equals_step_loop_oracle(self, n, steps, inputs, hidden):
        rng = np.random.default_rng(n * 1000 + steps * 10 + hidden)
        weights = LstmWeights.random(rng, inputs, hidden, scale=0.5)
        batch = rng.normal(0, 1, (n, steps, inputs))
        want = np.array([lstm_loop_oracle(weights, seq) for seq in batch])
        got = lstm_forward(weights, batch)
        assert got.shape == (n, 2)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        np.testing.assert_allclose(lstm_forward(weights, batch[0]), want[0], rtol=0, atol=1e-12)

    def test_fused_gates_are_derived_once(self):
        weights = LstmWeights.random(np.random.default_rng(2), 4, 3)
        w_in, w_rec, bias = weights.fused
        assert weights.fused[0] is w_in
        np.testing.assert_array_equal(w_in[:, 3:6], weights.Wf)
        np.testing.assert_array_equal(w_rec[:, 9:], weights.Uc)
        np.testing.assert_array_equal(bias[6:9], weights.bo)

    def test_classify_many_equals_classify(self):
        rng = np.random.default_rng(12)
        units = extract_motion_units(
            dsp.lowpass_first_order(rng.normal(0, 20, (5 * 490, 3)), 70, 5).reshape(5, 490, 3))
        lstm = LstmClassifier(LstmWeights.random(rng))
        np.testing.assert_allclose(lstm.classify_many(units),
                                   [lstm.classify(u)[0] for u in units], rtol=0, atol=1e-12)
        heuristic = HeuristicMotionClassifier()
        np.testing.assert_array_equal(heuristic.classify_many(units),
                                      [heuristic.classify(u)[0] for u in units])

    def test_classifier_wrapper(self):
        clf = LstmClassifier(ZERO_WEIGHTS)
        p_head, p_non = clf.classify(np.zeros((70, 18)))
        assert p_head == pytest.approx(0.5)
        assert p_head + p_non == pytest.approx(1.0)


class TestHeuristicClassifier:
    def classify(self, gyro):
        clf = HeuristicMotionClassifier()
        return clf.classify(extract_motion_units(gyro))

    def test_zero_sequence(self):
        p_head, p_non = self.classify(np.zeros((490, 3)))
        assert p_head < 0.5
        assert p_head + p_non == pytest.approx(1.0, abs=1e-6)

    def test_nod_frequency_sine(self):
        t = np.arange(490) / 70.0
        for freq in (1.0, 2.0, 3.0):
            gyro = np.column_stack([
                np.zeros(490), 40 * np.sin(2 * np.pi * freq * t), np.zeros(490)])
            p_head, _ = self.classify(gyro)
            assert p_head > 0.5, f"{freq} Hz sine should look like nodding"

    def test_white_noise_rarely_fires(self):
        hits = 0
        for seed in range(10):
            rng = np.random.default_rng(seed)
            p_head, _ = self.classify(rng.normal(0, 3, (490, 3)))
            hits += p_head >= 0.5
        assert hits <= 1

    def test_lowpassed_noise_rarely_fires(self):
        # the pipeline hands the classifier 5 Hz low-passed gyro, which has
        # more low-frequency content than raw white noise
        hits = 0
        for seed in range(10):
            rng = np.random.default_rng(seed)
            noise = dsp.lowpass_first_order(rng.normal(0, 3, (490, 3)), 70, 5)
            p_head, _ = self.classify(noise)
            hits += p_head >= 0.5
        assert hits <= 1


class TestMotionPipeline:
    def test_still_session_fully_filtered(self):
        spec = SyntheticSpec(
            session_id="still", subject_id="s", song_id="tune", place="office",
            duration_s=20, script=(), activity="still", seed=3,
        )
        generated = generate_session(spec)
        result = run_motion_pipeline(generated.session)
        assert result.labels == [N] * 20
        assert result.stats.filtering_ratio == pytest.approx(1.0)
        assert result.stats.count(Stage.CLASSIFIER) == 0

    def test_exercise_session_fully_filtered(self):
        spec = SyntheticSpec(
            session_id="gym", subject_id="s", song_id="tune", place="office",
            duration_s=20, script=(), activity="exercise", seed=4,
        )
        generated = generate_session(spec)
        result = run_motion_pipeline(generated.session)
        assert result.labels == [N] * 20
        assert result.stats.filtering_ratio == pytest.approx(1.0)

    def test_short_session_never_classifies(self):
        """A 5 s session has no full trailing window, so the classifier
        stays idle and everything is settled by prefilter or cold start."""
        spec = motion_spec(duration_s=5, script=((0, 5, H),), seed=5)
        generated = generate_session(spec)
        result = run_motion_pipeline(generated.session)
        assert result.labels == [N] * 5
        assert result.stats.count(Stage.CLASSIFIER) == 0
        assert result.stats.count(Stage.MOTION_FILTER, Stage.COLD_START) == 5

    def test_cold_start_seconds_are_non_reaction(self):
        spec = motion_spec(duration_s=30, script=((0, 20, H),), seed=6)
        generated = generate_session(spec)
        result = run_motion_pipeline(generated.session)
        assert result.labels[:6] == [N] * 6
        assert H in result.labels[6:20]

    def test_nodding_session_events_cover_truth(self):
        generated = generate_session(motion_spec())
        result = run_motion_pipeline(generated.session)
        report = evaluate(generated.motion_truth, result.labels)
        per_class = {c: m for c, m in report.per_class.items()}
        assert per_class[H].f1 > 0.85
        assert H in {e.label for e in merge_labels_to_events(result.labels)}

    def test_never_emits_vocal_labels(self):
        generated = generate_session(motion_spec(seed=12))
        result = run_motion_pipeline(generated.session)
        assert ReactionLabel.SINGING_HUMMING not in result.labels
        assert ReactionLabel.WHISTLING not in result.labels

    def test_stats_account_for_every_second(self):
        generated = generate_session(motion_spec(seed=13))
        result = run_motion_pipeline(generated.session)
        st = result.stats
        assert len(st.stages) == 45
        assert st.count(Stage.MOTION_FILTER, Stage.COLD_START, Stage.CLASSIFIER) + st.errors == 45

    def test_lstm_classifier_plugs_in(self):
        generated = generate_session(motion_spec(duration_s=15, script=((4, 12, H),)))
        result = run_motion_pipeline(
            generated.session, classifier=LstmClassifier(ZERO_WEIGHTS))
        # indifferent classifier never crosses the 0.5 decision threshold
        assert result.labels == [N] * 15

    def test_disabled_prefilter_classifies_everything(self):
        """An open movement band neutralises the prefilter: every second with
        a full window reaches the classifier."""
        generated = generate_session(motion_spec(duration_s=20, script=((8, 16, H),)))
        config = PipelineConfig().replace(
            motion_movement_low_g=0.0, motion_movement_high_g=1e308)
        result = run_motion_pipeline(generated.session, config=config)
        assert result.stats.count(Stage.MOTION_FILTER) == 0
        assert result.stats.count(Stage.CLASSIFIER) == 20 - result.stats.count(Stage.COLD_START)


# ---------------------------------------------------------------------------
# the array paths against their per-window references
# ---------------------------------------------------------------------------

def heuristic_reference(units):
    """:class:`HeuristicMotionClassifier`'s ``p_head`` of one ``(T, 18)``
    sequence, one window at a time: the reference ``classify_many`` must
    equal bit for bit."""
    energy = np.linalg.norm(np.asarray(units, dtype=float)[:, [4, 10, 16]], axis=1)
    score = 0.0
    for length in (70, 30):
        series = energy[-min(length, len(energy)):]
        if len(series) > 13:  # longer than the largest lag, 12 units
            score = max(score, _series_score_reference(series))
    return score


def _series_score_reference(series):
    x = series - series.mean()
    power_total = float(np.dot(x, x))
    if power_total <= 0.0:
        return 0.0
    spectrum = np.fft.rfft(x, n=2 * len(x))
    r = np.fft.irfft(spectrum * np.conj(spectrum))[:13]
    ac_peak = float(np.max(r[2:13]) / r[0])
    nondc = (np.abs(np.fft.rfft(x)) ** 2)[1:]
    peakiness = float(nondc.max() / nondc.sum()) if nondc.sum() > 0 else 0.0
    return float(1.0 / (1.0 + np.exp(-(6.0 * ac_peak + 4.0 * peakiness - 5.0))))


@st.composite
def unit_stacks(draw):
    """``(n, T, 18)`` stacks mixing noise, all-zero windows, constant energy
    series and periodic (nodding-like) ones, at several scales."""
    n = draw(st.sampled_from([1, 2, 9, 128]))
    length = draw(st.sampled_from([70, 70, 70, 0, 13, 14, 29, 30, 31, 100]))
    scale = draw(st.sampled_from([1e-6, 1e-2, 1.0, 40.0, 1e4]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    units = np.abs(rng.normal(0.0, scale, (n, length, NUM_FEATURES)))
    kinds = rng.integers(0, 4, n)
    t = np.arange(length)
    for k, kind in enumerate(kinds):
        if kind == 1:
            units[k] = 0.0
        elif kind == 2:
            units[k, :, [4, 10, 16]] = scale * rng.uniform(0.1, 2.0, (3, 1))
        elif kind == 3:
            period = rng.uniform(2.0, 14.0)
            units[k, :, 10] += scale * np.abs(np.sin(np.pi * t / period))
    return units



class TestHeuristicScoresAsArrays:
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(unit_stacks())
    def test_classify_many_equals_the_per_window_reference(self, units):
        clf = HeuristicMotionClassifier()
        expected = [heuristic_reference(window) for window in units]
        assert np.array_equal(clf.classify_many(units), expected)
        assert [clf.classify(window)[0] for window in units] == expected

    @pytest.mark.parametrize("n", [1, 128])
    def test_zero_and_constant_windows_score_0(self, n):
        units = np.zeros((n, 70, NUM_FEATURES))
        units[n // 2, :, [4, 10, 16]] = 3.0
        assert np.array_equal(HeuristicMotionClassifier().classify_many(units), np.zeros(n))

    def test_stack_must_be_three_dimensional(self):
        with pytest.raises(ParameterError):
            HeuristicMotionClassifier().classify_many(np.zeros((70, NUM_FEATURES)))
        with pytest.raises(ParameterError):
            HeuristicMotionClassifier().classify(np.zeros((70, 17)))


class RecordingClassifier(motion.SequenceClassifier):
    """Keeps every stack it is asked to score; scores 0."""

    def __init__(self):
        self.stacks = []

    def classify_many(self, units):
        self.stacks.append(np.array(units))
        return np.zeros(len(units))


def jittered_session(seconds, seed, jitter):
    """A session whose IMU clock drifts by up to ``jitter`` of a sample step,
    so the per-second window ends fall on several phases mod 7."""
    rng = np.random.default_rng(seed)
    steps = (1.0 + rng.uniform(-jitter, jitter, seconds * int(IMU_RATE_HZ))) / IMU_RATE_HZ
    t = np.concatenate([[0.0], np.cumsum(steps)[:-1]])
    keep = t < seconds
    accel = np.array([0.0, 0.0, 1.0]) + rng.normal(0, 0.05, (len(t), 3))
    gyro = rng.normal(0, 20, (len(t), 3))
    return Session(session_id="jitter", subject_id="s", song_id="tune", place="office",
                   imu_t=t[keep], accel=accel[keep], gyro=gyro[keep])


class TestMotionUnitTable:
    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(seconds=st.integers(7, 300), seed=st.integers(0, 2**32 - 1),
           jitter=st.sampled_from([0.0, 0.05, 0.3]))
    def test_gathered_units_equal_each_window_summarized(self, seconds, seed, jitter):
        session = jittered_session(seconds, seed, jitter)
        recorder = RecordingClassifier()
        result = run_motion_pipeline(session, recorder)
        bounds = second_bounds(session)
        ends = np.array([bounds[i + 1] for i, stage in enumerate(result.stats.stages)
                         if stage is Stage.CLASSIFIER], dtype=int)
        gyro = dsp.lowpass_first_order(session.gyro, IMU_RATE_HZ, GYRO_LOWPASS_HZ)
        expected = extract_motion_units(gyro[ends[:, None] + np.arange(-490, 0)])
        got = np.concatenate(recorder.stacks) if recorder.stacks else expected[:0]
        assert np.array_equal(got, expected)
        assert [len(stack) for stack in recorder.stacks] == [
            min(motion.MOTION_BLOCK, len(ends) - first)
            for first in range(0, len(ends), motion.MOTION_BLOCK)]

    def test_window_ends_fall_on_several_phases(self):
        session = jittered_session(200, 1, 0.3)
        ends = np.array(second_bounds(session)[7:])
        assert len(set((ends % 7).tolist())) == 7


class TestNoPerWindowLoops:
    """The cascade scores windows as stacks: a per-window call coming back
    into the batch path fails here."""

    def test_heuristic_is_never_called_per_window(self, monkeypatch):
        calls = []
        original = HeuristicMotionClassifier.classify
        monkeypatch.setattr(HeuristicMotionClassifier, "classify",
                            lambda self, units: calls.append(1) or original(self, units))
        generated = generate_session(motion_spec(duration_s=60, script=((8, 50, H),)))
        result = run_motion_pipeline(generated.session)
        assert result.stats.count(Stage.CLASSIFIER) > 30
        assert H in result.labels
        assert calls == []
