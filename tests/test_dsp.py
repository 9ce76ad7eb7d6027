"""Tests for the signal-processing primitives."""

import numpy as np
import pytest
import scipy.signal
from hypothesis import example, given, settings
from hypothesis import strategies as st

from musereact import dsp, motion, vocal
from musereact.core import (
    InsufficientDataError,
    ParameterError,
    PipelineConfig,
    Session,
    Stage,
    second_bounds,
)
from musereact.harness import dtw_loop_oracle, dtw_oracle, movement_level_oracle


def tail_rms(x, n=4000):
    return float(np.sqrt(np.mean(np.square(x[-n:]))))


class TestMovementLevel:
    def test_constant_gravity_vector(self):
        accel = np.tile([0.0, 0.0, 1.0], (70, 1))
        assert dsp.movement_level(accel) == pytest.approx(0.0, abs=1e-12)

    def test_alternating_magnitudes(self):
        """Magnitudes alternating 1.0 / 1.2 have population std 0.1."""
        mags = np.tile([1.0, 1.2], 35)
        accel = np.column_stack([mags, np.zeros(70), np.zeros(70)])
        assert dsp.movement_level(accel) == pytest.approx(0.1, abs=1e-12)

    def test_rotating_unit_vector(self):
        # magnitude stays 1 even though components change
        accel = np.tile([0.6, 0.0, 0.8], (70, 1))
        assert dsp.movement_level(accel) == pytest.approx(0.0, abs=1e-12)

    def test_needs_at_least_two_samples(self):
        with pytest.raises(InsufficientDataError):
            dsp.movement_level(np.zeros((1, 3)))

    def test_population_std_not_sample_std(self):
        rng = np.random.default_rng(0)
        accel = rng.normal(0, 0.1, (50, 3))
        mags = np.linalg.norm(accel, axis=1)
        assert dsp.movement_level(accel) == pytest.approx(np.std(mags), abs=1e-12)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_table_equals_per_second_levels(self, seed):
        """A jittered session whose seconds hold 0, 1, 69, 70 and 71 samples:
        each table entry is the level of its second's slice, bit for bit,
        and NaN where that slice has fewer than 2 samples."""
        rng = np.random.default_rng(seed)
        counts = rng.permutation([0, 1, 2, 69, 70, 71] * 4 + [70] * 12)
        t = np.concatenate([second + (np.arange(n) + rng.uniform(0.0, 0.6, n)) / n
                            for second, n in enumerate(counts)])
        accel = np.array([0.0, 0.0, 1.0]) + rng.normal(0.0, 0.05, (len(t), 3))
        session = Session("s", "u", "g", "office", imu_t=t, accel=accel,
                          gyro=np.zeros_like(accel))
        session.validate()
        bounds = second_bounds(session)
        assert np.diff(bounds).tolist() == counts[:len(bounds) - 1].tolist()
        levels = dsp.movement_levels(session.accel, bounds)
        assert levels.shape == (len(bounds) - 1,)
        for level, lo, hi in zip(levels, bounds, bounds[1:]):
            if hi - lo < 2:
                assert np.isnan(level)
                with pytest.raises(InsufficientDataError):
                    dsp.movement_level(accel[lo:hi])
            else:
                oracle = movement_level_oracle(accel[lo:hi])
                assert level == oracle == dsp.movement_level(accel[lo:hi])

    @staticmethod
    @st.composite
    def runs_of_counts(draw):
        """Slice sample counts as runs of one count: a long run is a steady
        clock, runs of one a jittered clock, and a count that recurs after
        other counts is a run broken by them.  The bounds start past sample
        0 and end before the stream does, by a drawn margin."""
        runs = draw(st.lists(st.tuples(st.integers(0, 9), st.integers(1, 8)), max_size=8))
        return ([n for n, length in runs for _ in range(length)], draw(st.integers(0, 4)),
                draw(st.integers(0, 4)), draw(st.integers(0, 2**32 - 1)))

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(case=runs_of_counts())
    @example(case=([70] * 12, 0, 0, 0))                          # steady: one view
    @example(case=([69, 70, 71, 70, 70, 69, 71], 3, 2, 1))      # jittered: gathered
    @example(case=([5, 5, 0, 5, 1, 5, 5, 2, 2], 1, 0, 2))       # broken runs, 0 and 1
    @example(case=([], 4, 1, 3))
    def test_table_equals_oracle_on_any_clock(self, case):
        """Each level equals ``harness.movement_level_oracle`` of its slice,
        bit for bit, whether the slices of its count are read as one
        reshaped run of the stream or gathered; NaN where the slice has
        fewer than 2 samples."""
        counts, start, margin, seed = case
        bounds = np.concatenate([[0], np.cumsum(counts, dtype=int)]) + start
        rng = np.random.default_rng(seed)
        scale = 10.0 ** rng.uniform(-3, 1)
        accel = np.array([0.0, 0.0, 1.0]) + rng.normal(0.0, scale, (bounds[-1] + margin, 3))
        levels = dsp.movement_levels(accel, bounds)
        assert levels.shape == (len(counts),)
        for level, lo, hi in zip(levels.tolist(), bounds, bounds[1:]):
            if hi - lo < 2:
                assert np.isnan(level)
            else:
                assert level == movement_level_oracle(accel[lo:hi])

    def test_steady_clock_gathers_nothing(self, monkeypatch):
        """Consecutive slices of one count are read as a reshaped view of
        the stream; only a count whose slices are apart is gathered."""
        gathered = []
        window_view = np.lib.stride_tricks.sliding_window_view
        monkeypatch.setattr(np.lib.stride_tricks, "sliding_window_view",
                            lambda x, n: (gathered.append(n), window_view(x, n))[1])
        accel = np.random.default_rng(0).normal(0.0, 0.1, (400, 3))
        dsp.movement_levels(accel, np.arange(3, 400, 70))
        assert gathered == []
        dsp.movement_levels(accel, [0, 70, 140, 209, 279])  # 70 apart, 69 alone
        assert gathered == [70]

    @pytest.mark.parametrize("accel,bounds,message", [
        (np.ones((10, 4)), [0, 10], r"accel must be \(n, 3\), got \(10, 4\)"),
        (np.ones(30), [0, 10], r"accel must be \(n, 3\), got \(30,\)"),
        (np.ones((10, 3)), [0, 6, 4, 10], "bounds must not decrease, got 6 then 4"),
        (np.ones((10, 3)), [0, 5, 11], r"bounds must lie in \[0, 10\], got 0 to 11"),
        (np.ones((10, 3)), [-1, 5], r"bounds must lie in \[0, 10\], got -1 to 5"),
        (np.ones((0, 3)), [0, 1], r"bounds must lie in \[0, 0\], got 0 to 1"),
        (np.ones((10, 3)), [0.0, 10.0], r"bounds must be 1-D integers, got float64 \(2,\)"),
        (np.ones((10, 3)), [[0, 10]], r"bounds must be 1-D integers, got int64 \(1, 2\)"),
        (np.ones((10, 3)), [True, True], r"bounds must be 1-D integers, got bool \(2,\)"),
        (np.ones((10, 3)), 5, r"bounds must be 1-D integers, got int64 \(\)"),
    ])
    def test_table_refuses_bad_input(self, accel, bounds, message):
        with pytest.raises(ParameterError, match=f"^{message}$"):
            dsp.movement_levels(accel, bounds)

    def test_table_of_no_slices(self):
        for bounds in ([], [4]):
            assert dsp.movement_levels(np.ones((10, 3)), bounds).shape == (0,)


#: Components the column kernel must round exactly as ``np.linalg.norm``:
#: signed zeros, subnormals (whose squares flush to 0), values on both sides
#: of 1.34e154, past which a square or a sum of squares overflows to inf, NaN
#: and both infinities.
MAGNITUDE_SPECIALS = (0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308,
                      1e-160, 1e154, 1.5e154, -3e200, 1.7976931348623157e308,
                      np.nan, np.inf, -np.inf)


def _layout(accel, layout):
    """``accel``'s values in one of the layouts a caller may pass."""
    if layout == "F":
        return np.asfortranarray(accel)
    if layout == "column slice":  # as load_session_dir slices its (n, 7) table
        table = np.zeros((len(accel), 7))
        table[:, 1:4] = accel
        return table[:, 1:4]
    if layout == "row strided":
        wide = np.zeros((2 * len(accel), 3))
        wide[::2] = accel
        return wide[::2]
    if layout == "read-only":
        accel = accel.copy()
        accel.flags.writeable = False
    return accel


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                            "ignore:invalid value encountered:RuntimeWarning")
@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(length=st.integers(0, 300),
       layout=st.sampled_from(["C", "F", "column slice", "row strided", "read-only"]),
       scale=st.sampled_from([1e-3, 1.0, 16.0, 1e150]),
       seed=st.integers(0, 2**32 - 1),
       sprinkled=st.lists(st.tuples(st.integers(0, 2**31),
                                    st.sampled_from(MAGNITUDE_SPECIALS)), max_size=20))
# Every special value in every column (14 and 3 share no factor); one session.
@example(length=len(MAGNITUDE_SPECIALS) ** 2, layout="column slice", scale=1.0, seed=0,
         sprinkled=list(enumerate(MAGNITUDE_SPECIALS * 3 * len(MAGNITUDE_SPECIALS))))
@example(length=84_000, layout="F", scale=1.0, seed=1, sprinkled=[])
# Specials on the rows around a block border; a stream of exactly one block.
@example(length=2 * dsp._MAGNITUDE_BLOCK + 1, layout="row strided", scale=1.0, seed=2,
         sprinkled=[(3 * (dsp._MAGNITUDE_BLOCK - 2) + i, value)
                    for i, value in enumerate(MAGNITUDE_SPECIALS)])
@example(length=dsp._MAGNITUDE_BLOCK, layout="C", scale=16.0, seed=3, sprinkled=[])
def test_magnitude_is_the_norm_bit_for_bit(length, layout, scale, seed, sprinkled):
    """``dsp._magnitude`` equals ``np.linalg.norm(accel, axis=1)`` to the
    last bit and sign, whatever the layout and however the rows fall into
    blocks; summing ``x*x + (y*y + z*z)`` would not."""
    rng = np.random.default_rng(seed)
    accel = np.array([0.0, 0.0, 1.0]) + rng.normal(0.0, scale, (length, 3))
    flat = accel.reshape(-1)
    for position, value in sprinkled:
        if flat.size:
            flat[position % flat.size] = value
    accel = _layout(accel, layout)
    got, want = dsp._magnitude(accel), np.linalg.norm(accel, axis=1)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


@pytest.mark.filterwarnings(  # slices scaled by 1e200 overflow on purpose
    "ignore:overflow encountered:RuntimeWarning",
    "ignore:invalid value encountered:RuntimeWarning")
class TestMovementFilter:
    """``movement_filter`` settles every slice as the band test on
    ``harness.movement_level_oracle`` does, in both cascades: boundaries
    included, and the same error for a slice of 0 or 1 samples."""

    @staticmethod
    def random_table(seed):
        """Slices of 0, 1, 2, 3 and 70 samples at spreads from still to
        violent, a few scaled past overflow; a band whose edges are, in most
        draws, exactly the levels of two slices."""
        rng = np.random.default_rng(seed)
        counts = rng.choice([0, 1, 2, 3, 70, 70, 70], size=40)
        bounds = np.concatenate([[0], np.cumsum(counts)]).tolist()
        spread = np.repeat(10.0 ** rng.uniform(-3, 0, len(counts)), counts)
        noise = rng.normal(0.0, 1.0, (bounds[-1], 3)) * spread[:, None]
        accel = np.array([0.0, 0.0, 1.0]) + noise
        for i in rng.choice(np.flatnonzero(counts >= 2), size=2, replace=False):
            accel[bounds[i]:bounds[i + 1]] *= 1e200
        levels = dsp.movement_levels(accel, bounds)
        edges = rng.choice(levels[np.isfinite(levels)], size=2)
        if rng.random() < 0.2:
            edges = rng.uniform(0.0, 0.5, 2)
        return accel, bounds, float(min(edges)), float(max(edges))

    @staticmethod
    def per_slice(accel, bounds, low_g, high_g):
        """Oracle: the band test on each slice's oracle level; a slice whose
        level raises is a failure, and a failed slice is settled at stage 1
        too."""
        settled, failures = [], {}
        for i, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
            try:
                settled.append(not low_g <= movement_level_oracle(accel[lo:hi]) <= high_g)
            except InsufficientDataError as exc:
                settled.append(True)
                failures[i] = str(exc)
        return settled, failures

    @pytest.mark.parametrize("seed", range(20))
    def test_equals_the_per_slice_prefilters(self, seed):
        accel, bounds, low_g, high_g = self.random_table(seed)
        settled, failures = dsp.movement_filter(accel, bounds, low_g, high_g)
        assert (settled.tolist(), {i: str(exc) for i, exc in failures.items()}) == \
            self.per_slice(accel, bounds, low_g, high_g)
        assert all(type(exc) is InsufficientDataError for exc in failures.values())
        levels = dsp.movement_levels(accel, bounds)
        counts = np.diff(bounds)
        assert (np.isnan(levels) & (counts >= 2)).any()  # an overflowing slice
        assert {0, 1} <= set(counts.tolist())

    def test_both_cascades_settle_stage_1_from_the_table(self):
        """Each cascade leaves exactly the per-slice oracle's seconds in
        ``motion_filter`` and fails exactly its short seconds there."""
        accel, bounds, low_g, high_g = self.random_table(1)
        counts = np.diff(bounds)
        t = np.concatenate([i + np.arange(n) / n if n else [] for i, n in enumerate(counts)])
        t = np.append(t, len(counts))  # the last second ends with a sample
        accel = np.vstack([accel, [0.0, 0.0, 1.0]])
        session = Session("s", "u", "g", "office", imu_t=t, accel=accel,
                          gyro=np.zeros_like(accel))
        assert second_bounds(session) == bounds and low_g < high_g
        config = PipelineConfig(
            vocal_movement_low_g=low_g, vocal_movement_high_g=high_g,
            motion_movement_low_g=low_g, motion_movement_high_g=high_g,
            enable_correction=False, enable_smoothing=False)
        scores = vocal.ScoreVector(("speech", "a", "b", "c", "d"), [0.2] * 5)
        classifier = vocal.ScoreFileClassifier(dict.fromkeys(range(len(counts)), scores))
        results = (vocal.run_vocal_pipeline(session, classifier, config=config),
                   motion.run_motion_pipeline(session, config=config))
        oracle = self.per_slice(session.accel, bounds, low_g, high_g)
        settled, failures = oracle
        assert True in settled and False in settled and failures
        for result in results:
            record = result.stats
            stopped = [stage is Stage.MOTION_FILTER for stage in record.stages]
            stage_1 = {i: str(exc) for i, exc in record.failures.items()
                       if record.stages[i] is Stage.MOTION_FILTER}
            assert (stopped, stage_1) == oracle


class TestSoundLevel:
    def test_full_scale_square_wave(self):
        audio = np.tile([1.0, -1.0], 1000)
        assert dsp.sound_level_db(audio, calibration_db=94.0) == pytest.approx(94.0, abs=1e-6)

    def test_silence_is_far_below_any_threshold(self):
        assert dsp.sound_level_db(np.zeros(1000)) < -140.0

    def test_unit_sine(self):
        t = np.arange(44100) / 44100
        audio = np.sin(2 * np.pi * 100 * t)
        expected = 94.0 + 20.0 * np.log10(1.0 / np.sqrt(2.0))
        assert dsp.sound_level_db(audio, calibration_db=94.0) == pytest.approx(expected, abs=0.01)
        assert expected == pytest.approx(90.99, abs=0.01)


class TestLowpass:
    def test_equals_a_fresh_butterworth_design(self):
        x = np.random.default_rng(1).normal(0, 1, (700, 3))
        b, a = scipy.signal.butter(1, 5.0, btype="low", fs=70)
        for _ in range(2):
            np.testing.assert_array_equal(
                dsp.lowpass_first_order(x, 70, 5.0), scipy.signal.lfilter(b, a, x, axis=0))
        assert not any(arr.flags.writeable for arr in dsp._butter_first_order(5.0, 70))

    @pytest.mark.parametrize("fs", [7.5, 50, 70, 100, 1000, 8000, 16000, 22050, 44100, 48000])
    def test_closed_form_design_is_scipys_bit_for_bit(self, fs):
        """Over a grid of cutoffs at each rate, 5 Hz / 70 Hz and 2 kHz / 16 kHz among them."""
        cutoffs = np.concatenate([np.linspace(fs / 2000, 0.999 * fs / 2, 301), [5.0, 2000.0]])
        for fc in cutoffs[cutoffs < fs / 2].tolist():
            want = scipy.signal.butter(1, fc, btype="low", fs=fs)
            got = dsp._butter_first_order.__wrapped__(fc, fs)
            for w, g in zip(want, got):
                assert g.dtype == w.dtype and g.tobytes() == w.tobytes(), (fc, fs)

    def test_dc_gain_is_unity(self):
        x = np.full(16000, 0.37)
        y = dsp.lowpass_first_order(x, 16000, 2000)
        assert abs(y[-1] - 0.37) < 1e-6

    def test_cutoff_attenuation(self):
        """Sine at the cutoff comes out at ~1/sqrt(2) amplitude."""
        fs, fc = 16000, 2000
        t = np.arange(4 * fs) / fs
        x = np.sin(2 * np.pi * fc * t)
        y = dsp.lowpass_first_order(x, fs, fc)
        ratio = tail_rms(y) / tail_rms(x)
        assert ratio == pytest.approx(1.0 / np.sqrt(2.0), abs=0.005)

    def test_stopband_rolloff(self):
        # one decade above the cutoff a first-order filter is ~-20 dB
        fs, fc = 16000, 200
        t = np.arange(4 * fs) / fs
        x = np.sin(2 * np.pi * 10 * fc * t)
        y = dsp.lowpass_first_order(x, fs, fc)
        assert tail_rms(y) / tail_rms(x) < 0.15

    def test_two_d_filters_each_column(self):
        rng = np.random.default_rng(1)
        x = rng.normal(0, 1, (700, 3))
        y = dsp.lowpass_first_order(x, 70, 5)
        for col in range(3):
            np.testing.assert_allclose(
                y[:, col], dsp.lowpass_first_order(x[:, col], 70, 5), atol=1e-12)


#: Values the loop must round exactly as lfilter does: signed zeros, the
#: smallest and largest subnormals, the smallest normal and the range ends.
SPECIAL_VALUES = (0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308,
                  -2.225073858507201e-308, 2.2250738585072014e-308, 1e-310, 1e6, -1e6)
CHUNK = dsp._LOOP_CHUNK


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(length=st.integers(1, 2 * CHUNK + 100) | st.integers(1, 40),
       columns=st.sampled_from([None, 3]),
       design=st.sampled_from([(70, 5.0), (16000, 2000.0)]),
       values=st.sampled_from(["uniform", "special"]),
       scale=st.sampled_from([1.0, 300.0, 1e6]),
       seed=st.integers(0, 2**32 - 1),
       sprinkled=st.lists(st.tuples(st.integers(0, 2**31), st.sampled_from(SPECIAL_VALUES)),
                          max_size=12))
# One whole chunk; past two chunks; special values across a chunk boundary.
@example(length=CHUNK, columns=3, design=(70, 5.0), values="uniform", scale=300.0,
         seed=0, sprinkled=[])
@example(length=2 * CHUNK + 1, columns=3, design=(70, 5.0), values="uniform",
         scale=1e6, seed=1, sprinkled=[(2 * CHUNK, -0.0)])
@example(length=CHUNK + 1, columns=None, design=(16000, 2000.0), values="special",
         scale=1.0, seed=2, sprinkled=[])
def test_loop_is_lfilter_bit_for_bit(length, columns, design, scale, values, seed, sprinkled):
    """The scipy-free gyro low-pass equals ``scipy.signal.lfilter`` on the
    same design, to the last bit and the sign of every zero."""
    rng = np.random.default_rng(seed)
    shape = (length,) if columns is None else (length, columns)
    x = (rng.uniform(-scale, scale, shape) if values == "uniform"
         else rng.choice(SPECIAL_VALUES, shape))
    flat = x.reshape(-1)
    for position, value in sprinkled:
        flat[position % flat.size] = value
    fs, fc = design
    b, a = scipy.signal.butter(1, fc, btype="low", fs=fs)
    want = scipy.signal.lfilter(b, a, x, axis=0)
    got = dsp.lowpass_first_order_loop(x, fs, fc)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


class TestLowpassLoop:
    def test_checks_as_the_lfilter_path_does(self):
        for fs, fc in ((70, 0.0), (70, 35.0), (70, -1.0)):
            with pytest.raises(ParameterError, match="must lie in"):
                dsp.lowpass_first_order_loop(np.ones(10), fs, fc)
        with pytest.raises(ParameterError, match="empty"):
            dsp.lowpass_first_order_loop(np.empty((0, 3)), 70, 5.0)

    def test_filters_a_read_only_strided_view(self):
        """A validated session's gyro is read-only; a view may have any strides."""
        x = np.random.default_rng(3).normal(0, 40, (2 * CHUNK + 9, 3))
        x.flags.writeable = False
        got = dsp.lowpass_first_order_loop(x[::2], 70, 5.0)
        assert got.tobytes() == dsp.lowpass_first_order(x[::2], 70, 5.0).tobytes()


class TestResample:
    @pytest.mark.parametrize("from_hz,up,down", [(44100, 160, 441), (48000, 1, 3),
                                                 (8000, 2, 1)])
    def test_equals_plain_resample_poly(self, from_hz, up, down):
        x = np.random.default_rng(from_hz).normal(0, 0.3, from_hz)
        for _ in range(2):  # designed on the first call, cached on the second
            np.testing.assert_array_equal(
                dsp.resample(x, from_hz, 16000),
                scipy.signal.resample_poly(x, up, down))

    def test_cached_filter_is_read_only(self):
        dsp.resample(np.zeros(44100), 44100, 16000)
        h = dsp._resample_filter(160, 441)
        assert h is dsp._resample_filter(160, 441)
        assert not h.flags.writeable
        with pytest.raises(ValueError):
            h[0] = 1.0

    def test_output_length(self):
        out = dsp.resample(np.zeros(44100), 44100, 16000)
        assert len(out) == 16000

    def test_constant_preserved(self):
        out = dsp.resample(np.full(44100, 0.5), 44100, 16000)
        np.testing.assert_allclose(out[100:-100], 0.5, atol=1e-3)

    def test_tone_survives(self):
        """A 1 kHz sine stays a 1 kHz sine with amplitude within 2%."""
        t = np.arange(44100) / 44100
        tone = np.sin(2 * np.pi * 1000 * t)
        out = dsp.resample(tone, 44100, 16000)
        spectrum = np.abs(np.fft.rfft(out))
        freqs = np.fft.rfftfreq(len(out), d=1.0 / 16000)
        assert abs(freqs[np.argmax(spectrum)] - 1000.0) < 2.0
        interior = out[800:-800]
        assert np.max(np.abs(interior)) == pytest.approx(1.0, abs=0.02)

    def test_odd_length(self):
        out = dsp.resample(np.zeros(44100 + 441), 44100, 16000)
        assert len(out) == round((44100 + 441) * 16000 / 44100)


class TestMelFilterbank:
    def test_shape_and_nonnegativity(self):
        fb = dsp.mel_filterbank()
        assert fb.shape == (dsp.STFT_NFFT // 2 + 1, dsp.MEL_BANDS)
        assert np.all(fb >= 0.0)
        assert np.all(np.max(fb, axis=0) > 0.0)

    def test_band_centers_monotonic(self):
        fb = dsp.mel_filterbank()
        freqs = np.fft.rfftfreq(dsp.STFT_NFFT, d=1.0 / 16000)
        peak_freqs = freqs[np.argmax(fb, axis=0)]
        assert np.all(np.diff(peak_freqs) > 0)

    def test_cached_16k_bank_matches_and_is_read_only(self):
        np.testing.assert_array_equal(
            dsp.MEL_FILTERBANK_16K, dsp.mel_filterbank())
        assert not dsp.MEL_FILTERBANK_16K.flags.writeable
        with pytest.raises(ValueError):
            dsp.MEL_FILTERBANK_16K[0, 0] = 1.0


class TestLogMelPatch:
    def test_shape_contract(self):
        rng = np.random.default_rng(2)
        patch = dsp.log_mel_patch(rng.normal(0, 0.1, 16000))
        assert patch.shape == (96, 64)
        assert np.all(np.isfinite(patch))

    def test_silence_hits_log_floor(self):
        patch = dsp.log_mel_patch(np.zeros(16000))
        np.testing.assert_array_equal(patch, np.log(dsp.MEL_LOG_OFFSET))

    def test_pure_tone_lands_in_nearest_band(self):
        """1 kHz tone peaks in the band whose center is nearest 1 kHz.

        Band centers are recomputed here from scratch rather than read off
        the filterbank, so the two derivations must agree.
        """
        t = np.arange(16000) / 16000
        patch = dsp.log_mel_patch(0.5 * np.sin(2 * np.pi * 1000 * t))
        argmax = np.argmax(patch, axis=1)
        assert np.all(argmax == argmax[0])

        def to_mel(hz):
            return 2595.0 * np.log10(1.0 + hz / 700.0)

        def from_mel(mel):
            return 700.0 * (10.0 ** (mel / 2595.0) - 1.0)

        edges = np.linspace(to_mel(125.0), to_mel(7500.0), 64 + 2)
        centers_hz = from_mel(edges[1:-1])
        assert argmax[0] == int(np.argmin(np.abs(centers_hz - 1000.0)))

    def test_short_audio_rejected(self):
        with pytest.raises(InsufficientDataError):
            dsp.log_mel_patch(np.zeros(10000))

    @pytest.mark.parametrize("length", [15600, 16000, 16100])
    def test_equals_every_frame_cropped(self, length):
        """Framing only the kept frames changes no bit of the patch.

        The reference frames every frame but multiplies only the kept ones:
        some BLAS kernels (OpenBLAS's Haswell) round a row of a product
        differently with the number of rows, which is not the framing's
        doing."""
        audio = np.random.default_rng(length).normal(0, 0.2, length)
        count = (length - dsp.STFT_WINDOW) // dsp.STFT_HOP + 1
        idx = np.arange(count)[:, None] * dsp.STFT_HOP + np.arange(dsp.STFT_WINDOW)
        window = 0.5 - 0.5 * np.cos(2 * np.pi * np.arange(dsp.STFT_WINDOW) / dsp.STFT_WINDOW)
        magnitude = np.abs(np.fft.rfft(audio[idx] * window, n=dsp.STFT_NFFT, axis=1))
        kept = np.log(magnitude[:dsp.PATCH_FRAMES] @ dsp.mel_filterbank() + dsp.MEL_LOG_OFFSET)
        np.testing.assert_array_equal(dsp.log_mel_patch(audio), kept)


class TestHzToChroma:
    def test_concert_a(self):
        assert dsp.hz_to_chroma(440.0, 0.9) == 9

    def test_octave_up(self):
        assert dsp.hz_to_chroma(880.0, 0.9) == 9

    def test_middle_c(self):
        assert dsp.hz_to_chroma(261.63, 0.9) == 0

    def test_low_confidence_is_unvoiced(self):
        assert dsp.hz_to_chroma(500.0, 0.2) == dsp.UNVOICED
        assert dsp.hz_to_chroma(0.0, 0.0) == dsp.UNVOICED  # a tracker's silent frame

    def test_octave_invariance_sample(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            hz = float(rng.uniform(60.0, 2000.0))
            assert dsp.hz_to_chroma(hz, 1.0) == dsp.hz_to_chroma(2 * hz, 1.0)

    def test_nan_confidence_is_unvoiced(self):
        assert dsp.hz_to_chroma(440.0, float("nan")) == dsp.UNVOICED

    def test_confident_frame_needs_valid_f0(self):
        with pytest.raises(ParameterError):
            dsp.hz_to_chroma(float("nan"), 0.9)
        with pytest.raises(ParameterError):
            dsp.hz_to_chroma(0.0, 0.9)

    def test_chroma_sequence_matches_scalar(self):
        f0 = np.array([440.0, 880.0, 0.0, 261.63])
        conf = np.array([0.9, 0.9, 0.1, 0.4])
        np.testing.assert_array_equal(
            dsp.chroma_sequence(f0, conf), [9, 9, dsp.UNVOICED, dsp.UNVOICED])


class TestChromaCost:
    def test_circular_wrap(self):
        cost = dsp.chroma_cost_matrix(np.array([0]), np.array([11]))
        assert cost[0, 0] == 1.0

    def test_plain_distance(self):
        assert dsp.chroma_cost_matrix(np.array([2]), np.array([7]))[0, 0] == 5.0

    def test_unvoiced_pairs(self):
        u = dsp.UNVOICED
        assert dsp.chroma_cost_matrix(np.array([u]), np.array([u]))[0, 0] == 0.0
        assert dsp.chroma_cost_matrix(np.array([u]), np.array([5]))[0, 0] == dsp.UNVOICED_COST
        assert dsp.chroma_cost_matrix(np.array([5]), np.array([u]))[0, 0] == dsp.UNVOICED_COST

    def test_symmetry(self):
        rng = np.random.default_rng(4)
        a = rng.integers(-1, 12, size=6)
        b = rng.integers(-1, 12, size=9)
        np.testing.assert_array_equal(
            dsp.chroma_cost_matrix(a, b), dsp.chroma_cost_matrix(b, a).T)


class TestDtw:
    def test_identical_sequences(self):
        seq = np.array([0, 4, 7, 4])
        assert dsp.dtw_distance(seq, seq) == 0.0

    def test_single_symbols_wrap(self):
        assert dsp.dtw_distance(np.array([0]), np.array([11])) == 1.0

    def test_three_symbol_alignment(self):
        # best alignment duplicates the repeated symbols on both sides:
        # (0,0)->(0,0)->(11,11)->(11,11) costs nothing
        assert dsp.dtw_distance(np.array([0, 0, 11]), np.array([0, 11, 11])) == 0.0
        assert dtw_oracle(np.array([0, 0, 11]), np.array([0, 11, 11])) == 0.0

    def test_single_element_is_local_cost(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            x = int(rng.integers(-1, 12))
            y = int(rng.integers(-1, 12))
            expected = dsp.chroma_cost_matrix(np.array([x]), np.array([y]))[0, 0]
            assert dsp.dtw_distance(np.array([x]), np.array([y])) == expected

    def test_unvoiced_against_voiced_reference(self):
        unvoiced = np.full(10, dsp.UNVOICED)
        voiced = np.arange(10) % 12
        assert dsp.dtw_distance(unvoiced, voiced) == 60.0

    def test_symmetry(self):
        rng = np.random.default_rng(6)
        for _ in range(30):
            a = rng.integers(-1, 12, size=rng.integers(1, 8))
            b = rng.integers(-1, 12, size=rng.integers(1, 8))
            assert dsp.dtw_distance(a, b) == dsp.dtw_distance(b, a)

    def test_agrees_with_oracle_sample(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            a = rng.integers(-1, 12, size=rng.integers(1, 6))
            b = rng.integers(-1, 12, size=rng.integers(1, 6))
            assert dsp.dtw_distance(a, b) == pytest.approx(dtw_oracle(a, b), abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ParameterError):
            dsp.dtw_distance(np.array([], dtype=int), np.array([0]))

    def test_out_of_range_symbol_rejected(self):
        with pytest.raises(ParameterError):
            dsp.dtw_distance(np.array([12]), np.array([0]))


def integer_costs(rng, kind, n, m):
    """An n x m local-cost matrix of one of the kinds the package builds."""
    if kind == "binary":
        return rng.integers(0, 2, (n, m)).astype(float)
    if kind == "0..6":
        return rng.integers(0, 7, (n, m)).astype(float)
    voiced = rng.random(n) < 0.7, rng.random(m) < 0.7
    a, b = (np.where(v, rng.integers(0, 12, len(v)), dsp.UNVOICED) for v in voiced)
    return dsp.chroma_cost_matrix(a, b)


class TestDtwKernel:
    """``dtw_from_cost`` runs the row-scan kernel; both DTW oracles pin it."""

    @pytest.mark.parametrize("kind, seed", [("binary", 1), ("0..6", 2), ("chroma", 3)])
    def test_equals_loop_oracle_exactly(self, kind, seed):
        rng = np.random.default_rng(seed)
        shapes = [(1, 1), (1, 80), (80, 1), (80, 80), (2, 3), (3, 2)]
        shapes += [tuple(rng.integers(1, 81, 2)) for _ in range(24)]
        for n, m in shapes:
            cost = integer_costs(rng, kind, int(n), int(m))
            assert dsp.dtw_from_cost(cost) == dtw_loop_oracle(cost), (kind, n, m)

    def test_equals_path_oracle_up_to_length_8(self):
        rng = np.random.default_rng(11)
        for n in range(1, 9):
            for m in range(1, 9):
                a = rng.integers(-1, 12, n)
                b = rng.integers(-1, 12, m)
                assert dsp.dtw_distance(a, b) == dtw_oracle(a, b), (a, b)

    @pytest.mark.parametrize("bad", [0.5, -2.25, np.nan, np.inf, -np.inf])
    def test_rejects_costs_that_are_not_finite_integers(self, bad):
        cost = np.zeros((3, 4))
        cost[1, 2] = bad
        with pytest.raises(ParameterError):
            dsp.dtw_from_cost(cost)

    def test_padding_never_reaches_a_problems_own_columns(self):
        rng = np.random.default_rng(12)
        costs = [rng.integers(0, 7, (9, int(m))).astype(float) for m in (1, 4, 9, 13)]
        width = max(c.shape[1] for c in costs) + 3
        for pad in (0.0, 6.0, 1e6):
            table = np.full((9, width, len(costs)), pad)
            for k, c in enumerate(costs):
                table[:, :c.shape[1], k] = c
            last = dsp.dtw_scan(table, np.arange(9))
            for k, c in enumerate(costs):
                assert last[c.shape[1] - 1, k] == dtw_loop_oracle(c)


@st.composite
def run_scan_case(draw):
    """A ``(V, m, K)`` bool table built as ``recommend`` builds one, and a
    query drawn as 1-5 runs of 1-60 equal symbols.  Members hold symbols
    ``0..V``, where ``V`` is outside the query's alphabet, and the pad value
    may equal a query symbol, so padded cells may cost 0."""
    num_symbols = draw(st.integers(1, 4))
    runs = draw(st.lists(st.tuples(st.integers(0, num_symbols - 1), st.integers(1, 60)),
                         min_size=1, max_size=5))
    query = np.repeat([s for s, _ in runs], [r for _, r in runs])
    members = draw(st.lists(st.lists(st.integers(0, num_symbols), min_size=1, max_size=30),
                            min_size=1, max_size=4))
    width = max(map(len, members)) + draw(st.integers(0, 3))
    padded = np.full((width, len(members)), draw(st.integers(0, num_symbols)))
    for column, member in zip(padded.T, members):
        column[:len(member)] = member
    return np.arange(num_symbols)[:, None, None] != padded, query, [len(m) for m in members]


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(run_scan_case())
@example((np.array([[[False]]]), np.zeros(60, dtype=int), [1]))
@example((np.array([[[True]]]), np.zeros(60, dtype=int), [1]))
@example((np.array([[[True, False], [False, False], [False, False]]]),
          np.zeros(45, dtype=int), [1, 3]))
@example((np.arange(2)[:, None, None] != np.array([[1], [0], [0], [0], [1]]),
          np.repeat([0, 1, 0], [1, 40, 2]), [5]))
def test_run_step_equals_the_cell_oracle_and_the_row_step(case):
    """A bool table steps once per run of the query; every member's last
    column equals the cell-by-cell oracle, and a float copy of the table,
    stepped row by row, gives the same array bit for bit."""
    table, query, lengths = case
    last = dsp.dtw_scan(table, query)
    for k, length in enumerate(lengths):
        cost = table[query, :length, k].astype(float)
        assert last[length - 1, k] == dtw_loop_oracle(cost), k
    assert np.array_equal(dsp.dtw_scan(table.astype(float), query), last)
