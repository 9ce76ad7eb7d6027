"""Signal primitives shared by the detection pipelines.

Everything here is a pure function of numpy arrays: movement/sound levels
and the one-pass movement prefilter, the audio front end for the sound-event
classifier (resample, first-order low-pass, 96x64 log-mel patch), the same
low-pass without scipy for the gyro, chroma from pitch at a fixed confidence
cut, and DTW over chroma with an unvoiced symbol.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from .core import CLASSIFIER_RATE_HZ, InsufficientDataError, ParameterError, PipelineConfig

#: Chroma symbol for frames whose pitch confidence fell below threshold.
UNVOICED = -1

#: Pitch confidence below which a frame is unvoiced; above 0, since a tracker
#: reports a silent frame as f0 0 at confidence 0.
PITCH_CONF_THRESHOLD = 0.5

#: Substitution cost between a voiced and an unvoiced frame (half the
#: worst-case circular pitch-class distance of 6 applies twice, see below).
UNVOICED_COST = 6.0

# Log-mel front-end geometry (16 kHz input, one-second patches).
STFT_WINDOW = 400
STFT_HOP = 160
STFT_NFFT = 512
MEL_BANDS = 64
MEL_MIN_HZ = 125.0
MEL_MAX_HZ = 7500.0
MEL_LOG_OFFSET = 0.001
PATCH_FRAMES = 96


# ---------------------------------------------------------------------------
# prefilter levels
# ---------------------------------------------------------------------------

_TOO_FEW_SAMPLES = "movement level needs at least 2 samples"


def _accel_table(accel) -> np.ndarray:
    accel = np.asarray(accel, dtype=float)
    if accel.ndim != 2 or accel.shape[1] != 3:
        raise ParameterError(f"accel must be (n, 3), got {accel.shape}")
    return accel


def movement_level(accel: np.ndarray) -> float:
    """Population standard deviation of the acceleration magnitude, in g.

    Gravity contributes a constant offset to the magnitude, so the spread of
    the magnitude series is a cheap orientation-free activity measure.
    Requires at least two samples.
    """
    accel = _accel_table(accel)
    if accel.shape[0] < 2:
        raise InsufficientDataError(_TOO_FEW_SAMPLES)
    return float(movement_levels(accel, [0, accel.shape[0]])[0])


#: Rows :func:`_magnitude` squares at a time, so its temporaries stay small.
_MAGNITUDE_BLOCK = 16384


def _magnitude(accel: np.ndarray) -> np.ndarray:
    """Each row's length, ``(x*x + y*y) + z*z`` then the square root."""
    m = np.empty(len(accel))
    for start in range(0, len(accel), _MAGNITUDE_BLOCK):
        x, y, z = accel[start:start + _MAGNITUDE_BLOCK].T
        block = np.multiply(x, x, out=m[start:start + _MAGNITUDE_BLOCK])
        block += y * y
        block += z * z
    return np.sqrt(m, out=m)


def movement_levels(accel: np.ndarray, bounds) -> np.ndarray:
    """:func:`movement_level` of every slice ``accel[bounds[i]:bounds[i + 1]]``.

    One magnitude pass over the whole stream, as whole-column operations
    (:func:`_magnitude`).  ``np.linalg.norm(accel, axis=1)`` squares each
    element and sums the length-3 axis left to right, ``(x*x + y*y) +
    z*z``, for any memory layout; the columns do the same roundings in the
    same order, so the magnitude is the norm's bit for bit, about four
    times faster (``x*x + (y*y + z*z)`` would change about one sample in
    eight).  The slices of each sample count ``n`` form one ``(slices, n)``
    block, reduced row by row to the per-slice calls' bits: a reshaped view
    of the stream when they are consecutive (a steady clock), else gathered
    from a sliding-window view.  Slices with fewer than 2 samples get NaN.
    ``bounds`` must be 1-D integers that do not decrease and lie in ``[0,
    len(accel)]``.
    """
    accel = _accel_table(accel)
    bounds = np.asarray(bounds)
    if bounds.ndim != 1 or (bounds.size and bounds.dtype.kind not in "iu"):
        raise ParameterError(f"bounds must be 1-D integers, got {bounds.dtype} {bounds.shape}")
    starts, counts = bounds[:-1], np.diff(bounds)
    if (counts < 0).any():
        i = int(np.flatnonzero(counts < 0)[0])
        raise ParameterError(f"bounds must not decrease, got {bounds[i]} then {bounds[i + 1]}")
    if len(bounds) and not 0 <= bounds[0] <= bounds[-1] <= len(accel):
        raise ParameterError(f"bounds must lie in [0, {len(accel)}], "
                             f"got {bounds[0]} to {bounds[-1]}")
    magnitude = _magnitude(accel)
    levels = np.full(len(counts), np.nan)
    for n in sorted(set(counts[counts >= 2].tolist())):  # np.unique imports numpy.ma
        rows = np.flatnonzero(counts == n)
        if rows[-1] - rows[0] == len(rows) - 1:  # adjacent slices: one run of the stream
            block = magnitude[starts[rows[0]]:starts[rows[0]] + n * len(rows)].reshape(-1, n)
        else:
            block = np.lib.stride_tricks.sliding_window_view(magnitude, n)[starts[rows]]
        levels[rows] = np.std(block, axis=1)
    return levels


def movement_filter(accel: np.ndarray, bounds, low_g: float, high_g: float) -> tuple:
    """Both cascades' movement prefilter over the :func:`movement_levels` table:
    ``settled[i]`` when slice ``i``'s level is NaN or outside ``[low_g, high_g]``,
    and ``failures`` maps each slice of 0 or 1 samples to its error."""
    bounds = np.asarray(bounds)
    levels = movement_levels(accel, bounds)
    settled = ~((low_g <= levels) & (levels <= high_g))
    failures = {i: InsufficientDataError(_TOO_FEW_SAMPLES)
                for i in np.flatnonzero(np.diff(bounds) < 2).tolist()}
    return settled, failures


def sound_level_db(audio: np.ndarray,
                   calibration_db: float = PipelineConfig.db_calibration) -> float:
    """RMS level of an audio window mapped to an absolute dB SPL estimate.

    ``calibration_db`` is the SPL a full-scale RMS of 1.0 corresponds to on
    the capture chain.  An all-zero window bottoms out around -146 dB rather
    than diverging.
    """
    audio = np.asarray(audio, dtype=float)
    if audio.size == 0:
        raise InsufficientDataError("sound level needs a non-empty window")
    rms = math.sqrt(float(np.mean(np.square(audio))))
    return 20.0 * math.log10(rms + 1e-12) + calibration_db


# ---------------------------------------------------------------------------
# filters and resampling
# ---------------------------------------------------------------------------

def lowpass_first_order(
    signal: np.ndarray, sample_rate_hz: float, cutoff_hz: float
) -> np.ndarray:
    """Causal first-order Butterworth low-pass (bilinear transform), run by
    ``scipy.signal.lfilter``; the audio front end's filter.

    The pre-warped design keeps the -3 dB point exactly at ``cutoff_hz`` and
    unity gain at DC.  2-D inputs are filtered column-wise.
    """
    signal, (b, a) = _first_order_design(signal, sample_rate_hz, cutoff_hz)
    import scipy.signal  # here, so that importing the package does not load scipy

    return scipy.signal.lfilter(b, a, signal, axis=0)


#: Samples per column that :func:`lowpass_first_order_loop` turns into Python
#: floats at a time, which bounds its memory.
_LOOP_CHUNK = 4096


def lowpass_first_order_loop(
    signal: np.ndarray, sample_rate_hz: float, cutoff_hz: float
) -> np.ndarray:
    """:func:`lowpass_first_order` without scipy, equal to it bit for bit.

    With ``q = b0 * x`` and ``p = b1 * x`` formed by numpy, each sample is
    one Python step in ``lfilter``'s own order, ``y = (p[n-1] - y * a1) +
    q[n]`` from a zero state, so every rounding is the same.  Each column is
    run :data:`_LOOP_CHUNK` samples at a time, carrying ``p`` and ``y`` over.
    About 20 times slower per sample than ``lfilter``, so it suits the 70 Hz
    gyro, where it saves the process the ``scipy.signal`` import.
    """
    signal, ((b0, b1), (_, a1)) = _first_order_design(signal, sample_rate_hz, cutoff_hz)
    a1 = float(a1)
    columns = signal.reshape(len(signal), -1)
    out = np.empty_like(columns)
    for k in range(columns.shape[1]):
        p_last = y = 0.0
        for start in range(0, len(columns), _LOOP_CHUNK):
            x = columns[start:start + _LOOP_CHUNK, k]
            p = (b1 * x).tolist()
            out[start:start + len(x), k] = [
                y := (p_before - y * a1) + q_n
                for p_before, q_n in zip(itertools.chain((p_last,), p), (b0 * x).tolist())]
            p_last = p[-1]
    return out.reshape(signal.shape)


def _first_order_design(signal, sample_rate_hz, cutoff_hz):
    """The checked float signal and the ``(b, a)`` design of the low-passes."""
    if not 0 < cutoff_hz < sample_rate_hz / 2:
        raise ParameterError(
            f"cutoff {cutoff_hz} Hz must lie in (0, {sample_rate_hz / 2}) Hz"
        )
    signal = np.asarray(signal, dtype=float)
    if signal.size == 0:
        raise ParameterError("cannot filter an empty signal")
    return signal, _butter_first_order(cutoff_hz, sample_rate_hz)


@functools.lru_cache(maxsize=16)
def _butter_first_order(cutoff_hz, sample_rate_hz):
    """``scipy.signal.butter(1, cutoff_hz, fs=sample_rate_hz)``, read-only.

    The closed form of its bilinear design, with scipy's own operations in
    scipy's order so the bits match: the cutoff pre-warped to
    ``w = 4 tan(pi fc / fs)``, then ``b = [w, w] / (4 + w)`` and
    ``a = [1, -(4 - w) / (4 + w)]``, each divided as ``x * (1 / (4 + w))``.
    """
    w = 4.0 * np.tan(np.pi * (cutoff_hz / (sample_rate_hz / 2)) / 2.0)
    scale = 1.0 / (4.0 + w)
    coefficients = np.array([w * scale, w * scale]), np.array([1.0, -((4.0 - w) * scale)])
    for arr in coefficients:
        arr.flags.writeable = False
    return coefficients


@functools.lru_cache(maxsize=16)
def _resample_filter(up: int, down: int) -> np.ndarray:
    """``resample_poly``'s default anti-aliasing FIR for ``(up, down)``, read-only."""
    import scipy.signal

    rate = max(up, down)
    h = scipy.signal.firwin(20 * rate + 1, 1.0 / rate, window=("kaiser", 5.0))
    h.flags.writeable = False
    return h


def resample(audio: np.ndarray, from_hz: int, to_hz: int) -> np.ndarray:
    """Polyphase resampling with the output length pinned to
    ``round(n * to_hz / from_hz)`` samples."""
    if from_hz <= 0 or to_hz <= 0:
        raise ParameterError("sample rates must be positive")
    audio = np.asarray(audio, dtype=float)
    if audio.ndim != 1 or audio.size == 0:
        raise ParameterError("audio must be a non-empty 1-D array")
    if from_hz == to_hz:
        return audio.copy()
    import scipy.signal

    g = math.gcd(from_hz, to_hz)
    up, down = to_hz // g, from_hz // g
    # resample_poly copies an array window and scales it by ``up`` exactly as
    # it does the filter it designs, so the output bits are the same.
    out = scipy.signal.resample_poly(audio, up, down, window=_resample_filter(up, down))
    # resample_poly returns ceil(n * up / down) samples, never fewer.
    return out[:int(round(len(audio) * to_hz / from_hz))]


# ---------------------------------------------------------------------------
# log-mel patches
# ---------------------------------------------------------------------------

def _hz_to_mel(hz):
    return 2595.0 * np.log10(1.0 + np.asarray(hz, dtype=float) / 700.0)


def mel_filterbank() -> np.ndarray:
    """Triangular mel filterbank of the log-mel patch, shape ``(257, 64)``.

    The geometry is fixed: :data:`MEL_BANDS` (64) bands between
    :data:`MEL_MIN_HZ` (125 Hz) and :data:`MEL_MAX_HZ` (7500 Hz) over the
    :data:`STFT_NFFT` (512) bins of 16 kHz audio.  Band edges are spaced
    uniformly on the mel scale and the triangles are evaluated in mel space,
    so each filter peaks at its own center and tapers to zero at its
    neighbours' centers.
    """
    bin_mel = _hz_to_mel(np.fft.rfftfreq(STFT_NFFT, 1.0 / CLASSIFIER_RATE_HZ))
    edges = np.linspace(_hz_to_mel(MEL_MIN_HZ), _hz_to_mel(MEL_MAX_HZ), MEL_BANDS + 2)
    lower, center, upper = edges[:-2], edges[1:-1], edges[2:]
    rising = (bin_mel[:, None] - lower[None, :]) / (center - lower)[None, :]
    falling = (upper[None, :] - bin_mel[:, None]) / (upper - center)[None, :]
    return np.maximum(0.0, np.minimum(rising, falling))


#: The 16 kHz bank :func:`log_mel_patch` applies, built once and read-only.
MEL_FILTERBANK_16K = mel_filterbank()
MEL_FILTERBANK_16K.flags.writeable = False


#: The periodic Hann window of every STFT frame.
_STFT_HANN = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(STFT_WINDOW) / STFT_WINDOW)
_STFT_HANN.flags.writeable = False


def log_mel_patch(audio_16k: np.ndarray) -> np.ndarray:
    """Log-mel spectrogram patch for the sound-event classifier.

    Frames one second of 16 kHz audio with a 400-sample periodic Hann window
    and 160-sample hop, takes the magnitude spectrum (512-point FFT), applies
    the 64-band 125-7500 Hz mel filterbank, and returns
    ``log(mel + 0.001)`` of the first :data:`PATCH_FRAMES` frames.

    Returns an array of shape ``(96, 64)``.
    """
    audio_16k = np.asarray(audio_16k, dtype=float)
    if audio_16k.ndim != 1:
        raise ParameterError("audio must be 1-D")
    min_len = STFT_WINDOW + (PATCH_FRAMES - 1) * STFT_HOP
    if len(audio_16k) < min_len:
        raise InsufficientDataError(
            f"need >= {min_len} samples for a {PATCH_FRAMES}-frame patch, "
            f"got {len(audio_16k)}"
        )
    step = audio_16k.strides[0]  # the kept frames, as a read-only view
    frames = np.lib.stride_tricks.as_strided(
        audio_16k, (PATCH_FRAMES, STFT_WINDOW), (STFT_HOP * step, step),
        writeable=False) * _STFT_HANN
    magnitude = np.abs(np.fft.rfft(frames, n=STFT_NFFT, axis=1))
    return np.log(magnitude @ MEL_FILTERBANK_16K + MEL_LOG_OFFSET)


# ---------------------------------------------------------------------------
# chroma
# ---------------------------------------------------------------------------

def hz_to_chroma(f0_hz: float, confidence: float) -> int:
    """Map a pitch estimate to a pitch class 0..11, or :data:`UNVOICED`.

    Frames whose confidence falls below :data:`PITCH_CONF_THRESHOLD` are
    unvoiced and their ``f0_hz`` is ignored.  Voiced frames are converted
    through the nearest equal-tempered note (A4 = 440 Hz = note 69) and folded
    mod 12, which makes the result octave invariant.
    """
    if not confidence >= PITCH_CONF_THRESHOLD:  # also catches NaN confidence
        return UNVOICED
    if not (math.isfinite(f0_hz) and f0_hz > 0):
        raise ParameterError(f"voiced frame needs f0 > 0, got {f0_hz!r}")
    note = round(12.0 * math.log2(f0_hz / 440.0)) + 69
    return int(note % 12)


def chroma_sequence(f0s: np.ndarray, confidences: np.ndarray) -> np.ndarray:
    """Vector form of :func:`hz_to_chroma` over parallel f0/confidence arrays."""
    f0s = np.asarray(f0s, dtype=float)
    confidences = np.asarray(confidences, dtype=float)
    if f0s.shape != confidences.shape or f0s.ndim != 1:
        raise ParameterError("f0s and confidences must be equal-length 1-D arrays")
    return np.array([hz_to_chroma(f, c) for f, c in zip(f0s, confidences)], dtype=int)


def chroma_cost_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise local cost between two chroma sequences.

    Voiced-voiced pairs cost the circular pitch-class distance
    ``min(|x - y|, 12 - |x - y|)`` (0..6); a voiced-unvoiced mismatch costs
    :data:`UNVOICED_COST`; two unvoiced frames cost 0.
    """
    a = _as_chroma(a, "a")
    b = _as_chroma(b, "b")
    diff = np.abs(a[:, None] - b[None, :])
    circular = np.minimum(diff, 12 - diff)
    voiced_a = (a != UNVOICED)[:, None]
    voiced_b = (b != UNVOICED)[None, :]
    cost = np.where(voiced_a & voiced_b, circular.astype(float), 0.0)
    cost[voiced_a ^ voiced_b] = UNVOICED_COST
    return cost


def _as_chroma(seq, name):
    arr = np.asarray(seq)
    if arr.ndim != 1 or arr.size == 0:
        raise ParameterError(f"{name} must be a non-empty 1-D sequence")
    arr = arr.astype(int)
    if not np.all((arr == UNVOICED) | ((arr >= 0) & (arr <= 11))):
        raise ParameterError(f"{name} must hold values 0..11 or {UNVOICED}")
    return arr


def dtw_scan(table: np.ndarray, query: np.ndarray) -> np.ndarray:
    """Last row of the DTW accumulated cost for K problems side by side.

    ``table`` is a ``(V, m, K)`` stack of local-cost rows, one per query
    symbol, and ``query`` holds ``n`` indices into its first axis: query
    row ``i`` of problem ``k`` has the costs ``table[query[i], :, k]``.  The
    result is the ``(m, K)`` array ``D[n-1]``.  Steps are {(1,1), (1,0),
    (0,1)}, as in :func:`dtw_from_cost`.  Each row is one scan instead of m
    scalar steps: with ``c`` the row's costs, ``S`` their prefix sums,
    ``Sprev = S - c`` and ``E[k] = min(D[i-1,k], D[i-1,k-1])`` (``E[0] =
    D[i-1,0]``), the left-neighbour recursion unrolls to
    ``D[i,j] = S[j] + min_{k <= j}(E[k] - Sprev[k])``.  ``S`` and ``Sprev``
    are built once per symbol, so a query row is four in-place numpy calls.

    A ``bool`` table (0/1 costs) takes one step per run of ``r`` equal query
    symbols.  A path through the run enters at some column ``k``, visits
    ``k..j`` once each and spends ``max(0, r-1-(j-k))`` extra vertical steps
    in the cheapest of those columns, which costs 0 exactly when ``k <=
    z(j)``, the last column ``<= j`` with ``c == 0`` (-1 if none).  So
    ``D[i+r-1,j] = min(S[j] + min_{k <= z(j)}(E[k] - Sprev[k]),
    r + min(E[max(0, j-r+1) .. j]))``, the first term inf when ``z(j) < 0``.
    The window needs neither a wider reach nor clipping: ``D[i-1,k] <=
    D[i-1,k-1] + 1``, so ``E[k] - k`` never increases and an all-ones start
    left of the window costs no less than the window's first column; a start
    ``k <= z(j)`` inside it costs ``E[k] + r`` there, no less than in the
    first term.  ``z`` is read through one gather index per symbol and the
    window minimum takes about ``log2(r)`` shifted minimums.

    The costs must be integer-valued (bool tables work; they are summed as
    float64) with sums below 2**53; every intermediate is then an integer
    and the result equals the cell-by-cell recursion exactly.  ``D[i,j]``
    reads only columns ``<= j``, so a problem narrower than ``m`` may be
    padded with any value and read at its own last column.
    """
    prefix = np.cumsum(table, axis=1, dtype=float)
    step = table - prefix
    acc = np.full((table.shape[1] + 1, table.shape[2]), np.inf)
    row, diag = acc[1:], acc[:-1]
    row[:] = prefix[query[0]]
    rest = np.asarray(query[1:]).tolist()
    if table.dtype == bool and rest:
        runs = [(symbol, len(list(group))) for symbol, group in itertools.groupby(rest)]
        # gather[s, j, k] is the flat index of (z(j) + 1, k) in ``lead``,
        # whose row 0 stays inf for z(j) = -1.
        columns = np.arange(table.shape[1])[:, None]
        zero_at = np.maximum.accumulate(np.where(table, -1, columns), axis=1)
        gather = (zero_at + 1) * table.shape[2] + np.arange(table.shape[2])
        lead = np.full_like(acc, np.inf)
    else:
        runs = zip(rest, itertools.repeat(1))
    entry = np.empty_like(row)
    best = np.empty_like(row)
    for symbol, length in runs:
        np.minimum(row, diag, out=entry)
        np.add(entry, step[symbol], out=best)
        if length == 1:
            np.minimum.accumulate(best, axis=0, out=row)
            row += prefix[symbol]
            continue
        np.minimum.accumulate(best, axis=0, out=lead[1:])
        lead.take(gather[symbol], out=row)
        row += prefix[symbol]
        np.minimum(row, _window_min(entry, length) + length, out=row)
    return row


def _window_min(values: np.ndarray, width: int) -> np.ndarray:
    """``min(values[max(0, j - width + 1) .. j])`` along axis 0.  Each pass
    doubles the width covered, so it takes about ``log2(width)`` passes."""
    out = values.copy()
    covered = 1
    while covered < min(width, len(values)):
        shift = min(covered, width - covered)
        out[shift:] = np.minimum(out[shift:], out[:-shift])
        covered += shift
    return out


def dtw_from_cost(cost: np.ndarray) -> float:
    """Unnormalized DTW distance given a precomputed local-cost matrix.

    Standard dynamic program with step set {(1,1), (1,0), (0,1)}; the
    alignment is anchored at both ends and the accumulated cost of the best
    path is returned without length normalization.  Costs must be finite
    and integer-valued (every cost this package builds is: chroma costs
    0..6, pattern costs 0/1), which keeps :func:`dtw_scan` exact; anything
    else raises :class:`ParameterError`.
    """
    cost = np.asarray(cost, dtype=float)
    if cost.ndim != 2 or cost.size == 0:
        raise ParameterError("cost matrix must be 2-D and non-empty")
    if not (np.isfinite(cost).all() and (cost == np.trunc(cost)).all()):
        raise ParameterError("cost matrix must hold finite integer values")
    return float(dtw_scan(cost[:, :, None], np.arange(len(cost)))[-1, 0])


def dtw_distance(a: np.ndarray, b: np.ndarray) -> float:
    """DTW distance between two chroma sequences (see
    :func:`chroma_cost_matrix` for the local costs)."""
    return dtw_from_cost(chroma_cost_matrix(a, b))
