"""Deliberately naive reference implementations for the fast paths.

These exist to catch bugs in the fast implementations, so they avoid the
optimization under test: the DTW oracle enumerates every monotone alignment
path explicitly, and the Viterbi oracle scores every possible state
sequence.  Both are exponential and refuse inputs beyond small sizes.  The
DTW loop oracle is the textbook cell-by-cell recursion, for sizes the
path enumeration cannot reach.  The LSTM and pitch loop oracles run one
sequence, one gate and one frame at a time, and the event oracle paints
one second at a time.  The movement level oracle is the textbook
``np.std`` of ``np.linalg.norm``, with neither the column kernel nor the
grouped table of ``dsp.movement_levels``.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from ..core import InsufficientDataError, ParameterError, ReactionLabel
from ..vocal import PITCH_FRAMES_PER_SEGMENT, PITCH_HOP_S, HmmParams

MAX_ORACLE_LEN = 8
MAX_ORACLE_WINDOW = 6

_UNVOICED = -1


def _local_cost(x: int, y: int) -> float:
    if x == _UNVOICED and y == _UNVOICED:
        return 0.0
    if x == _UNVOICED or y == _UNVOICED:
        return 6.0
    d = abs(x - y)
    return float(min(d, 12 - d))


def dtw_oracle(a, b) -> float:
    """Minimum alignment cost by enumerating all monotone paths.

    Paths start at (0, 0), end at (n-1, m-1), and advance by (1, 1), (1, 0)
    or (0, 1).  Sequences longer than 8 are rejected (the path count grows
    exponentially).
    """
    a = [int(v) for v in np.asarray(a).ravel()]
    b = [int(v) for v in np.asarray(b).ravel()]
    if not a or not b:
        raise ParameterError("sequences must be non-empty")
    if len(a) > MAX_ORACLE_LEN or len(b) > MAX_ORACLE_LEN:
        raise ParameterError(f"oracle only handles sequences up to {MAX_ORACLE_LEN}")
    cost = [[_local_cost(x, y) for y in b] for x in a]
    n, m = len(a), len(b)
    best = math.inf

    # Depth-first walk over every path, carrying the running cost.
    stack = [(0, 0, cost[0][0])]
    while stack:
        i, j, acc = stack.pop()
        if acc >= best:
            continue
        if i == n - 1 and j == m - 1:
            best = acc
            continue
        if i + 1 < n and j + 1 < m:
            stack.append((i + 1, j + 1, acc + cost[i + 1][j + 1]))
        if i + 1 < n:
            stack.append((i + 1, j, acc + cost[i + 1][j]))
        if j + 1 < m:
            stack.append((i, j + 1, acc + cost[i][j + 1]))
    return best


def dtw_loop_oracle(cost) -> float:
    """DTW distance over a local-cost matrix, one cell at a time.

    ``D[i, j] = cost[i, j] + min(D[i-1, j], D[i-1, j-1], D[i, j-1])`` in
    plain Python, with the same steps and anchoring as :func:`dtw_oracle`.
    """
    cost = np.asarray(cost, dtype=float)
    if cost.ndim != 2 or cost.size == 0:
        raise ParameterError("cost matrix must be 2-D and non-empty")
    n, m = cost.shape
    prev = np.empty(m)
    prev[0] = cost[0, 0]
    for j in range(1, m):
        prev[j] = prev[j - 1] + cost[0, j]
    cur = np.empty(m)
    for i in range(1, n):
        cur[0] = prev[0] + cost[i, 0]
        for j in range(1, m):
            cur[j] = cost[i, j] + min(prev[j], prev[j - 1], cur[j - 1])
        prev, cur = cur, prev
    return float(prev[-1])


def viterbi_oracle(
    hmm: HmmParams, observed: list[ReactionLabel]
) -> tuple[list[ReactionLabel], float]:
    """Best state sequence by scoring every candidate path.

    Enumerates all ``S**n`` state sequences in lexicographic state-index
    order and keeps the first maximum, which matches the documented
    tie-break (earlier states win).  Windows longer than 6 are rejected.
    """
    if not observed:
        raise ParameterError("need at least one observation")
    if len(observed) > MAX_ORACLE_WINDOW:
        raise ParameterError(f"oracle only handles windows up to {MAX_ORACLE_WINDOW}")
    obs = [hmm.state_index(label) for label in observed]
    s = len(hmm.states)

    def log(p: float) -> float:
        return math.log(p) if p > 0 else -math.inf

    best_path = None
    best_logprob = -math.inf
    for path in itertools.product(range(s), repeat=len(obs)):
        logprob = log(hmm.initial[path[0]]) + log(hmm.emission[path[0], obs[0]])
        for prev, cur, o in zip(path, path[1:], obs[1:]):
            logprob += log(hmm.transition[prev, cur]) + log(hmm.emission[cur, o])
        if logprob > best_logprob:
            best_logprob = logprob
            best_path = path
    return [hmm.states[i] for i in best_path], best_logprob


def expand_events_loop_oracle(events, duration_s=None) -> list[ReactionLabel]:
    """``core.expand_events_to_labels`` one event and one second at a time:
    events in start order each overwrite the seconds whose midpoint they
    cover within 1e-9."""
    ordered = sorted(events, key=lambda e: (e.t_start, e.t_end))
    for prev, cur in zip(ordered, ordered[1:]):
        if cur.t_start < prev.t_end - 1e-9:
            raise ParameterError(
                f"events overlap near t={cur.t_start:g} ({prev.label} vs {cur.label})"
            )
    if duration_s is None:
        duration_s = max((e.t_end for e in ordered), default=0.0)
    count = int(math.floor(duration_s + 1e-9))
    labels = [ReactionLabel.NON_REACTION] * count
    for event in ordered:
        first = int(math.ceil(event.t_start - 0.5 - 1e-9))
        last = int(math.floor(event.t_end - 0.5 + 1e-9))
        for i in range(max(first, 0), min(last, count - 1) + 1):
            if event.t_start - 1e-9 <= i + 0.5 <= event.t_end + 1e-9:
                labels[i] = event.label
    return labels


def movement_level_oracle(accel) -> float:
    """``dsp.movement_level`` of one slice: the population standard
    deviation of ``np.linalg.norm(accel, axis=1)``.  Fewer than 2 samples
    raise the same error."""
    if len(accel) < 2:
        raise InsufficientDataError("movement level needs at least 2 samples")
    return float(np.std(np.linalg.norm(accel, axis=1)))


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def lstm_loop_oracle(weights, sequence) -> np.ndarray:
    """Softmax output of the LSTM for one ``(T, F)`` sequence, step by step.

    Each of the four gates has its own products with the input and the
    previous hidden state, as the weights are stored.
    """
    h = np.zeros(weights.hidden_size)
    c = np.zeros(weights.hidden_size)
    for x in np.asarray(sequence, dtype=float):
        i = _sigmoid(x @ weights.Wi + h @ weights.Ui + weights.bi)
        f = _sigmoid(x @ weights.Wf + h @ weights.Uf + weights.bf)
        o = _sigmoid(x @ weights.Wo + h @ weights.Uo + weights.bo)
        g = np.tanh(x @ weights.Wc + h @ weights.Uc + weights.bc)
        c = f * c + i * g
        h = o * np.tanh(c)
    logits = np.maximum(h, 0.0) @ weights.Wd + weights.bd
    logits = logits - logits.max()
    exp = np.exp(logits)
    return exp / exp.sum()


def pitch_loop_oracle(audio, sample_rate, min_hz=80.0, max_hz=1000.0):
    """f0 and confidence of each 0.1 s frame of a segment, one frame at a time.

    Every frame gets its own zero-padded ``2 * frame`` FFT, long enough for
    every lag; the lag range and the silent-frame rule are those of
    ``AutocorrelationPitchTracker``.
    """
    audio = np.asarray(audio, dtype=float)
    frame = int(round(PITCH_HOP_S * sample_rate))
    lag_min = max(1, int(round(sample_rate / max_hz)))
    lag_max = min(frame - 1, int(round(sample_rate / min_hz)))
    f0s = np.zeros(PITCH_FRAMES_PER_SEGMENT)
    confs = np.zeros(PITCH_FRAMES_PER_SEGMENT)
    for k in range(PITCH_FRAMES_PER_SEGMENT):
        x = audio[k * frame:(k + 1) * frame]
        x = x - x.mean()
        spectrum = np.fft.rfft(x, n=2 * frame)
        r = np.fft.irfft(spectrum * np.conj(spectrum))[:lag_max + 1]
        if r[0] <= 0:
            continue
        lag = lag_min + int(np.argmax(r[lag_min:lag_max + 1]))
        f0s[k] = sample_rate / lag
        confs[k] = max(0.0, float(r[lag] / r[0]))
    return f0s, confs
