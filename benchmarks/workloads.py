"""The four benchmark workloads.

Each workload makes its inputs from the seed in ``setup`` (which runs in a
separate process, see ``run.py``), reads them back in ``load``, and then
offers one *pass* of closed-loop calls: the next call starts when the
previous one returns.  A call is timed; its ``outcome`` (digests of what
it produced, failed seconds, quality inputs) is worked out after the clock
stops.

Why these workloads:

* ``replay_batch`` -- the batch path users run: in-process
  ``musereact detect`` over a written corpus, with replayed classifier
  scores and pitch.  Stresses file parsing, validation, cascade control,
  correction DTW, Viterbi and the heuristic motion classifier; no audio
  front end runs.
* ``audio_long`` -- 20-minute reactive sessions through the library
  pipelines with a patch classifier, the autocorrelation pitch tracker and
  the LSTM, so resampling, log-mel, pitch tracking and the LSTM are on the
  measured path, and so is the cost of long sessions.
* ``audio_idle`` -- the same calls on 20-minute still and exercise
  sessions, where the prefilters settle nearly every second: cost is
  segmentation plus prefilters.  Work moved ahead of the prefilters
  shows here as a cost.
* ``recommend_pool`` -- DTW-bound ``engage.recommend`` queries over a
  pool of stored reaction patterns, with near-match queries so that exact
  top-N pruning has something to prune against.

Every workload passes the same explicit config: defaults except
``dtw_threshold=30.0``, the value the acceptance gates use.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import shutil
import time
from pathlib import Path

import numpy as np

from musereact import cli, core, engage, harness, motion, musicinfo, vocal
from musereact.core import PipelineConfig, ReactionLabel

from centroid import TRAINING_SEED, CentroidPatchClassifier

CONFIG = PipelineConfig().replace(dtw_threshold=30.0)

#: Seed of the LSTM weights; the smoothing HMM and the patch classifier are
#: fitted on synthetic sessions of ``TRAINING_SEED``.
LSTM_SEED = 7

R = ReactionLabel


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def labels_digest(*sequences) -> str:
    return sha256("|".join(",".join(label.value for label in seq)
                           for seq in sequences).encode())


@dataclasses.dataclass
class Outcome:
    """What one timed call produced, worked out after the clock stopped."""

    digest: str                      # digest of the call's output
    failed_seconds: int = 0          # seconds downgraded by a stage error
    session_s: float = 0.0           # seconds of session input processed
    parts_s: dict[str, float] = dataclasses.field(default_factory=dict)
    counts: dict[str, float] = dataclasses.field(default_factory=dict)


@dataclasses.dataclass
class Call:
    key: str
    run: object                      # () -> raw result, timed
    outcome: object                  # (raw) -> Outcome, untimed
    before: object = None            # () -> None, untimed, runs before ``run``


class Workload:
    """One call is one operation: a session for the pipeline workloads, a
    query for ``recommend_pool``."""

    name = ""
    why = ""
    op_noun = "sessions"
    #: Calls are short and interpreter-bound, so their times are scaled by
    #: the speed probe run around them (see run.py).
    scaled = False

    def setup(self, work: Path, seed: int) -> None:
        raise NotImplementedError

    def load(self, inputs: Path, scratch: Path) -> None:
        """Read the set-up's inputs; outputs, if any, go under ``scratch``."""
        raise NotImplementedError

    def unload(self) -> None:
        """Drop the inputs read by ``load``."""

    def warm_up(self) -> None:
        raise NotImplementedError

    def calls(self) -> list[Call]:
        raise NotImplementedError

    def quality(self) -> dict[str, float]:
        """Quality guards from the last pass (F1 against synthetic truth)."""
        return {}

    def independent_check(self) -> list[str]:
        """Keys of calls whose output an independent reference rejects."""
        return []

    def canary(self, work: Path) -> str:
        """Digest of the program's output on fixed, seed-independent inputs."""
        raise NotImplementedError


# ---------------------------------------------------------------------------
# replay_batch
# ---------------------------------------------------------------------------

def _renamed(specs, prefix):
    return [dataclasses.replace(spec, session_id=f"{prefix}{i:02d}")
            for i, spec in enumerate(specs)]


def train_smoothing_hmm(sessions: int = 2, duration_s: int = 45) -> vocal.HmmParams:
    """Smoothing HMM fitted on replayed sessions of a fixed training seed."""
    config = CONFIG.replace(enable_smoothing=False)
    pairs = []
    for spec in harness.make_vocal_corpus(sessions, "office", TRAINING_SEED,
                                          duration_s=duration_s):
        generated = harness.generate_session(spec)
        result = vocal.run_vocal_pipeline(
            generated.session, generated.classifier(), generated.pitch_tracker(),
            musicinfo.MusicInfoStore({spec.song_id: generated.note_track}),
            config=config)
        pairs.append((generated.vocal_truth, result.observed))
    return vocal.train_hmm(pairs)


class ReplayBatch(Workload):
    name = "replay_batch"
    scaled = True
    why = ("musereact detect on each of 32 written sessions with replayed scores "
           "and pitch: parsing, validation, cascade, correction DTW, Viterbi, "
           "heuristic motion")

    def __init__(self, vocal_per_place=5, motion_per_place=2, idle_per_activity=2,
                 duration_s=60):
        self.vocal_per_place = vocal_per_place
        self.motion_per_place = motion_per_place
        self.idle_per_activity = idle_per_activity
        self.duration_s = duration_s

    def corpus_specs(self, seed: int) -> list[harness.SyntheticSpec]:
        """Vocal sessions in every place, head-motion sessions, and a few
        still and exercise distractors."""
        specs = []
        for k, place in enumerate(sorted(harness.PLACE_PROFILES)):
            base = seed * 16 + k
            specs += _renamed(harness.make_vocal_corpus(
                self.vocal_per_place, place, base, duration_s=self.duration_s),
                f"{place}_v")
            specs += _renamed(harness.make_motion_corpus(
                self.motion_per_place, place, base, duration_s=self.duration_s),
                f"{place}_m")
        rng = np.random.default_rng([seed, 99])
        for activity, places in (("still", ("lounge", "office")),
                                 ("exercise", ("car", "cafe"))):
            for i in range(self.idle_per_activity):
                specs.append(harness.SyntheticSpec(
                    session_id=f"{activity}{i:02d}", subject_id=f"subj{i:02d}",
                    song_id=f"song{i:02d}", place=places[i % 2],
                    duration_s=self.duration_s, activity=activity,
                    seed=int(rng.integers(0, 2**31))))
        return specs

    def setup(self, work, seed):
        harness.write_corpus(work / "corpus", self.corpus_specs(seed))
        train_smoothing_hmm().save(work / "hmm.json")
        CONFIG.save(work / "config.json")

    def load(self, inputs, scratch):
        self.inputs = inputs
        self.out = scratch / "out"
        self.sessions = [os.path.basename(d)
                         for d in core.list_session_dirs(inputs / "corpus")]

    def _detect(self, out: Path, sources: list[str]) -> int:
        return cli.main(["detect", *sources, "--pipeline", "both",
                         "--config", str(self.inputs / "config.json"),
                         "--hmm", str(self.inputs / "hmm.json"),
                         "--workers", "1", "--out", str(out)])

    def _detect_session(self, sid: str) -> int:
        corpus = self.inputs / "corpus"
        return self._detect(self.out / sid,
                            ["--session", str(corpus / sid), "--notes", str(corpus / "notes")])

    def warm_up(self):
        # First-call costs (lazy imports, allocator growth) on two sessions.
        for sid in self.sessions[:2]:
            if self._detect_session(sid) != 0:
                raise RuntimeError("warm-up detect failed")

    def calls(self):
        # One detect per session directory rather than one over --data: each
        # session is a short call timed on its own, so a run can take every
        # session's best time across passes (see run.py).  The --data path
        # runs on the canary corpus.
        return [Call(sid, lambda s=sid: self._detect_session(s),
                     lambda rc, s=sid: self._outcome(s, rc),
                     before=lambda s=sid: shutil.rmtree(self.out / s,
                                                        ignore_errors=True))
                for sid in self.sessions]

    def _outcome(self, sid: str, rc: int) -> Outcome:
        out = self.out / sid
        if rc != 0:
            return Outcome(digest=f"exit {rc}")
        blob = b""
        for suffix in ("vocal.jsonl", "motion.jsonl", "combined.jsonl", "stats.json"):
            blob += suffix.encode() + (out / f"{sid}.{suffix}").read_bytes()
        stats = json.loads((out / f"{sid}.stats.json").read_text())
        v, m = stats["vocal"], stats["motion"]
        return Outcome(
            digest=sha256(blob), failed_seconds=v["errors"] + m["errors"],
            session_s=float(v["total_segments"]),
            counts={"vocal.filtering_ratio": v["filtering_ratio"],
                    "motion.filtering_ratio": m["filtering_ratio"],
                    "vocal.errors": v["errors"], "motion.errors": m["errors"]})

    def quality(self):
        corpus = self.inputs / "corpus"
        vocal_truth, vocal_pred, motion_truth, motion_pred = [], [], [], []
        for sid in self.sessions:
            truth = core.expand_events_to_labels(
                core.load_labels(corpus / sid / "labels.csv"), self.duration_s)
            for suffix, mapper, t_out, p_out in (
                    ("vocal", harness.map_to_vocal_domain, vocal_truth, vocal_pred),
                    ("motion", harness.map_to_motion_domain, motion_truth, motion_pred)):
                events = core.load_events_jsonl(
                    self.out / sid / f"{sid}.{suffix}.jsonl")
                t_out += mapper(truth)
                p_out += mapper(core.expand_events_to_labels(events, self.duration_s))
        motion_report = harness.evaluate(motion_truth, motion_pred)
        return {"vocal_macro_f1": harness.evaluate(vocal_truth, vocal_pred).macro_f1,
                "motion_f1": motion_report.per_class[R.HEAD_MOTION].f1}

    def canary(self, work):
        specs = [
            harness.SyntheticSpec("canary_v", "u0", "tune", "cafe", duration_s=30,
                                  script=((4, 10, R.SINGING_HUMMING),
                                          (14, 19, R.WHISTLING)),
                                  start_offset_in_song=2, seed=11),
            harness.SyntheticSpec("canary_m", "u1", "tune", "office", duration_s=30,
                                  script=((6, 20, R.HEAD_MOTION),), seed=12),
        ]
        corpus, out = work / "canary_corpus", work / "canary_out"
        harness.write_corpus(corpus, specs)
        rc = self._detect(out, ["--data", str(corpus)])
        blob = f"exit {rc}".encode()
        for path in sorted(out.iterdir()):
            blob += path.name.encode() + path.read_bytes()
        return sha256(blob)


# ---------------------------------------------------------------------------
# audio_long and audio_idle
# ---------------------------------------------------------------------------

_SESSION_ARRAYS = ("imu_t", "accel", "gyro", "audio")


def save_session(path: Path, generated: harness.GeneratedSession) -> None:
    """Raw arrays (bit-exact, no text round trip) plus metadata and truth."""
    path.mkdir(parents=True, exist_ok=True)
    session = generated.session
    for name in _SESSION_ARRAYS:
        np.save(path / f"{name}.npy", getattr(session, name))
    meta = {"session_id": session.session_id, "subject_id": session.subject_id,
            "song_id": session.song_id, "place": session.place,
            "audio_rate": session.audio_rate,
            "start_offset_in_song": session.start_offset_in_song,
            "vocal_truth": [label.value for label in generated.vocal_truth]}
    (path / "meta.json").write_text(json.dumps(meta))
    musicinfo.save_note_track(path / "notes.csv", generated.note_track)


def load_session(path: Path):
    meta = json.loads((path / "meta.json").read_text())
    arrays = {name: np.load(path / f"{name}.npy") for name in _SESSION_ARRAYS}
    session = core.Session(
        session_id=meta["session_id"], subject_id=meta["subject_id"],
        song_id=meta["song_id"], place=meta["place"],
        audio_rate=meta["audio_rate"],
        start_offset_in_song=meta["start_offset_in_song"], **arrays)
    track = musicinfo.load_note_track(path / "notes.csv", meta["song_id"])
    return session, track, [R(v) for v in meta["vocal_truth"]]


def reactive_script(seed: int, duration_s: int) -> tuple:
    """Many reaction spans; the multiset of span lengths, gaps and labels is
    fixed and the seed only orders them, so every seed has the same share
    of reaction seconds."""
    count = (duration_s - 10) // 24
    rng = np.random.default_rng([seed, 5])
    lengths = rng.permutation(np.resize([6, 7, 8, 9, 10], count))
    gaps = rng.permutation(np.resize([10, 12, 14, 16, 18], count))
    kinds = rng.permutation(np.resize([0, 0, 1, 2], count))
    labels = (R.SINGING_HUMMING, R.WHISTLING, R.HEAD_MOTION)
    script, cursor = [], 5
    for length, gap, kind in zip(lengths, gaps, kinds):
        script.append((cursor, cursor + int(length), labels[kind]))
        cursor += int(length) + int(gap)
    return tuple(script)


class AudioSessions(Workload):
    """Both library pipelines over in-memory sessions with real front ends."""

    def __init__(self, name, why, kinds, duration_s=1200, warm_s=30):
        self.name = name
        self.why = why
        self.kinds = kinds            # (place, activity) per session
        self.duration_s = duration_s
        self.warm_s = warm_s

    def specs(self, seed: int) -> list[harness.SyntheticSpec]:
        rng = np.random.default_rng([seed, 3])
        specs = []
        for i, (place, activity) in enumerate(self.kinds):
            script = (reactive_script(seed * 8 + i, self.duration_s)
                      if activity == "sedentary" else ())
            specs.append(harness.SyntheticSpec(
                session_id=f"{activity}_{place}", subject_id=f"subj{i:02d}",
                song_id=f"song{i:02d}", place=place, duration_s=self.duration_s,
                script=script, activity=activity,
                start_offset_in_song=int(rng.integers(0, 8)),
                seed=int(rng.integers(0, 2**31))))
        return specs

    def setup(self, work, seed):
        clf = CentroidPatchClassifier.fit(CONFIG)
        (work / "classifier.json").write_text(clf.to_json())
        for spec in self.specs(seed):
            save_session(work / spec.session_id, harness.generate_session(spec))

    def load(self, inputs, scratch):
        self.classifier = CentroidPatchClassifier.from_json(
            (inputs / "classifier.json").read_text())
        self.lstm = motion.LstmClassifier(
            motion.LstmWeights.random(np.random.default_rng(LSTM_SEED)))
        self.tracker = vocal.AutocorrelationPitchTracker()
        self.sessions, self.truth = [], {}
        self.store = musicinfo.MusicInfoStore()
        for place, activity in self.kinds:
            session, track, truth = load_session(inputs / f"{activity}_{place}")
            self.sessions.append(session)
            self.truth[session.session_id] = truth
            self.store.add(track)
        self.last = {}

    def unload(self):
        self.sessions, self.truth, self.last = [], {}, {}

    def _run(self, session):
        t0 = time.perf_counter()
        vr = vocal.run_vocal_pipeline(session, self.classifier, self.tracker,
                                      self.store, config=CONFIG)
        t1 = time.perf_counter()
        mr = motion.run_motion_pipeline(session, self.lstm, CONFIG)
        t2 = time.perf_counter()
        return vr, mr, t1 - t0, t2 - t1

    def warm_up(self):
        session = self.sessions[0]
        keep = session.imu_t < self.warm_s
        prefix = dataclasses.replace(
            session, imu_t=session.imu_t[keep], accel=session.accel[keep],
            gyro=session.gyro[keep],
            audio=session.audio[:self.warm_s * session.audio_rate])
        self._run(prefix)

    def calls(self):
        return [Call(session.session_id, lambda s=session: self._run(s),
                     lambda raw, s=session: self._outcome(s, raw))
                for session in self.sessions]

    def _outcome(self, session, raw):
        vr, mr, vocal_s, motion_s = raw
        self.last[session.session_id] = vr.labels
        vs, ms = vr.stats, mr.stats
        return Outcome(
            digest=labels_digest(vr.labels, mr.labels),
            failed_seconds=vs.errors + ms.errors,
            session_s=float(len(vr.labels)),
            parts_s={"vocal": vocal_s, "motion": motion_s},
            counts={"vocal.filtering_ratio": vs.filtering_ratio,
                    "motion.filtering_ratio": ms.filtering_ratio,
                    "vocal.errors": vs.errors, "motion.errors": ms.errors})

    def quality(self):
        truth, pred = [], []
        for sid, labels in self.last.items():
            truth += self.truth[sid][:len(labels)]
            pred += labels
        return {"vocal_macro_f1": harness.evaluate(truth, pred).macro_f1}

    def canary(self, work):
        spec = harness.SyntheticSpec(
            "canary", "u0", "tune", "cafe", duration_s=40,
            script=((4, 12, R.SINGING_HUMMING), (16, 22, R.WHISTLING),
                    (26, 36, R.HEAD_MOTION)), start_offset_in_song=2, seed=13)
        generated = harness.generate_session(spec)
        store = musicinfo.MusicInfoStore({spec.song_id: generated.note_track})
        vr = vocal.run_vocal_pipeline(generated.session, self.classifier,
                                      self.tracker, store, config=CONFIG)
        mr = motion.run_motion_pipeline(generated.session, self.lstm, CONFIG)
        return labels_digest(vr.labels, mr.labels)


# ---------------------------------------------------------------------------
# recommend_pool
# ---------------------------------------------------------------------------

def reaction_pattern(rng, length: int) -> list[ReactionLabel]:
    """A listening session's per-second reactions: spans of 4-12 s of one
    reaction separated by 3-15 s of none."""
    labels = [R.NON_REACTION] * length
    kinds = (R.SINGING_HUMMING, R.WHISTLING, R.HEAD_MOTION)
    cursor = int(rng.integers(0, 10))
    while cursor < length:
        span = int(rng.integers(4, 13))
        labels[cursor:cursor + span] = [kinds[int(rng.integers(3))]] * min(span, length - cursor)
        cursor += span + int(rng.integers(3, 16))
    return labels[:length]


def perturbed(rng, labels: list[ReactionLabel], edits: int) -> list[ReactionLabel]:
    """A near copy: ``edits`` deleted seconds, as many duplicated seconds and
    as many relabelled seconds, so the length is kept."""
    out = list(labels)
    kinds = (R.NON_REACTION, R.SINGING_HUMMING, R.WHISTLING, R.HEAD_MOTION)
    for _ in range(edits):
        del out[int(rng.integers(len(out)))]
        i = int(rng.integers(len(out)))
        out.insert(i, out[i])
        out[int(rng.integers(len(out)))] = kinds[int(rng.integers(4))]
    return out


def oracle_distance(a: np.ndarray, b: np.ndarray) -> float:
    """DTW with 0/1 local cost, written independently of the package.

    Row by row: ``D[i, j] = c[i, j] + min(D[i-1, j], D[i-1, j-1], D[i, j-1])``.
    The left-neighbour term is a running minimum: with ``t[j] = c[i, j] +
    min(D[i-1, j], D[i-1, j-1])`` and ``S`` the prefix sums of row ``c[i]``,
    ``D[i, j] = S[j] + min_{k <= j}(t[k] - S[k])``.  Costs are integers, so
    the float arithmetic is exact.
    """
    cost = (np.asarray(a)[:, None] != np.asarray(b)[None, :]).astype(float)
    row = np.cumsum(cost[0])
    for c in cost[1:]:
        diag = np.concatenate(([np.inf], row[:-1]))
        t = c + np.minimum(row, diag)
        s = np.cumsum(c)
        row = s + np.minimum.accumulate(t - s)
    return float(row[-1])


class RecommendPool(Workload):
    name = "recommend_pool"
    op_noun = "queries"
    scaled = True
    why = ("DTW-bound recommend queries over stored reaction patterns of "
           "60-240 s, half of them near copies of pool members")

    def __init__(self, pool_size=10, queries=12, min_s=60, max_s=240, top_n=5):
        self.pool_size = pool_size
        self.queries = queries
        self.min_s, self.max_s = min_s, max_s
        self.top_n = top_n

    def make(self, seed: int):
        """Pool and queries.  Lengths come from fixed grids and only the
        content depends on the seed, so every seed costs about the same."""
        rng = np.random.default_rng([seed, 17])
        lengths = np.linspace(self.min_s, self.max_s, self.pool_size).round().astype(int)
        order = rng.permutation(self.pool_size)
        pool = {f"song{i:03d}": reaction_pattern(rng, int(lengths[order[i]]))
                for i in range(self.pool_size)}
        by_length = sorted(pool, key=lambda sid: (len(pool[sid]), sid))
        near = self.queries // 2
        queries = {}
        for q in range(near):
            member = by_length[(q * self.pool_size) // near]
            labels = pool[member]
            queries[f"near{q:02d}"] = perturbed(rng, labels, edits=max(1, len(labels) // 40))
        far_lengths = np.linspace(self.min_s, self.max_s, self.queries - near).round()
        for q, length in enumerate(far_lengths.astype(int)):
            queries[f"far{q:02d}"] = reaction_pattern(rng, int(length))
        return pool, queries

    def setup(self, work, seed):
        pool, queries = self.make(seed)
        for folder, patterns in (("pool", pool), ("queries", queries)):
            (work / folder).mkdir(parents=True, exist_ok=True)
            for key, labels in patterns.items():
                core.save_events_jsonl(work / folder / f"{key}.jsonl",
                                       core.merge_labels_to_events(labels))

    @staticmethod
    def _read(folder: Path) -> dict[str, np.ndarray]:
        return {path.stem: engage.pattern_from_events(core.load_events_jsonl(path))
                for path in sorted(folder.glob("*.jsonl"))}

    def load(self, inputs, scratch):
        self.pool = self._read(inputs / "pool")
        self.query_patterns = self._read(inputs / "queries")
        self.results = {}

    def warm_up(self):
        key = min(self.query_patterns, key=lambda k: len(self.query_patterns[k]))
        engage.recommend(self.query_patterns[key][:30], self.pool, top_n=self.top_n)

    def calls(self):
        return [Call(key, lambda q=pattern: engage.recommend(q, self.pool, top_n=self.top_n),
                     lambda ranked, k=key, q=pattern: self._outcome(k, q, ranked))
                for key, pattern in self.query_patterns.items()]

    def _outcome(self, key, pattern, ranked):
        self.results[key] = ranked
        return Outcome(digest=sha256(json.dumps(ranked).encode()),
                       session_s=float(len(pattern)))

    def independent_check(self):
        bad = []
        for key, ranked in self.results.items():
            query = self.query_patterns[key]
            expected = sorted(((sid, oracle_distance(query, stored))
                               for sid, stored in self.pool.items()),
                              key=lambda pair: (pair[1], pair[0]))[:self.top_n]
            if [list(p) for p in expected] != [list(p) for p in ranked]:
                bad.append(key)
        return bad

    def canary(self, work):
        pool, queries = RecommendPool(pool_size=6, queries=2).make(seed=0)
        patterns = {k: engage.reaction_index_sequence(v) for k, v in pool.items()}
        ranked = [engage.recommend(engage.reaction_index_sequence(q), patterns, top_n=3)
                  for q in queries.values()]
        return sha256(json.dumps(ranked).encode())


WORKLOADS = {
    w.name: w for w in (
        ReplayBatch(),
        AudioSessions(
            "audio_long",
            "20-minute cafe session with many reaction spans: resample, log-mel, "
            "pitch tracking and the LSTM run on the measured path",
            kinds=(("cafe", "sedentary"),)),
        AudioSessions(
            "audio_idle",
            "20-minute still and exercise sessions: prefilters settle nearly "
            "every second, so cost is segmentation plus prefilters",
            kinds=(("lounge", "still"), ("car", "exercise"))),
        RecommendPool(),
    )
}
