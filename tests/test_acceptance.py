"""Release gates for the package: ten end-to-end acceptance checks.

Each test is one gate and prints a single ``[PASS]`` line with the measured
values when it succeeds (visible with ``pytest -s``); thresholds and runtime
budgets are asserted directly, so ``pytest -v`` shows one pass/fail line per
gate.
"""

import json
import time

import numpy as np

from musereact import core, dsp, engage, motion, vocal
from musereact.cli import main
from musereact.core import PipelineConfig, ReactionLabel, VOCAL_STATES
from musereact.harness import (SyntheticSpec, dtw_oracle, evaluate,
                               generate_session, loso_folds,
                               make_engagement_dataset, make_motion_corpus,
                               make_vocal_corpus, viterbi_oracle)
from musereact.musicinfo import MusicInfoStore
from musereact.vocal import HmmParams

N = ReactionLabel.NON_REACTION
H = ReactionLabel.HEAD_MOTION


def test_criterion_01_dtw_matches_exhaustive_oracle():
    """dtw_distance agrees exactly with the exhaustive-alignment oracle."""
    rng = np.random.default_rng(1)
    t0 = time.monotonic()
    for _ in range(200):
        a = rng.integers(-1, 12, size=rng.integers(1, 8))
        b = rng.integers(-1, 12, size=rng.integers(1, 8))
        assert dsp.dtw_distance(a, b) == dtw_oracle(a, b)
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0
    print(f"\n[PASS] criterion 1: dtw_distance == oracle on 200 random "
          f"chroma pairs ({elapsed:.2f}s)")


def _path_logprob(hmm, states, observed):
    """Log-probability of one hidden path, summed independently of the DP."""
    idx = {s: k for k, s in enumerate(hmm.states)}
    logp = (np.log(hmm.initial[idx[states[0]]])
            + np.log(hmm.emission[idx[states[0]], idx[observed[0]]]))
    for prev, cur, obs in zip(states, states[1:], observed[1:]):
        logp += (np.log(hmm.transition[idx[prev], idx[cur]])
                 + np.log(hmm.emission[idx[cur], idx[obs]]))
    return float(logp)


def test_criterion_02_viterbi_matches_brute_force():
    """The decoded path attains the best of all 3^6 hidden sequences.

    Distinct optimal paths can tie exactly, so the check is on attained
    log-probability (the returned path rescored from scratch must match the
    brute-force maximum) rather than on path identity.
    """
    rng = np.random.default_rng(2)
    t0 = time.monotonic()
    for _ in range(100):
        hmm = HmmParams(VOCAL_STATES,
                        rng.dirichlet(np.ones(3)),
                        rng.dirichlet(np.ones(3), size=3),
                        rng.dirichlet(np.ones(3), size=3))
        observed = [VOCAL_STATES[i] for i in rng.integers(0, 3, size=6)]
        path, logp = vocal.viterbi_path(hmm, observed)
        _, ref_logp = viterbi_oracle(hmm, observed)
        assert abs(logp - ref_logp) < 1e-9
        assert abs(_path_logprob(hmm, path, observed) - ref_logp) < 1e-9
        assert vocal.smooth(observed, hmm) is path[-1]
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0
    print(f"\n[PASS] criterion 2: viterbi optimum == brute force over 3^6 "
          f"sequences for 100 random HMMs, logprob atol 1e-9 ({elapsed:.2f}s)")


def test_criterion_03_feature_shapes():
    """Classifier inputs always come out 96x64 (sound) and 70x18 (motion)."""
    rng = np.random.default_rng(3)
    for _ in range(50):
        patch = dsp.log_mel_patch(rng.normal(0.0, 0.1, size=16000))
        assert patch.shape == (96, 64)
        assert np.all(np.isfinite(patch))
    for _ in range(50):
        units = motion.extract_motion_units(rng.normal(size=(motion.WINDOW_SAMPLES, 3)))
        assert units.shape == (70, 18)
        assert np.all(np.isfinite(units))
    print("\n[PASS] criterion 3: log-mel patches 96x64 and motion units "
          "70x18 on 50 random inputs each")


def test_criterion_04_dsp_numerics():
    """Filter gains, chroma octave invariance, and the rms identity hold."""
    fs, fc = 16000, 2000.0

    def tail_rms(x):
        tail = x[len(x) // 2:]
        return float(np.sqrt(np.mean(tail ** 2)))

    dc = dsp.lowpass_first_order(np.ones(fs), fs, fc)
    assert abs(dc[-1] - 1.0) < 1e-3

    t = np.arange(fs) / fs
    tone = np.sin(2 * np.pi * fc * t)
    gain = tail_rms(dsp.lowpass_first_order(tone, fs, fc)) / tail_rms(tone)
    assert abs(gain - 1.0 / np.sqrt(2.0)) < 0.005

    rng = np.random.default_rng(4)
    for f in rng.uniform(80.0, 4000.0, size=1000):
        assert dsp.hz_to_chroma(f, 1.0) == dsp.hz_to_chroma(2.0 * f, 1.0)

    for _ in range(20):
        units = motion.extract_motion_units(rng.normal(size=(motion.WINDOW_SAMPLES, 3)))
        for axis in range(3):
            mean = units[:, 6 * axis + 2]
            std = units[:, 6 * axis + 4]
            rms = units[:, 6 * axis + 5]
            np.testing.assert_allclose(rms ** 2, mean ** 2 + std ** 2, atol=1e-9)

    print(f"\n[PASS] criterion 4: DC gain err {abs(dc[-1] - 1.0):.1e}, cutoff "
          f"gain {gain:.4f} ~ 1/sqrt(2), octave invariance x1000, "
          f"rms^2 == mean^2 + std^2")


def test_criterion_05_filtering_ablation():
    """Correction + smoothing beat label mapping alone; prefilters are safe.

    Ten independently seeded noisy-cafe corpora.  In each, the full cascade
    (with chroma correction and HMM smoothing trained on that corpus) must
    strictly beat the mapping-only arm on macro F1, the two prefilters must
    remove at least 40% of segments, and no ground-truth reaction second may
    ever be prefiltered away.
    """
    t_start = time.monotonic()
    full_cfg = PipelineConfig().replace(dtw_threshold=30.0, enable_smoothing=False)
    map_cfg = PipelineConfig().replace(
        margin_threshold=0.0, enable_correction=False, enable_smoothing=False)
    worst_gap, worst_ratio = np.inf, np.inf
    prefilters = (core.Stage.MOTION_FILTER, core.Stage.SOUND_FILTER)
    for seed in range(10):
        specs = make_vocal_corpus(num_sessions=30, place="cafe", base_seed=seed)
        truth_all, mapped_all = [], []
        pairs = []
        stats_tot = stats_filt = bad_filtered = 0
        for spec in specs:
            g = generate_session(spec)
            store = MusicInfoStore({spec.song_id: g.note_track})
            r_full = vocal.run_vocal_pipeline(
                g.session, g.classifier(), pitch_tracker=g.pitch_tracker(),
                note_store=store, config=full_cfg)
            r_map = vocal.run_vocal_pipeline(g.session, g.classifier(),
                                             config=map_cfg)
            truth_all.extend(g.vocal_truth)
            mapped_all.extend(r_map.labels)
            pairs.append((g.vocal_truth, r_full.observed))
            stats_tot += len(r_full.stats.stages)
            stats_filt += r_full.stats.count(*prefilters)
            bad_filtered += sum(
                1 for i, stage in enumerate(r_full.stats.stages)
                if stage in prefilters and i not in r_full.stats.failures
                and g.vocal_truth[i] is not N)
        hmm = vocal.train_hmm(pairs)
        smoothed = []
        for _, obs in pairs:
            for i in range(len(obs)):
                smoothed.append(vocal.smooth(obs[max(0, i - 5):i + 1], hmm))
        f_full = evaluate(truth_all, smoothed).macro_f1
        f_map = evaluate(truth_all, mapped_all).macro_f1
        ratio = stats_filt / stats_tot
        assert f_full - f_map > 0.0, f"seed {seed}: {f_full:.4f} vs {f_map:.4f}"
        assert ratio >= 0.4, f"seed {seed}: filtering ratio {ratio:.3f}"
        assert bad_filtered == 0, f"seed {seed}: {bad_filtered} reactions filtered"
        worst_gap = min(worst_gap, f_full - f_map)
        worst_ratio = min(worst_ratio, ratio)
    elapsed = time.monotonic() - t_start
    assert elapsed < 120.0
    print(f"\n[PASS] criterion 5: full cascade beats mapping-only on all 10 "
          f"seeds (worst gap +{worst_gap:.4f}), prefilter ratio >= 0.4 "
          f"(worst {worst_ratio:.3f}), zero true reactions filtered "
          f"({elapsed:.1f}s)")


def test_criterion_06_vocal_end_to_end_low_noise():
    """Full vocal pipeline reaches macro F1 >= 0.9 on a quiet-room corpus."""
    t0 = time.monotonic()
    cfg = PipelineConfig().replace(dtw_threshold=30.0, enable_smoothing=False)
    truth_all, pred_all = [], []
    for spec in make_vocal_corpus(num_sessions=12, place="lounge", base_seed=42):
        g = generate_session(spec)
        r = vocal.run_vocal_pipeline(
            g.session, g.classifier(), pitch_tracker=g.pitch_tracker(),
            note_store=MusicInfoStore({spec.song_id: g.note_track}), config=cfg)
        truth_all.extend(g.vocal_truth)
        pred_all.extend(r.labels)
    macro = evaluate(truth_all, pred_all).macro_f1
    elapsed = time.monotonic() - t0
    assert macro >= 0.9
    assert elapsed < 120.0
    print(f"\n[PASS] criterion 6: low-noise vocal macro F1 {macro:.4f} >= 0.9 "
          f"over 12 sessions ({elapsed:.1f}s)")


def test_criterion_07_smoothing_corrects_isolated_flips():
    """A sticky HMM trained on long runs repairs single-second flips."""
    rng = np.random.default_rng(123)
    sequences = []
    for _ in range(200):
        true = []
        state = VOCAL_STATES[rng.integers(0, 3)]
        while len(true) < 60:
            run = int(rng.geometric(1.0 / 20.0))
            true.extend([state] * min(run, 60 - len(true)))
            state = VOCAL_STATES[
                (VOCAL_STATES.index(state) + 1 + rng.integers(0, 2)) % 3]
        observed = []
        for lab in true:
            if rng.uniform() < 0.15:
                others = [s for s in VOCAL_STATES if s is not lab]
                observed.append(others[rng.integers(0, 2)])
            else:
                observed.append(lab)
        sequences.append((true, observed))
    hmm = vocal.train_hmm(sequences)

    corrected = 0
    for case in range(1000):
        crng = np.random.default_rng([7, case])
        run_label = VOCAL_STATES[crng.integers(0, 3)]
        others = [s for s in VOCAL_STATES if s is not run_label]
        flip = others[crng.integers(0, 2)]
        window = [run_label] * 5 + [flip]
        corrected += vocal.smooth(window, hmm) is run_label
    assert corrected >= 950
    print(f"\n[PASS] criterion 7: trained HMM corrected {corrected}/1000 "
          f"isolated flips inside 5 s runs (need >= 950)")


def test_criterion_08_motion_end_to_end():
    """Nodding detection hits F1 >= 0.8; still/exercise is mostly prefiltered."""
    t0 = time.monotonic()
    truth_all, pred_all = [], []
    for spec in make_motion_corpus(num_sessions=10, place="office", base_seed=7):
        g = generate_session(spec)
        r = motion.run_motion_pipeline(g.session)
        truth_all.extend(g.motion_truth)
        pred_all.extend(r.labels)
    f1 = evaluate(truth_all, pred_all).per_class[H].f1

    total = filtered = 0
    for activity in ("still", "exercise"):
        for i in range(3):
            spec = SyntheticSpec(
                session_id=f"{activity}{i}", subject_id="s", song_id="song00",
                place="office", duration_s=30, script=(), activity=activity,
                seed=900 + i)
            r = motion.run_motion_pipeline(generate_session(spec).session)
            total += len(r.stats.stages)
            filtered += r.stats.count(core.Stage.MOTION_FILTER)
    ratio = filtered / total
    elapsed = time.monotonic() - t0
    assert f1 >= 0.8
    assert ratio >= 0.9
    assert elapsed < 60.0
    print(f"\n[PASS] criterion 8: head-motion F1 {f1:.4f} >= 0.8, "
          f"still/exercise filtering ratio {ratio:.3f} >= 0.9 ({elapsed:.1f}s)")


def test_criterion_09_engagement_apps():
    """Recommendation, rating and familiarity all work on held-out subjects."""
    query = np.array([0, 1, 1, 2, 0, 0], dtype=int)
    pool = {
        "match": query.copy(),
        "near": np.array([0, 1, 1, 2, 2, 0], dtype=int),
        "far": np.array([2, 2, 2, 2, 2, 2], dtype=int),
    }
    ranked = engage.recommend(query, pool, top_n=3)
    assert ranked[0] == ("match", 0.0)

    ds = make_engagement_dataset(8, 6, seed=0)
    mae_folds, f1_folds = [], []
    for _, train_idx, test_idx in loso_folds(ds.subjects):
        rating_tree = engage.train_rating_tree(
            ds.features[train_idx], ds.ratings[train_idx])
        preds = [engage.predict_rating(rating_tree, ds.features[i])
                 for i in test_idx]
        mae_folds.append(float(np.mean(np.abs(
            np.asarray(preds) - ds.ratings[test_idx]))))

        fam_tree = engage.train_familiarity_tree(
            ds.features[train_idx], [ds.familiarity[i] for i in train_idx])
        preds = [engage.predict_familiarity(fam_tree, ds.features[i])
                 for i in test_idx]
        tp = sum(1 for i, p in zip(test_idx, preds)
                 if p == "known" and ds.familiarity[i] == "known")
        fp = sum(1 for i, p in zip(test_idx, preds)
                 if p == "known" and ds.familiarity[i] != "known")
        fn = sum(1 for i, p in zip(test_idx, preds)
                 if p != "known" and ds.familiarity[i] == "known")
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1_folds.append(2 * precision * recall / (precision + recall)
                        if precision + recall else 0.0)
    mae = float(np.mean(mae_folds))
    fam_f1 = float(np.mean(f1_folds))
    assert mae <= 0.5
    assert fam_f1 >= 0.75
    print(f"\n[PASS] criterion 9: identical pattern first at distance 0, "
          f"rating LOSO MAE {mae:.4f} <= 0.5, familiarity F1 {fam_f1:.4f} "
          f">= 0.75")


def test_criterion_10_cli_determinism(tmp_path):
    """simulate -> detect -> eval twice from one seed is byte-identical."""
    corpus_spec = {
        "sessions": [
            {"session_id": "sess_a", "subject_id": "u0", "song_id": "tune",
             "place": "lounge", "duration_s": 25,
             "script": [[4, 10, "singing_humming"], [14, 19, "whistling"]],
             "start_offset_in_song": 2},
            {"session_id": "sess_b", "subject_id": "u1", "song_id": "tune",
             "place": "office", "duration_s": 25,
             "script": [[6, 16, "head_motion"]]},
        ]
    }
    spec_path = tmp_path / "corpus.json"
    spec_path.write_text(json.dumps(corpus_spec))
    config_path = tmp_path / "config.json"
    PipelineConfig().replace(dtw_threshold=30.0).save(config_path)

    artifacts = []
    for run in ("one", "two"):
        root = tmp_path / run
        data, out = root / "data", root / "out"
        assert main(["simulate", "--spec", str(spec_path), "--seed", "11",
                     "--out", str(data)]) == 0
        assert main(["detect", "--data", str(data),
                     "--config", str(config_path), "--out", str(out)]) == 0
        report = root / "report.json"
        assert main(["eval", "--pred", str(out / "sess_a.combined.jsonl"),
                     "--truth", str(data / "sess_a" / "labels.csv"),
                     "--report", str(report)]) == 0
        blob = {}
        for base in (data, out):
            for path in sorted(p for p in base.rglob("*") if p.is_file()):
                blob[str(path.relative_to(root))] = path.read_bytes()
        blob["report.json"] = report.read_bytes()
        artifacts.append(blob)
    assert sorted(artifacts[0]) == sorted(artifacts[1])
    assert artifacts[0] == artifacts[1]
    print(f"\n[PASS] criterion 10: simulate->detect->eval byte-identical "
          f"across two runs ({len(artifacts[0])} artifacts compared)")
