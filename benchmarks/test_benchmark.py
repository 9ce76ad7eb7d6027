"""Tests of the benchmark itself, on tiny inputs.

    python3 -m pytest benchmarks/test_benchmark.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import layers  # noqa: E402
import run  # noqa: E402
import tracer as tracer_mod  # noqa: E402
import workloads  # noqa: E402
from centroid import CentroidPatchClassifier  # noqa: E402
from musereact import dsp, engage, harness, vocal  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())

#: A seed with no stored digests, so outputs are checked for consistency.
UNSTORED_SEED = 987654

TINY = {
    "replay_batch": workloads.ReplayBatch(vocal_per_place=1, motion_per_place=1,
                                          idle_per_activity=1, duration_s=20),
    "audio_long": workloads.AudioSessions(
        "audio_long", "", kinds=(("cafe", "sedentary"),), duration_s=40, warm_s=10),
    "audio_idle": workloads.AudioSessions(
        "audio_idle", "", kinds=(("lounge", "still"), ("car", "exercise")),
        duration_s=20, warm_s=10),
    "recommend_pool": workloads.RecommendPool(pool_size=4, queries=2, min_s=20, max_s=40),
}


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOAD_NAMES)
    assert list(workloads.WORKLOADS) == list(run.WORKLOAD_NAMES)
    assert BENCHMARK["per_layer"] == layers.per_layer_catalogue()


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_every_metric_with_unit(tmp_path, name, trace):
    result, setup, tracer = measure(tmp_path, name, trace=bool(trace))
    assert result["correct"], result
    assert result["attempted"] >= 1 and result["failed"] == 0
    listed = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in listed} == {
        k: v["unit"] for k, v in result["metrics"].items()}
    for entry in result["metrics"].values():
        assert isinstance(entry["value"], (int, float))
    if trace:
        assert tracer.spans
        for (_, start, end, parent), own in zip(tracer.spans, tracer.self_times_ns()):
            assert start <= end
            assert own >= 0
            if parent >= 0:
                _, p_start, p_end, _ = tracer.spans[parent]
                assert p_start <= start and end <= p_end
        if name != "recommend_pool":
            assert setup["spans"]["harness.generate_session"]["calls"] >= 1
        for name_, value in setup["spans"].items():
            assert value["self_ns"] >= 0, name_
    else:
        for entry in result["metrics"].values():
            assert entry["value"] > 0


def test_replay_batch_runs_no_audio_front_end(tmp_path):
    result, _, _ = measure(tmp_path, "replay_batch", trace=True)
    metrics = result["metrics"]
    for span in ("dsp.log_mel_patch", "dsp.resample", "motion.lstm_forward"):
        assert metrics[f"{span}.calls"]["value"] == 0
    assert metrics["cli.main.calls"]["value"] == 1  # one detect per session
    assert metrics["core.Session.validate.calls"]["value"] == 3


@pytest.mark.parametrize("name", ["recommend_pool", "audio_idle"])
def test_passes_interleave_with_setups(tmp_path, monkeypatch, name):
    events = []
    workload = TINY[name]
    monkeypatch.setattr(run, "run_pass", lambda w, i, real=run.run_pass: (
        events.append("pass"), real(w, i))[1])
    monkeypatch.setattr(run, "do_setup", lambda *a, real=run.do_setup: (
        events.append("setup"), real(*a))[1])
    result, _, _ = measure(tmp_path, name, trace=False, repeat=3, seconds=1e-3)
    # One pass after the first set-up, none after the second (its share of
    # the time is spent), one after the last to reach MIN_PASSES.
    assert events == ["setup", "pass", "setup", "setup", "pass"]
    assert result["correct"] and result["attempted"] == 2 * len(workload.calls())


def measure(tmp_path, name, trace, repeat=1, seconds=0.0):
    """Set up and measure a tiny workload in this process."""
    workload = TINY[name]
    spans = {}

    def setups():
        for _ in range(repeat):
            done = run.do_setup(layers, tracer_mod, workload, tmp_path / "inputs",
                                UNSTORED_SEED, trace)
            spans.update(done["spans"])
            yield done

    result, _, tracer = run.measure(layers, tracer_mod, workload, tmp_path, setups(),
                                    repeat, UNSTORED_SEED, seconds=seconds, trace=trace)
    return result, {"setup_s": [], "spans": spans}, tracer


def test_tracer_restores_every_wrapped_function():
    before = {(id(owner), attr): owner.__dict__[attr]
              for _, targets, _ in layers.PROGRAM_SPANS + layers.SETUP_SPANS
              for owner, attr in targets}
    tracer = layers.install(tracer_mod.Tracer(), layers.PROGRAM_SPANS + layers.SETUP_SPANS)
    assert engage.recommend is not before[(id(engage), "recommend")]
    tracer.uninstall()
    for _, targets, _ in layers.PROGRAM_SPANS + layers.SETUP_SPANS:
        for owner, attr in targets:
            assert owner.__dict__[attr] is before[(id(owner), attr)]


def test_patch_classifier_is_deterministic():
    config = workloads.CONFIG
    first = CentroidPatchClassifier.fit(config)
    second = CentroidPatchClassifier.fit(config)
    assert np.array_equal(first.centroids, second.centroids)
    assert first.temperature == second.temperature
    restored = CentroidPatchClassifier.from_json(first.to_json())
    assert np.array_equal(restored.centroids, first.centroids)

    spec = harness.SyntheticSpec("s", "u", "tune", "cafe", duration_s=3,
                                 script=((0, 3, workloads.R.SINGING_HUMMING),), seed=1)
    segment = vocal.segment_session(harness.generate_session(spec).session)[1]
    patch = dsp.log_mel_patch(vocal.preprocess_segment_audio(
        segment.audio, segment.audio_rate, config))
    a = first.classify(patch, 1)
    b = restored.classify(patch.copy(), 1)
    assert a.class_names == b.class_names
    assert np.array_equal(a.scores, b.scores)


def test_oracle_distance_matches_the_package():
    rng = np.random.default_rng(0)
    for _ in range(50):
        a = rng.integers(0, 4, int(rng.integers(1, 30)))
        b = rng.integers(0, 4, int(rng.integers(1, 30)))
        assert workloads.oracle_distance(a, b) == engage.pattern_distance(a, b)
    assert workloads.oracle_distance([0, 1, 1, 2], [0, 1, 2]) == 0.0
    assert workloads.oracle_distance([3], [0, 0]) == 2.0


def test_inputs_depend_only_on_the_seed():
    pool = workloads.RecommendPool(pool_size=4, queries=4, min_s=20, max_s=40)
    assert pool.make(3) == pool.make(3)
    assert pool.make(3) != pool.make(4)
    replay = workloads.ReplayBatch()
    assert replay.corpus_specs(5) == replay.corpus_specs(5)
    assert len(replay.corpus_specs(5)) == 32
    assert workloads.reactive_script(2, 1200) == workloads.reactive_script(2, 1200)
