"""End-to-end tests of the command-line interface."""

import json
import os

import numpy as np
import pytest

from musereact import core, engage
from musereact.cli import main
from musereact.core import PipelineConfig, ReactionEvent, ReactionLabel
from musereact.vocal import HmmParams

S = ReactionLabel.SINGING_HUMMING
H = ReactionLabel.HEAD_MOTION


CORPUS_SPEC = {
    "sessions": [
        {
            "session_id": "sess_a", "subject_id": "u0", "song_id": "tune",
            "place": "lounge", "duration_s": 25,
            "script": [[4, 10, "singing_humming"], [14, 19, "whistling"]],
            "start_offset_in_song": 2,
        },
        {
            "session_id": "sess_b", "subject_id": "u1", "song_id": "tune",
            "place": "office", "duration_s": 25,
            "script": [[6, 16, "head_motion"]],
        },
    ]
}


@pytest.fixture()
def corpus(tmp_path):
    """A simulated two-session corpus plus a harness-calibrated config."""
    spec_path = tmp_path / "corpus.json"
    spec_path.write_text(json.dumps(CORPUS_SPEC))
    data_dir = tmp_path / "data"
    assert main(["simulate", "--spec", str(spec_path), "--seed", "5",
                 "--out", str(data_dir)]) == 0
    config_path = tmp_path / "config.json"
    PipelineConfig().replace(dtw_threshold=30.0).save(config_path)
    return tmp_path, data_dir, config_path


class TestSimulate:
    def test_writes_sessions_and_notes(self, corpus):
        _, data_dir, _ = corpus
        assert sorted(os.listdir(data_dir)) == ["notes", "sess_a", "sess_b"]
        for name in ("meta.json", "imu.csv", "audio.wav", "labels.csv",
                     "scores.jsonl", "pitch.csv"):
            assert (data_dir / "sess_a" / name).is_file(), name

    def test_bad_spec_is_data_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code = main(["simulate", "--spec", str(bad), "--out", str(tmp_path / "o")])
        assert code == 2


class TestDetect:
    def test_directory_mode_both_pipelines(self, corpus):
        tmp_path, data_dir, config_path = corpus
        out = tmp_path / "out"
        code = main(["detect", "--data", str(data_dir),
                     "--config", str(config_path), "--out", str(out)])
        assert code == 0
        for sid in ("sess_a", "sess_b"):
            for suffix in ("vocal.jsonl", "motion.jsonl", "combined.jsonl",
                           "stats.json"):
                assert (out / f"{sid}.{suffix}").is_file(), f"{sid}.{suffix}"

    def test_single_file_mode(self, corpus):
        """--out ending in .jsonl writes exactly one events file."""
        tmp_path, data_dir, config_path = corpus
        events_path = tmp_path / "events.jsonl"
        code = main(["detect", "--pipeline", "vocal",
                     "--session", str(data_dir / "sess_a"),
                     "--config", str(config_path),
                     "--out", str(events_path)])
        assert code == 0
        events = core.load_events_jsonl(events_path)
        assert any(e.label is S for e in events)

    def test_single_file_mode_rejects_multiple_sessions(self, corpus):
        tmp_path, data_dir, config_path = corpus
        code = main(["detect", "--data", str(data_dir),
                     "--config", str(config_path),
                     "--out", str(tmp_path / "events.jsonl")])
        assert code == 2

    def test_missing_session_is_usage_error(self, tmp_path, capsys):
        code = main(["detect", "--out", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err
        assert "usage" in err.lower()

    def test_unknown_flag_rejected(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as err:
            main(["detect", "--out", str(tmp_path / "o"), "--frobnicate"])
        assert err.value.code == 1
        assert "usage" in capsys.readouterr().err.lower()

    def test_parallel_workers_match_serial(self, corpus):
        tmp_path, data_dir, config_path = corpus
        serial, parallel = tmp_path / "serial", tmp_path / "parallel"
        for out, workers in ((serial, "1"), (parallel, "2")):
            assert main(["detect", "--data", str(data_dir),
                         "--config", str(config_path),
                         "--out", str(out), "--workers", workers]) == 0
        for name in sorted(os.listdir(serial)):
            assert (serial / name).read_bytes() == (parallel / name).read_bytes()

    def test_env_var_supplies_config(self, corpus, monkeypatch):
        tmp_path, data_dir, config_path = corpus
        monkeypatch.setenv("MUSEREACT_CONFIG", str(config_path))
        out = tmp_path / "envout"
        code = main(["detect", "--pipeline", "motion",
                     "--session", str(data_dir / "sess_b"), "--out", str(out)])
        assert code == 0
        assert (out / "sess_b.motion.jsonl").is_file()


class TestEval:
    def run_detect(self, corpus, pipeline="vocal"):
        tmp_path, data_dir, config_path = corpus
        out = tmp_path / f"out_{pipeline}"
        assert main(["detect", "--pipeline", pipeline, "--data", str(data_dir),
                     "--config", str(config_path), "--out", str(out)]) == 0
        return tmp_path, data_dir, out

    def test_report_contains_macro_f1(self, corpus):
        tmp_path, data_dir, out = self.run_detect(corpus)
        report_path = tmp_path / "report.json"
        code = main(["eval", "--pred", str(out / "sess_a.vocal.jsonl"),
                     "--truth", str(data_dir / "sess_a" / "labels.csv"),
                     "--task", "vocal", "--report", str(report_path)])
        assert code == 0
        report = json.loads(report_path.read_text())
        assert "macro_f1" in report
        assert report["macro_f1"] > 0.8

    def test_stats_add_filtering_ratio(self, corpus):
        tmp_path, data_dir, out = self.run_detect(corpus)
        report_path = tmp_path / "report_stats.json"
        code = main(["eval", "--pred", str(out / "sess_a.vocal.jsonl"),
                     "--truth", str(data_dir / "sess_a" / "labels.csv"),
                     "--task", "vocal", "--stats", str(out / "sess_a.stats.json"),
                     "--report", str(report_path)])
        assert code == 0
        report = json.loads(report_path.read_text())
        assert 0.0 <= report["filtering_ratio"] <= 1.0

    def test_missing_pred_file_is_data_error(self, corpus, tmp_path):
        _, data_dir, config_path = corpus
        code = main(["eval", "--pred", str(tmp_path / "nope.jsonl"),
                     "--truth", str(data_dir / "sess_a" / "labels.csv"),
                     "--report", str(tmp_path / "r.json")])
        assert code == 2


class TestEvalMalformedInput:
    """Bad eval inputs are data errors: exit 2 and one line on stderr."""

    @pytest.mark.parametrize("truth_text, stats_text", [
        ("t_start,t_end,label\n", None),
        ("t_start,t_end,label\n0,5,singing_humming\n", "{not json"),
        ("t_start,t_end,label\n0,5,singing_humming\n", "[1, 2]"),
    ], ids=["header_only_labels", "malformed_stats_json", "stats_not_object"])
    def test_exits_2_without_traceback(self, tmp_path, capsys,
                                       truth_text, stats_text):
        truth = tmp_path / "labels.csv"
        truth.write_text(truth_text)
        pred = tmp_path / "pred.jsonl"
        core.save_events_jsonl(pred, [ReactionEvent(label=S, t_start=0.0, t_end=5.0)])
        argv = ["eval", "--pred", str(pred), "--truth", str(truth),
                "--task", "vocal", "--report", str(tmp_path / "r.json")]
        if stats_text is not None:
            stats = tmp_path / "stats.json"
            stats.write_text(stats_text)
            argv += ["--stats", str(stats)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert len(err.strip().splitlines()) == 1
        assert str(stats if stats_text is not None else truth) in err


class TestTrainHmm:
    def test_fits_and_saves(self, corpus):
        tmp_path, data_dir, config_path = corpus
        out = tmp_path / "hmm.json"
        code = main(["train-hmm", "--data", str(data_dir),
                     "--config", str(config_path), "--out", str(out)])
        assert code == 0
        hmm = HmmParams.load(out)
        np.testing.assert_allclose(hmm.transition.sum(axis=1), 1.0, atol=1e-9)

    def test_detect_accepts_trained_hmm(self, corpus):
        tmp_path, data_dir, config_path = corpus
        hmm_path = tmp_path / "hmm.json"
        assert main(["train-hmm", "--data", str(data_dir),
                     "--config", str(config_path), "--out", str(hmm_path)]) == 0
        out = tmp_path / "smoothed"
        code = main(["detect", "--pipeline", "vocal", "--data", str(data_dir),
                     "--config", str(config_path), "--hmm", str(hmm_path),
                     "--out", str(out)])
        assert code == 0


class TestTrainTree:
    def make_csv(self, path, targets):
        rng = np.random.default_rng(0)
        features = rng.uniform(0, 1, (len(targets), 10))
        features[:, 0] = [0.9 if t in (5, "known") else 0.1 for t in targets]
        engage.save_training_csv(path, features, [str(t) for t in targets])

    def test_rating_tree(self, tmp_path):
        data = tmp_path / "ratings.csv"
        self.make_csv(data, [5, 5, 5, 1, 1, 1])
        out = tmp_path / "tree.json"
        code = main(["train-tree", "--task", "rating", "--data", str(data),
                     "--out", str(out)])
        assert code == 0
        tree = engage.DecisionTree.load(out)
        vec = np.full(10, 0.5)
        vec[0] = 0.9
        assert tree.predict(vec) == 5

    def test_familiarity_tree(self, tmp_path):
        data = tmp_path / "familiarity.csv"
        self.make_csv(data, ["known", "known", "unknown", "unknown"])
        out = tmp_path / "ftree.json"
        code = main(["train-tree", "--task", "familiarity", "--data", str(data),
                     "--min-leaf", "1", "--out", str(out)])
        assert code == 0

    def test_non_integer_rating_targets_rejected(self, tmp_path):
        data = tmp_path / "bad.csv"
        self.make_csv(data, ["known", "unknown"])
        code = main(["train-tree", "--task", "rating", "--data", str(data),
                     "--out", str(tmp_path / "t.json")])
        assert code == 2


class TestRecommend:
    def test_ranks_pool(self, tmp_path, capsys):
        pattern = [ReactionEvent(label=S, t_start=0.0, t_end=3.0),
                   ReactionEvent(label=H, t_start=5.0, t_end=8.0)]
        core.save_events_jsonl(tmp_path / "query.jsonl", pattern)
        pool = tmp_path / "pool"
        pool.mkdir()
        core.save_events_jsonl(pool / "same.jsonl", pattern)
        core.save_events_jsonl(
            pool / "different.jsonl",
            [ReactionEvent(label=H, t_start=0.0, t_end=8.0)])
        code = main(["recommend", "--pattern", str(tmp_path / "query.jsonl"),
                     "--pool", str(pool), "--top", "2"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].split("\t") == ["same", "0"]
        assert lines[1].split("\t")[0] == "different"


class TestDeterminism:
    def test_repeat_run_is_byte_identical(self, tmp_path):
        """simulate + detect + eval twice from one seed -> same bytes."""
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(CORPUS_SPEC))
        config_path = tmp_path / "config.json"
        PipelineConfig().replace(dtw_threshold=30.0).save(config_path)

        reports = []
        for run in ("one", "two"):
            root = tmp_path / run
            data = root / "data"
            out = root / "out"
            assert main(["simulate", "--spec", str(spec_path), "--seed", "9",
                         "--out", str(data)]) == 0
            assert main(["detect", "--data", str(data),
                         "--config", str(config_path), "--out", str(out)]) == 0
            report = root / "report.json"
            assert main(["eval", "--pred", str(out / "sess_a.combined.jsonl"),
                         "--truth", str(data / "sess_a" / "labels.csv"),
                         "--report", str(report)]) == 0
            reports.append(report.read_bytes())
        assert reports[0] == reports[1]
