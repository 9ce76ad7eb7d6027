"""End-to-end tests of the command-line interface."""

import concurrent.futures
import contextlib
import dataclasses
import hashlib
import io
import json
import os
import shutil
import tempfile
import warnings

import numpy as np
import pytest
import scipy.io.wavfile
from hypothesis import example, given, settings
from hypothesis import strategies as st

from musereact import core, engage, harness, motion, musicinfo, vocal
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
        """Workers get the run's config, HMM and LSTM and write the same bytes."""
        tmp_path, data_dir, config_path = corpus
        hmm_path, lstm_path = tmp_path / "hmm.json", tmp_path / "lstm.json"
        sticky = 0.7 * np.eye(3) + 0.1
        HmmParams(core.VOCAL_STATES, np.full(3, 1 / 3), sticky, sticky).save(hmm_path)
        motion.LstmWeights.random(np.random.default_rng(0)).save(lstm_path)
        serial, parallel = tmp_path / "serial", tmp_path / "parallel"
        for out, workers in ((serial, "1"), (parallel, "2")):
            assert main(["detect", "--data", str(data_dir),
                         "--config", str(config_path),
                         "--hmm", str(hmm_path), "--lstm", str(lstm_path),
                         "--out", str(out), "--workers", workers]) == 0
        names = sorted(os.listdir(serial))
        assert names == sorted(os.listdir(parallel)) and len(names) == 8
        for name in names:
            assert (serial / name).read_bytes() == (parallel / name).read_bytes()

    def test_pool_has_at_most_one_worker_per_session(self, corpus, monkeypatch):
        """A forked pool starts all its workers at once: two sessions, two."""
        sizes = []

        class InlinePool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
        tmp_path, data_dir, config_path = corpus
        for workers in ("8", "1"):
            assert main(["detect", "--pipeline", "motion", "--data", str(data_dir),
                         "--config", str(config_path), "--workers", workers,
                         "--out", str(tmp_path / f"out{workers}")]) == 0
        assert sizes == [2]

    @pytest.mark.parametrize("workers", ["0", "-2"])
    def test_workers_below_one_is_usage_error(self, tmp_path, capsys, workers):
        with pytest.raises(SystemExit) as err:
            main(["detect", "--session", str(tmp_path), "--out", str(tmp_path / "o"),
                  "--workers", workers])
        assert err.value.code == 1
        assert "usage" in capsys.readouterr().err.lower()

    def test_lstm_is_not_read_for_the_vocal_pipeline(self, corpus):
        tmp_path, data_dir, config_path = corpus
        bad = tmp_path / "bad_lstm.json"
        bad.write_text("{not json")
        assert main(["detect", "--pipeline", "vocal",
                     "--session", str(data_dir / "sess_a"),
                     "--config", str(config_path), "--lstm", str(bad),
                     "--out", str(tmp_path / "out")]) == 0

    def test_session_without_pitch_csv_tracks_pitch_from_audio(self, tmp_path, monkeypatch):
        monkeypatch.delenv("MUSEREACT_CONFIG", raising=False)
        spec = harness.SyntheticSpec("sess", "u0", "tune", "lounge", duration_s=8,
                                     script=((2, 7, S),), seed=1)
        session_dir = harness.write_corpus(tmp_path / "data", [spec])[0]
        os.remove(os.path.join(session_dir, "pitch.csv"))
        out = tmp_path / "out"
        assert main(["detect", "--session", session_dir, "--pipeline", "vocal",
                     "--out", str(out)]) == 0
        expected = vocal.run_vocal_pipeline(
            core.load_session_dir(session_dir),
            vocal.ScoreFileClassifier.from_file(os.path.join(session_dir, "scores.jsonl")),
            pitch_tracker=vocal.AutocorrelationPitchTracker(),
            note_store=musicinfo.MusicInfoStore.from_dir(tmp_path / "data" / "notes"))
        assert expected.stats.count(core.Stage.CORRECTION) > 0
        assert core.load_events_jsonl(out / "sess.vocal.jsonl") == (
            core.merge_labels_to_events(expected.labels))

    def test_env_var_supplies_config(self, corpus, monkeypatch):
        tmp_path, data_dir, config_path = corpus
        monkeypatch.setenv("MUSEREACT_CONFIG", str(config_path))
        out = tmp_path / "envout"
        code = main(["detect", "--pipeline", "motion",
                     "--session", str(data_dir / "sess_b"), "--out", str(out)])
        assert code == 0
        assert (out / "sess_b.motion.jsonl").is_file()


def _rewrite_lines(path, keep):
    """Keep the lines of a text file for which ``keep(number, line)`` holds."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines(keepends=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(line for n, line in enumerate(lines) if keep(n, line)))


class TestStatsJson:
    """The bytes of ``stats.json`` on a session where every kind of stage
    fails somewhere: a dropped ``scores.jsonl`` line (the classifier fails on
    second 5), one IMU sample left in second 17 (both movement prefilters
    fail) and ``pitch.csv`` cut at 8 s (correction fails from second 8)."""

    SHA256 = "2ac0a0a1adc42fee234f8d0062fec64496f74e74d40ed81cb669ffcddf74f6bf"
    VOCAL_DIAGNOSTICS = [
        "segment 5: no recorded scores for segment 5",
        "segment 8: recorded pitch does not cover [8, 9) s",
        "segment 9: recorded pitch does not cover [9, 10) s",
        "segment 10: recorded pitch does not cover [10, 11) s",
        "segment 12: recorded pitch does not cover [12, 13) s",
        "segment 17: movement level needs at least 2 samples",
        "segment 23: recorded pitch does not cover [23, 24) s",
        "segment 25: recorded pitch does not cover [25, 26) s",
        "segment 26: recorded pitch does not cover [26, 27) s",
        "segment 27: recorded pitch does not cover [27, 28) s",
        "segment 28: recorded pitch does not cover [28, 29) s",
    ]
    MOTION_DIAGNOSTICS = ["second 17: movement level needs at least 2 samples"]

    def test_faulted_session_writes_the_recorded_bytes(self, tmp_path, monkeypatch):
        monkeypatch.delenv("MUSEREACT_CONFIG", raising=False)
        spec = harness.SyntheticSpec(
            "sess", "u0", "tune", "cafe", duration_s=30,
            script=((3, 12, S), (15, 21, H), (22, 28, ReactionLabel.WHISTLING)),
            start_offset_in_song=2, seed=4)
        session = harness.write_corpus(tmp_path / "data", [spec])[0]
        _rewrite_lines(os.path.join(session, "scores.jsonl"),
                       lambda n, line: json.loads(line)["index"] != 5)
        second_17 = []

        def first_sample_of_second_17(n, line):
            if n == 0 or not 17 <= float(line.split(",")[0]) < 18:
                return True
            second_17.append(n)
            return len(second_17) == 1

        _rewrite_lines(os.path.join(session, "imu.csv"), first_sample_of_second_17)
        assert len(second_17) == 70
        _rewrite_lines(os.path.join(session, "pitch.csv"),
                       lambda n, line: n == 0 or float(line.split(",")[0]) < 8)

        assert main(["detect", "--session", session, "--out", str(tmp_path / "out")]) == 0
        data = (tmp_path / "out" / "sess.stats.json").read_bytes()
        stats = json.loads(data)
        assert stats["vocal"]["diagnostics"] == self.VOCAL_DIAGNOSTICS
        assert stats["motion"]["diagnostics"] == self.MOTION_DIAGNOSTICS
        assert hashlib.sha256(data).hexdigest() == self.SHA256


class TestArtifactBytes:
    """The sha256 of every file the CLI writes, end to end: ``simulate`` on a
    cafe session with every reaction and a still session, then ``detect`` in
    both output modes, ``train-hmm``, ``eval --stats`` and ``recommend``.
    A refactor must leave them unchanged; a different numpy or scipy build
    may move them and needs them re-recorded."""

    SPEC = {"sessions": [
        {"session_id": "cafe", "subject_id": "u0", "song_id": "tune", "place": "cafe",
         "duration_s": 30, "start_offset_in_song": 3, "script": [
             [2, 9, "singing_humming"], [11, 19, "head_motion"], [21, 27, "whistling"]]},
        {"session_id": "still", "subject_id": "u1", "song_id": "tune", "place": "lounge",
         "activity": "still", "duration_s": 12},
    ]}

    SHA256 = {
        "data/cafe/audio.wav":
            "ab7e5390e91052ac68b0620bdb95d58658d69328c4307f4e3e96824846e51693",
        "data/cafe/imu.csv":
            "3ffe14a589515502ae6f29ebb431fa0e92cbfe0a933e4fe23bf5bc2783330d75",
        "data/cafe/labels.csv":
            "d2f7eeab4526144ad5e82b63df4f48ff5530a534a9bf62ef6d10ebfc4f878a67",
        "data/cafe/meta.json":
            "89e5a94ff2bc79ae87e572d704e5fbb4038c1ee875dbf2c0fe146590ed1e967d",
        "data/cafe/pitch.csv":
            "fdc7fe7554b63b427ae70073ce6eda89ae61f2b2d702b6a6e75b1e75a906c1a9",
        "data/cafe/scores.jsonl":
            "ed9d06ba916f107d18b5048e65d25eabbdfa68e658e2fdf650494a1c3edcc9df",
        "data/notes/tune.csv":
            "afd152711ef465a56c0242ec3d82c11791bd8381e7fb4c23303d57bee060e02f",
        "data/still/audio.wav":
            "f219320d2044786185c1a3fc1b92f6459a826bb3603bfe87b93d238ed15c9577",
        "data/still/imu.csv":
            "7615d97c217f75a2d3727cabe0b383f7853ceecc470e15674d0afe2d4ede37f4",
        "data/still/labels.csv":
            "7ee7a9eb6056e4c9a2272d5f94103d4f14b7b4d66757ae2625d393f161da8c2e",
        "data/still/meta.json":
            "b5d5fe84b5e7bb66b797a33227d81a548b7a361e95677a267353469bfcd2a6cb",
        "data/still/pitch.csv":
            "aa8384ef30ddd122986ef962527c0a47cd8e19a9103ed3af2f8d0f3956968d56",
        "data/still/scores.jsonl":
            "b44a153d550d325862cde72a035d923544c2c6d4b46fc3506350e5d0a9351ede",
        "hmm.json":
            "eeeecf6e985b2645daa88115f707678725f6d237e69c8eb842184518c44e742e",
        "out/cafe.combined.jsonl":
            "d4272c09e833d04ac08147250630a24532f1fa884e2782a63fe92899b6cb64fe",
        "out/cafe.motion.jsonl":
            "53abf3115f7a784e612f7658bd369e35ab2c2ec9d3041fb23bca157676e5a777",
        "out/cafe.stats.json":
            "801b1445f6a0a3daa1b0aef4708877cd540b01cf129a65ba6d0c2ef916910287",
        "out/cafe.vocal.jsonl":
            "1b830067c691b5b8499edf50d35c6f1652a82085580d27d31d5ff7457c9a85a3",
        "out/still.combined.jsonl":
            "e2c1d9fccf50b42d03223f995904ffe5e4a8a1f4fe2d3226b6e34b9c91c41971",
        "out/still.motion.jsonl":
            "e2c1d9fccf50b42d03223f995904ffe5e4a8a1f4fe2d3226b6e34b9c91c41971",
        "out/still.stats.json":
            "c41259013da2e6ae620f75092d817d52ebb1648c5b0dc799b9d9961db7ca7c97",
        "out/still.vocal.jsonl":
            "e2c1d9fccf50b42d03223f995904ffe5e4a8a1f4fe2d3226b6e34b9c91c41971",
        "report.json":
            "607da651e0460cbc3e501762df535ebb513d865d876aeeb43739782d2dcf871f",
        "single/cafe.jsonl":
            "d4272c09e833d04ac08147250630a24532f1fa884e2782a63fe92899b6cb64fe",
    }
    RECOMMEND_SHA256 = "91753b08f31c9025fbce7a56d7fcba1daa59f1406bebcb1a8a439992d1ef92d4"

    def test_every_written_file_has_the_recorded_bytes(self, tmp_path, monkeypatch, capsys):
        monkeypatch.delenv("MUSEREACT_CONFIG", raising=False)
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(self.SPEC))
        data, out, pool = tmp_path / "data", tmp_path / "out", tmp_path / "pool"
        hmm, report = tmp_path / "hmm.json", tmp_path / "report.json"
        single = tmp_path / "single" / "cafe.jsonl"
        for argv in (
            ["simulate", "--spec", str(spec), "--seed", "7", "--out", str(data)],
            ["detect", "--data", str(data), "--out", str(out)],
            ["detect", "--session", str(data / "cafe"), "--out", str(single)],
            ["train-hmm", "--data", str(data), "--out", str(hmm)],
            ["eval", "--pred", str(out / "cafe.vocal.jsonl"), "--task", "vocal",
             "--truth", str(data / "cafe" / "labels.csv"),
             "--stats", str(out / "cafe.stats.json"), "--report", str(report)],
        ):
            assert main(argv) == 0, argv
        pool.mkdir()
        for name in ("vocal", "motion", "combined"):
            shutil.copy(out / f"cafe.{name}.jsonl", pool / f"{name}.jsonl")
        capsys.readouterr()
        assert main(["recommend", "--pattern", str(single), "--pool", str(pool)]) == 0
        stdout = capsys.readouterr().out.encode()

        written = {
            path.relative_to(tmp_path).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(tmp_path.rglob("*"))
            if path.is_file() and path != spec and path.parent != pool}
        assert written == self.SHA256
        assert hashlib.sha256(stdout).hexdigest() == self.RECOMMEND_SHA256


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

    TRUTH = b"t_start,t_end,label\n0,5,singing_humming\n"
    PRED = b'{"label": "singing_humming", "t_end": 5.0, "t_start": 0.0}\n'

    @pytest.mark.parametrize("files, named", [
        ({"truth": b"t_start,t_end,label\n"}, "truth"),
        ({"stats": b"{not json"}, "stats"),
        ({"stats": b"[1, 2]"}, "stats"),
        ({"truth": b"\xff\xfet_start,t_end,label\n0,5,singing_humming\n"}, "truth"),
        ({"pred": b"\xff\xfe" + PRED}, "pred"),
        ({"stats": b'{"vocal": {"filtering_ratio": "lots"}}'}, "stats"),
    ], ids=["header_only_labels", "malformed_stats_json", "stats_not_object",
            "non_utf8_truth", "non_utf8_pred", "filtering_ratio_not_a_number"])
    def test_exits_2_without_traceback(self, tmp_path, capsys, files, named):
        paths = {}
        for name, data in {"truth": self.TRUTH, "pred": self.PRED, **files}.items():
            paths[name] = tmp_path / f"{name}.file"
            paths[name].write_bytes(data)
        argv = ["eval", "--pred", str(paths["pred"]), "--truth", str(paths["truth"]),
                "--task", "vocal", "--report", str(tmp_path / "r.json")]
        if "stats" in paths:
            argv += ["--stats", str(paths["stats"])]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert len(err.strip().splitlines()) == 1
        assert str(paths[named]) in err

    @pytest.mark.parametrize("ratio, code", [
        ("0", 0), ("1", 0), ("0.25", 0), ("1.5", 2), ("-0.1", 2),
        ("NaN", 2), ("true", 2), ("null", 0),
    ])
    def test_filtering_ratio_must_lie_in_unit_interval(self, tmp_path, ratio, code):
        truth, pred, stats = (tmp_path / "truth.csv", tmp_path / "pred.jsonl",
                              tmp_path / "stats.json")
        truth.write_bytes(self.TRUTH)
        pred.write_bytes(self.PRED)
        stats.write_text(f'{{"vocal": {{"filtering_ratio": {ratio}}}}}')
        argv = ["eval", "--pred", str(pred), "--truth", str(truth), "--task", "vocal",
                "--stats", str(stats), "--report", str(tmp_path / "r.json")]
        assert main(argv) == code


class TestJsonlReaders:
    """A JSON-lines file whose line nests too deep or holds an integer beyond
    float range names the file and line: exit 2, one stderr line."""

    DEEP = b"[" * 100_000 + b"\n"
    HUGE = b"1" + b"0" * 400

    @pytest.mark.parametrize("deep", [True, False], ids=["deep_nesting", "huge_integer"])
    def test_eval_pred(self, tmp_path, capsys, deep):
        truth, pred = tmp_path / "truth.csv", tmp_path / "pred.jsonl"
        truth.write_bytes(TestEvalMalformedInput.TRUTH)
        pred.write_bytes(self.DEEP if deep else (
            b'{"label": "whistling", "t_start": 0, "t_end": ' + self.HUGE + b"}\n"))
        assert main(["eval", "--pred", str(pred), "--truth", str(truth),
                     "--report", str(tmp_path / "r.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"musereact eval: error: {pred}: line 1: ")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("deep", [True, False], ids=["deep_nesting", "huge_integer"])
    def test_detect_scores(self, tmp_path, capsys, deep):
        session = small_session(tmp_path / "data")
        scores = os.path.join(session, "scores.jsonl")
        with open(scores, "rb") as fh:
            first, *rest = fh.read().splitlines(keepends=True)
        line = self.DEEP if deep else (
            b'{"index": 9, "classes": ["a", "b", "c", "d", "e"], '
            b'"scores": [1, 1, 1, 1, ' + self.HUGE + b"]}\n")
        with open(scores, "wb") as fh:
            fh.write(b"".join([first, line, *rest]))
        assert main(["detect", "--session", session, "--pipeline", "vocal",
                     "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"musereact detect: error: {scores}: line 2: ")
        assert len(err.splitlines()) == 1

    @staticmethod
    def detect_with_line_2(tmp_path, capsys, line):
        """Exit code and stderr of a vocal ``detect`` whose ``scores.jsonl``
        has ``line`` put in as line 2, with the expected error prefix."""
        session = small_session(tmp_path / "data")
        scores = os.path.join(session, "scores.jsonl")
        with open(scores, "rb") as fh:
            first, *rest = fh.read().splitlines(keepends=True)
        with open(scores, "wb") as fh:
            fh.write(b"".join([first, line, *rest]))
        code = main(["detect", "--session", session, "--pipeline", "vocal",
                     "--out", str(tmp_path / "out")])
        return code, capsys.readouterr().err, f"musereact detect: error: {scores}: line 2: "

    @pytest.mark.parametrize("index", [b"1.7", b"1.0", b"true", b'"2"', b"null", b"[1]"])
    def test_detect_scores_index_must_be_an_integer(self, tmp_path, capsys, index):
        code, err, where = self.detect_with_line_2(tmp_path, capsys, (
            b'{"index": ' + index + b', "classes": ["a", "b", "c", "d", "e"], '
            b'"scores": [1, 1, 1, 1, 1]}\n'))
        assert code == 2
        assert err == where + "index must be an integer\n"

    def test_detect_scores_index_must_not_be_negative(self, tmp_path, capsys):
        code, err, where = self.detect_with_line_2(tmp_path, capsys, (
            b'{"index": -4, "classes": ["a", "b", "c", "d", "e"], '
            b'"scores": [1, 1, 1, 1, 1]}\n'))
        assert code == 2
        assert err == where + "index must be >= 0\n"

    @pytest.mark.parametrize("command", ["detect", "train-hmm"])
    @pytest.mark.parametrize("index", [3, 99])
    def test_scores_index_outside_the_session(self, tmp_path, capsys, command, index):
        """A 3-second session has seconds 0-2; a line for any later second
        names the file, the index and the count."""
        session = small_session(tmp_path / "data")
        scores = os.path.join(session, "scores.jsonl")
        with open(scores, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"index": index, "classes": ["a", "b", "c", "d", "e"],
                                 "scores": [1, 1, 1, 1, 1]}) + "\n")
        argv = {"detect": ["detect", "--session", session, "--pipeline", "vocal",
                           "--out", str(tmp_path / "out")],
                "train-hmm": ["train-hmm", "--data", str(tmp_path / "data"),
                              "--out", str(tmp_path / "hmm.json")]}[command]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            f"musereact {command}: error: {scores}: index {index} is outside "
            f"the session's 3 whole seconds\n")

    def test_detect_scores_duplicate_class_names(self, tmp_path, capsys):
        code, err, where = self.detect_with_line_2(tmp_path, capsys, (
            b'{"index": 9, "classes": ["a", "b", "a", "d", "e"], '
            b'"scores": [1, 1, 1, 1, 1]}\n'))
        assert code == 2
        assert err == where + "class names must be unique\n"

    def test_detect_scores_overflowing_sum(self, tmp_path, capsys):
        code, err, where = self.detect_with_line_2(tmp_path, capsys, (
            b'{"index": 9, "classes": ["a", "b", "c", "d", "e"], '
            b'"scores": [1e308, 1e308, 1e308, 1e308, 1e308]}\n'))
        assert code == 2
        assert err == where + "scores must have a finite sum > 0, got inf\n"


class TestEventEndBound:
    """An event ending past ``core.MAX_SESSION_S`` is a data error naming the
    file and line, not an overflow or a huge per-second list."""

    @pytest.mark.parametrize("end", ["1e300", repr(core.MAX_SESSION_S + 0.5)])
    @pytest.mark.parametrize("reader", ["truth", "pred"])
    def test_exits_2_naming_the_line(self, tmp_path, capsys, reader, end):
        truth, pred = tmp_path / "truth.csv", tmp_path / "pred.jsonl"
        truth.write_bytes(TestEvalMalformedInput.TRUTH)
        pred.write_bytes(TestEvalMalformedInput.PRED)
        if reader == "truth":
            truth.write_text(f"t_start,t_end,label\n0,5,whistling\n5,{end},whistling\n")
            where = f"{truth}: line 3"
        else:
            pred.write_text(f'{{"label": "whistling", "t_start": 1, "t_end": {end}}}\n')
            where = f"{pred}: line 1"
        assert main(["eval", "--pred", str(pred), "--truth", str(truth),
                     "--report", str(tmp_path / "r.json")]) == 2
        assert capsys.readouterr().err == (
            f"musereact eval: error: {where}: event ends at {float(end):g} s, "
            f"past the {core.MAX_SESSION_S:g} s session-length bound\n")

    def test_end_at_the_bound_is_accepted(self, tmp_path):
        truth, pred = tmp_path / "truth.csv", tmp_path / "pred.jsonl"
        truth.write_text(f"t_start,t_end,label\n0,{core.MAX_SESSION_S:g},whistling\n")
        pred.write_bytes(TestEvalMalformedInput.PRED)
        assert main(["eval", "--pred", str(pred), "--truth", str(truth),
                     "--report", str(tmp_path / "r.json")]) == 0


class TestCorpusSpecBounds:
    """Spec values that would write into the note directory or size arrays
    past ``core.MAX_SESSION_S``, values of the wrong JSON type and unknown
    keys exit 2 with one line; nothing is written."""

    @pytest.mark.parametrize("fields, message", [
        ({"session_id": "notes"}, "session_id 'notes' names the note directory"),
        ({"duration_s": 86401}, "duration_s must lie in [1, 86400] s"),
        ({"duration_s": 10 ** 30}, "duration_s must lie in [1, 86400] s"),
        ({"start_offset_in_song": 86401},
         "start_offset_in_song must lie in [0, 86400] s"),
        ({"start_offset_in_song": 1e300}, "start_offset_in_song must be an integer"),
        ({"duration_s": 12.9}, "duration_s must be an integer"),
        ({"duration_s": "12"}, "duration_s must be an integer"),
        ({"start_offset_in_song": 2.0}, "start_offset_in_song must be an integer"),
        ({"seed": True}, "seed must be an integer"),
        ({"seed": -1}, "seed must be >= 0"),
        ({"session_id": 5}, "session_id must be a string"),
        ({"subject_id": None}, "subject_id must be a string"),
        ({"song_id": ["tune"]}, "song_id must be a string"),
        ({"place": 0}, "place must be a string"),
        ({"activity": False}, "activity must be a string"),
        ({"script": [[1.9, 4.2, "whistling"]]},
         "script must be a list of [start, end, label] spans with integer bounds"),
        ({"script": [[1, 4]]},
         "script must be a list of [start, end, label] spans with integer bounds"),
        ({"script": {"1": "whistling"}},
         "script must be a list of [start, end, label] spans with integer bounds"),
        ({"script": [[1, 4, "yodeling"]]}, "'yodeling' is not a valid ReactionLabel"),
        ({"duraton_s": 12}, "unknown session keys: duraton_s"),
    ])
    def test_exits_2_with_one_line(self, tmp_path, capsys, fields, message):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"sessions": [{"duration_s": 2, **fields}]}))
        out = tmp_path / "out"
        assert main(["simulate", "--spec", str(spec), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"musereact simulate: error: corpus spec, session 0: {message}\n")
        assert not out.exists()


def test_detect_rejects_an_hmm_without_whistling_before_writing(tmp_path, capsys):
    """Whistling never occurs in the session, yet an HMM that cannot decode it
    stops ``detect`` before any output is written."""
    session = small_session(tmp_path / "data")
    hmm = tmp_path / "hmm.json"
    HmmParams(states=(ReactionLabel.NON_REACTION, S), initial=[0.5, 0.5],
              transition=np.full((2, 2), 0.5), emission=np.full((2, 2), 0.5)).save(hmm)
    out = tmp_path / "out"
    assert main(["detect", "--session", session, "--pipeline", "vocal",
                 "--hmm", str(hmm), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "musereact detect: error: label whistling is not an HMM state\n")
    assert os.listdir(out) == []


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

    @pytest.mark.parametrize("empty", ["pattern", "pool"])
    def test_file_without_events_is_named(self, tmp_path, capsys, empty):
        event = [ReactionEvent(label=S, t_start=0.0, t_end=3.0)]
        paths = {"pattern": tmp_path / "query.jsonl",
                 "pool": tmp_path / "pool" / "song.jsonl"}
        paths["pool"].parent.mkdir()
        for name, path in paths.items():
            core.save_events_jsonl(path, [] if name == empty else event)
        code = main(["recommend", "--pattern", str(paths["pattern"]),
                     "--pool", str(paths["pool"].parent)])
        assert code == 2
        assert capsys.readouterr().err == (
            f"musereact recommend: error: {paths[empty]}: no reaction events\n")

    @pytest.mark.parametrize("top", ["0", "-3"])
    def test_top_below_one_is_usage_error(self, tmp_path, capsys, top):
        with pytest.raises(SystemExit) as err:
            main(["recommend", "--pattern", str(tmp_path / "q.jsonl"),
                  "--pool", str(tmp_path), "--top", top])
        assert err.value.code == 1
        assert "usage" in capsys.readouterr().err.lower()


def run_quietly(argv):
    """``main(argv)`` with stdout and stderr captured: (exit code, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


#: One events line: mostly well-formed, sometimes with a bad field.
EVENT_LINE = st.builds(
    lambda label, t0, length: (json.dumps(
        {"label": label, "t_start": t0, "t_end": t0 + length}) + "\n").encode(),
    st.one_of(st.sampled_from([label.value for label in ReactionLabel]),
              st.sampled_from(["", "singing", 3, None, ["head_motion"]])),
    st.integers(-2, 20), st.integers(-1, 8))

#: Bytes of a pattern or pool file: arbitrary, or lines of events.
EVENTS_FILE = st.one_of(st.binary(max_size=48),
                        st.lists(EVENT_LINE, max_size=4).map(b"".join))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(pattern=EVENTS_FILE, pool=st.lists(EVENTS_FILE, max_size=3))
def test_recommend_on_any_bytes_exits_0_or_2_with_one_line(pattern, pool):
    with tempfile.TemporaryDirectory() as tmp:
        query = os.path.join(tmp, "query.jsonl")
        pool_dir = os.path.join(tmp, "pool")
        os.mkdir(pool_dir)
        with open(query, "wb") as fh:
            fh.write(pattern)
        for k, data in enumerate(pool):
            with open(os.path.join(pool_dir, f"song{k}.jsonl"), "wb") as fh:
                fh.write(data)
        code, err = run_quietly(["recommend", "--pattern", query, "--pool", pool_dir])
    assert code in (0, 2)
    assert "Traceback" not in err
    assert len(err.splitlines()) == (0 if code == 0 else 1)


def small_session(root):
    """A written 3-second session directory (no reactions)."""
    spec = harness.SyntheticSpec("sess", "u0", "tune", "lounge", duration_s=3, seed=1)
    return harness.write_corpus(root, [spec])[0]


#: CLI reader -> (command, argv builder taking (tmp_path, path of the JSON file)).
JSON_READERS = {
    "simulate --spec": ("simulate", lambda tmp, path: [
        "simulate", "--spec", str(path), "--out", str(tmp / "out")]),
    "detect --config": ("detect", lambda tmp, path: [
        "detect", "--session", str(tmp / "s"), "--config", str(path),
        "--out", str(tmp / "out")]),
    "detect --hmm": ("detect", lambda tmp, path: [
        "detect", "--session", str(tmp / "s"), "--pipeline", "vocal",
        "--hmm", str(path), "--out", str(tmp / "out")]),
    "detect --lstm": ("detect", lambda tmp, path: [
        "detect", "--session", small_session(tmp / "data"), "--pipeline", "motion",
        "--lstm", str(path), "--out", str(tmp / "out")]),
    "detect meta.json": ("detect", lambda tmp, path: [
        "detect", "--session", str(path.parent), "--pipeline", "motion",
        "--out", str(tmp / "out")]),
    "eval --stats": ("eval", lambda tmp, path: [
        "eval", "--pred", str(tmp / "pred.jsonl"), "--truth", str(tmp / "truth.csv"),
        "--task", "vocal", "--stats", str(path), "--report", str(tmp / "r.json")]),
}


class TestJsonInputs:
    """Every JSON file the CLI reads goes through ``core.read_json``."""

    CASES = {
        "missing": (None, "file not found"),
        "not_utf8": (b"{\n\xff\xfe}\n", "line 2: not UTF-8 text"),
        "syntax": (b'{"a": \n', "line 2: Expecting value"),
        "not_object": (b"[1, 2]\n", "expected a JSON object"),
    }

    @pytest.mark.parametrize("reader", sorted(JSON_READERS))
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_names_the_file_and_exits_2(self, tmp_path, capsys, monkeypatch, reader, case):
        monkeypatch.delenv("MUSEREACT_CONFIG", raising=False)
        command, argv = JSON_READERS[reader]
        (tmp_path / "truth.csv").write_bytes(TestEvalMalformedInput.TRUTH)
        (tmp_path / "pred.jsonl").write_bytes(TestEvalMalformedInput.PRED)
        path = tmp_path / "doc" / "meta.json"  # the name the session reader needs
        path.parent.mkdir()
        data, expected = self.CASES[case]
        if data is not None:
            path.write_bytes(data)
        assert main(argv(tmp_path, path)) == 2
        assert capsys.readouterr().err == (
            f"musereact {command}: error: {path}: {expected}\n")


class TestNonObjectJson:
    """JSON documents that must be objects name the file or entry: exit 2."""

    @pytest.mark.parametrize("doc", ["[]", "5"])
    def test_meta_json(self, tmp_path, capsys, doc):
        session = small_session(tmp_path / "data")
        meta = os.path.join(session, "meta.json")
        with open(meta, "w", encoding="utf-8") as fh:
            fh.write(doc)
        assert main(["detect", "--session", session, "--pipeline", "motion",
                     "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            f"musereact detect: error: {meta}: expected a JSON object\n")

    def test_corpus_spec_entry(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text('{"sessions": [{"duration_s": 3}, 5]}')
        assert main(["simulate", "--spec", str(spec), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == (
            "musereact simulate: error: corpus spec, session 1: expected a JSON object\n")


class TestMetaJson:
    """``meta.json`` fields that name files or feed arithmetic are checked: exit 2."""

    def _detect_with_meta(self, tmp_path, without_wav=False, **fields):
        session = small_session(tmp_path / "data")
        if without_wav:
            os.remove(os.path.join(session, "audio.wav"))
        meta_path = os.path.join(session, "meta.json")
        with open(meta_path, encoding="utf-8") as fh:
            meta = json.load(fh)
        meta.update(fields)
        with open(meta_path, "w", encoding="utf-8") as fh:
            json.dump(meta, fh)
        out = tmp_path / "work" / "out"
        return main(["detect", "--session", session, "--pipeline", "motion",
                     "--out", str(out)]), meta_path, out

    @pytest.mark.parametrize("session_id", ["", ".", "..", "../x", "a/b", "a\\b", "a\0b"])
    def test_session_id_must_be_a_plain_file_name(self, tmp_path, capsys, session_id):
        code, meta_path, out = self._detect_with_meta(tmp_path, session_id=session_id)
        assert code == 2
        assert capsys.readouterr().err == (
            f"musereact detect: error: {meta_path}: session_id must be a plain file name\n")
        written = [os.path.join(root, name) for root, _, names in os.walk(tmp_path / "work")
                   for name in names]
        assert written == []

    def test_plain_session_id_names_the_outputs(self, tmp_path):
        code, _, out = self._detect_with_meta(tmp_path, session_id="..x. y")
        assert code == 0
        assert sorted(os.listdir(out)) == ["..x. y.motion.jsonl", "..x. y.stats.json"]

    @pytest.mark.parametrize("key", ["session_id", "subject_id", "song_id", "place"])
    @pytest.mark.parametrize("value", [None, 5, True, ["x"]])
    def test_ids_must_be_strings(self, tmp_path, capsys, key, value):
        code, meta_path, _ = self._detect_with_meta(tmp_path, **{key: value})
        assert code == 2
        assert capsys.readouterr().err == (
            f"musereact detect: error: {meta_path}: {key} must be a string\n")

    @pytest.mark.parametrize("value", ["x", None, True, 0, -16000, 44100.0, [44100]])
    def test_audio_rate_must_be_a_positive_integer(self, tmp_path, capsys, value):
        code, meta_path, _ = self._detect_with_meta(tmp_path, audio_rate=value)
        assert code == 2
        assert capsys.readouterr().err == (
            f"musereact detect: error: {meta_path}: audio_rate must be a positive integer\n")

    @pytest.mark.parametrize("value", ["x", None, False, float("nan"), float("inf"),
                                       10 ** 400, {"s": 1}])
    def test_start_offset_must_be_a_finite_number(self, tmp_path, capsys, value):
        code, meta_path, _ = self._detect_with_meta(tmp_path, start_offset_in_song=value)
        assert code == 2
        assert capsys.readouterr().err == (
            f"musereact detect: error: {meta_path}: "
            "start_offset_in_song must be a finite number\n")

    @pytest.mark.parametrize("fields", [{"audio_rate": 44100}, {"start_offset_in_song": -2},
                                        {"start_offset_in_song": 1.5e308}])
    def test_numbers_in_range_are_accepted(self, tmp_path, fields):
        assert self._detect_with_meta(tmp_path, **fields)[0] == 0

    def test_any_audio_rate_is_accepted_without_audio_wav(self, tmp_path):
        assert self._detect_with_meta(tmp_path, without_wav=True, audio_rate=1)[0] == 0

    @pytest.mark.parametrize("value", [16000, 44099, 1])
    def test_audio_rate_must_match_audio_wav(self, tmp_path, capsys, value):
        """The 44,100 Hz of the session's WAV header against another rate."""
        code, meta_path, _ = self._detect_with_meta(tmp_path, audio_rate=value)
        assert code == 2
        wav = os.path.join(os.path.dirname(meta_path), "audio.wav")
        assert capsys.readouterr().err == (
            f"musereact detect: error: {meta_path}: audio_rate {value} disagrees with "
            f"the 44100 Hz of {wav}\n")

    def test_audio_rate_defaults_to_the_wav_rate(self, tmp_path):
        session = small_session(tmp_path / "data")
        meta_path = os.path.join(session, "meta.json")
        with open(meta_path, encoding="utf-8") as fh:
            meta = json.load(fh)
        del meta["audio_rate"]
        with open(meta_path, "w", encoding="utf-8") as fh:
            json.dump(meta, fh)
        assert core.load_session_dir(session).audio_rate == 44100


class TestAudioWav:
    """A malformed ``audio.wav`` exits 2 with one line naming it."""

    @pytest.mark.parametrize("cut", [
        lambda wav: b"", lambda wav: b"hello",
        lambda wav: wav[:4], lambda wav: wav[:12], lambda wav: wav[:20],
        lambda wav: wav[:-1001],  # the data chunk ends early
    ], ids=["empty", "not_riff", "cut_4", "cut_12", "cut_20", "short_data"])
    def test_exits_2_with_one_line(self, tmp_path, capsys, cut):
        wav = os.path.join(small_session(tmp_path / "data"), "audio.wav")
        with open(wav, "rb") as fh:
            data = fh.read()
        with open(wav, "wb") as fh:
            fh.write(cut(data))
        assert main(["detect", "--session", os.path.dirname(wav), "--pipeline", "motion",
                     "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            f"musereact detect: error: {wav}: not a readable WAV file\n")

    def test_session_error_names_the_directory(self, tmp_path, capsys):
        """Audio 5 s longer than the 3 s of IMU: the alignment check fails."""
        session = small_session(tmp_path / "data")
        scipy.io.wavfile.write(os.path.join(session, "audio.wav"), 44100,
                               np.zeros(8 * 44100, dtype=np.int16))
        assert main(["detect", "--session", session, "--pipeline", "motion",
                     "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            f"musereact detect: error: {session}: "
            "audio and IMU spans disagree by 5.00 s (> 1 s)\n")


class TestDetectConfig:
    """A bad ``--config`` document exits 2 with one line naming the key."""

    @pytest.mark.parametrize("doc, message", [
        ({"imu_rate_hz": 70}, "unknown config keys: imu_rate_hz"),
        ({"dtw_threshold": "x"}, "dtw_threshold must be a number"),
        ({"dtw_threshold": None}, "dtw_threshold must be a number"),
        ({"singing_classes": 5}, "singing_classes must be a list of names"),
        ({"enable_correction": "no"}, "enable_correction must be true or false"),
        ({"note_window_margin_s": -1.0}, "note_window_margin_s must be >= 0"),
        ({"dtw_threshold": 130}, "dtw_threshold must lie in [0, 126) at note_window_margin_s 0.5"),
        ({"singing_classes": ["singing", "Whistling"]},
         "class 'whistling' is in both singing_classes and whistling_classes"),
    ])
    def test_exits_2_naming_the_key(self, tmp_path, capsys, doc, message):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(doc))
        assert main(["detect", "--session", str(tmp_path / "s"), "--config",
                     str(config), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"musereact detect: error: {message}\n"


@pytest.fixture(scope="module")
def three_second_session(tmp_path_factory):
    return small_session(tmp_path_factory.mktemp("data"))


JSON_VALUE = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=4)

#: Values of each config field's own JSON type, small numbers drawn often.
TYPED_VALUE = {
    "float": st.floats() | st.floats(-2.0, 200.0),
    "int": st.integers() | st.integers(-2, 10),
    "bool": st.booleans(),
    "tuple[str, ...]": st.lists(st.text(max_size=8), max_size=3),
}

#: A config document: up to three fields, each of its own type or any JSON.
CONFIG_DOC = st.lists(
    st.sampled_from(dataclasses.fields(PipelineConfig)),
    unique_by=lambda f: f.name, max_size=3,
).flatmap(lambda fields: st.fixed_dictionaries(
    {f.name: TYPED_VALUE[f.type] | JSON_VALUE for f in fields}))


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(doc=CONFIG_DOC)
def test_detect_on_any_config_exits_0_or_2_with_one_line(three_second_session, doc):
    with tempfile.TemporaryDirectory() as tmp:
        config = os.path.join(tmp, "config.json")
        with open(config, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(doc))
        err = io.StringIO()
        with contextlib.redirect_stderr(err), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["detect", "--session", three_second_session,
                         "--config", config, "--out", os.path.join(tmp, "out")])
    assert code in (0, 2)
    assert "Traceback" not in err.getvalue()
    assert len(err.getvalue().splitlines()) == 1
    assert not caught, [str(w.message) for w in caught]


def assert_one_line_outcome(command, code, err):
    """Exit 0 with the command's summary line, or exit 2 with one error line."""
    assert "Traceback" not in err
    assert code in (0, 2)
    lines = err.splitlines()
    assert len(lines) == 1, lines
    assert lines[0].startswith(f"{command}: " if code == 0
                               else f"musereact {command}: error: ")


def mostly(common, *rare):
    """Draw mostly from ``common`` (three entries in four), else from ``rare``."""
    return st.sampled_from([common, common, common, st.one_of(*rare)]).flatmap(
        lambda strategy: strategy)


def csv_bytes(header, rows):
    return ("\n".join([header, *rows]) + "\n").encode()


LABELS = [label.value for label in ReactionLabel]

#: Back-to-back events as (gap, length, label) triples, times in whole seconds.
SPANS = st.lists(st.tuples(st.integers(0, 3), st.integers(1, 6), st.sampled_from(LABELS)),
                 min_size=1, max_size=4)


def timeline(spans):
    """(t_start, t_end, label) of each span laid end to end from t = 0."""
    events, t = [], 0
    for gap, length, label in spans:
        events.append((t + gap, t + gap + length, label))
        t += gap + length
    return events


#: A labels.csv row that may be wrong in any field.
JUNK_ROW = st.tuples(
    st.integers(-2, 20).map(str) | st.sampled_from(["nan", "inf", "1e999", "x", ""]),
    st.integers(-2, 20).map(str) | st.sampled_from(["nan", "-inf", "x"]),
    st.sampled_from(LABELS + ["", "sing", "3"]),
).map(",".join)

#: Bytes of a labels.csv: mostly the header over events, sometimes with one junk
#: row, else arbitrary.
TRUTH_FILE = mostly(
    st.builds(lambda spans, junk: csv_bytes(
        "t_start,t_end,label", [f"{t0},{t1},{label}" for t0, t1, label in timeline(spans)]
        + junk), SPANS, st.lists(JUNK_ROW, max_size=1)),
    st.binary(max_size=48))

#: Bytes of an events file: well-formed events, or anything ``EVENTS_FILE`` draws.
PRED_FILE = EVENTS_FILE | SPANS.map(lambda spans: "".join(
    json.dumps({"label": label, "t_start": t0, "t_end": t1}) + "\n"
    for t0, t1, label in timeline(spans)).encode())

#: Bytes of a detect stats file: arbitrary, any JSON, or a ratio of any JSON value.
STATS_FILE = st.one_of(
    st.binary(max_size=48),
    JSON_VALUE.map(lambda value: json.dumps(value).encode()),
    st.builds(lambda key, ratio: json.dumps({key: {"filtering_ratio": ratio}}).encode(),
              st.sampled_from(["vocal", "motion"]), st.floats(0, 1) | JSON_VALUE))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(truth=TRUTH_FILE, pred=PRED_FILE, stats=st.none() | STATS_FILE,
       task=st.sampled_from(["vocal", "motion", "combined"]))
def test_eval_on_any_input_exits_0_or_2_with_one_line(truth, pred, stats, task):
    with tempfile.TemporaryDirectory() as tmp:
        argv = ["eval", "--task", task, "--report", os.path.join(tmp, "report.json")]
        for name, data in (("truth", truth), ("pred", pred), ("stats", stats)):
            if data is not None:
                path = os.path.join(tmp, name)
                with open(path, "wb") as fh:
                    fh.write(data)
                argv += [f"--{name}", path]
        code, err = run_quietly(argv)
    assert_one_line_outcome("eval", code, err)


def name_or_junk(*valid):
    """Mostly one of ``valid``, else path-like text or any JSON value."""
    return mostly(st.sampled_from(valid), st.text(alphabet="ab./\\\0", max_size=4),
                  JSON_VALUE)


#: A duration or song offset of at most 3 s, or a value that is not one.
SMALL_SECONDS = mostly(st.integers(1, 3), st.integers(-1, 0), st.sampled_from(
    [2.5, -0.5, float("nan"), float("inf"), float("-inf"), "2", "x", None, True, [2]]))

SPEC_SESSION = st.fixed_dictionaries(
    {"duration_s": SMALL_SECONDS},
    optional={
        "session_id": name_or_junk("s1", "s2", "notes"),
        "subject_id": name_or_junk("u0"),
        "song_id": name_or_junk("tune", "song00"),
        "place": name_or_junk(*harness.PLACE_PROFILES),
        "activity": name_or_junk("sedentary", "still", "exercise"),
        "start_offset_in_song": SMALL_SECONDS,
        "script": mostly(st.lists(st.tuples(st.integers(-1, 4), st.integers(-1, 4),
                                            st.sampled_from(LABELS)).map(list),
                                  max_size=2), JSON_VALUE),
        "seed": st.integers() | JSON_VALUE,
    })

#: Bytes of a corpus spec: mostly near-valid sessions, else arbitrary or any JSON.
SPEC_FILE = mostly(
    st.lists(SPEC_SESSION, max_size=2).map(
        lambda sessions: json.dumps({"sessions": sessions}).encode()),
    st.binary(max_size=48), JSON_VALUE.map(lambda value: json.dumps(value).encode()))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(spec=SPEC_FILE)
def test_simulate_on_any_spec_exits_0_or_2_with_one_line(spec):
    with tempfile.TemporaryDirectory() as tmp:
        spec_path = os.path.join(tmp, "spec.json")
        with open(spec_path, "wb") as fh:
            fh.write(spec)
        out = os.path.join(tmp, "corpus", "out")
        code, err = run_quietly(["simulate", "--spec", spec_path, "--out", out])
        written = [os.path.join(root, name) for root, _, names in os.walk(tmp)
                   for name in names]
    assert_one_line_outcome("simulate", code, err)
    assert all(path == spec_path or path.startswith(out + os.sep) for path in written)


#: Targets of each task; a table draws all its targets for one of them.
TARGETS = {"rating": ["1", "2", "3", "4", "5"], "familiarity": ["known", "unknown"]}
FEATURE_TEXT = st.floats(-3, 3).map(str) | st.sampled_from(["1e999", "nan", "x", ""])
TRAINING_HEADER = ",".join(engage.ReactionFeatures.FEATURE_NAMES) + ",target"

#: Bytes of a training CSV: mostly a header over rows of one task's targets,
#: sometimes with a junk row, else arbitrary.
TRAINING_FILE = mostly(st.builds(
    lambda header, rows, junk: csv_bytes(header, rows + junk),
    mostly(st.just(TRAINING_HEADER), st.just("x,target")),
    st.sampled_from(sorted(TARGETS)).flatmap(lambda task: st.lists(st.builds(
        lambda features, target: ",".join([*features, target]),
        st.lists(st.floats(0, 1).map(str), min_size=10, max_size=10),
        st.sampled_from(TARGETS[task])), min_size=1, max_size=8)),
    st.lists(st.builds(lambda features, target: ",".join([*features, target]),
                       st.lists(FEATURE_TEXT, max_size=11),
                       st.sampled_from(["0", "6", "2.5", "", "99999999999999999999"])),
             max_size=1)), st.binary(max_size=48))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(data=TRAINING_FILE, task=st.sampled_from(sorted(TARGETS)),
       max_depth=mostly(st.integers(1, 4), st.integers(-1, 0)),
       min_leaf=mostly(st.integers(1, 3), st.integers(-1, 0)))
def test_train_tree_on_any_table_exits_0_or_2_with_one_line(data, task, max_depth,
                                                            min_leaf):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "train.csv")
        with open(path, "wb") as fh:
            fh.write(data)
        code, err = run_quietly([
            "train-tree", "--task", task, "--data", path, "--max-depth", str(max_depth),
            "--min-leaf", str(min_leaf), "--out", os.path.join(tmp, "tree.json")])
    assert_one_line_outcome("train-tree", code, err)


@pytest.fixture(scope="module")
def hmm_corpus(tmp_path_factory):
    """A written corpus of two 3-second sessions with vocal reactions."""
    root = tmp_path_factory.mktemp("hmm_corpus")
    harness.write_corpus(root, [
        harness.SyntheticSpec(f"s{k}", "u0", "tune", "lounge", duration_s=3,
                              script=((0, 2, S),), seed=k)
        for k in range(2)])
    return root


#: One scores.jsonl line that is not a valid score vector.
JUNK_SCORE_LINE = st.one_of(
    JSON_VALUE.map(json.dumps),
    st.builds(lambda index, scores: json.dumps(
        {"index": index, "classes": ["a", "b", "c", "d", "e"], "scores": scores}),
        st.integers(-1, 3) | JSON_VALUE, st.lists(st.floats(), max_size=6) | JSON_VALUE),
    st.sampled_from(["[" * 100_000, '{"index": 0, "classes": [], "scores": [1' +
                     "0" * 400 + "]}", "{", ""]),
).map(lambda line: (line + "\n").encode())

#: A pitch.csv row that may be wrong in any field.
JUNK_PITCH_ROW = st.tuples(*[st.floats(-1, 3).map(str) | st.sampled_from(
    ["nan", "inf", "x", ""]) for _ in range(3)]).map(",".join)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(labels=mostly(st.none(), TRUTH_FILE),
       score_junk=mostly(st.none(), st.tuples(st.integers(0, 3), JUNK_SCORE_LINE)),
       pitch=mostly(st.none(), st.just(b""), st.binary(max_size=48),
                    st.lists(JUNK_PITCH_ROW, min_size=1, max_size=3).map(
                        lambda rows: csv_bytes("t,f0,confidence", rows))),
       correction=st.booleans())
@example(labels=None, score_junk=None, pitch=b"t,f0,confidence\nnan,0,0\n",
         correction=True)  # once a ValueError traceback from the pitch replay
@example(labels=None, score_junk=(0, b'{"index": 0, "classes": ["a", "b", "c", "d", "e"], '
                                     b'"scores": null}\n'),
         pitch=None, correction=False)  # once a TypeError traceback from the scores
def test_train_hmm_on_any_session_files_exits_0_or_2_with_one_line(
        hmm_corpus, labels, score_junk, pitch, correction):
    """``labels.csv``, ``scores.jsonl`` and ``pitch.csv`` of one session are
    kept, replaced or broken (``b""`` removes ``pitch.csv``)."""
    with tempfile.TemporaryDirectory() as tmp:
        data = os.path.join(tmp, "data")
        shutil.copytree(hmm_corpus, data)
        session = os.path.join(data, "s1")
        if labels is not None:
            with open(os.path.join(session, "labels.csv"), "wb") as fh:
                fh.write(labels)
        if score_junk is not None:
            at, line = score_junk
            with open(os.path.join(session, "scores.jsonl"), "rb") as fh:
                lines = fh.read().splitlines(keepends=True)
            lines[at:at + 1] = [line]
            with open(os.path.join(session, "scores.jsonl"), "wb") as fh:
                fh.write(b"".join(lines))
        if pitch == b"":
            os.remove(os.path.join(session, "pitch.csv"))
        elif pitch is not None:
            with open(os.path.join(session, "pitch.csv"), "wb") as fh:
                fh.write(pitch)
        config = os.path.join(tmp, "config.json")
        PipelineConfig().replace(dtw_threshold=30.0,
                                 enable_correction=correction).save(config)
        code, err = run_quietly(["train-hmm", "--data", data, "--config", config,
                                 "--out", os.path.join(tmp, "hmm.json")])
    assert_one_line_outcome("train-hmm", code, err)


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
