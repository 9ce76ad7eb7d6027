"""End-to-end tests of the command-line interface."""

import concurrent.futures
import contextlib
import dataclasses
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
import scipy.io.wavfile
from hypothesis import example, given, settings
from hypothesis import strategies as st

from musereact import cli, core, dsp, engage, harness, motion, musicinfo, vocal
from musereact.cli import main
from musereact.core import PipelineConfig, ReactionEvent, ReactionLabel
from musereact.vocal import HmmParams
from test_core import mutate_wav_header

S = ReactionLabel.SINGING_HUMMING
W = ReactionLabel.WHISTLING
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

    @pytest.mark.parametrize("sessions, repeated", [
        ([{"session_id": "a", "duration_s": 12},
          {"session_id": "a", "duration_s": 20, "activity": "still"}], "a"),
        ([{"duration_s": 2}, {"session_id": "s000", "duration_s": 2}], "s000"),
    ], ids=["given", "default"])
    def test_repeated_session_id_writes_nothing(self, tmp_path, capsys, sessions, repeated):
        """Each session is written to a directory named by its id, so a
        repeated id would overwrite a session."""
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"sessions": sessions}))
        out = tmp_path / "out"
        assert main(["simulate", "--spec", str(spec), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"musereact simulate: error: corpus spec, session 1: session_id {repeated!r} "
            "repeats session 0\n")
        assert not out.exists()


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

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_repeated_session_id_writes_nothing(self, corpus, capsys, workers):
        """Outputs are named by session id, so two directories with one id
        would overwrite each other's; detect refuses before any session runs."""
        tmp_path, data_dir, config_path = corpus
        meta = data_dir / "sess_b" / "meta.json"
        meta.write_text(meta.read_text().replace('"sess_b"', '"sess_a"'))
        out = tmp_path / "out"
        assert main(["detect", "--data", str(data_dir), "--config", str(config_path),
                     "--workers", workers, "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"musereact detect: error: {data_dir / 'sess_b'}: session_id 'sess_a' "
            f"repeats {data_dir / 'sess_a'}\n")
        assert list(out.iterdir()) == []

    def test_id_from_the_directory_name_counts(self, corpus, capsys):
        """A meta.json without session_id gives the directory's name as the id."""
        tmp_path, data_dir, config_path = corpus
        copy = tmp_path / "other" / "sess_a"
        shutil.copytree(data_dir / "sess_a", copy)
        meta = json.loads((copy / "meta.json").read_text())
        del meta["session_id"]
        (copy / "meta.json").write_text(json.dumps(meta))
        assert main(["detect", "--session", str(data_dir / "sess_a"), "--session", str(copy),
                     "--config", str(config_path), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            f"musereact detect: error: {copy}: session_id 'sess_a' "
            f"repeats {data_dir / 'sess_a'}\n")

    def test_missing_session_is_usage_error(self, tmp_path, capsys):
        code = main(["detect", "--out", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err
        assert "usage" in err.lower()

    def test_unknown_flag_rejected(self, tmp_path, capsys):
        assert main(["detect", "--out", str(tmp_path / "o"), "--frobnicate"]) == 1
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
        assert main(["detect", "--session", str(tmp_path), "--out", str(tmp_path / "o"),
                     "--workers", workers]) == 1
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
            vocal.ScoreFileClassifier(
                vocal.load_score_file(os.path.join(session_dir, "scores.jsonl"))),
            pitch_tracker=vocal.AutocorrelationPitchTracker(),
            note_store=musicinfo.MusicInfoStore.from_dir(tmp_path / "data" / "notes", "tune"))
        assert expected.stats.count(core.Stage.CORRECTION) > 0
        assert core.load_events_jsonl(out / "sess.vocal.jsonl") == (
            core.merge_labels_to_events(expected.labels))

    @pytest.mark.parametrize("pitch_csv", [True, False])
    def test_float_samples_only_for_a_tracker_that_reads_them(self, corpus, monkeypatch,
                                                              pitch_csv):
        """Stage 2 measures the PCM slice itself, so a replayed session makes
        no float samples; without ``pitch.csv`` the autocorrelation tracker
        gets them for each corrected second, once."""
        tmp_path, data_dir, config_path = corpus
        session_dir = data_dir / "sess_a"
        if not pitch_csv:
            os.remove(session_dir / "pitch.csv")
        seconds = []
        real = core.Session.audio_samples
        monkeypatch.setattr(core.Session, "audio_samples", lambda self, start, stop: (
            seconds.append(start // self.audio_rate), real(self, start, stop))[1])
        out = tmp_path / "out"
        assert main(["detect", "--session", str(session_dir), "--config", str(config_path),
                     "--out", str(out)]) == 0
        stats = json.loads((out / "sess_a.stats.json").read_text())["vocal"]
        assert stats["sound_filtered"] and stats["corrected"]
        assert len(seconds) == len(set(seconds)) == (0 if pitch_csv else stats["corrected"])

    def test_one_session_is_scanned_once(self, corpus, monkeypatch):
        """The loader checks the session, scanning the IMU arrays but not the
        int16 audio; both pipelines' checks then find it frozen and unchanged,
        and read no array."""
        tmp_path, data_dir, config_path = corpus
        session_dir = str(data_dir / "sess_a")
        samples = core.load_session_dir(session_dir).imu_t.size
        scanned = []
        real = core._all_finite

        def counting(x):
            scanned.append(x.size)
            return real(x)
        monkeypatch.setattr(core, "_all_finite", counting)
        assert main(["detect", "--session", session_dir, "--config", str(config_path),
                     "--out", str(tmp_path / "out")]) == 0
        assert scanned == [samples, 3 * samples, 3 * samples]  # imu_t, accel and gyro

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

    @pytest.mark.parametrize("section", ["[1]", "0.5", '"vocal"', "null"])
    def test_stats_section_must_be_an_object(self, tmp_path, capsys, section):
        truth, pred, stats = (tmp_path / "truth.csv", tmp_path / "pred.jsonl",
                              tmp_path / "stats.json")
        truth.write_bytes(self.TRUTH)
        pred.write_bytes(self.PRED)
        stats.write_text(f'{{"vocal": {section}}}')
        assert main(["eval", "--pred", str(pred), "--truth", str(truth), "--task", "vocal",
                     "--stats", str(stats), "--report", str(tmp_path / "r.json")]) == 2
        assert capsys.readouterr().err == (
            f"musereact eval: error: {stats}: expected a JSON object with a 'vocal' object\n")

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

    @pytest.mark.parametrize("flag", ["--pred", "--truth"])
    def test_overlapping_events_name_their_file(self, tmp_path, capsys, flag):
        files = {"--truth": (tmp_path / "truth.csv", self.TRUTH,
                             self.TRUTH + b"1,3,whistling\n"),
                 "--pred": (tmp_path / "pred.jsonl", self.PRED, self.PRED + (
                     b'{"label": "whistling", "t_end": 3.0, "t_start": 1.0}\n'))}
        for name, (path, good, overlapping) in files.items():
            path.write_bytes(overlapping if name == flag else good)
        assert main(["eval", "--pred", str(files["--pred"][0]), "--truth",
                     str(files["--truth"][0]), "--report", str(tmp_path / "r.json")]) == 2
        assert capsys.readouterr().err == (
            f"musereact eval: error: {files[flag][0]}: events overlap near t=1 "
            f"(singing_humming vs whistling)\n")


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

    @pytest.mark.parametrize("classes", [b'"Music"', b'{"a": 1, "b": 2, "c": 3, "d": 4, "e": 5}',
                                         b'["a", "b", 2.5, "d", "e"]'],
                             ids=["string", "object", "number_in_list"])
    def test_detect_scores_classes_must_be_a_list_of_names(self, tmp_path, capsys, classes):
        """Five scores with a five-letter string, an object of five keys, or
        a list with a number are refused, not read as five names."""
        code, err, where = self.detect_with_line_2(tmp_path, capsys, (
            b'{"index": 9, "classes": ' + classes + b', "scores": [1, 1, 1, 1, 1]}\n'))
        assert code == 2
        assert err == where + "classes must be a list of names\n"

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
            f"the 3 whole seconds of {os.path.join(session, 'audio.wav')}\n")

    @pytest.mark.parametrize("command", ["detect", "train-hmm"])
    @pytest.mark.parametrize("stream", ["audio.wav", "imu.csv"])
    def test_scores_index_names_the_stream_that_counts_the_seconds(
            self, tmp_path, capsys, command, stream):
        """The audio, cut from 3 s to 2.5 s (within the alignment tolerance),
        counts 2 seconds; without audio the IMU counts 3."""
        session = small_session(tmp_path / "data")
        wav = os.path.join(session, "audio.wav")
        if stream == "audio.wav":
            rate, pcm = core.read_wav(wav)
            core.write_wav(wav, rate, pcm[:len(pcm) * 5 // 6])
            count = index = 2
        else:
            os.remove(wav)
            count = index = 3
            with open(os.path.join(session, "scores.jsonl"), "a", encoding="utf-8") as fh:
                fh.write(json.dumps({"index": index, "classes": ["a", "b", "c", "d", "e"],
                                     "scores": [1, 1, 1, 1, 1]}) + "\n")
        argv = {"detect": ["detect", "--session", session, "--pipeline", "vocal",
                           "--out", str(tmp_path / "out")],
                "train-hmm": ["train-hmm", "--data", str(tmp_path / "data"),
                              "--out", str(tmp_path / "hmm.json")]}[command]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            f"musereact {command}: error: {os.path.join(session, 'scores.jsonl')}: "
            f"index {index} is outside the {count} whole seconds of "
            f"{os.path.join(session, stream)}\n")

    @pytest.mark.parametrize("score", [b"NaN", b"-1"])
    def test_detect_scores_must_be_finite_and_not_negative(self, tmp_path, capsys, score):
        code, err, where = self.detect_with_line_2(tmp_path, capsys, (
            b'{"index": 9, "classes": ["a", "b", "c", "d", "e"], '
            b'"scores": [1, 1, 1, 1, ' + score + b"]}\n"))
        assert code == 2
        assert err == where + "scores must be finite and >= 0\n"

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


def events_line(t_start: bytes, t_end: bytes) -> bytes:
    return b'{"label": "singing_humming", "t_start": ' + t_start + b', "t_end": ' + t_end + b"}\n"


class TestEventTimeType:
    """An events line's ``t_start`` and ``t_end`` are JSON numbers, typed as
    strictly as a ``scores.jsonl`` index: a bool or a string exits 2 naming
    the file, the line and the field."""

    BAD = [(b"true", b'"3"', "t_start"), (b'"0"', b"3", "t_start"),
           (b"0", b'"3"', "t_end"), (b"0", b"false", "t_end")]

    @pytest.mark.parametrize("t_start, t_end, field", BAD)
    def test_eval_pred(self, tmp_path, capsys, t_start, t_end, field):
        truth, pred = tmp_path / "truth.csv", tmp_path / "pred.jsonl"
        truth.write_bytes(TestEvalMalformedInput.TRUTH)
        pred.write_bytes(TestEvalMalformedInput.PRED + events_line(t_start, t_end))
        assert main(["eval", "--pred", str(pred), "--truth", str(truth),
                     "--report", str(tmp_path / "r.json")]) == 2
        assert capsys.readouterr().err == (
            f"musereact eval: error: {pred}: line 2: {field} must be a number\n")

    @pytest.mark.parametrize("where", ["pattern", "pool"])
    @pytest.mark.parametrize("t_start, t_end, field", BAD)
    def test_recommend(self, tmp_path, capsys, where, t_start, t_end, field):
        paths = {"pattern": tmp_path / "query.jsonl",
                 "pool": tmp_path / "pool" / "song.jsonl"}
        paths["pool"].parent.mkdir()
        for name, path in paths.items():
            path.write_bytes(events_line(t_start, t_end) if name == where
                             else events_line(b"0", b"3"))
        code = main(["recommend", "--pattern", str(paths["pattern"]),
                     "--pool", str(paths["pool"].parent)])
        assert (code, capsys.readouterr()) == (2, ("", (
            f"musereact recommend: error: {paths[where]}: line 1: {field} must be a number\n")))


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


class TestNoteTrackDirectory:
    """Correction without a note-track directory is a data error naming it."""

    def test_missing_notes_directory(self, tmp_path, capsys):
        session = small_session(tmp_path / "data")
        notes = str(tmp_path / "nowhere")
        assert main(["detect", "--session", session, "--pipeline", "vocal",
                     "--notes", notes, "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            f"musereact detect: error: note-track directory {notes!r} does not exist\n")

    def test_no_sibling_notes_directory(self, tmp_path, capsys):
        session = small_session(tmp_path / "data")
        shutil.rmtree(tmp_path / "data" / harness.NOTES_DIR)
        assert main(["detect", "--session", session, "--pipeline", "vocal",
                     "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            f"musereact detect: error: {session}: correction is enabled but no "
            "note-track directory was found (use --notes)\n")


class TestOwnNoteTrackOnly:
    """``detect`` and ``train-hmm`` read ``<notes>/<song_id>.csv`` and no other track."""

    BROKEN = "t,chroma\n0.0,13\n"

    def test_broken_track_of_another_song_is_not_read(self, tmp_path, capsys):
        session = small_session(tmp_path / "data")
        (tmp_path / "data" / harness.NOTES_DIR / "other.csv").write_text(self.BROKEN)
        out = tmp_path / "out"
        assert main(["detect", "--session", session, "--pipeline", "vocal",
                     "--out", str(out)]) == 0
        assert capsys.readouterr().err == f"detect: processed 1 sessions into {out}\n"
        hmm = tmp_path / "hmm.json"
        assert main(["train-hmm", "--data", str(tmp_path / "data"), "--out", str(hmm)]) == 0
        assert capsys.readouterr().err == f"train-hmm: fitted on 1 sessions -> {hmm}\n"

    def test_broken_own_track_names_the_file(self, tmp_path, capsys):
        session = small_session(tmp_path / "data")
        track = tmp_path / "data" / harness.NOTES_DIR / "tune.csv"
        track.write_text(self.BROKEN)
        assert main(["detect", "--session", session, "--pipeline", "vocal",
                     "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            f"musereact detect: error: {track}: line 2: chroma 13 outside 0..11\n")

    def test_nan_time_in_own_track_names_the_line(self, tmp_path, capsys):
        """``abs(nan - t) > 1e-6`` is False, so a NaN time used to pass the grid check."""
        session = small_session(tmp_path / "data")
        track = tmp_path / "data" / harness.NOTES_DIR / "tune.csv"
        track.write_text("t,chroma\n0.0,3\nnan,4\n")
        assert main(["detect", "--session", session, "--pipeline", "vocal",
                     "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            f"musereact detect: error: {track}: line 3: time nan breaks the 0.1 s grid\n")

    def test_missing_own_track_is_no_note_track(self, tmp_path, capsys):
        session = small_session(tmp_path / "data")
        notes = tmp_path / "data" / harness.NOTES_DIR
        (notes / "tune.csv").rename(notes / "other.csv")
        for argv in (["detect", "--session", session, "--pipeline", "vocal",
                      "--out", str(tmp_path / "out")],
                     ["train-hmm", "--data", str(tmp_path / "data"),
                      "--out", str(tmp_path / "hmm.json")]):
            assert main(argv) == 2
            assert capsys.readouterr().err == (
                f"musereact {argv[0]}: error: {session}: no note track for song 'tune' "
                f"in {notes}\n")


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


class TestLstmWeights:
    """``detect --lstm`` refuses weights it cannot run before any second runs."""

    def detect(self, tmp_path, weights: dict):
        session = small_session(tmp_path / "data")
        path = tmp_path / "lstm.json"
        path.write_text(json.dumps({key: np.asarray(value).tolist()
                                    for key, value in weights.items()}))
        out = tmp_path / "out"
        code = main(["detect", "--session", session, "--pipeline", "motion",
                     "--lstm", str(path), "--out", str(out)])
        return code, path, out

    def test_misshaped_matrix_names_the_file(self, tmp_path, capsys):
        weights = dataclasses.asdict(motion.LstmWeights.random(np.random.default_rng(0)))
        weights["Wf"] = weights["Wf"][:17]
        code, path, out = self.detect(tmp_path, weights)
        assert code == 2
        assert capsys.readouterr().err == (
            f"musereact detect: error: {path}: bad LSTM weight document: "
            "Wf must have shape (18, 32), got (17, 32)\n")
        assert os.listdir(out) == []

    def test_input_size_must_be_the_motion_unit_features(self, tmp_path, capsys):
        weights = motion.LstmWeights.random(np.random.default_rng(0), input_size=5)
        code, path, out = self.detect(tmp_path, dataclasses.asdict(weights))
        assert code == 2
        assert capsys.readouterr().err == (
            f"musereact detect: error: {path}: LSTM input size 5 does not match "
            "the 18 motion-unit features\n")
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

    def test_empty_corpus_is_a_data_error(self, tmp_path, capsys):
        data = tmp_path / "data"
        data.mkdir()
        assert main(["train-hmm", "--data", str(data),
                     "--out", str(tmp_path / "hmm.json")]) == 2
        assert capsys.readouterr().err == (
            f"musereact train-hmm: error: no session directories under {data}\n")

    @pytest.mark.parametrize("rows, near, labels", [
        ("0,2,singing_humming\n1,3,whistling\n", 1, "singing_humming vs whistling"),
        ("0,1,non_reaction\n1,3,singing_humming\n1,3,singing_humming\n", 1,
         "singing_humming vs singing_humming"),  # a repeated line
    ], ids=["overlap", "repeated_line"])
    def test_overlapping_labels_name_their_file(self, tmp_path, capsys, rows, near, labels):
        labels_csv = os.path.join(small_session(tmp_path / "data"), "labels.csv")
        with open(labels_csv, "w", encoding="utf-8") as fh:
            fh.write("t_start,t_end,label\n" + rows)
        assert main(["train-hmm", "--data", str(tmp_path / "data"),
                     "--out", str(tmp_path / "hmm.json")]) == 2
        assert capsys.readouterr().err == (
            f"musereact train-hmm: error: {labels_csv}: events overlap near t={near} "
            f"({labels})\n")

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


class TestCommandsLoadNoScipy:
    """The commands that need no audio front end run without importing scipy:
    ``scipy.signal`` is imported only by the resampler and the audio
    low-pass, which replayed inputs never reach; the gyro low-pass is
    scipy-free.  Nor do they load ``numpy.ma``, which ``np.median`` imports."""

    SCRIPT = ("import json, sys\n"
              "import numpy\n"
              "eager = set(sys.modules)  # numpy 1.x imports numpy.ma itself\n"
              "from musereact.cli import main\n"
              "codes = [main(argv) for argv in json.loads(sys.argv[1])]\n"
              "print(json.dumps([codes, sorted(m for m in set(sys.modules) - eager\n"
              "                                if m.split('.')[0] == 'scipy'\n"
              "                                or m.split('.')[:2] == ['numpy', 'ma'])]))\n")

    def test_detect_vocal_eval_train_and_recommend(self, corpus):
        tmp_path, data_dir, config_path = corpus
        out, pool = tmp_path / "out", tmp_path / "pool"
        pool.mkdir()
        query = [ReactionEvent(label=S, t_start=0.0, t_end=3.0),
                 ReactionEvent(label=H, t_start=5.0, t_end=8.0)]
        core.save_events_jsonl(tmp_path / "query.jsonl", query)
        core.save_events_jsonl(pool / "same.jsonl", query)
        core.save_events_jsonl(pool / "other.jsonl", query[1:])
        TestTrainTree().make_csv(tmp_path / "ratings.csv", [5, 5, 5, 1, 1, 1])
        commands = [
            ["detect", "--pipeline", "vocal", "--session", str(data_dir / "sess_a"),
             "--config", str(config_path), "--out", str(out)],
            ["eval", "--pred", str(out / "sess_a.vocal.jsonl"),
             "--truth", str(data_dir / "sess_a" / "labels.csv"), "--task", "vocal",
             "--stats", str(out / "sess_a.stats.json"), "--report", str(tmp_path / "r.json")],
            ["train-hmm", "--data", str(data_dir), "--config", str(config_path),
             "--out", str(tmp_path / "hmm.json")],
            ["train-tree", "--task", "rating", "--data", str(tmp_path / "ratings.csv"),
             "--out", str(tmp_path / "tree.json")],
            ["recommend", "--pattern", str(tmp_path / "query.jsonl"), "--pool", str(pool)],
        ]
        assert self.run(commands) == []

    def test_detect_both_pipelines_heuristic_and_lstm(self, corpus):
        tmp_path, data_dir, config_path = corpus
        lstm = tmp_path / "lstm.json"
        motion.LstmWeights.random(np.random.default_rng(0)).save(lstm)
        detect = ["detect", "--data", str(data_dir), "--config", str(config_path)]
        outs = [tmp_path / "out", tmp_path / "out_lstm"]
        assert self.run([[*detect, "--out", str(outs[0])],
                         [*detect, "--lstm", str(lstm), "--out", str(outs[1])]]) == []
        for out in outs:  # the gyro low-pass ran
            stats = json.loads((out / "sess_b.stats.json").read_text())
            assert stats["motion"]["classified"] > 0

    def run(self, commands):
        """The scipy and ``numpy.ma`` modules a fresh process loads running
        ``commands``, each of which must exit 0."""
        codes, loaded = run_script(self.SCRIPT, commands)
        assert codes == [0] * len(commands)
        return loaded

    def test_unchecked_session_duration(self):
        """``Session.duration_s`` of a session without audio that was never
        validated takes the median IMU step without ``np.median``."""
        script = ("import json, sys\n"
                  "import numpy as np\n"
                  "eager = set(sys.modules)  # numpy 1.x imports numpy.ma itself\n"
                  "from musereact.core import Session\n"
                  "t = np.arange(140) / 70.0\n"
                  "s = Session('s', 'u', 'g', 'p', t, np.zeros((140, 3)), np.zeros((140, 3)))\n"
                  "print(json.dumps([s.duration_s, sorted(m for m in set(sys.modules) - eager\n"
                  "                                       if m.split('.')[:2] == ['numpy', 'ma'])]))\n")
        duration, loaded = run_script(script, [])
        assert duration == pytest.approx(2.0) and loaded == []


class TestCommandsLoadNoHarness:
    """``detect`` and ``recommend`` run without importing ``musereact.harness``
    (and through it ``numpy.random``): ``cli`` imports it only inside
    ``simulate``, ``eval`` and ``train-hmm``, and the corpus layout's
    ``NOTES_DIR`` lives in ``core``."""

    SCRIPT = ("import json, sys\n"
              "from musereact.cli import main\n"
              "codes = [main(argv) for argv in json.loads(sys.argv[1])]\n"
              "print(json.dumps([codes, sorted(m for m in sys.modules\n"
              "                                if m.startswith('musereact.harness'))]))\n")

    def test_detect_and_recommend(self, corpus):
        tmp_path, data_dir, config_path = corpus
        pool = tmp_path / "pool"
        pool.mkdir()
        query = [ReactionEvent(label=S, t_start=0.0, t_end=3.0)]
        core.save_events_jsonl(tmp_path / "query.jsonl", query)
        core.save_events_jsonl(pool / "same.jsonl", query)
        commands = [
            ["detect", "--data", str(data_dir), "--config", str(config_path),
             "--out", str(tmp_path / "out")],
            ["recommend", "--pattern", str(tmp_path / "query.jsonl"), "--pool", str(pool)],
        ]
        codes, loaded = run_script(self.SCRIPT, commands)
        assert (codes, loaded) == ([0, 0], [])
        # the note tracks were found next to the sessions, through core.NOTES_DIR
        stats = json.loads((tmp_path / "out" / "sess_a.stats.json").read_text())
        assert stats["vocal"]["corrected"] > 0

    def test_harness_reexports_the_notes_dir(self):
        assert harness.NOTES_DIR == core.NOTES_DIR == "notes"


def run_script(script, commands, **env):
    """The JSON value a fresh ``python -c script`` prints last, given
    ``commands`` as JSON in ``argv[1]`` and this checkout's ``src`` first on
    its path."""
    env = {**os.environ, **env, "PYTHONPATH": os.pathsep.join(filter(None, [
        os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"),
        os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", script, json.dumps(commands)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


class TestMainInOneProcess:
    """``main`` builds its parser once per process.  A run of calls in one
    process exits and writes to stdout and stderr exactly as the same
    calls do each in a fresh process, usage and data errors included."""

    SCRIPT = ("import contextlib, io, json, sys\n"
              "from musereact.cli import main\n"
              "results = []\n"
              "for argv in json.loads(sys.argv[1]):\n"
              "    out, err = io.StringIO(), io.StringIO()\n"
              "    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):\n"
              "        code = main(argv)\n"
              "    results.append([code, out.getvalue(), err.getvalue()])\n"
              "print(json.dumps(results))\n")

    def run(self, commands):
        return run_script(self.SCRIPT, commands, COLUMNS="80")

    def test_calls_in_one_process_match_fresh_processes(self, corpus):
        tmp_path, data_dir, config_path = corpus
        out, pool = tmp_path / "out", tmp_path / "pool"
        pool.mkdir()
        core.save_events_jsonl(pool / "one.jsonl",
                               [ReactionEvent(label=S, t_start=0.0, t_end=3.0)])
        vocal_a = ["detect", "--pipeline", "vocal", "--session", str(data_dir / "sess_a"),
                   "--config", str(config_path), "--out", str(out)]
        commands = [
            vocal_a,
            ["detect", "--out", str(out)],  # no sessions: exit 1 from main
            ["detect", "--data", str(data_dir), "--workers", "0", "--out", str(out)],
            ["eval", "--pred", str(tmp_path / "missing.jsonl"), "--truth",
             str(data_dir / "sess_a" / "labels.csv"), "--report", str(tmp_path / "r.json")],
            ["detect", "--session", str(data_dir / "sess_b"), "--config", str(config_path),
             "--out", str(out)],
            ["recommend", "--pattern", str(out / "sess_a.vocal.jsonl"), "--pool", str(pool)],
            ["recommend", "--help"],
            vocal_a,
        ]
        together = self.run(commands)
        assert [code for code, _, _ in together] == [0, 1, 1, 2, 0, 0, 0, 0]
        assert together == [result for argv in commands for result in self.run([argv])]
        assert together[0] == together[-1]
        assert together[1][2].endswith(
            "musereact detect: error: no sessions given (use --session or --data)\n")
        assert together[2][2].endswith(
            "musereact detect: error: argument --workers: must be >= 1, got 0\n")

    def test_parser_is_built_once(self, monkeypatch, tmp_path):
        builds = []
        monkeypatch.setattr(cli, "build_parser",
                            lambda real=cli.build_parser: (builds.append(1), real())[1])
        cli._parser.cache_clear()
        try:
            for _ in range(3):
                assert main(["detect", "--out", str(tmp_path)]) == 1
        finally:
            cli._parser.cache_clear()
        assert builds == [1]


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


    @pytest.mark.parametrize("task, feature, target, message", [
        ("rating", "1e400", "5", "features must be finite"),
        ("familiarity", "nan", "known", "features must be finite"),
        ("rating", "0.5", "7", "ratings must lie in 1..5"),
        ("familiarity", "0.5", "maybe",
         "familiarity labels must be known/unknown, got ['maybe']"),
    ], ids=["inf", "nan", "rating_7", "maybe"])
    def test_bad_table_value_names_the_table(self, tmp_path, capsys, task, feature,
                                             target, message):
        path = tmp_path / "train.csv"
        path.write_text(f"{TRAINING_HEADER}\n{feature}{',0.5' * 9},{target}\n"
                        f"{'0.5,' * 10}{TARGETS[task][0]}\n")
        assert main(["train-tree", "--task", task, "--data", str(path),
                     "--out", str(tmp_path / "tree.json")]) == 2
        assert capsys.readouterr().err == (
            f"musereact train-tree: error: {path}: {message}\n")
        assert not (tmp_path / "tree.json").exists()

    @pytest.mark.parametrize("flag, value, least", [
        ("--max-depth", "-1", 0), ("--min-leaf", "0", 1), ("--min-leaf", "-3", 1)])
    def test_out_of_range_flag_is_usage_error(self, tmp_path, capsys, flag, value, least):
        path = tmp_path / "train.csv"
        self.make_csv(path, [1, 2, 3, 4, 5])
        assert main(["train-tree", "--task", "rating", "--data", str(path), flag, value,
                     "--out", str(tmp_path / "tree.json")]) == 1
        usage, *_, message = capsys.readouterr().err.splitlines()
        assert usage.startswith("usage: musereact train-tree ")
        assert message == (f"musereact train-tree: error: argument {flag}: "
                           f"must be >= {least}, got {value}")
        assert not (tmp_path / "tree.json").exists()

    def test_max_depth_0_fits_a_single_leaf(self, tmp_path):
        path, out = tmp_path / "train.csv", tmp_path / "tree.json"
        self.make_csv(path, [1, 2, 3, 4, 5, 5])
        assert main(["train-tree", "--task", "rating", "--data", str(path),
                     "--max-depth", "0", "--out", str(out)]) == 0
        assert engage.DecisionTree.load(out).root.is_leaf


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

    @pytest.mark.parametrize("overlapping", ["pattern", "pool"])
    def test_overlapping_events_name_their_file(self, tmp_path, capsys, overlapping):
        events = [ReactionEvent(label=S, t_start=0.0, t_end=3.0)]
        paths = {"pattern": tmp_path / "query.jsonl",
                 "pool": tmp_path / "pool" / "song.jsonl"}
        paths["pool"].parent.mkdir()
        for name, path in paths.items():
            core.save_events_jsonl(path, events + (
                [ReactionEvent(label=ReactionLabel.WHISTLING, t_start=1.0, t_end=2.0)]
                if name == overlapping else []))
        code = main(["recommend", "--pattern", str(paths["pattern"]),
                     "--pool", str(paths["pool"].parent)])
        assert code == 2
        assert capsys.readouterr().err == (
            f"musereact recommend: error: {paths[overlapping]}: events overlap near t=1 "
            f"(singing_humming vs whistling)\n")

    @pytest.mark.parametrize("kind", ["missing", "regular_file"])
    def test_pool_that_is_no_directory_is_named(self, tmp_path, capsys, kind):
        """A missing pool and a pool that is a file (here the query file
        itself) each get their own message naming the path."""
        query = tmp_path / "query.jsonl"
        core.save_events_jsonl(query, [ReactionEvent(label=S, t_start=0.0, t_end=3.0)])
        pool = query if kind == "regular_file" else tmp_path / "pool"
        code = main(["recommend", "--pattern", str(query), "--pool", str(pool)])
        assert code == 2
        reason = {"missing": f"pool directory {str(pool)!r} does not exist",
                  "regular_file": f"pool {str(pool)!r} is not a directory"}[kind]
        assert capsys.readouterr().err == f"musereact recommend: error: {reason}\n"

    @pytest.mark.parametrize("other", [None, "notes.txt", "song.json"])
    def test_pool_without_pattern_files_is_named(self, tmp_path, capsys, other):
        core.save_events_jsonl(tmp_path / "query.jsonl",
                               [ReactionEvent(label=S, t_start=0.0, t_end=3.0)])
        pool = tmp_path / "pool"
        pool.mkdir()
        if other:
            (pool / other).write_text("")
        code = main(["recommend", "--pattern", str(tmp_path / "query.jsonl"),
                     "--pool", str(pool)])
        assert (code, capsys.readouterr()) == (2, ("", (
            f"musereact recommend: error: pool directory {str(pool)!r} "
            f"holds no .jsonl files\n")))

    def test_directory_named_like_a_pattern_file_is_named(self, tmp_path, capsys):
        events = [ReactionEvent(label=S, t_start=0.0, t_end=3.0)]
        core.save_events_jsonl(tmp_path / "query.jsonl", events)
        pool = tmp_path / "pool"
        pool.mkdir()
        core.save_events_jsonl(pool / "a.jsonl", events)
        (pool / "x.jsonl").mkdir()
        code = main(["recommend", "--pattern", str(tmp_path / "query.jsonl"),
                     "--pool", str(pool)])
        assert (code, capsys.readouterr()) == (2, ("", (
            f"musereact recommend: error: {pool / 'x.jsonl'}: is a directory\n")))

    @pytest.mark.parametrize("top", ["0", "-3"])
    def test_top_below_one_is_usage_error(self, tmp_path, capsys, top):
        assert main(["recommend", "--pattern", str(tmp_path / "q.jsonl"),
                     "--pool", str(tmp_path), "--top", top]) == 1
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
        "syntax": (b'{"a": \n', "line 2: Expecting value at column 1"),
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

    def test_far_song_offset_reports_the_window_outside_the_track(self, tmp_path,
                                                                   monkeypatch):
        """At an offset of 1e300, ``offset + i + 1.0 == offset + i``: each
        corrected second's diagnostic says its note window lies outside the
        track, not that the window is empty."""
        monkeypatch.delenv("MUSEREACT_CONFIG", raising=False)
        spec = harness.SyntheticSpec("sess", "u0", "tune", "lounge", duration_s=5,
                                     script=((0, 5, S),), seed=1)
        session = harness.write_corpus(tmp_path / "data", [spec])[0]
        meta_path = os.path.join(session, "meta.json")
        with open(meta_path, encoding="utf-8") as fh:
            meta = json.load(fh)
        meta["start_offset_in_song"] = 1e300
        with open(meta_path, "w", encoding="utf-8") as fh:
            json.dump(meta, fh)
        out = tmp_path / "out"
        assert main(["detect", "--session", session, "--pipeline", "vocal",
                     "--out", str(out)]) == 0
        stats = json.loads((out / "sess.stats.json").read_bytes())["vocal"]
        track = musicinfo.load_note_track(tmp_path / "data" / "notes" / "tune.csv")
        failed = [i for i, stage in enumerate(stats["stages"]) if stage == "error"]
        assert failed and stats["errors"] == len(failed)
        assert stats["diagnostics"] == [
            f"segment {i}: window [1e+300, 1e+300) +/- 0.5 s lies outside the "
            f"{track.duration_s:.1f} s track 'tune'" for i in failed]

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
        lambda wav: wav[:36] + b"dat\0" + wav[40:],  # the data chunk's id is damaged
    ], ids=["empty", "not_riff", "cut_4", "cut_12", "cut_20", "short_data", "data_id"])
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

    @pytest.mark.parametrize("pcm, message", [
        (np.zeros((3 * 44100, 2), dtype=np.int16), "expected mono audio"),
        (np.full(3 * 44100, 128, dtype=np.uint8), "expected 16-bit PCM, got uint8"),
        (np.zeros(3 * 44100, dtype=np.float32), "expected 16-bit PCM, got float32"),
    ], ids=["stereo", "8_bit", "float32"])
    def test_pcm_must_be_mono_16_bit(self, tmp_path, capsys, pcm, message):
        wav = os.path.join(small_session(tmp_path / "data"), "audio.wav")
        scipy.io.wavfile.write(wav, 44100, pcm)
        assert main(["detect", "--session", os.path.dirname(wav), "--pipeline", "motion",
                     "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"musereact detect: error: {wav}: {message}\n"

    def test_imu_before_time_0_names_the_directory(self, tmp_path, capsys):
        session = small_session(tmp_path / "data")
        imu = os.path.join(session, "imu.csv")
        with open(imu, encoding="utf-8") as fh:
            header, first, *rest = fh.read().splitlines(keepends=True)
        with open(imu, "w", encoding="utf-8") as fh:
            fh.write("".join([header, "-0.01" + first[first.index(","):], *rest]))
        assert main(["detect", "--session", session, "--pipeline", "motion",
                     "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            f"musereact detect: error: {session}: IMU timestamps must start at or after 0\n")

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
    """A bad ``--config`` document exits 2 with one line naming the file and the key."""

    @pytest.mark.parametrize("doc, message", [
        ({"imu_rate_hz": 70}, "unknown config keys: imu_rate_hz"),
        ({"dtw_threshold": "x"}, "dtw_threshold must be a number"),
        ({"dtw_threshold": None}, "dtw_threshold must be a number"),
        ({"singing_classes": 5}, 'singing_classes was removed and can only be '
                                 '["singing", "humming"]; the class map is fixed with '
                                 'the classifier'),
        ({"enable_correction": "no"}, "enable_correction must be true or false"),
        ({"smoothing_window": 4}, "smoothing_window was removed and can only be 6; "
                                  "enable_smoothing false turns smoothing off"),
        ({"dtw_threshold": 130}, "dtw_threshold must lie in [0, 126)"),
        ({"singing_classes": ["singing", "Whistling"]},
         'singing_classes was removed and can only be ["singing", "humming"]; '
         'the class map is fixed with the classifier'),
        ({"enable_motion_filter": False},
         "enable_motion_filter was removed and can only be true; movement bands of "
         "[0, 1e308] (vocal_movement_low_g/high_g, motion_movement_low_g/high_g) "
         "pass every second"),
        ({"enable_sound_filter": False},
         "enable_sound_filter was removed and can only be true; a sound_db_threshold "
         "at or below db_calibration - 240 passes every second"),
        ({"enable_relaxation": False}, "enable_relaxation was removed and can only be "
                                       "true; a margin_threshold of 0 relaxes no second"),
        ({"note_window_margin_s": 0.25}, "note_window_margin_s was removed and can only "
                                         "be 0.5; tune dtw_threshold instead"),
        ({"pitch_conf_threshold": 0.7}, "pitch_conf_threshold was removed and can only "
                                        "be 0.5; tune dtw_threshold instead"),
        ({"imu_lowpass_hz": 4}, "imu_lowpass_hz was removed and can only be 5.0; "
                                "tune motion_decision_threshold instead"),
        # The value must also be of the removed field's JSON type.
        ({"enable_relaxation": 1}, "enable_relaxation was removed and can only be "
                                   "true; a margin_threshold of 0 relaxes no second"),
        ({"smoothing_window": 6.0}, "smoothing_window was removed and can only be 6; "
                                    "enable_smoothing false turns smoothing off"),
        # Removed keys are checked first, in name order; one at its fixed
        # value is dropped before the unknown-key check.
        ({"smoothing_window": 5, "enable_sound_filter": False, "imu_rate_hz": 70},
         "enable_sound_filter was removed and can only be true; a sound_db_threshold "
         "at or below db_calibration - 240 passes every second"),
        ({"smoothing_window": 6, "imu_rate_hz": 70}, "unknown config keys: imu_rate_hz"),
        # Stage 4's class map and relaxation depth are fixed with the classifier.
        ({"relax_top_k": 4}, "relax_top_k was removed and can only be 5; "
                             "a margin_threshold of 0 relaxes no second"),
        ({"relax_top_k": 5.0}, "relax_top_k was removed and can only be 5; "
                               "a margin_threshold of 0 relaxes no second"),
        ({"singing_classes": ["sing"]}, 'singing_classes was removed and can only be '
                                        '["singing", "humming"]; the class map is fixed '
                                        'with the classifier'),
        ({"whistling_classes": ["whistle", "whistling"]},
         'whistling_classes was removed and can only be ["whistling", "whistle"]; '
         'the class map is fixed with the classifier'),
        ({"ambiguous_classes": ["Speech", "Music"]},
         'ambiguous_classes was removed and can only be ["speech", "music"]; '
         'the class map is fixed with the classifier'),
        ({"relax_top_k": 5, "singing_classes": ["singing", "humming"], "imu_rate_hz": 70},
         "unknown config keys: imu_rate_hz"),
    ])
    def test_exits_2_naming_the_key(self, tmp_path, capsys, doc, message):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(doc))
        assert main(["detect", "--session", str(tmp_path / "s"), "--config",
                     str(config), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"musereact detect: error: {config}: {message}\n"


class TestOldConfigDocuments:
    """``PipelineConfig.save`` writes every field, so each document saved
    before a field was removed names it.  Such a document still loads when
    every removed key holds the behaviour that is now fixed."""

    #: The bytes ``PipelineConfig().replace(dtw_threshold=30.0).save`` wrote
    #: while the config had 19 fields, three of them stage switches.
    NINETEEN_FIELDS = (
        '{\n  "ambiguous_classes": [\n    "speech",\n    "music"\n  ],\n'
        '  "audio_lowpass_hz": 2000.0,\n  "db_calibration": 94.0,\n'
        '  "dtw_threshold": 30.0,\n  "enable_correction": true,\n'
        '  "enable_motion_filter": true,\n  "enable_relaxation": true,\n'
        '  "enable_smoothing": true,\n  "enable_sound_filter": true,\n'
        '  "margin_threshold": 0.9,\n  "motion_decision_threshold": 0.5,\n'
        '  "motion_movement_high_g": 0.114,\n  "motion_movement_low_g": 0.0092,\n'
        '  "relax_top_k": 5,\n  "singing_classes": [\n    "singing",\n'
        '    "humming"\n  ],\n  "sound_db_threshold": 49.0,\n'
        '  "vocal_movement_high_g": 0.12,\n  "vocal_movement_low_g": 0.0104,\n'
        '  "whistling_classes": [\n    "whistling",\n    "whistle"\n  ]\n}\n')

    #: The 23 fields before that: four design values that are now constants.
    TWENTY_THREE_FIELDS = {**json.loads(NINETEEN_FIELDS), "imu_lowpass_hz": 5.0,
                           "note_window_margin_s": 0.5, "pitch_conf_threshold": 0.5,
                           "smoothing_window": 6}

    #: The 16 fields after that, of which stage 4's class lists and relaxation
    #: depth are now fixed with the classifier.
    SIXTEEN_FIELDS = (
        '{\n  "ambiguous_classes": [\n    "speech",\n    "music"\n  ],\n'
        '  "audio_lowpass_hz": 2000.0,\n  "db_calibration": 94.0,\n'
        '  "dtw_threshold": 30.0,\n  "enable_correction": true,\n'
        '  "enable_smoothing": true,\n  "margin_threshold": 0.9,\n'
        '  "motion_decision_threshold": 0.5,\n  "motion_movement_high_g": 0.114,\n'
        '  "motion_movement_low_g": 0.0092,\n  "relax_top_k": 5,\n'
        '  "singing_classes": [\n    "singing",\n    "humming"\n  ],\n'
        '  "sound_db_threshold": 49.0,\n  "vocal_movement_high_g": 0.12,\n'
        '  "vocal_movement_low_g": 0.0104,\n'
        '  "whistling_classes": [\n    "whistling",\n    "whistle"\n  ]\n}\n')

    @pytest.mark.parametrize("text", [
        NINETEEN_FIELDS, core.json_document(TWENTY_THREE_FIELDS), SIXTEEN_FIELDS],
        ids=["19", "23", "16"])
    def test_detects_as_todays_document(self, corpus, capsys, text):
        tmp_path, data_dir, config_path = corpus
        old = tmp_path / "old.json"
        old.write_text(text)
        assert PipelineConfig.load(old) == PipelineConfig.load(config_path)
        written = []
        for config in (old, config_path):
            out = tmp_path / f"out_{config.stem}"
            capsys.readouterr()
            assert main(["detect", "--data", str(data_dir), "--config", str(config),
                         "--out", str(out)]) == 0
            assert capsys.readouterr().err == f"detect: processed 2 sessions into {out}\n"
            written.append({path.name: path.read_bytes() for path in sorted(out.iterdir())})
        assert written[0] == written[1] and len(written[0]) == 8

    def test_fixed_values_are_todays_constants(self):
        spelled = {key: value for key, (_, value, _) in core._REMOVED_CONFIG_KEYS.items()}
        fixed = {key: json.loads(value) for key, value in spelled.items()}
        # Messages spell each value as JSON does.
        assert spelled == {key: json.dumps(value) for key, value in fixed.items()}
        assert fixed == {
            "enable_motion_filter": True, "enable_sound_filter": True,
            "enable_relaxation": True,
            "note_window_margin_s": musicinfo.NOTE_WINDOW_MARGIN_S,
            "pitch_conf_threshold": dsp.PITCH_CONF_THRESHOLD,
            "smoothing_window": vocal.SMOOTHING_WINDOW,
            "imu_lowpass_hz": motion.GYRO_LOWPASS_HZ,
            "relax_top_k": vocal.RELAX_TOP_K,
            "singing_classes": ["singing", "humming"],
            "whistling_classes": ["whistling", "whistle"],
            "ambiguous_classes": ["speech", "music"],
        }
        assert not fixed.keys() & {f.name for f in dataclasses.fields(PipelineConfig)}
        # The class lists' shipped values are exactly stage 4's fixed class map.
        assert vocal.CLASS_MAP == {
            name: (label, defer) for key, label, defer in (
                ("singing_classes", S, False), ("whistling_classes", W, False),
                ("ambiguous_classes", S, True)) for name in fixed[key]}


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
    "bool": st.booleans(),
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
       max_depth=st.integers(0, 4), min_leaf=st.integers(1, 3))
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


#: The files ``detect --session s1`` reads, under the corpus root.
DETECT_FILES = ("s1/meta.json", "s1/imu.csv", "s1/audio.wav", "s1/scores.jsonl",
                "s1/pitch.csv", f"{harness.NOTES_DIR}/tune.csv")

#: What a byte inserted into a text file may be: a field or line break, a
#: sign, numbers out of range or not numbers, a quote, NUL, a letter, a brace.
TOKENS = (b",", b"\n", b"nan", b"-", b"1e400", b'"', b"\0", b"U", b"{")


def mutate_file(draw, data: bytes, wav: bool) -> bytes | None:
    """``data`` with one mutation drawn by ``draw``, or None to delete the
    file: a cut, a replaced byte, an inserted token, or a dropped or repeated
    line; a WAV file takes one of :func:`test_core.mutate_wav_header`'s."""
    kind = draw(st.sampled_from(["delete", "header"] if wav else
                                ["delete", "cut", "byte", "token", "drop", "repeat"]))
    if kind == "delete":
        return None
    if kind == "header":
        return bytes(mutate_wav_header(draw, bytearray(data)))
    if kind in ("drop", "repeat"):
        lines = data.splitlines(keepends=True)
        at = draw(st.integers(0, len(lines) - 1))
        lines[at:at + 1] = [] if kind == "drop" else [lines[at]] * 2
        return b"".join(lines)
    at = draw(st.integers(0, len(data) - 1))
    if kind == "cut":
        return data[:at]
    if kind == "byte":
        return data[:at] + bytes([draw(st.integers(0, 255))]) + data[at + 1:]
    return data[:at] + draw(st.sampled_from(TOKENS)) + data[at:]


def run_on_mutated_copy(draw, inputs, name, argv):
    """Copy the directory ``inputs``, mutate or delete its file ``name`` with
    :func:`mutate_file` and run ``argv(copy)``: (the copy, exit code, stderr)."""
    with tempfile.TemporaryDirectory() as tmp:
        root = os.path.join(tmp, "inputs")
        shutil.copytree(inputs, root)
        path = os.path.join(root, name)
        with open(path, "rb") as fh:
            mutated = mutate_file(draw, fh.read(), name.endswith(".wav"))
        if mutated is None:
            os.remove(path)
        else:
            with open(path, "wb") as fh:
                fh.write(mutated)
        return (root, *run_quietly(argv(root)))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(name=st.sampled_from(DETECT_FILES), data=st.data())
def test_detect_on_any_mutated_file_exits_0_or_2_naming_it(hmm_corpus, name, data):
    """One file that ``detect`` reads is mutated or deleted.  An error line
    names that file or the session directory: validation and alignment
    errors name the directory, as ``TestAudioWav`` pins."""
    root, code, err = run_on_mutated_copy(data.draw, hmm_corpus, name, lambda root: [
        "detect", "--session", os.path.join(root, "s1"), "--out", os.path.join(root, "out")])
    assert_one_line_outcome("detect", code, err)
    assert code == 0 or os.path.join(root, name) in err or os.path.join(root, "s1") in err, err


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(name=st.sampled_from(DETECT_FILES + ("s1/labels.csv",)), data=st.data())
def test_train_hmm_on_any_mutated_file_exits_0_or_2_naming_it(hmm_corpus, name, data):
    """One file of session s1 that ``train-hmm`` reads, or the note track
    both sessions share, is mutated or deleted.  An error line names that
    file or the directory holding it: s1, or the note directory, which a
    missing track's line names with the first session, s0."""
    root, code, err = run_on_mutated_copy(data.draw, hmm_corpus, name, lambda root: [
        "train-hmm", "--data", root, "--out", os.path.join(root, "hmm.json")])
    assert_one_line_outcome("train-hmm", code, err)
    assert code == 0 or os.path.dirname(os.path.join(root, name)) in err, err


@pytest.fixture(scope="module")
def eval_inputs(hmm_corpus, tmp_path_factory):
    """The files of a valid ``eval``: session s1's truth, events and stats."""
    root = tmp_path_factory.mktemp("eval_inputs")
    assert main(["detect", "--session", os.path.join(hmm_corpus, "s1"),
                 "--out", str(root)]) == 0
    shutil.copy(os.path.join(hmm_corpus, "s1", "labels.csv"), root)
    return root


#: Each file ``eval`` reads, by its flag, in :func:`eval_inputs`.
EVAL_FILES = {"--truth": "labels.csv", "--pred": "s1.combined.jsonl",
              "--stats": "s1.stats.json"}


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(flag=st.sampled_from(sorted(EVAL_FILES)), data=st.data(),
       task=st.sampled_from(["vocal", "motion", "combined"]))
def test_eval_on_any_mutated_file_exits_0_or_2_naming_it(eval_inputs, flag, data, task):
    root, code, err = run_on_mutated_copy(
        data.draw, eval_inputs, EVAL_FILES[flag], lambda root: [
            "eval", "--task", task, "--report", os.path.join(root, "report.json"),
            *[arg for pair in EVAL_FILES.items() for arg in (
                pair[0], os.path.join(root, pair[1]))]])
    assert_one_line_outcome("eval", code, err)
    assert code == 0 or os.path.join(root, EVAL_FILES[flag]) in err, err


@pytest.fixture(scope="module")
def recommend_inputs(tmp_path_factory):
    """The files of a valid ``recommend``: a query and a pool of two songs."""
    root = tmp_path_factory.mktemp("recommend_inputs")
    os.mkdir(root / "pool")
    query = [ReactionEvent(S, 0.0, 3.0), ReactionEvent(H, 5.0, 8.0)]
    core.save_events_jsonl(root / "query.jsonl", query)
    core.save_events_jsonl(root / "pool" / "near.jsonl", query[:1])
    core.save_events_jsonl(root / "pool" / "far.jsonl", [ReactionEvent(W, 1.0, 9.0)])
    return root


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(name=st.sampled_from(["query.jsonl", "pool/near.jsonl", "pool/far.jsonl"]),
       data=st.data())
def test_recommend_on_any_mutated_file_exits_0_or_2_naming_it(recommend_inputs, name,
                                                              data):
    root, code, err = run_on_mutated_copy(data.draw, recommend_inputs, name, lambda root: [
        "recommend", "--pattern", os.path.join(root, "query.jsonl"),
        "--pool", os.path.join(root, "pool")])
    if code == 0:  # recommend prints its ranking alone
        assert err == ""
    else:
        assert_one_line_outcome("recommend", code, err)
        assert os.path.join(root, name) in err, err


@pytest.fixture(scope="module")
def training_tables(tmp_path_factory):
    """A valid training table of each ``train-tree`` task, by its task."""
    root = tmp_path_factory.mktemp("training_tables")
    features = np.random.default_rng(0).uniform(0, 1, (6, 10))
    for task, targets in TARGETS.items():
        engage.save_training_csv(root / f"{task}.csv", features,
                                 [targets[i % len(targets)] for i in range(6)])
    return root


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(task=st.sampled_from(sorted(TARGETS)), data=st.data())
def test_train_tree_on_any_mutated_table_exits_0_or_2_naming_it(training_tables, task,
                                                                data):
    root, code, err = run_on_mutated_copy(
        data.draw, training_tables, f"{task}.csv", lambda root: [
            "train-tree", "--task", task, "--data", os.path.join(root, f"{task}.csv"),
            "--out", os.path.join(root, "tree.json")])
    assert_one_line_outcome("train-tree", code, err)
    assert code == 0 or os.path.join(root, f"{task}.csv") in err, err


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
