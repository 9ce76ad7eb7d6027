"""Command-line front end.

Subcommands cover the full loop: ``simulate`` fabricates corpora,
``detect`` runs the pipelines over session directories, ``eval`` scores
event files against ground truth, ``train-hmm`` / ``train-tree`` fit the
smoothing and engagement models, and ``recommend`` ranks stored reaction
patterns.

Exit codes: 0 on success, 1 for usage errors, 2 for data or configuration
errors.  All diagnostics go to stderr; result files land where the flags
say.  The ``MUSEREACT_CONFIG`` environment variable supplies a default
pipeline-config path.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import json
import os
import sys

import numpy as np

from . import core, engage, harness, motion, musicinfo, vocal
from .core import PipelineConfig, ReactionLabel

CONFIG_ENV_VAR = "MUSEREACT_CONFIG"


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on bad usage; this project reserves 2 for data
    errors, so usage problems are remapped to exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


class _UsageError(Exception):
    """Flag combinations argparse cannot catch (e.g. neither --session nor
    --data); reported like a parser error with exit code 1."""


def _log(message: str) -> None:
    print(message, file=sys.stderr)


def load_config(path: str | None) -> PipelineConfig:
    """Resolve the pipeline config: flag, then environment, then defaults."""
    if path is None:
        path = os.environ.get(CONFIG_ENV_VAR)
    if path is None:
        return PipelineConfig()
    return PipelineConfig.load(path)


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def _cmd_simulate(args) -> int:
    with open(args.spec, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise core.ParseError(f"{args.spec}: line {exc.lineno}: {exc.msg}") from None
    specs = harness.parse_corpus_spec(obj, base_seed=args.seed)
    paths = harness.write_corpus(args.out, specs)
    _log(f"simulate: wrote {len(paths)} sessions under {args.out}")
    return 0


# ---------------------------------------------------------------------------
# detect
# ---------------------------------------------------------------------------

def _session_dirs(args) -> list[str]:
    dirs = list(args.session or [])
    if args.data:
        dirs.extend(core.list_session_dirs(args.data))
    if not dirs:
        raise _UsageError("no sessions given (use --session or --data)")
    return sorted(set(os.path.normpath(d) for d in dirs))


def _notes_dir_for(session_dir: str, explicit: str | None) -> str | None:
    if explicit:
        return explicit
    candidate = os.path.join(os.path.dirname(session_dir), "notes")
    return candidate if os.path.isdir(candidate) else None


def _detect_one(session_dir: str, pipeline: str, config_text: str,
                hmm_text: str | None, lstm_path: str | None,
                notes_dir: str | None, out_dir: str,
                out_file: str | None = None) -> str:
    """Worker: run the requested pipelines over one session directory.

    With ``out_file`` set (--out pointing at a .jsonl path) only that one
    events file is written; otherwise the session's events and stats land
    as separate files under ``out_dir``.
    """
    config = PipelineConfig.from_json(config_text)
    session = core.load_session_dir(session_dir)
    stats: dict = {"session_id": session.session_id}
    vocal_result = motion_result = None

    if pipeline in ("vocal", "both"):
        classifier = vocal.ScoreFileClassifier.from_file(
            os.path.join(session_dir, "scores.jsonl"))
        pitch_path = os.path.join(session_dir, "pitch.csv")
        tracker = (vocal.FilePitchTracker.from_file(pitch_path)
                   if os.path.exists(pitch_path) else None)
        store = None
        if config.enable_correction:
            notes = _notes_dir_for(session_dir, notes_dir)
            if notes is None:
                raise core.ConfigError(
                    f"{session_dir}: correction is enabled but no note-track "
                    f"directory was found (use --notes)")
            store = musicinfo.MusicInfoStore.from_dir(notes)
        hmm = vocal.HmmParams.from_json(hmm_text) if hmm_text else None
        vocal_result = vocal.run_vocal_pipeline(
            session, classifier, pitch_tracker=tracker,
            note_store=store, hmm=hmm, config=config)
        stats["vocal"] = {
            "total_segments": vocal_result.stats.total_segments,
            "motion_filtered": vocal_result.stats.motion_filtered,
            "sound_filtered": vocal_result.stats.sound_filtered,
            "classified": vocal_result.stats.classified,
            "corrected": vocal_result.stats.corrected,
            "errors": vocal_result.stats.errors,
            "filtering_ratio": vocal_result.stats.filtering_ratio,
            "stages": vocal_result.stats.stages,
            "diagnostics": vocal_result.diagnostics,
        }

    if pipeline in ("motion", "both"):
        if lstm_path:
            seq_classifier: motion.SequenceClassifier = \
                motion.LstmClassifier.from_file(lstm_path)
        else:
            seq_classifier = motion.HeuristicMotionClassifier()
        motion_result = motion.run_motion_pipeline(session, seq_classifier, config)
        stats["motion"] = {
            "total_seconds": motion_result.stats.total_seconds,
            "prefiltered": motion_result.stats.prefiltered,
            "classified": motion_result.stats.classified,
            "cold_start": motion_result.stats.cold_start,
            "errors": motion_result.stats.errors,
            "filtering_ratio": motion_result.stats.filtering_ratio,
            "diagnostics": motion_result.diagnostics,
        }

    combined_events = None
    if vocal_result is not None and motion_result is not None:
        combined = engage.combine_timelines(
            vocal_result.labels, motion_result.labels)
        combined_events = core.merge_labels_to_events(combined)

    if out_file is not None:
        if pipeline == "vocal":
            core.save_events_jsonl(out_file, vocal_result.events)
        elif pipeline == "motion":
            core.save_events_jsonl(out_file, motion_result.events)
        else:
            core.save_events_jsonl(out_file, combined_events)
        return session.session_id

    if vocal_result is not None:
        core.save_events_jsonl(
            os.path.join(out_dir, f"{session.session_id}.vocal.jsonl"),
            vocal_result.events)
    if motion_result is not None:
        core.save_events_jsonl(
            os.path.join(out_dir, f"{session.session_id}.motion.jsonl"),
            motion_result.events)
    if combined_events is not None:
        core.save_events_jsonl(
            os.path.join(out_dir, f"{session.session_id}.combined.jsonl"),
            combined_events)
    with open(os.path.join(out_dir, f"{session.session_id}.stats.json"),
              "w", encoding="utf-8") as fh:
        fh.write(json.dumps(stats, sort_keys=True, indent=2) + "\n")
    return session.session_id


def _cmd_detect(args) -> int:
    dirs = _session_dirs(args)
    config = load_config(args.config)
    config.validate()
    out_file = args.out if args.out.endswith(".jsonl") else None
    if out_file is not None:
        if len(dirs) != 1:
            raise core.ConfigError(
                "--out pointing at a .jsonl file needs exactly one session")
        parent = os.path.dirname(out_file)
        if parent:
            os.makedirs(parent, exist_ok=True)
    else:
        os.makedirs(args.out, exist_ok=True)
    hmm_text = None
    if args.hmm:
        with open(args.hmm, "r", encoding="utf-8") as fh:
            hmm_text = fh.read()
        vocal.HmmParams.from_json(hmm_text)  # fail fast on a bad file
    work = [(d, args.pipeline, config.to_json(), hmm_text,
             args.lstm, args.notes, args.out, out_file) for d in dirs]
    if args.workers > 1:
        with concurrent.futures.ProcessPoolExecutor(args.workers) as pool:
            done = list(pool.map(_detect_one_star, work))
    else:
        done = [_detect_one(*item) for item in work]
    _log(f"detect: processed {len(done)} sessions into {args.out}")
    return 0


def _detect_one_star(item):
    return _detect_one(*item)


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

_DOMAIN_MAPS = {
    "vocal": harness.map_to_vocal_domain,
    "motion": harness.map_to_motion_domain,
    "combined": lambda labels: labels,
}


def _cmd_eval(args) -> int:
    truth_events = core.load_labels(args.truth)
    pred_events = core.load_events_jsonl(args.pred)
    if not truth_events:
        raise core.ParseError(f"{args.truth}: no labeled events")
    duration = max(e.t_end for e in truth_events)
    mapper = _DOMAIN_MAPS[args.task]
    truth = mapper(core.expand_events_to_labels(truth_events, duration))
    pred = mapper(core.expand_events_to_labels(pred_events, duration))
    ratio = None
    if args.stats:
        with open(args.stats, "r", encoding="utf-8") as fh:
            try:
                stats = json.load(fh)
            except json.JSONDecodeError as exc:
                raise core.ParseError(
                    f"{args.stats}: line {exc.lineno}: {exc.msg}") from None
        key = "vocal" if args.task == "vocal" else "motion"
        section = stats.get(key, {}) if isinstance(stats, dict) else None
        if not isinstance(section, dict):
            raise core.ParseError(
                f"{args.stats}: expected a JSON object with a {key!r} object")
        ratio = section.get("filtering_ratio")
    report = harness.evaluate(truth, pred, filtering_ratio=ratio)
    with open(args.report, "w", encoding="utf-8") as fh:
        fh.write(report.to_json())
    _log(f"eval: macro_f1={report.macro_f1:.4f} -> {args.report}")
    return 0


# ---------------------------------------------------------------------------
# train-hmm
# ---------------------------------------------------------------------------

def _cmd_train_hmm(args) -> int:
    config = load_config(args.config).replace(enable_smoothing=False)
    dirs = core.list_session_dirs(args.data)
    if not dirs:
        raise core.ConfigError(f"no session directories under {args.data}")
    pairs = []
    for session_dir in dirs:
        session = core.load_session_dir(session_dir)
        classifier = vocal.ScoreFileClassifier.from_file(
            os.path.join(session_dir, "scores.jsonl"))
        pitch_path = os.path.join(session_dir, "pitch.csv")
        tracker = (vocal.FilePitchTracker.from_file(pitch_path)
                   if os.path.exists(pitch_path) else None)
        store = None
        if config.enable_correction:
            notes = _notes_dir_for(session_dir, args.notes)
            if notes is None:
                raise core.ConfigError(
                    f"{session_dir}: correction is enabled but no note-track "
                    f"directory was found (use --notes)")
            store = musicinfo.MusicInfoStore.from_dir(notes)
        result = vocal.run_vocal_pipeline(
            session, classifier, pitch_tracker=tracker, note_store=store,
            config=config)
        truth_events = core.load_labels(os.path.join(session_dir, "labels.csv"))
        truth = harness.map_to_vocal_domain(
            core.expand_events_to_labels(truth_events, session.duration_s))
        pairs.append((truth[:len(result.observed)], result.observed))
    hmm = vocal.train_hmm(pairs)
    hmm.save(args.out)
    _log(f"train-hmm: fitted on {len(pairs)} sessions -> {args.out}")
    return 0


# ---------------------------------------------------------------------------
# train-tree
# ---------------------------------------------------------------------------

def _cmd_train_tree(args) -> int:
    features, targets = engage.load_training_csv(args.data)
    if args.task == "rating":
        try:
            ratings = np.array([int(t) for t in targets])
        except ValueError:
            raise core.ParseError(
                f"{args.data}: rating targets must be integers 1..5") from None
        tree = engage.train_rating_tree(features, ratings,
                                        args.max_depth, args.min_leaf)
    else:
        tree = engage.train_familiarity_tree(features, targets,
                                             args.max_depth, args.min_leaf)
    tree.save(args.out)
    _log(f"train-tree: {args.task} tree on {len(targets)} rows -> {args.out}")
    return 0


# ---------------------------------------------------------------------------
# recommend
# ---------------------------------------------------------------------------

def _cmd_recommend(args) -> int:
    pattern_events = core.load_events_jsonl(args.pattern)
    pattern = engage.pattern_from_events(pattern_events)
    pool = {}
    for name in sorted(os.listdir(args.pool)):
        if not name.endswith(".jsonl"):
            continue
        song_id = name[:-len(".jsonl")]
        events = core.load_events_jsonl(os.path.join(args.pool, name))
        pool[song_id] = engage.pattern_from_events(events)
    ranked = engage.recommend(pattern, pool, top_n=args.top)
    for song_id, distance in ranked:
        print(f"{song_id}\t{distance:g}")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="musereact",
                     description="Earbud music-reaction detection toolkit")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p = sub.add_parser("simulate", help="generate a synthetic corpus")
    p.add_argument("--spec", required=True, help="corpus description JSON")
    p.add_argument("--seed", type=int, default=0, help="base seed for sessions")
    p.add_argument("--out", required=True, help="output corpus directory")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("detect", help="run detection over session directories")
    p.add_argument("--session", action="append", help="session directory (repeatable)")
    p.add_argument("--data", help="corpus directory holding session subdirectories")
    p.add_argument("--pipeline", choices=("vocal", "motion", "both"), default="both")
    p.add_argument("--config", help=f"pipeline config JSON (default: ${CONFIG_ENV_VAR})")
    p.add_argument("--hmm", help="trained smoothing HMM JSON")
    p.add_argument("--lstm", help="LSTM weights JSON for the motion classifier")
    p.add_argument("--notes", help="note-track directory (default: sibling 'notes')")
    p.add_argument("--out", required=True, help="output directory for event files")
    p.add_argument("--workers", type=int, default=1,
                   help="process this many sessions in parallel")
    p.set_defaults(func=_cmd_detect)

    p = sub.add_parser("eval", help="score detected events against ground truth")
    p.add_argument("--pred", required=True, help="detected events JSONL")
    p.add_argument("--truth", required=True, help="ground-truth labels.csv")
    p.add_argument("--task", choices=tuple(_DOMAIN_MAPS), default="combined",
                   help="label domain to evaluate in")
    p.add_argument("--stats", help="detect stats JSON (adds the filtering ratio)")
    p.add_argument("--report", required=True, help="output report JSON")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("train-hmm", help="fit the smoothing HMM on a corpus")
    p.add_argument("--data", required=True, help="corpus directory")
    p.add_argument("--config", help="pipeline config JSON")
    p.add_argument("--notes", help="note-track directory")
    p.add_argument("--out", required=True, help="output HMM JSON")
    p.set_defaults(func=_cmd_train_hmm)

    p = sub.add_parser("train-tree", help="fit a rating or familiarity tree")
    p.add_argument("--task", choices=("rating", "familiarity"), required=True)
    p.add_argument("--data", required=True, help="training CSV (features + target)")
    p.add_argument("--max-depth", type=int, default=4)
    p.add_argument("--min-leaf", type=int, default=2)
    p.add_argument("--out", required=True, help="output tree JSON")
    p.set_defaults(func=_cmd_train_tree)

    p = sub.add_parser("recommend", help="rank songs by reaction-pattern similarity")
    p.add_argument("--pattern", required=True, help="query events JSONL")
    p.add_argument("--pool", required=True, help="directory of stored event JSONL files")
    p.add_argument("--top", type=int, default=5, help="how many songs to return")
    p.set_defaults(func=_cmd_recommend)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _UsageError as exc:
        parser.print_usage(sys.stderr)
        _log(f"musereact {args.command}: error: {exc}")
        return 1
    except core.Error as exc:
        _log(f"musereact {args.command}: error: {exc}")
        return 2
    except OSError as exc:
        _log(f"musereact {args.command}: error: {exc}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
