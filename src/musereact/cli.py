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
import functools
import os
import sys

import numpy as np

from . import core, engage, motion, musicinfo, vocal
from .core import PipelineConfig, Stage

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


def _int_at_least(least: int):
    """argparse type for integers that must be at least ``least``."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < least:
            raise argparse.ArgumentTypeError(f"must be >= {least}, got {value}")
        return value
    return parse


def _log(message: str) -> None:
    print(message, file=sys.stderr)


def _of_file(path: str, build, *args):
    """``build(*args)`` on data read from ``path``; its ``ParameterError`` (events
    that overlap, a bad training value) is a data error that names the file."""
    try:
        return build(*args)
    except core.ParameterError as exc:
        raise core.ParseError(f"{path}: {exc}") from None


def load_config(path: str | None) -> PipelineConfig:
    """Resolve the pipeline config: flag, then environment, then defaults."""
    if path is None:
        path = os.environ.get(CONFIG_ENV_VAR)
    return PipelineConfig() if path is None else PipelineConfig.load(path)


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def _cmd_simulate(args) -> int:
    from . import harness  # here: detect and recommend do not load the harness
    specs = harness.parse_corpus_spec(core.read_json(args.spec), base_seed=args.seed)
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
    candidate = os.path.join(os.path.dirname(session_dir), core.NOTES_DIR)
    return candidate if os.path.isdir(candidate) else None


def _vocal_inputs(session_dir: str, session: core.Session, config: PipelineConfig,
                  notes_dir: str | None):
    """The vocal pipeline's inputs for one loaded session directory.

    Returns the replayed classifier, the pitch tracker (``pitch.csv`` replayed,
    else :class:`vocal.AutocorrelationPitchTracker` on the session audio) and,
    when correction is enabled, a note store holding only the session's own
    track (else None); a missing track names the session and the directory.
    """
    path = os.path.join(session_dir, "scores.jsonl")
    scores = vocal.load_score_file(path)
    count = len(core.second_bounds(session)) - 1
    if max(scores, default=-1) >= count:
        span = os.path.join(session_dir, "imu.csv" if session.audio is None else "audio.wav")
        raise core.ParseError(
            f"{path}: index {max(scores)} is outside the {count} whole seconds of {span}")
    pitch_path = os.path.join(session_dir, "pitch.csv")
    tracker = (vocal.FilePitchTracker.from_file(pitch_path)
               if os.path.exists(pitch_path) else vocal.AutocorrelationPitchTracker())
    store = None
    if config.enable_correction:
        notes = _notes_dir_for(session_dir, notes_dir)
        if notes is None:
            raise core.ConfigError(
                f"{session_dir}: correction is enabled but no note-track "
                f"directory was found (use --notes)")
        store = musicinfo.MusicInfoStore.from_dir(notes, session.song_id)
        try:
            store.get(session.song_id)
        except core.ConfigError as exc:
            raise core.ConfigError(f"{session_dir}: {exc} in {notes}") from None
    return vocal.ScoreFileClassifier(scores), tracker, store


#: Each cascade's ``stats.json`` section: the word its diagnostics use for a
#: second, the key of the second count, and each key counting stages.
_STATS_JSON = {
    "vocal": ("segment", "total_segments", {
        "motion_filtered": (Stage.MOTION_FILTER,), "sound_filtered": (Stage.SOUND_FILTER,),
        "classified": (Stage.CLASSIFIER, Stage.CORRECTION)}),
    "motion": ("second", "total_seconds", {
        "prefiltered": (Stage.MOTION_FILTER,), "cold_start": (Stage.COLD_START,),
        "classified": (Stage.CLASSIFIER,)}),
}


def _stats_section(name: str, record: core.CascadeStats) -> dict:
    """The ``stats.json`` section of cascade ``name``, derived from its record."""
    word, total_key, counts = _STATS_JSON[name]
    section = {key: record.count(*stages) for key, stages in counts.items()}
    failures = sorted(record.failures.items())
    section.update({total_key: len(record.stages), "errors": record.errors,
                    "filtering_ratio": record.filtering_ratio,
                    "diagnostics": [f"{word} {i}: {exc}" for i, exc in failures]})
    if name == "vocal":  # corrected counts failed seconds; stages show them as errors
        section["corrected"] = record.stages.count(Stage.CORRECTION)
        section["stages"] = ["error" if i in record.failures else
                             Stage.CLASSIFIER if stage is Stage.CORRECTION else stage
                             for i, stage in enumerate(record.stages)]
    return section


def _detect_one(session_dir: str, *, pipeline: str, config: PipelineConfig,
                hmm: vocal.HmmParams | None,
                seq_classifier: motion.SequenceClassifier | None,
                notes_dir: str | None, out_dir: str, out_file: str | None) -> str:
    """Worker: run the requested pipelines over one session directory.

    With ``out_file`` set (--out pointing at a .jsonl path) only that one
    events file is written; otherwise the session's events and stats land
    as separate files under ``out_dir``.
    """
    session = core.load_session_dir(session_dir)
    results = {}
    if pipeline in ("vocal", "both"):
        classifier, tracker, store = _vocal_inputs(session_dir, session, config, notes_dir)
        results["vocal"] = vocal.run_vocal_pipeline(
            session, classifier, pitch_tracker=tracker,
            note_store=store, hmm=hmm, config=config)
    if pipeline in ("motion", "both"):
        results["motion"] = motion.run_motion_pipeline(session, seq_classifier, config)

    stats: dict = {"session_id": session.session_id}
    events = {}
    for name, result in results.items():
        stats[name] = _stats_section(name, result.stats)
        events[name] = core.merge_labels_to_events(result.labels)
    if pipeline == "both":
        events["combined"] = core.merge_labels_to_events(engage.combine_timelines(
            results["vocal"].labels, results["motion"].labels))

    if out_file is not None:
        core.save_events_jsonl(
            out_file, events["combined" if pipeline == "both" else pipeline])
        return session.session_id
    for name, named_events in events.items():
        core.save_events_jsonl(
            os.path.join(out_dir, f"{session.session_id}.{name}.jsonl"), named_events)
    core.write_text(os.path.join(out_dir, f"{session.session_id}.stats.json"),
                    core.json_document(stats))
    return session.session_id


def _cmd_detect(args) -> int:
    dirs = _session_dirs(args)
    config = load_config(args.config)
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
    hmm = vocal.HmmParams.load(args.hmm) if args.hmm else None
    seq_classifier = None  # run_motion_pipeline's default: the heuristic
    if args.lstm and args.pipeline != "vocal":
        seq_classifier = motion.LstmClassifier.from_file(args.lstm)
    detect = functools.partial(
        _detect_one, pipeline=args.pipeline, config=config, hmm=hmm,
        seq_classifier=seq_classifier, notes_dir=args.notes, out_dir=args.out,
        out_file=out_file)
    first: dict[str, str] = {}  # outputs are named by session id
    for session_dir in dirs if len(dirs) > 1 else ():
        session_id = core.session_meta(session_dir)[1]
        if first.setdefault(session_id, session_dir) != session_dir:
            raise core.ConfigError(
                f"{session_dir}: session_id {session_id!r} repeats {first[session_id]}")
    # The fork start method launches every worker up front, so never more
    # workers than sessions.
    workers = min(args.workers, len(dirs))
    if workers > 1:
        with concurrent.futures.ProcessPoolExecutor(workers) as pool:
            done = list(pool.map(detect, dirs))
    else:
        done = list(map(detect, dirs))
    _log(f"detect: processed {len(done)} sessions into {args.out}")
    return 0


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

def _cmd_eval(args) -> int:
    from . import harness
    truth_events = core.load_labels(args.truth)
    pred_events = core.load_events_jsonl(args.pred)
    if not truth_events:
        raise core.ParseError(f"{args.truth}: no labeled events")
    duration = max(e.t_end for e in truth_events)
    mapper = {"vocal": harness.map_to_vocal_domain,
              "motion": harness.map_to_motion_domain}.get(args.task, lambda labels: labels)
    truth, pred = (mapper(_of_file(path, core.expand_events_to_labels, events, duration))
                   for path, events in ((args.truth, truth_events), (args.pred, pred_events)))
    ratio = None
    if args.stats:
        key = "vocal" if args.task == "vocal" else "motion"
        section = core.read_json(args.stats).get(key, {})
        if not isinstance(section, dict):
            raise core.ParseError(
                f"{args.stats}: expected a JSON object with a {key!r} object")
        ratio = section.get("filtering_ratio")
        if ratio is not None and (
                type(ratio) not in (int, float) or not 0 <= ratio <= 1):
            raise core.ParseError(
                f"{args.stats}: filtering_ratio must be a number in [0, 1]")
    report = harness.evaluate(truth, pred, filtering_ratio=ratio)
    core.write_text(args.report, report.to_json())
    _log(f"eval: macro_f1={report.macro_f1:.4f} -> {args.report}")
    return 0


# ---------------------------------------------------------------------------
# train-hmm
# ---------------------------------------------------------------------------

def _cmd_train_hmm(args) -> int:
    from . import harness
    config = load_config(args.config)
    dirs = core.list_session_dirs(args.data)
    if not dirs:
        raise core.ConfigError(f"no session directories under {args.data}")
    pairs = []
    for session_dir in dirs:
        session = core.load_session_dir(session_dir)
        classifier, tracker, store = _vocal_inputs(session_dir, session, config, args.notes)
        result = vocal.run_vocal_pipeline(
            session, classifier, pitch_tracker=tracker, note_store=store,
            config=config)
        path = os.path.join(session_dir, "labels.csv")
        truth = _of_file(path, core.expand_events_to_labels, core.load_labels(path),
                         session.duration_s)
        pairs.append((harness.map_to_vocal_domain(truth), result.observed))
    hmm = vocal.train_hmm(pairs)
    hmm.save(args.out)
    _log(f"train-hmm: fitted on {len(pairs)} sessions -> {args.out}")
    return 0


# ---------------------------------------------------------------------------
# train-tree
# ---------------------------------------------------------------------------

def _cmd_train_tree(args) -> int:
    features, targets = engage.load_training_csv(args.data)
    train = engage.train_familiarity_tree
    if args.task == "rating":
        try:
            targets = np.array([int(t) for t in targets])
        except ValueError:
            raise core.ParseError(
                f"{args.data}: rating targets must be integers 1..5") from None
        train = engage.train_rating_tree
    tree = _of_file(args.data, train, features, targets, args.max_depth, args.min_leaf)
    tree.save(args.out)
    _log(f"train-tree: {args.task} tree on {len(targets)} rows -> {args.out}")
    return 0


# ---------------------------------------------------------------------------
# recommend
# ---------------------------------------------------------------------------

def _load_pattern(path: str) -> np.ndarray:
    pattern = engage.reaction_index_sequence(
        _of_file(path, core.expand_events_to_labels, core.load_events_jsonl(path)))
    if pattern.size == 0:
        raise core.ParseError(f"{path}: no reaction events")
    return pattern


def _cmd_recommend(args) -> int:
    pattern = _load_pattern(args.pattern)
    if not os.path.isdir(args.pool):
        if os.path.exists(args.pool):
            raise core.ConfigError(f"pool {args.pool!r} is not a directory")
        raise core.ConfigError(f"pool directory {args.pool!r} does not exist")
    pool = {name[:-len(".jsonl")]: _load_pattern(os.path.join(args.pool, name))
            for name in sorted(os.listdir(args.pool)) if name.endswith(".jsonl")}
    if not pool:
        raise core.ConfigError(f"pool directory {args.pool!r} holds no .jsonl files")
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
    p.add_argument("--workers", type=_int_at_least(1), default=1,
                   help="process this many sessions in parallel")
    p.set_defaults(func=_cmd_detect)

    p = sub.add_parser("eval", help="score detected events against ground truth")
    p.add_argument("--pred", required=True, help="detected events JSONL")
    p.add_argument("--truth", required=True, help="ground-truth labels.csv")
    p.add_argument("--task", choices=("vocal", "motion", "combined"), default="combined",
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
    p.add_argument("--max-depth", type=_int_at_least(0), default=4)
    p.add_argument("--min-leaf", type=_int_at_least(1), default=2)
    p.add_argument("--out", required=True, help="output tree JSON")
    p.set_defaults(func=_cmd_train_tree)

    p = sub.add_parser("recommend", help="rank songs by reaction-pattern similarity")
    p.add_argument("--pattern", required=True, help="query events JSONL")
    p.add_argument("--pool", required=True, help="directory of stored event JSONL files")
    p.add_argument("--top", type=_int_at_least(1), default=5,
                   help="how many songs to return")
    p.set_defaults(func=_cmd_recommend)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process; parsing leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse's usage errors (1) and --help (0)
        return exc.code
    try:
        return args.func(args)
    except _UsageError as exc:
        parser.print_usage(sys.stderr)
        _log(f"musereact {args.command}: error: {exc}")
        return 1
    except (core.Error, OSError, UnicodeDecodeError) as exc:
        _log(f"musereact {args.command}: error: {exc}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
