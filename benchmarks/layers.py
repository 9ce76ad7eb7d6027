"""The per-layer spans and counts the traced run records.

Layers are the package's modules.  Every span is installed on the module
or class a caller resolves at call time (see ``tracer``), and is named
``<layer>.<function>`` after where the function is defined.
"""

from __future__ import annotations

import musereact.cli
import musereact.core
import musereact.dsp
import musereact.engage
import musereact.harness
import musereact.harness.synth
import musereact.motion
import musereact.musicinfo
import musereact.vocal
from musereact.core import ReactionLabel

from centroid import CentroidPatchClassifier
from tracer import Tracer


def _count_cells(key):
    def after(tracer, args, result):
        shape = getattr(args[0], "shape", (0, 0))
        tracer.counts[key] += int(shape[0]) * int(shape[1])
    return after


def _count_rejects(tracer, args, result):
    tracer.counts["vocal.correct_with_music.attempts"] += 1
    if result is ReactionLabel.NON_REACTION:
        tracer.counts["vocal.correct_with_music.rejects"] += 1


core, dsp, vocal, motion = (musereact.core, musereact.dsp,
                            musereact.vocal, musereact.motion)

#: (span name, [(owner, attribute), ...], after-hook) for the measured phase.
PROGRAM_SPANS = (
    ("cli.main", [(musereact.cli, "main")], None),
    ("core.load_session_dir", [(core, "load_session_dir")], None),
    ("core.Session.validate", [(core.Session, "validate")], None),
    ("core.save_events_jsonl", [(core, "save_events_jsonl")], None),
    ("core.segment_session", [(vocal, "segment_session"),
                              (core, "segment_session")], None),
    ("musicinfo.MusicInfoStore.from_dir",
     [(musereact.musicinfo.MusicInfoStore, "from_dir")], None),
    ("dsp.movement_level", [(dsp, "movement_level")], None),
    ("dsp.sound_level_db", [(dsp, "sound_level_db")], None),
    ("dsp.resample", [(dsp, "resample")], None),
    ("dsp.lowpass_first_order", [(dsp, "lowpass_first_order")], None),
    ("dsp.log_mel_patch", [(dsp, "log_mel_patch")], None),
    ("dsp.mel_filterbank", [(dsp, "mel_filterbank")], None),
    ("dsp.chroma_sequence", [(dsp, "chroma_sequence")], None),
    ("dsp.dtw_from_cost", [(dsp, "dtw_from_cost")],
     _count_cells("dsp.dtw_from_cost.cells")),
    ("bench.CentroidPatchClassifier.classify",
     [(CentroidPatchClassifier, "classify")], None),
    ("vocal.run_vocal_pipeline", [(vocal, "run_vocal_pipeline")], None),
    ("vocal.relax_rank", [(vocal, "relax_rank")], None),
    ("vocal.AutocorrelationPitchTracker.track",
     [(vocal.AutocorrelationPitchTracker, "track")], None),
    ("vocal.note_window", [(vocal, "note_window")], None),
    ("vocal.correct_with_music", [(vocal, "correct_with_music")], _count_rejects),
    ("vocal.smooth", [(vocal, "smooth")], None),
    ("vocal.load_score_file", [(vocal, "load_score_file")], None),
    ("vocal.FilePitchTracker.from_file",
     [(vocal.FilePitchTracker, "from_file")], None),
    ("motion.run_motion_pipeline", [(motion, "run_motion_pipeline")], None),
    ("motion.extract_motion_units", [(motion, "extract_motion_units")], None),
    ("motion.lstm_forward", [(motion, "lstm_forward")], None),
    ("motion.HeuristicMotionClassifier.classify",
     [(motion.HeuristicMotionClassifier, "classify")], None),
    ("engage.recommend", [(musereact.engage, "recommend")], None),
    ("engage.pattern_distance", [(musereact.engage, "pattern_distance")], None),
    ("engage.dtw_from_cost", [(musereact.engage, "dtw_from_cost")],
     _count_cells("engage.dtw_from_cost.cells")),
)

#: Spans of the set-up phase (the harness runs only there).
SETUP_SPANS = (
    ("harness.generate_session", [(musereact.harness.synth, "generate_session"),
                                  (musereact.harness, "generate_session")], None),
    ("harness.write_corpus", [(musereact.harness.synth, "write_corpus"),
                              (musereact.harness, "write_corpus")], None),
)

SPAN_NAMES = tuple(name for name, _, _ in PROGRAM_SPANS + SETUP_SPANS)


def install(tracer: Tracer, spans) -> Tracer:
    for name, targets, after in spans:
        for owner, attr in targets:
            tracer.wrap(owner, attr, name, after)
    return tracer


#: Per-layer metrics besides ``<span>.calls`` and ``<span>.self_ms``:
#: (name, unit, better).  Like the spans they are per operation (a session,
#: or a query on recommend_pool), except the ratios.
EXTRA_METRICS = (
    ("dsp.dtw_from_cost.cells", "count", "lower"),
    ("engage.dtw_from_cost.cells", "count", "lower"),
    ("vocal.correct_with_music.reject_ratio", "ratio", "lower"),
    ("vocal.filtering_ratio", "ratio", "higher"),
    ("motion.filtering_ratio", "ratio", "higher"),
    ("vocal.errors", "count", "lower"),
    ("motion.errors", "count", "lower"),
    ("trace.overhead_ms", "ms", "lower"),
    ("trace.overhead_pct", "%", "lower"),
)


def per_layer_catalogue() -> list[dict]:
    """Every per-layer metric as BENCHMARK.json lists it."""
    out = []
    for name in SPAN_NAMES:
        out.append({"name": f"{name}.calls", "unit": "count", "better": "lower"})
        out.append({"name": f"{name}.self_ms", "unit": "ms", "better": "lower"})
    for name, unit, better in EXTRA_METRICS:
        out.append({"name": name, "unit": unit, "better": better})
    return out
