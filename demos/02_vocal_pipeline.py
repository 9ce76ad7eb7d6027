"""
Detecting singing, humming and whistling
========================================

Runs the full vocal cascade on one synthetic listening session: movement
and sound prefilters, sound-event classification, least-margin
relaxation, chroma correction against the song's note track, and HMM
smoothing of the per-second labels.
"""

from musereact import core
from musereact.core import PipelineConfig, ReactionLabel
from musereact.harness import SyntheticSpec, evaluate, generate_session
from musereact.musicinfo import MusicInfoStore
from musereact import vocal

S = ReactionLabel.SINGING_HUMMING
W = ReactionLabel.WHISTLING

# A 45 s session in a quiet lounge: the subject hums along for ten
# seconds, stays quiet, then whistles a phrase near the end.
spec = SyntheticSpec(
    session_id="demo", subject_id="u0", song_id="demo_song",
    place="lounge", duration_s=45,
    script=((5, 15, S), (25, 33, W)),
    seed=7,
)
g = generate_session(spec)

# The generator hands back everything a real deployment would have: the
# recorded session, a playback classifier, a pitch tracker, and the
# note track of the song that was playing.
config = PipelineConfig().replace(dtw_threshold=30.0)
result = vocal.run_vocal_pipeline(
    g.session,
    g.classifier(),
    pitch_tracker=g.pitch_tracker(),
    note_store=MusicInfoStore({spec.song_id: g.note_track}),
    config=config,
)

print("truth:    ", "".join(lab.value[0] for lab in g.vocal_truth))
print("detected: ", "".join(lab.value[0] for lab in result.labels))

# Most quiet seconds never reach the classifier -- the prefilters drop
# them first, which is where the battery savings come from.  The result
# records the last stage each second entered; every count comes from it.
stats = result.stats
print(f"\nsegments: {len(stats.stages)}, "
      f"motion-filtered: {stats.count(core.Stage.MOTION_FILTER)}, "
      f"sound-filtered: {stats.count(core.Stage.SOUND_FILTER)}, "
      f"classified: {stats.count(core.Stage.CLASSIFIER, core.Stage.CORRECTION)}, "
      f"corrected: {stats.stages.count(core.Stage.CORRECTION)}")

print("\nevents:")
for event in core.merge_labels_to_events(result.labels):
    print(f"  {event.label.value:15s} [{event.t_start:5.1f}, {event.t_end:5.1f})")

report = evaluate(g.vocal_truth, result.labels)
print(f"\nmacro F1 vs ground truth: {report.macro_f1:.3f}")
for label, m in sorted(report.per_class.items(), key=lambda kv: kv[0].value):
    print(f"  {label.value:15s} precision {m.precision:.2f} "
          f"recall {m.recall:.2f} f1 {m.f1:.2f}")
