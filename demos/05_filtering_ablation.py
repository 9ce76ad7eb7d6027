"""
What the correction and smoothing stages buy
============================================

Repeats the pipeline's own ablation on a noisy synthetic corpus: label
mapping alone versus the full cascade with chroma correction and HMM
smoothing.  In a chatty cafe the raw classifier confuses speech and
music with singing; the later stages claw most of that back.
"""

from musereact.core import PipelineConfig, ReactionLabel, Stage
from musereact.harness import evaluate, generate_session, make_vocal_corpus
from musereact.musicinfo import MusicInfoStore
from musereact import vocal

N = ReactionLabel.NON_REACTION
PREFILTERS = (Stage.MOTION_FILTER, Stage.SOUND_FILTER)

full_cfg = PipelineConfig().replace(dtw_threshold=30.0, enable_smoothing=False)
map_cfg = PipelineConfig().replace(  # margin 0: every top-1 maps directly
    margin_threshold=0.0, enable_correction=False, enable_smoothing=False)

truth_all, mapped_all = [], []
pairs = []          # (truth, observed) per session, for HMM training
stats_tot = stats_filt = reactions_filtered = 0
for spec in make_vocal_corpus(num_sessions=10, place="cafe", base_seed=1):
    g = generate_session(spec)
    store = MusicInfoStore({spec.song_id: g.note_track})
    r_full = vocal.run_vocal_pipeline(
        g.session, g.classifier(), pitch_tracker=g.pitch_tracker(),
        note_store=store, config=full_cfg)
    r_map = vocal.run_vocal_pipeline(g.session, g.classifier(), config=map_cfg)
    truth_all.extend(g.vocal_truth)
    mapped_all.extend(r_map.labels)
    pairs.append((g.vocal_truth, r_full.observed))
    record = r_full.stats
    stats_tot += len(record.stages)
    stats_filt += record.count(*PREFILTERS)
    reactions_filtered += sum(
        1 for i, stage in enumerate(record.stages)
        if stage in PREFILTERS
        and i not in record.failures and g.vocal_truth[i] is not N)

# Train the smoothing HMM on this corpus's own noisy outputs, then
# re-run smoothing as a second pass over the observed labels.
hmm = vocal.train_hmm(pairs)
smoothed = []
for _, observed in pairs:
    for i in range(len(observed)):
        smoothed.append(vocal.smooth(observed[max(0, i - 5):i + 1], hmm))

f_map = evaluate(truth_all, mapped_all).macro_f1
f_full = evaluate(truth_all, smoothed).macro_f1
print(f"label mapping only:            macro F1 {f_map:.3f}")
print(f"+ correction + smoothing:      macro F1 {f_full:.3f}")
print(f"improvement:                   {f_full - f_map:+.3f}")

# The prefilters are pure savings: they drop a large share of the
# seconds without ever touching a true reaction.
print(f"\nprefiltered {stats_filt} of {stats_tot} segments "
      f"(ratio {stats_filt / stats_tot:.2f}); "
      f"true reactions filtered: {reactions_filtered}")
