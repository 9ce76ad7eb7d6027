"""Evaluation harness: synthetic corpora, metrics, and brute-force oracles.

The harness closes the loop without any real recordings: `synth` fabricates
sessions (IMU, audio, classifier scores, pitch tracks, ground truth) from
compact :class:`SyntheticSpec` descriptions, `metrics` scores detector
output against ground truth, and `oracles` provides deliberately naive
reference implementations (exhaustive and cell-by-cell DTW, enumerated
Viterbi, per-step LSTM, per-frame pitch, per-second event painting, the
movement level as the norm's standard deviation) used
to validate the fast paths.
"""

from .synth import (
    NOTES_DIR,
    PLACE_PROFILES,
    PlaceProfile,
    SyntheticSpec,
    GeneratedSession,
    generate_session,
    make_melody,
    make_vocal_corpus,
    make_motion_corpus,
    make_engagement_dataset,
    parse_corpus_spec,
    write_corpus,
)
from .metrics import (
    ClassMetrics,
    EvalReport,
    evaluate,
    loso_folds,
    map_to_motion_domain,
    map_to_vocal_domain,
)
from .oracles import (dtw_loop_oracle, dtw_oracle, expand_events_loop_oracle,
                      lstm_loop_oracle, movement_level_oracle, pitch_loop_oracle,
                      viterbi_oracle)

__all__ = [
    "NOTES_DIR",
    "PLACE_PROFILES",
    "PlaceProfile",
    "SyntheticSpec",
    "GeneratedSession",
    "generate_session",
    "make_melody",
    "make_vocal_corpus",
    "make_motion_corpus",
    "make_engagement_dataset",
    "parse_corpus_spec",
    "write_corpus",
    "ClassMetrics",
    "EvalReport",
    "evaluate",
    "loso_folds",
    "map_to_motion_domain",
    "map_to_vocal_domain",
    "dtw_loop_oracle",
    "dtw_oracle",
    "expand_events_loop_oracle",
    "lstm_loop_oracle",
    "movement_level_oracle",
    "pitch_loop_oracle",
    "viterbi_oracle",
]
