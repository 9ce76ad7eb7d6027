r"""# musereact

Detecting how people physically react to the music they hear -- singing or
humming along, whistling, bobbing their head -- from nothing but an earbud's
inertial sensor (70 Hz IMU) and microphone (44.1 kHz mono), and turning
those reactions into engagement signals.

## What's inside

- `musereact.core` -- the shared data model: sessions, reaction
  labels/events, the per-second record of a cascade run, the pipeline
  configuration, on-disk formats.  This package re-exports its errors,
  labels, events, `Session` and `PipelineConfig`.
- `musereact.dsp` -- signal primitives: movement/sound levels, first-order
  low-pass, polyphase resampling, 96x64 log-mel patches, pitch-class
  (chroma) conversion and DTW over chroma sequences.
- `musereact.musicinfo` -- reference melodies (note tracks) at 0.1 s
  resolution and the windowing used to line them up with a session.
- `musereact.vocal` -- the vocal cascade: movement and sound prefilters,
  sound-event classification with rank relaxation, music-aware DTW
  correction, and HMM smoothing.
- `musereact.motion` -- the head-motion pipeline: prefilter, 70x18
  motion-unit features over a sliding 7 s window, LSTM or heuristic
  sequence classifier.
- `musereact.engage` -- engagement applications: reaction feature vectors,
  CART trees for rating and familiarity, reaction-pattern recommendation.
- `musereact.harness` -- synthetic corpora with full ground truth, metrics,
  and brute-force oracles for the dynamic programs.
- `musereact.cli` -- the `musereact` command
  (simulate / detect / eval / train-hmm / train-tree / recommend).

## A minimal round trip

```python
from musereact import ReactionLabel
from musereact.harness import SyntheticSpec, generate_session
from musereact.musicinfo import MusicInfoStore
from musereact.vocal import run_vocal_pipeline

spec = SyntheticSpec(
    session_id="demo", subject_id="s0", song_id="tune", place="lounge",
    duration_s=30, script=((5, 12, ReactionLabel.SINGING_HUMMING),),
    seed=7,
)
generated = generate_session(spec)
result = run_vocal_pipeline(
    generated.session,
    classifier=generated.classifier(),
    pitch_tracker=generated.pitch_tracker(),
    note_store=MusicInfoStore({spec.song_id: generated.note_track}),
)
print(result.labels)            # one ReactionLabel per second
print(result.stats.filtering_ratio)
```

See the `demos/` directory of the repository for narrative walkthroughs of
each capability.
"""

from .core import (
    AlignmentError,
    ConfigError,
    EmptyWindowError,
    Error,
    InsufficientDataError,
    ParameterError,
    ParseError,
    PipelineConfig,
    PipelineLabel,
    ReactionEvent,
    ReactionLabel,
    Session,
)

__version__ = "0.1.0"

__all__ = [
    "AlignmentError",
    "ConfigError",
    "EmptyWindowError",
    "Error",
    "InsufficientDataError",
    "ParameterError",
    "ParseError",
    "PipelineConfig",
    "PipelineLabel",
    "ReactionEvent",
    "ReactionLabel",
    "Session",
    "__version__",
]
