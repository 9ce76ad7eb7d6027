"""
Detecting head motion to the beat
=================================

The motion pipeline watches the gyroscope for rhythmic nodding: a
movement prefilter, a 7 s sliding window split into 100 ms motion
units of per-axis statistics, and a classifier over those units.
"""

import numpy as np

from musereact import core
from musereact.core import ReactionLabel
from musereact.harness import SyntheticSpec, evaluate, generate_session
from musereact import motion

H = ReactionLabel.HEAD_MOTION

# Forty seconds in an office, nodding along twice.
spec = SyntheticSpec(
    session_id="nod", subject_id="u1", song_id="demo_song",
    place="office", duration_s=40,
    script=((8, 20, H), (27, 36, H)),
    seed=11,
)
g = generate_session(spec)
result = motion.run_motion_pipeline(g.session)

print("truth:    ", "".join(lab.value[0] for lab in g.motion_truth))
print("detected: ", "".join(lab.value[0] for lab in result.labels))

# The window needs 7 s of history, so the first seconds are a cold
# start and always come out as non-reaction.
print(f"\ncold-start seconds: {result.stats.count(core.Stage.COLD_START)}")
print(f"prefiltered: {result.stats.count(core.Stage.MOTION_FILTER)}, "
      f"classified: {result.stats.count(core.Stage.CLASSIFIER)}")
report = evaluate(g.motion_truth, result.labels)
print(f"head-motion F1: {report.per_class[H].f1:.3f}")

# Each classified second sees a 70x18 matrix: 70 motion units, each
# summarized by max, min, mean, range, std and rms per gyro axis.
window = np.asarray(g.session.gyro[:motion.WINDOW_SAMPLES])
units = motion.extract_motion_units(window)
print(f"\nmotion-unit matrix: {units.shape}")

# A session spent sitting still never wakes the classifier at all --
# the movement prefilter removes every second.
still_spec = SyntheticSpec(
    session_id="still", subject_id="u1", song_id="demo_song",
    place="office", duration_s=30, script=(), activity="still", seed=12,
)
still_result = motion.run_motion_pipeline(generate_session(still_spec).session)
still = still_result.stats
print(f"\nstill session: {len(still.stages)} s, "
      f"filtering ratio {still.filtering_ratio:.2f}, "
      f"classifier calls {still.count(core.Stage.CLASSIFIER)}")
