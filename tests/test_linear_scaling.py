"""Cost is linear in session length, checked by counts rather than timings.

One short synthetic session is tiled k = 1, 4 and 16 times: IMU and PCM
repeated end to end, the replayed scores, pitch and note track extended to
match, so every tile holds the same content.  For both cascades in process,
and for ``detect`` on the written session, the Python calls made inside
``musereact`` may be at most k times the count at k = 1 plus a stated
constant, and the ``tracemalloc`` peak above the loaded session at most
a·k + b bytes.  Counts and traced bytes do not depend on the machine's
speed, so a step that grows faster than the session (a per-second pass over
every second, an n×n array) fails here however fast the machine is.
"""

import dataclasses
import os
import sys
import tracemalloc

import numpy as np
import pytest

import musereact
from musereact import core, motion, vocal
from musereact.cli import main
from musereact.core import ReactionLabel
from musereact.harness import GeneratedSession, SyntheticSpec, generate_session, make_melody
from musereact.musicinfo import MusicInfoStore, NoteTrack, save_note_track

TILE_S = 12  # above the motion cascade's 7 s window, so one tile classifies
TILES = (1, 4, 16)
PACKAGE_DIR = os.path.dirname(musereact.__file__) + os.sep


@pytest.fixture(scope="module")
def tile():
    """One cafe session with singing, whistling and head motion, generated
    against a note track that repeats every tile, so the correction window
    at a tile's end reads what the next tile starts with; and its audio as
    ``int16`` PCM, as ``detect`` loads it."""
    song = "tiled"
    melody = make_melody(song, TILE_S * 10).symbols
    spec = SyntheticSpec("tiled", "subj00", song, place="cafe", duration_s=TILE_S, seed=3,
                         script=((1, 4, ReactionLabel.SINGING_HUMMING),
                                 (4, 7, ReactionLabel.WHISTLING),
                                 (8, 11, ReactionLabel.HEAD_MOTION)))
    generated = generate_session(spec, NoteTrack(song, np.concatenate([melody, melody[:20]])))
    pcm = np.round(np.clip(generated.session.audio, -1.0, 1.0) * 32767).astype(np.int16)
    return generated, pcm


def tiled(tile, k) -> GeneratedSession:
    generated, pcm = tile
    session, n = generated.session, len(generated.session.imu_t)
    melody = generated.note_track.symbols[:TILE_S * 10]
    return dataclasses.replace(
        generated,
        session=dataclasses.replace(
            session, imu_t=np.arange(k * n) / core.IMU_RATE_HZ,
            accel=np.tile(session.accel, (k, 1)), gyro=np.tile(session.gyro, (k, 1)),
            audio=np.tile(pcm, k)),
        truth=generated.truth * k,
        scores={i + j * TILE_S: v for j in range(k) for i, v in generated.scores.items()},
        pitch_f0=np.tile(generated.pitch_f0, k), pitch_conf=np.tile(generated.pitch_conf, k),
        note_track=NoteTrack(session.song_id, np.concatenate([np.tile(melody, k), melody[:20]])))


def package_calls(run) -> int:
    """Python calls into functions defined in ``musereact`` while ``run()`` runs."""
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        if event == "call" and frame.f_code.co_filename.startswith(PACKAGE_DIR):
            count += 1

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    return count


def traced_peak(run) -> int:
    """``tracemalloc`` peak while ``run()`` runs; what was allocated before is
    not traced."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def vocal_cascade(t: GeneratedSession):
    return lambda: vocal.run_vocal_pipeline(
        t.session, t.classifier(), t.pitch_tracker(),
        MusicInfoStore({t.session.song_id: t.note_track}))


def motion_cascade(t: GeneratedSession):
    return lambda: motion.run_motion_pipeline(t.session)


def detect(root):
    out = os.path.join(root, "out")
    return lambda: main(["detect", "--session", os.path.join(root, "tiled"), "--out", out])


def write(tmp_path, t: GeneratedSession, k) -> str:
    root = str(tmp_path / f"k{k}")
    t.write(os.path.join(root, "tiled"))
    os.mkdir(os.path.join(root, core.NOTES_DIR))
    save_note_track(os.path.join(root, core.NOTES_DIR, f"{t.session.song_id}.csv"),
                    t.note_track)
    return root


def loaded_bytes(root) -> int:
    session = core.load_session_dir(os.path.join(root, "tiled"))
    return sum(a.nbytes for a in (session.imu_t, session.accel, session.gyro, session.audio))


def measure(tile, tmp_path, how):
    """(calls, traced peak) per k; ``how`` is "vocal", "motion" or "detect"."""
    calls, peaks = {}, {}
    for k in TILES:
        t = tiled(tile, k)
        if how == "detect":
            root = write(tmp_path, t, k)
            run, held = detect(root), loaded_bytes(root)
        else:
            t.session.validate()
            run, held = (vocal_cascade if how == "vocal" else motion_cascade)(t), 0
        run()  # warm: lazy imports and first-call set-up count once, here
        calls[k] = package_calls(run)
        peaks[k] = traced_peak(run) - held
    return calls, peaks


#: Per run: the calls the count may exceed k times its k = 1 count by, and
#: a, b (bytes) of the peak bound a·k + b.  Measured with numpy 2.4 on
#: Python 3.11, the counts at k = 1, 4, 16 were vocal 206, 761, 2,981;
#: motion 28, 28, 43; detect 695, 2,249, 8,480.  The peaks were vocal 358,
#: 362, 380 kB (mostly stage 2's float copy of one second of PCM, 353 kB);
#: motion 119, 736, 2,501 kB; detect 378, 809, 2,767 kB.  a and b sit about
#: 25% above the line through k = 4 and 16.
BOUNDS = {
    "vocal": (50, 4_000, 440_000),
    "motion": (50, 184_000, 192_000),
    "detect": (50, 208_000, 256_000),
}


@pytest.mark.parametrize("how", sorted(BOUNDS))
def test_cost_is_linear_in_session_length(tile, tmp_path, how):
    calls, peaks = measure(tile, tmp_path, how)
    extra, a, b = BOUNDS[how]
    for k in TILES:
        assert calls[k] <= k * calls[1] + extra, (k, calls)
        assert peaks[k] <= a * k + b, (k, peaks)
