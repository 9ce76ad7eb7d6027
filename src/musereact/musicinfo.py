"""Reference melodies (note tracks) used by the music-aware correction stage.

A note track is the melody of a song down-sampled to one chroma symbol per
0.1 s: a pitch class 0..11, or the unvoiced marker for rests.  Tracks are
stored one song per CSV file (``t,chroma`` with ``U`` for unvoiced) and the
round trip through :func:`save_note_track` / :func:`load_note_track` is
byte-identical for canonical files.  The shared :func:`core.read_csv_rows`
checks the file, header and field counts; :func:`load_note_track_rows` adds
only the note-track rules: rows on the 0.1 s grid from t = 0 (blank lines do
not count), symbols ``U`` or 0..11, and at least one row.
:func:`load_note_track` parses the file in bulk through
:func:`core.parse_csv_bulk` and :func:`core.off_grid` to the same track.
:func:`note_window` widens each second by the fixed :data:`NOTE_WINDOW_MARGIN_S`.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .core import (
    ConfigError,
    EmptyWindowError,
    ParameterError,
    ParseError,
    is_plain_file_name,
    off_grid,
    parse_csv_bulk,
    read_csv_rows,
    read_text,
    write_text,
)
from .dsp import UNVOICED, UNVOICED_COST

NOTE_HOP_S = 0.1

#: Slack, in seconds, that :func:`note_window` adds on each side of a song
#: interval to absorb tempo and alignment error.
NOTE_WINDOW_MARGIN_S = 0.5


@dataclass(frozen=True, eq=False)
class NoteTrack:
    """Chroma-per-0.1 s melody of one song."""

    song_id: str
    symbols: np.ndarray  # int array of pitch classes 0..11 or UNVOICED

    def __post_init__(self):
        symbols = np.asarray(self.symbols, dtype=int)
        if symbols.ndim != 1 or symbols.size == 0:
            raise ParameterError("note track needs a non-empty 1-D symbol array")
        if not np.all((symbols == UNVOICED) | ((symbols >= 0) & (symbols <= 11))):
            raise ParameterError("note symbols must be 0..11 or unvoiced")
        object.__setattr__(self, "symbols", symbols)

    def __len__(self) -> int:
        return len(self.symbols)

    @property
    def duration_s(self) -> float:
        return len(self.symbols) * NOTE_HOP_S


def note_window(track: NoteTrack, t0: float, t1: float) -> np.ndarray:
    """Slice of the reference melody around the song interval ``[t0, t1)``.

    The window is widened by :data:`NOTE_WINDOW_MARGIN_S` on each side to
    absorb tempo and alignment slack, then clipped to the track.  A window that
    misses the track entirely raises :class:`EmptyWindowError`.  That is checked
    before ``t1 > t0``: far along a song, ``t0 + 1.0`` may round back to ``t0``.
    """
    if t0 - NOTE_WINDOW_MARGIN_S >= track.duration_s or t1 + NOTE_WINDOW_MARGIN_S <= 0:
        raise _outside(track, t0, t1)
    if not t1 > t0:
        raise ParameterError(f"need t1 > t0, got [{t0}, {t1})")
    # Clipped before rounding: a far-off bound divides to infinity.
    first = round(min(max((t0 - NOTE_WINDOW_MARGIN_S) / NOTE_HOP_S, 0.0), len(track)))
    last = round(min(max((t1 + NOTE_WINDOW_MARGIN_S) / NOTE_HOP_S, 0.0), len(track)))
    if first >= last:
        raise _outside(track, t0, t1)
    return track.symbols[first:last].copy()


def _outside(track: NoteTrack, t0: float, t1: float) -> EmptyWindowError:
    return EmptyWindowError(f"window [{t0}, {t1}) +/- {NOTE_WINDOW_MARGIN_S} s lies outside "
                            f"the {track.duration_s:.1f} s track {track.song_id!r}")


#: Exclusive upper bound of ``PipelineConfig.dtw_threshold``: a segment's
#: DTW distance is at most ``UNVOICED_COST`` per window frame (a window
#: outnumbers its 10 pitch frames), so no higher threshold rejects.  The longest
#: window is 21 frames: 2 s of them, plus one as rounding each end adds up to half.
DTW_REACH = UNVOICED_COST * (
    math.floor((1.0 + 2.0 * NOTE_WINDOW_MARGIN_S) / NOTE_HOP_S + 1e-6) + 1.0)


def save_note_track(path: str | os.PathLike, track: NoteTrack) -> None:
    """Write the canonical ``t,chroma`` CSV (times at one decimal, ``U`` rests)."""
    write_text(path, "t,chroma\n" + "".join(
        f"{i * NOTE_HOP_S:.1f},{'U' if sym == UNVOICED else int(sym)}\n"
        for i, sym in enumerate(track.symbols)))


_NOTE_HEADER = ["t", "chroma"]


def load_note_track(path: str | os.PathLike, song_id: str | None = None) -> NoteTrack:
    """Parse a note-track CSV; ``song_id`` defaults to the file stem.

    Equal to :func:`load_note_track_rows`, whose :class:`ParseError` it
    raises.  A text with no ``-`` is parsed in bulk (:func:`core.parse_csv_bulk`,
    ``U`` read as ``UNVOICED``) and kept when its times lie on the 0.1 s grid
    from 0 (:func:`core.off_grid`) and its symbols in 0..11; anything else,
    every faulty file included, goes through the row path.
    """
    if song_id is None:
        song_id = os.path.splitext(os.path.basename(path))[0]
    text = read_text(path)
    # Without a '-' in the text, a symbol below 0 can only be a 'U' read as UNVOICED.
    table = None if "-" in text else parse_csv_bulk(
        text.replace(",U\n", f",{UNVOICED}\n"), _NOTE_HEADER, [("t", float), ("chroma", int)])
    if (table is not None and (table["chroma"] <= 11).all()
            and not off_grid(table["t"], 0.0, NOTE_HOP_S)):
        return NoteTrack(song_id=song_id, symbols=table["chroma"].copy())
    return load_note_track_rows(path, song_id)


def load_note_track_rows(path: str | os.PathLike, song_id: str) -> NoteTrack:
    """:func:`load_note_track`'s reference: one row of
    :func:`core.read_csv_rows` at a time."""
    symbols = []
    for lineno, row in read_csv_rows(path, _NOTE_HEADER):
        try:
            t = float(row[0])
        except ValueError:
            raise ParseError(f"{path}: line {lineno}: bad time {row[0]!r}") from None
        if not abs(t - len(symbols) * NOTE_HOP_S) <= 1e-6:
            raise ParseError(f"{path}: line {lineno}: time {t:g} breaks the 0.1 s grid")
        text = row[1].strip()
        if text == "U":
            symbols.append(UNVOICED)
            continue
        try:
            value = int(text)
        except ValueError:
            raise ParseError(f"{path}: line {lineno}: bad chroma {text!r}") from None
        if not 0 <= value <= 11:
            raise ParseError(f"{path}: line {lineno}: chroma {value} outside 0..11")
        symbols.append(value)
    if not symbols:
        raise ParseError(f"{path}: track holds no symbols")
    return NoteTrack(song_id=song_id, symbols=np.array(symbols, dtype=int))


class MusicInfoStore:
    """Lookup table from song id to :class:`NoteTrack`."""

    def __init__(self, tracks: dict[str, NoteTrack] | None = None):
        self._tracks: dict[str, NoteTrack] = dict(tracks or {})

    @classmethod
    def from_dir(cls, path: str | os.PathLike, song_id: str) -> "MusicInfoStore":
        """The store holding ``<path>/<song_id>.csv``, or no track when that
        file does not exist or ``song_id`` is no plain file name."""
        if not os.path.isdir(path):
            raise ConfigError(f"note-track directory {path!r} does not exist")
        track_path = os.path.join(path, f"{song_id}.csv")
        if not (is_plain_file_name(song_id) and os.path.isfile(track_path)):
            return cls()
        return cls({song_id: load_note_track(track_path, song_id)})

    def add(self, track: NoteTrack) -> None:
        self._tracks[track.song_id] = track

    def get(self, song_id: str) -> NoteTrack:
        try:
            return self._tracks[song_id]
        except KeyError:
            raise ConfigError(f"no note track for song {song_id!r}") from None
