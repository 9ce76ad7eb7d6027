"""Tests for note tracks, note windows, and the music-info store."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from musereact import musicinfo
from musereact.core import ConfigError, EmptyWindowError, ParameterError, ParseError
from musereact.dsp import UNVOICED, UNVOICED_COST
from musereact.musicinfo import MusicInfoStore, NoteTrack, note_window


def make_track(n=200, song_id="tune", seed=0):
    rng = np.random.default_rng(seed)
    symbols = rng.integers(0, 12, size=n)
    symbols[rng.uniform(size=n) < 0.1] = UNVOICED
    return NoteTrack(song_id=song_id, symbols=symbols)


class TestNoteTrack:
    def test_duration_from_hop(self):
        track = make_track(n=1800)
        assert len(track) == 1800
        assert track.duration_s == pytest.approx(180.0)

    def test_symbols_validated(self):
        with pytest.raises(ParameterError):
            NoteTrack(song_id="x", symbols=np.array([0, 12]))
        with pytest.raises(ParameterError):
            NoteTrack(song_id="x", symbols=np.array([-2]))
        with pytest.raises(ParameterError):
            NoteTrack(song_id="x", symbols=np.array([], dtype=int))


class TestNoteWindow:
    def test_interior_window(self):
        """One second plus 0.5 s margin on each side is 20 hops."""
        track = make_track(n=300)
        window = note_window(track, 10.0, 11.0)
        assert len(window) == 20
        np.testing.assert_array_equal(window, track.symbols[95:115])

    def test_left_clip(self):
        track = make_track(n=300)
        window = note_window(track, 0.0, 1.0)
        assert len(window) == 15
        np.testing.assert_array_equal(window, track.symbols[:15])

    def test_right_clip(self):
        track = make_track(n=100)  # 10 s
        window = note_window(track, 9.0, 10.0)
        np.testing.assert_array_equal(window, track.symbols[85:])

    def test_beyond_song_end(self):
        track = make_track(n=100)
        with pytest.raises(EmptyWindowError):
            note_window(track, 50.0, 51.0)

    def test_before_song_start(self):
        track = make_track(n=100)
        with pytest.raises(EmptyWindowError):
            note_window(track, -10.0, -9.0)

    def test_longest_window_is_the_longest_returned(self):
        """Over song positions on a 0.05 s grid, the longest one-second window
        is the one :data:`musicinfo.DTW_REACH` is derived from: rounding both
        ends can add a frame (21 at the 0.5 s margin, not 20)."""
        track = make_track(n=4000)
        longest = max(len(note_window(track, k * 0.05, k * 0.05 + 1.0))
                      for k in range(1, 4000))
        assert longest == musicinfo.DTW_REACH / UNVOICED_COST == 21

    @pytest.mark.parametrize("t0", [1e300, 1.5e308, -1e300, 1e17])
    def test_window_off_the_track_where_one_second_rounds_away(self, t0):
        """Far along a song ``t0 + 1.0 == t0``: the window still lies outside
        the track, and that is the error."""
        track = make_track(n=100)
        assert t0 + 1.0 == t0
        with pytest.raises(EmptyWindowError) as err:
            note_window(track, t0, t0 + 1.0)
        assert str(err.value) == (
            f"window [{t0}, {t0}) +/- 0.5 s lies outside the 10.0 s track 'tune'")

    def test_reversed_window_on_the_track_is_a_parameter_error(self):
        with pytest.raises(ParameterError, match=r"^need t1 > t0, got \[5, 3\)$"):
            note_window(make_track(n=100), 5, 3)

    @pytest.mark.parametrize("t0,t1", [(float("nan"), 1.0), (0.0, float("nan"))])
    def test_nan_bound_is_a_parameter_error(self, t0, t1):
        with pytest.raises(ParameterError, match="^need t1 > t0"):
            note_window(make_track(n=100), t0, t1)


class TestNoteTrackIO:
    def test_round_trip(self, tmp_path):
        track = make_track(n=150, song_id="ballad")
        path = tmp_path / "ballad.csv"
        musicinfo.save_note_track(path, track)
        loaded = musicinfo.load_note_track(path)
        assert loaded.song_id == "ballad"
        np.testing.assert_array_equal(loaded.symbols, track.symbols)

    def test_symbol_out_of_range(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,chroma\n0.0,12\n")
        with pytest.raises(ParseError, match="line 2: chroma 12 outside 0..11"):
            musicinfo.load_note_track(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("t,chroma\n")
        with pytest.raises(ParseError, match="track holds no symbols"):
            musicinfo.load_note_track(path)

    def test_wrong_hop_grid(self, tmp_path):
        path = tmp_path / "grid.csv"
        path.write_text("t,chroma\n0.0,3\n0.2,4\n")
        with pytest.raises(ParseError, match="line 3: time 0.2 breaks the 0.1 s grid"):
            musicinfo.load_note_track(path)

    def test_nan_time_breaks_the_grid(self, tmp_path):
        """``abs(nan - t) > 1e-6`` is False: a NaN time used to load."""
        path = tmp_path / "nan.csv"
        path.write_text("t,chroma\n0.0,3\nnan,4\n")
        with pytest.raises(ParseError, match=r"nan\.csv: line 3: time nan breaks the 0.1 s grid$"):
            musicinfo.load_note_track(path)

    def test_unvoiced_marker(self, tmp_path):
        track = NoteTrack(song_id="u", symbols=np.array([0, UNVOICED, 5]))
        path = tmp_path / "u.csv"
        musicinfo.save_note_track(path, track)
        text = path.read_text()
        assert "U" in text
        loaded = musicinfo.load_note_track(path)
        np.testing.assert_array_equal(loaded.symbols, [0, UNVOICED, 5])


#: A note-track time field: on the grid as the writer writes it, on the grid
#: in other spellings, near or off the grid, or no number at all.
_TIME_FORMATS = st.sampled_from(["{:.1f}"] * 6 + [
    "{:.3f}", "{:.7f}", "{:g}", "0{:.1f}", " {:.1f}", "{:.1f} ", "{:.1e}", "+{:.1f}"])


@st.composite
def _note_track_texts(draw):
    head = draw(st.sampled_from(["t,chroma\n"] * 6 + [
        "t,chroma\r\n", " t, chroma\n", "t,chroma", "t,chroma,x\n", ""]))
    lines = []
    for i in range(draw(st.integers(0, 8))):
        if draw(st.integers(0, 7)) == 0:
            lines.append(draw(st.sampled_from(["", " ", ","])))
        time = i * 0.1 + draw(st.sampled_from([0.0] * 6 + [5e-7, 2e-6, -0.1]))
        field = draw(st.sampled_from(["", "x", "nan", "0.0.1"])
                     | _TIME_FORMATS.map(lambda fmt: fmt.format(time)))
        chroma = draw(st.sampled_from(["U"] * 3 + [str(v) for v in range(12)] * 2 + [
            "12", "-1", "u", "3.0", " 3", "01", "x", "", "U,", "1,2"]))
        lines.append(f"{field},{chroma}")
    ends = draw(st.sampled_from(["\n"] * 6 + ["\r\n", "\r"]))
    text = head + ends.join(lines)
    return text + ends if lines and draw(st.booleans()) else text


def _track_outcome(read):
    """``(song_id, symbols, dtype)`` of the track ``read()`` returns, or the
    type and message of what it raises."""
    try:
        track = read()
    except Exception as exc:
        return type(exc).__name__, str(exc)
    return track.song_id, track.symbols.tolist(), track.symbols.dtype


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(text=_note_track_texts())
@example(text="t,chroma\n0.0,U\n0.1,11\n0.2,0\n")
@example(text="t,chroma\n0.0,3\n\n0.1,4\n")
@example(text="t,chroma\n0.0,3\n0.2,4\n")
@example(text="t,chroma\n0.0,3\n0.1000005,4\n")
@example(text="t,chroma\n0.0,3\n0.100005,4\n")
@example(text="t,chroma\n0.0,3\n0.1,12\n")
@example(text="t,chroma\n0.0\n0.1,3,4\n")
@example(text="t,chroma\n0.0,3\n0.1,4")
@example(text="t,chroma\n")
@example(text="t,chroma\n0.0,-1\n")
@example(text="t,chroma\n-0.0,3\n0.1,U\n")
@example(text="t,chroma\n0.0,U\r\n")
@example(text="t,chroma\n0.0,3.0\n")
@example(text="t,chroma\n0.0,3e0\n")
@example(text="t,chroma\n0.0,3\nnan,4\n")
def test_load_note_track_equals_the_row_path(tmp_path_factory, text):
    """For any text, the bulk parser gives the row loop's track, or raises
    its error with its message."""
    path = tmp_path_factory.getbasetemp() / "song.csv"
    path.write_bytes(text.encode())
    want = _track_outcome(lambda: musicinfo.load_note_track_rows(path, "song"))
    assert _track_outcome(lambda: musicinfo.load_note_track(path)) == want


def test_written_note_tracks_are_parsed_in_bulk(tmp_path, monkeypatch):
    """A track as :func:`save_note_track` writes it never takes the row path."""
    track = make_track(n=1500, seed=4)
    path = tmp_path / "tune.csv"
    musicinfo.save_note_track(path, track)
    want = musicinfo.load_note_track_rows(path, "tune")
    monkeypatch.setattr(musicinfo, "load_note_track_rows", None)
    got = musicinfo.load_note_track(path)
    assert got.song_id == "tune"
    assert got.symbols.dtype == want.symbols.dtype
    assert np.array_equal(got.symbols, want.symbols)
    assert np.array_equal(got.symbols, track.symbols)


class TestMusicInfoStore:
    def test_lookup(self):
        track = make_track(song_id="hit")
        store = MusicInfoStore({"hit": track})
        assert store.get("hit") is track

    def test_missing_song(self):
        store = MusicInfoStore({})
        with pytest.raises(ConfigError, match="^no note track for song 'nope'$"):
            store.get("nope")

    def test_from_dir(self, tmp_path):
        for name in ("alpha", "beta"):
            musicinfo.save_note_track(tmp_path / f"{name}.csv", make_track(song_id=name))
        assert MusicInfoStore.from_dir(tmp_path, "alpha").get("alpha").song_id == "alpha"
        assert MusicInfoStore.from_dir(tmp_path, "beta").get("beta").song_id == "beta"

    def test_from_dir_with_song_id_reads_that_track_only(self, tmp_path):
        musicinfo.save_note_track(tmp_path / "alpha.csv", make_track(song_id="alpha"))
        (tmp_path / "broken.csv").write_text("t,chroma\n0.0,13\n")
        store = MusicInfoStore.from_dir(tmp_path, "alpha")
        np.testing.assert_array_equal(store.get("alpha").symbols,
                                      make_track(song_id="alpha").symbols)
        with pytest.raises(ConfigError, match="^no note track for song 'broken'$"):
            MusicInfoStore.from_dir(tmp_path, "alpha").get("broken")
        with pytest.raises(ParseError, match="chroma 13 outside 0..11"):
            MusicInfoStore.from_dir(tmp_path, "broken")

    @pytest.mark.parametrize("song_id", ["gone", "", ".", "..", "../alpha", "a/b"])
    def test_from_dir_without_that_track_holds_none(self, tmp_path, song_id):
        """A name outside the directory (``../alpha.csv`` exists) or a
        directory named like a track (``..csv``) is no track."""
        musicinfo.save_note_track(tmp_path / "alpha.csv", make_track(song_id="alpha"))
        notes = tmp_path / "notes"
        (notes / "..csv").mkdir(parents=True)
        with pytest.raises(ConfigError, match="^no note track for song "):
            MusicInfoStore.from_dir(notes, song_id).get(song_id)

    def test_from_dir_missing_directory(self, tmp_path):
        missing = str(tmp_path / "nope")
        with pytest.raises(ConfigError) as err:
            MusicInfoStore.from_dir(missing, "alpha")
        assert str(err.value) == f"note-track directory {missing!r} does not exist"

    def test_add(self):
        store = MusicInfoStore()
        store.add(make_track(song_id="new"))
        assert store.get("new").song_id == "new"
