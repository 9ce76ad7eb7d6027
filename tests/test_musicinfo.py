"""Tests for note tracks, note windows, and the music-info store."""

import numpy as np
import pytest

from musereact import musicinfo
from musereact.core import ConfigError, EmptyWindowError, ParameterError, ParseError
from musereact.dsp import UNVOICED
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
        window = note_window(track, 10.0, 11.0, margin_s=0.5)
        assert len(window) == 20
        np.testing.assert_array_equal(window, track.symbols[95:115])

    def test_left_clip(self):
        track = make_track(n=300)
        window = note_window(track, 0.0, 1.0, margin_s=0.5)
        assert len(window) == 15
        np.testing.assert_array_equal(window, track.symbols[:15])

    def test_right_clip(self):
        track = make_track(n=100)  # 10 s
        window = note_window(track, 9.0, 10.0, margin_s=0.5)
        np.testing.assert_array_equal(window, track.symbols[85:])

    def test_beyond_song_end(self):
        track = make_track(n=100)
        with pytest.raises(EmptyWindowError):
            note_window(track, 50.0, 51.0)

    def test_before_song_start(self):
        track = make_track(n=100)
        with pytest.raises(EmptyWindowError):
            note_window(track, -10.0, -9.0)

    def test_zero_margin(self):
        track = make_track(n=100)
        window = note_window(track, 3.0, 4.0, margin_s=0.0)
        np.testing.assert_array_equal(window, track.symbols[30:40])

    def test_margin_beyond_float_range_takes_whole_track(self):
        track = make_track(n=100)
        window = note_window(track, 3.0, 4.0, margin_s=1e308)
        np.testing.assert_array_equal(window, track.symbols)

    @pytest.mark.parametrize("margin", [0.0, 0.05, 0.13, 0.25, 0.5, 0.55, 1.0, 2.37])
    def test_longest_window_is_the_longest_returned(self, margin):
        """Over song positions on a 0.05 s grid, the longest one-second window
        is exactly :func:`longest_note_window`: rounding both ends can add a
        frame (21 at the default 0.5 s, not 20)."""
        track = make_track(n=4000)
        longest = max(len(note_window(track, k * 0.05, k * 0.05 + 1.0, margin))
                      for k in range(1, 4000))
        assert longest == musicinfo.longest_note_window(margin)

    def test_longest_window_of_an_unbounded_margin(self):
        assert musicinfo.longest_note_window(1e308) == float("inf")


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

    def test_unvoiced_marker(self, tmp_path):
        track = NoteTrack(song_id="u", symbols=np.array([0, UNVOICED, 5]))
        path = tmp_path / "u.csv"
        musicinfo.save_note_track(path, track)
        text = path.read_text()
        assert "U" in text
        loaded = musicinfo.load_note_track(path)
        np.testing.assert_array_equal(loaded.symbols, [0, UNVOICED, 5])


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
