"""Tests for reaction features, the CART tree, and the engagement apps
(rating, familiarity, recommendation)."""

import dataclasses
import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from musereact import engage
from musereact.core import ParameterError, ReactionEvent, ReactionLabel
from musereact.dsp import dtw_scan
from musereact.engage import (
    DecisionTree,
    combine_timelines,
    pattern_distance,
    pattern_from_events,
    predict_familiarity,
    predict_rating,
    reaction_features,
    reaction_index_sequence,
    recommend,
    train_familiarity_tree,
    train_rating_tree,
)
from musereact.harness import dtw_loop_oracle, make_engagement_dataset

N = ReactionLabel.NON_REACTION
S = ReactionLabel.SINGING_HUMMING
W = ReactionLabel.WHISTLING
H = ReactionLabel.HEAD_MOTION


def ev(label, t0, t1):
    return ReactionEvent(label=label, t_start=float(t0), t_end=float(t1))


class TestReactionFeatures:
    def test_half_session_singing(self):
        feats = reaction_features([ev(S, 10, 40)], [], duration_s=60.0)
        assert feats.singing_duration == pytest.approx(0.5)
        assert feats.singing_rate == pytest.approx(1.0)  # one event per minute
        assert feats.vocal_non_reaction_duration == pytest.approx(0.5)

    def test_no_events(self):
        feats = reaction_features([], [], duration_s=30.0)
        assert feats.singing_duration == 0.0
        assert feats.whistling_duration == 0.0
        assert feats.head_motion_duration == 0.0
        assert feats.vocal_non_reaction_duration == pytest.approx(1.0)
        assert feats.motion_non_reaction_duration == pytest.approx(1.0)

    def test_motion_rate_per_minute(self):
        events = [ev(H, 10, 20), ev(H, 40, 50), ev(H, 80, 90)]
        feats = reaction_features([], events, duration_s=120.0)
        assert feats.head_motion_duration == pytest.approx(0.25)
        assert feats.head_motion_rate == pytest.approx(1.5)

    def test_durations_sum_to_one_per_timeline(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            duration = float(rng.integers(30, 120))
            t = 0.0
            vocal, motion_events = [], []
            while t < duration - 8:
                t += float(rng.uniform(1, 4))
                length = float(rng.uniform(1, 4))
                label = (S, W)[int(rng.integers(0, 2))]
                vocal.append(ev(label, t, min(t + length, duration)))
                t += length
            feats = reaction_features(vocal, motion_events, duration)
            vocal_sum = (feats.singing_duration + feats.whistling_duration
                         + feats.vocal_non_reaction_duration)
            motion_sum = (feats.head_motion_duration
                          + feats.motion_non_reaction_duration)
            assert vocal_sum == pytest.approx(1.0, abs=1e-6)
            assert motion_sum == pytest.approx(1.0, abs=1e-6)

    def test_wrong_timeline_label_rejected(self):
        with pytest.raises(ParameterError):
            reaction_features([ev(H, 0, 5)], [], duration_s=30.0)
        with pytest.raises(ParameterError):
            reaction_features([], [ev(S, 0, 5)], duration_s=30.0)

    def test_overlapping_events_rejected(self):
        with pytest.raises(ParameterError):
            reaction_features([ev(S, 0, 5), ev(S, 3, 8)], [], duration_s=30.0)

    def test_event_beyond_session_rejected(self):
        with pytest.raises(ParameterError):
            reaction_features([ev(S, 20, 40)], [], duration_s=30.0)

    def test_each_field_reads_its_label(self):
        """Every label has its own duration and count, so a field read from
        another label or the other statistic shows."""
        feats = reaction_features([ev(S, 0, 6), ev(W, 10, 13), ev(W, 20, 21)],
                                  [ev(H, t, t + 2) for t in (1, 5, 9, 13)], duration_s=30.0)
        assert dataclasses.asdict(feats) == pytest.approx({
            "singing_duration": 6 / 30, "singing_rate": 2.0,
            "whistling_duration": 4 / 30, "whistling_rate": 4.0,
            "vocal_non_reaction_duration": 20 / 30, "vocal_non_reaction_rate": 6.0,
            "head_motion_duration": 8 / 30, "head_motion_rate": 8.0,
            "motion_non_reaction_duration": 22 / 30, "motion_non_reaction_rate": 10.0})

    def test_sub_second_event_counts_the_midpoints_it_covers(self):
        """Seconds are painted as ``eval`` paints them: [1.3, 3.7) covers the
        midpoints of seconds 1-3, and [0.2, 0.6) that of second 0."""
        for t0, t1, seconds in ((1.3, 3.7, 3), (0.2, 0.6, 1)):
            feats = reaction_features([ev(S, t0, t1)], [], duration_s=10.0)
            assert feats.singing_duration == seconds / 10
            assert feats.singing_rate == 6.0
            assert feats.vocal_non_reaction_duration == (10 - seconds) / 10

    def test_fractions_are_over_the_painted_seconds(self):
        """A 30.5 s session paints 30 seconds: every fraction is over 30 and
        each timeline's durations sum to 1."""
        feats = reaction_features([ev(S, 0, 10), ev(W, 20, 25)], [ev(H, 3, 9)],
                                  duration_s=30.5)
        assert dataclasses.asdict(feats) == {
            "singing_duration": 10 / 30, "singing_rate": 2.0,
            "whistling_duration": 5 / 30, "whistling_rate": 2.0,
            "vocal_non_reaction_duration": 15 / 30, "vocal_non_reaction_rate": 4.0,
            "head_motion_duration": 6 / 30, "head_motion_rate": 2.0,
            "motion_non_reaction_duration": 24 / 30, "motion_non_reaction_rate": 4.0}
        assert sum(dataclasses.astuple(feats)[0:6:2]) == pytest.approx(1.0)
        assert sum(dataclasses.astuple(feats)[6:10:2]) == pytest.approx(1.0)

    @pytest.mark.parametrize("duration_s", [0.5, 0.0, float("nan"), float("inf"), 86400.5])
    def test_duration_that_paints_no_second_or_too_many_rejected(self, duration_s):
        with pytest.raises(ParameterError):
            reaction_features([], [], duration_s=duration_s)

    def test_vector_has_ten_features(self):
        feats = reaction_features([ev(S, 0, 10), ev(W, 15, 20)],
                                  [ev(H, 5, 25)], duration_s=40.0)
        vec = feats.to_vector()
        assert vec.shape == (10,)
        assert vec.tolist() == [getattr(feats, name)
                                for name in engage.ReactionFeatures.FEATURE_NAMES]


def features_loop(events, allowed, duration):
    """One timeline's features counted one second at a time, for events of
    whole seconds in a session of ``duration`` whole seconds."""
    second = [N] * duration
    for e in events:
        for i in range(int(e.t_start), int(e.t_end)):
            second[i] = e.label
    out = []
    for label in (*allowed, N):
        count = runs = 0
        for i in range(duration):
            if second[i] is label:
                count += 1
                runs += i == 0 or second[i - 1] is not label
        out += [count / duration, runs / (duration / 60.0)]
    return out


def pieces(labels):
    """Consecutive pieces from t = 0: (whole seconds, an event label or None
    for a gap), so same-label events may be adjacent and different labels
    may touch."""
    return st.lists(st.tuples(st.integers(1, 90), st.sampled_from((None, N, *labels))),
                    max_size=30)


def timeline(drawn, duration):
    """The events of ``drawn`` pieces cut at ``duration``, last first: the
    reader must not need them in order."""
    events, t = [], 0
    for length, label in drawn:
        length = min(length, duration - t)
        if length <= 0:
            break
        if label is not None:
            events.append(ev(label, t, t + length))
        t += length
    return events[::-1]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(duration=st.integers(1, 600), vocal=pieces((S, W)), motion=pieces((H,)))
@example(duration=1, vocal=[], motion=[])
@example(duration=600, vocal=[(3, S), (4, S), (2, W), (1, N), (5, None), (2, N), (9, W)],
         motion=[(10, H), (10, H), (5, N), (5, H), (600, None)])
def test_reaction_features_equal_a_second_by_second_count(duration, vocal, motion):
    vocal, motion = timeline(vocal, duration), timeline(motion, duration)
    feats = reaction_features(vocal, motion, float(duration))
    assert dataclasses.astuple(feats) == (
        *features_loop(vocal, (S, W), duration), *features_loop(motion, (H,), duration))


#: sha256 of ``make_engagement_dataset(8, 6, seed=s).features.tobytes()``:
#: its truth events are whole seconds, which every way of counting them
#: measures alike, so these bytes never move.
ENGAGEMENT_FEATURE_DIGESTS = {
    0: "f2189df6cd80ce8146ac8c5fbfa2b3747a990dd5152d3658ab2e2df46a270202",
    1: "e23f8341082715558f21db37f11cd562fe927987f021f58465f611ff8608446c",
    2: "5a68aacae75425b9483341e2e19fbfab04ecbe048cf0510ed8624a6faf4dc7bb",
    3: "30caaba7e0a0cee4672f1bdf588534ebb06d1346f2b116e7022532f4c0ba09d2",
    4: "798af4614fd6a58cc1672343b250f0b0bde0752648594e4bf4726aeeaa56eb1c",
}


@pytest.mark.parametrize("seed", sorted(ENGAGEMENT_FEATURE_DIGESTS))
def test_engagement_dataset_features_keep_their_bytes(seed):
    features = make_engagement_dataset(8, 6, seed=seed).features
    assert hashlib.sha256(features.tobytes()).hexdigest() == ENGAGEMENT_FEATURE_DIGESTS[seed]


def depth(node):
    """Longest root-to-leaf path below ``node``; 0 for a leaf."""
    return 0 if node.is_leaf else 1 + max(depth(node.left), depth(node.right))


def predict_rows(tree, x):
    return [tree.predict(row) for row in x]


class TestDecisionTree:
    def test_separable_one_feature(self):
        x = np.array([[0.1], [0.2], [0.3], [0.8], [0.9], [1.0]])
        y = np.array([0, 0, 0, 1, 1, 1])
        tree = DecisionTree.fit(x, y, max_depth=4, min_leaf=1)
        assert depth(tree.root) == 1
        assert predict_rows(tree, x) == y.tolist()

    def test_identical_features_single_leaf(self):
        x = np.full((6, 3), 0.5)
        y = np.array([0, 1, 1, 1, 0, 1])
        tree = DecisionTree.fit(x, y, max_depth=4, min_leaf=1)
        assert depth(tree.root) == 0
        assert tree.predict(x[0]) == 1

    def test_xor_needs_depth_two(self):
        x = np.array([[0, 0], [0, 1], [1, 0], [1, 1]], dtype=float)
        y = np.array([0, 1, 1, 0])
        tree = DecisionTree.fit(x, y, max_depth=2, min_leaf=1)
        assert predict_rows(tree, x) == y.tolist()

    def test_majority_tie_prefers_smaller_class(self):
        x = np.full((4, 1), 0.5)
        y = np.array([2, 1, 2, 1])
        tree = DecisionTree.fit(x, y, max_depth=3, min_leaf=1)
        assert tree.predict(np.array([0.5])) == 1

    def test_min_leaf_respected(self):
        x = np.arange(10, dtype=float).reshape(-1, 1)
        y = (np.arange(10) >= 1).astype(int)  # one lonely zero
        tree = DecisionTree.fit(x, y, max_depth=5, min_leaf=3)

        def leaf_sizes(node, mask):
            if node.is_leaf:
                return [int(mask.sum())]
            left = mask & (x[:, node.feature] <= node.threshold)
            return leaf_sizes(node.left, left) + leaf_sizes(node.right, mask & ~left)

        assert min(leaf_sizes(tree.root, np.ones(10, dtype=bool))) >= 3

    def test_training_sample_lands_in_its_leaf(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(0, 1, (40, 4))
        y = (x[:, 2] > 0.5).astype(int)
        tree = DecisionTree.fit(x, y, max_depth=4, min_leaf=2)
        assert predict_rows(tree, x) == y.tolist()

    def test_json_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        x = rng.uniform(0, 1, (50, 10))
        y = rng.integers(1, 6, 50)
        tree = DecisionTree.fit(x, y, max_depth=4, min_leaf=2)
        path = tmp_path / "tree.json"
        tree.save(path)
        loaded = DecisionTree.load(path)
        assert predict_rows(loaded, x) == predict_rows(tree, x)
        assert loaded.num_features == 10

    def test_depth_limit(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(0, 1, (200, 5))
        y = rng.integers(0, 4, 200)
        tree = DecisionTree.fit(x, y, max_depth=4, min_leaf=2)
        assert depth(tree.root) <= 4


class TestRatingApp:
    def features(self, n, rng):
        return rng.uniform(0, 1, (n, 10))

    def test_single_leaf_tree(self):
        x = np.full((5, 10), 0.2)
        tree = train_rating_tree(x, np.array([4, 4, 4, 4, 4]))
        rng = np.random.default_rng(4)
        for _ in range(5):
            assert predict_rating(tree, rng.uniform(0, 1, 10)) == 4

    def test_prediction_clamped_to_scale(self):
        rng = np.random.default_rng(5)
        x = self.features(30, rng)
        y = rng.integers(1, 6, 30)
        tree = train_rating_tree(x, y)
        for row in x:
            assert 1 <= predict_rating(tree, row) <= 5

    def test_accepts_feature_objects(self):
        feats = reaction_features([ev(S, 0, 30)], [], duration_s=60.0)
        x = np.tile(feats.to_vector(), (4, 1))
        tree = train_rating_tree(x, np.array([5, 5, 5, 5]))
        assert predict_rating(tree, feats) == 5


class TestFamiliarityApp:
    def test_single_leaf_tree(self):
        x = np.full((4, 10), 0.1)
        tree = train_familiarity_tree(x, ["known"] * 4)
        assert predict_familiarity(tree, np.zeros(10)) == "known"

    def test_separable_data(self):
        rng = np.random.default_rng(6)
        known = rng.uniform(0.6, 1.0, (20, 10))
        unknown = rng.uniform(0.0, 0.4, (20, 10))
        x = np.vstack([known, unknown])
        labels = ["known"] * 20 + ["unknown"] * 20
        tree = train_familiarity_tree(x, labels)
        assert predict_familiarity(tree, np.full(10, 0.9)) == "known"
        assert predict_familiarity(tree, np.full(10, 0.1)) == "unknown"

    def test_unknown_class_name_rejected(self):
        with pytest.raises(ParameterError):
            train_familiarity_tree(np.zeros((2, 10)), ["known", "classic"])


class TestTrainingCsv:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(7)
        x = rng.uniform(0, 1, (12, 10))
        y = [str(v) for v in rng.integers(1, 6, 12)]
        path = tmp_path / "train.csv"
        engage.save_training_csv(path, x, y)
        got_x, got_y = engage.load_training_csv(path)
        np.testing.assert_allclose(got_x, x, atol=1e-9)
        assert got_y == y


class TestTimelines:
    def test_vocal_precedence(self):
        out = combine_timelines([S, N], [H, H])
        assert out == [S, H]
        np.testing.assert_array_equal(
            reaction_index_sequence(out), [1, 3])

    def test_all_non_reaction(self):
        out = combine_timelines([N, N, N], [N, N, N])
        np.testing.assert_array_equal(reaction_index_sequence(out), [0, 0, 0])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ParameterError):
            combine_timelines([N], [N, N])

    def test_index_values(self):
        np.testing.assert_array_equal(
            reaction_index_sequence([N, S, W, H]), [0, 1, 2, 3])

    def test_pattern_from_events(self):
        events = [ev(S, 0, 2), ev(H, 3, 5)]
        np.testing.assert_array_equal(
            pattern_from_events(events, duration_s=6.0), [1, 1, 0, 3, 3, 0])


class TestRecommendation:
    def test_identical_pattern_distance_zero(self):
        pattern = np.array([1, 1, 0, 2, 0])
        assert pattern_distance(pattern, pattern) == 0.0

    def test_substitution_cost_is_one(self):
        assert pattern_distance(np.array([1, 1, 0]), np.array([0, 0, 0])) == 2.0

    def test_recommend_identical_first(self):
        pool = {
            "a": np.array([1, 1, 0]),
            "b": np.array([0, 0, 0]),
        }
        out = recommend(np.array([1, 1, 0]), pool)
        assert out[0] == ("a", 0.0)
        assert out[1] == ("b", 2.0)

    def test_pool_of_one(self):
        out = recommend(np.array([3, 3]), {"only": np.array([0, 0])})
        assert [song for song, _ in out] == ["only"]

    def test_ties_break_by_song_id(self):
        pool = {
            "zeta": np.array([0, 0, 0]),
            "alpha": np.array([0, 0, 0]),
        }
        out = recommend(np.array([0, 0, 0]), pool)
        assert [song for song, _ in out] == ["alpha", "zeta"]

    def test_top_n_limits_results(self):
        rng = np.random.default_rng(8)
        pool = {f"s{i}": rng.integers(0, 4, 10) for i in range(10)}
        out = recommend(rng.integers(0, 4, 10), pool, top_n=3)
        assert len(out) == 3
        distances = [d for _, d in out]
        assert distances == sorted(distances)

    @pytest.mark.parametrize("top_n, shown", [
        (2.5, "2.5"), (3.0, "3.0"), (True, "True"), (False, "False"),
        ("3", "'3'"), (None, "None"), (np.float64(2.0), repr(np.float64(2.0)))])
    def test_top_n_that_is_no_integer_is_refused_by_value(self, top_n, shown):
        with pytest.raises(ParameterError) as info:
            recommend(np.array([0, 1]), {"a": np.array([0])}, top_n=top_n)
        assert str(info.value) == f"top_n must be an integer, got {shown}"

    @pytest.mark.parametrize("top_n", [0, -1, -7, np.int64(0)])
    def test_top_n_below_one_is_refused(self, top_n):
        with pytest.raises(ParameterError) as info:
            recommend(np.array([0, 1]), {"a": np.array([0])}, top_n=top_n)
        assert str(info.value) == "top_n must be >= 1"

    @pytest.mark.parametrize("top_n", [np.int64(1), np.int32(2), np.uint8(1)])
    def test_numpy_integer_top_n_is_an_integer(self, top_n):
        pool = {"a": np.array([0]), "b": np.array([1, 1])}
        assert recommend(np.array([0, 1]), pool, top_n=top_n) == \
            brute_force_ranking(np.array([0, 1]), pool, int(top_n))


def random_pattern(rng, min_len, max_len):
    return rng.integers(0, 4, int(rng.integers(min_len, max_len)))


def brute_force_ranking(query, pool, top_n):
    """Every member scored by the cell-by-cell oracle, then sorted."""
    query = np.asarray(query)[:, None]
    scored = ((sid, dtw_loop_oracle((query != np.asarray(m)[None, :]).astype(float)))
              for sid, m in pool.items())
    return sorted(scored, key=lambda pair: (pair[1], pair[0]))[:top_n]


class TestRecommendMatchesBruteForce:
    """``recommend`` scores the whole pool in one scan; ranking must equal
    scoring each member on its own."""

    def test_random_pools(self):
        rng = np.random.default_rng(21)
        for trial in range(12):
            size = int(rng.integers(1, 8))
            # Random id prefixes, so insertion order is not id order.
            pool = {f"s{rng.integers(1000):03d}x{k}": random_pattern(rng, 1, 121)
                    for k in range(size)}
            query = random_pattern(rng, 1, 121)
            top_n = int(rng.integers(1, size + 3))
            expected = brute_force_ranking(query, pool, top_n)
            assert recommend(query, pool, top_n) == expected, trial

    def test_duplicate_members_break_ties_by_id(self):
        rng = np.random.default_rng(22)
        member = rng.integers(0, 4, 40)
        pool = {"m": member, "b": member.copy(), "z": member[:20], "a": member.copy(),
                "c": rng.integers(0, 4, 7)}
        query = np.concatenate([member[:10], member])
        out = recommend(query, pool, top_n=5)
        assert out == brute_force_ranking(query, pool, 5)
        assert [sid for sid, _ in out[:3]] == ["a", "b", "m"]

    def test_pool_of_one_and_query_longer_than_every_member(self):
        rng = np.random.default_rng(23)
        query = rng.integers(0, 4, 120)
        for pool in ({"only": rng.integers(0, 4, 5)},
                     {f"s{k}": random_pattern(rng, 1, 30) for k in range(6)}):
            assert recommend(query, pool, 3) == brute_force_ranking(query, pool, 3)

    def test_each_member_checked_like_pattern_distance(self):
        with pytest.raises(ParameterError, match="non-empty 1-D"):
            recommend(np.array([0, 1]),
                      {"ok": np.array([0]), "empty": np.array([], dtype=int)})
        with pytest.raises(ParameterError, match="non-empty 1-D"):
            recommend(np.array([[0, 1]]), {"ok": np.array([0])})


@st.composite
def query_and_pool(draw):
    """A query, a pool of 1-8 members and a ``top_n`` that may pass the pool
    size; symbols come from one small alphabet of integers in -8..8, so
    they may be negative, above 3 or all one value."""
    alphabet = draw(st.lists(st.integers(-8, 8), min_size=1, max_size=5, unique=True))
    pattern = st.lists(st.sampled_from(alphabet), min_size=1, max_size=40).map(np.array)
    pool = draw(st.dictionaries(st.text("abxyz", min_size=1, max_size=3), pattern,
                                min_size=1, max_size=8))
    return draw(pattern), pool, draw(st.integers(1, 10))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(query_and_pool())
@example((np.array([2]), {"a": np.array([2]), "b": np.array([-1])}, 5))
@example((np.array([7, 7, 7]), {"a": np.array([7]), "b": np.array([7, 7, 7, 7])}, 1))
@example((np.array([-3, 5, -3, 0]), {"only": np.array([5])}, 3))
def test_recommend_equals_brute_force_on_any_symbols(case):
    query, pool, top_n = case
    assert recommend(query, pool, top_n) == brute_force_ranking(query, pool, top_n)


@st.composite
def long_runs_and_pool(draw):
    """A query and pool members drawn as runs of 1-60 equal symbols from an
    alphabet of 1-4, so the scan's run step sees runs longer than a member,
    single-run queries and members of one second."""
    alphabet = draw(st.lists(st.integers(0, 9), min_size=1, max_size=4, unique=True))
    runs = st.lists(st.tuples(st.sampled_from(alphabet), st.integers(1, 60)),
                    min_size=1, max_size=5)
    pattern = runs.map(lambda pairs: np.repeat([s for s, _ in pairs],
                                               [r for _, r in pairs]))
    pool = draw(st.dictionaries(st.text("abxyz", min_size=1, max_size=3),
                                st.one_of(pattern, st.sampled_from(alphabet).map(
                                    lambda s: np.array([s]))),
                                min_size=1, max_size=6))
    return draw(pattern), pool, draw(st.integers(1, 8))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(long_runs_and_pool())
@example((np.full(61, 3), {"one": np.array([3]), "other": np.array([1])}, 2))
@example((np.repeat([0, 2, 0], [1, 40, 2]), {"a": np.full(5, 2), "b": np.array([0])}, 2))
def test_recommend_equals_brute_force_on_long_runs(case):
    query, pool, top_n = case
    assert recommend(query, pool, top_n) == brute_force_ranking(query, pool, top_n)


@pytest.mark.parametrize("query", [[3, 0, 3, 3, 1, 0, 3], [2], [1, 1, 1, 1]])
def test_recommend_runs_one_scan_over_one_row_per_distinct_symbol(monkeypatch, query):
    shapes = []
    monkeypatch.setattr(engage, "dtw_scan",
                        lambda table, rows: shapes.append(table.shape) or dtw_scan(table, rows))
    pool = {"a": np.array([0, 1, 2, 3, 3]), "b": np.array([1]), "c": np.array([3, 0, 0])}
    recommend(np.array(query), pool)
    assert shapes == [(len(np.unique(query)), 5, len(pool))]
