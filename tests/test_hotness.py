import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from hybridssd import (ConfigError, ConfigProfile, HotnessClassifier,
                       classify, hotness, kmeans)
from oracles import (SliceStats, UpdateStats, kmeans_two_point,
                     reference_classify, reference_kmeans)

PAGE = 16384
SLICE = 4 * PAGE    # 4 pages per slice keeps indices obvious


class TestSliceOf:
    """The grid that maps an lpn to its slice."""

    def test_basic_mapping(self):
        clf = HotnessClassifier(SLICE, PAGE)
        for t, lpn in enumerate([0, 3, 4, 11], start=1):
            clf.record_write(lpn, float(t))
        assert {s: st[0] for s, st in clf.slices.items()} == {0: 2, 1: 1,
                                                              2: 1}

    def test_slice_must_be_page_multiple(self):
        clf = HotnessClassifier(SLICE, PAGE)
        clf.record_write(0, 1.0)
        for slice_size in (PAGE + 1, 0, PAGE // 2):
            with pytest.raises(ConfigError):
                HotnessClassifier(slice_size, PAGE)
            with pytest.raises(ConfigError):
                clf.reconfigure(slice_size, now_us=5.0)
        # a rejected grid leaves the classifier as it was
        assert clf.slice_size == SLICE
        assert clf.slices == {0: [1, 1.0, 0.0]}


class TestUpdateStats:
    """One window's per-slice statistics."""

    def test_running_mean_interval(self):
        clf = HotnessClassifier(SLICE, PAGE)
        clf.record_write(0, 100.0)
        clf.record_write(1, 300.0)    # same slice, gap 200
        clf.record_write(2, 700.0)    # gap 400
        count, last, mean = clf.slices[0]
        assert count == 3
        assert last == 700.0
        assert mean == pytest.approx((200.0 + 400.0) / 2)

    def test_slices_tracked_separately(self):
        clf = HotnessClassifier(SLICE, PAGE)
        clf.record_write(0, 10.0)
        clf.record_write(5, 20.0)
        assert set(clf.slices) == {0, 1}
        assert clf.slices[1][0] == 1

    def test_reset_clears_everything(self):
        clf = HotnessClassifier(SLICE, PAGE)
        clf.record_write(0, 10.0)
        clf.maybe_classify(ConfigProfile(kmeans_trigger_threshold=1), 500.0)
        assert clf.slices == {}
        assert clf.window_start_us == 500.0
        assert clf.writes_since_classify == 0


class TestKmeans:
    def test_separates_two_obvious_clusters(self):
        pts = [(0.0, 0.9), (0.05, 1.0), (0.1, 0.95),
               (0.9, 0.1), (0.95, 0.0), (1.0, 0.05)]
        assign, centroids, inertia = kmeans(pts, 10, 1e-4)
        assert len(set(assign[:3])) == 1
        assert len(set(assign[3:])) == 1
        assert assign[0] != assign[3]

    def test_matches_flat_reference_on_clean_data(self, rng):
        pts = ([(rng.uniform(0, 0.2), rng.uniform(0.8, 1.0))
                for _ in range(10)] +
               [(rng.uniform(0.8, 1.0), rng.uniform(0, 0.2))
                for _ in range(10)])
        assign, _, _ = kmeans(pts, 20, 1e-6)
        ref = kmeans_two_point(pts, 20)
        # same partition, maybe with swapped cluster ids
        ours = [frozenset(i for i, a in enumerate(assign) if a == j)
                for j in (0, 1)]
        theirs = [frozenset(i for i, l in enumerate(ref) if l == j)
                  for j in (0, 1)]
        assert set(ours) == set(theirs)

    def test_seeds_like_the_k_cluster_reference(self):
        # tied first features: the seeds are the lowest and highest rows of
        # the (first feature, row) order, as the quantile seeding at k = 2
        pts = [(0.5, 0.1), (0.0, 0.9), (0.0, 0.2), (1.0, 0.4),
               (1.0, 0.0), (0.5, 0.5)]
        ours = kmeans(pts, 10, 0.0)
        theirs = reference_kmeans(np.array(pts), 2, 10, 0.0)
        assert ours[0] == theirs[0].tolist()
        assert ours[1] == theirs[1].tolist()
        assert ours[2] == theirs[2]

    @pytest.mark.parametrize("iterations", [0, 1, 10])
    def test_high_seed_is_the_last_row_of_a_tied_maximum(self, iterations):
        # rows 1, 3 and 4 share the highest first feature; the low seed is
        # the first row of its minimum, the high seed the last of the maximum
        pts = [(0.0, 0.0), (1.0, 0.0), (0.0, 0.1), (1.0, 0.5), (1.0, 1.0),
               (0.0, 0.2)]
        ours = kmeans(pts, iterations, 0.0)
        theirs = reference_kmeans(np.array(pts), 2, iterations, 0.0)
        if iterations == 0:
            assert ours[1] == [[0.0, 0.0], [1.0, 1.0]]
        if iterations == 1:
            # a high seed at row 1 would put row 1 in cluster 1
            assert ours[0] == [0, 0, 0, 1, 1, 0]
        assert ours[0] == theirs[0].tolist()
        assert ours[1] == theirs[1].tolist()
        assert ours[2] == theirs[2]

    def test_deterministic_without_rng(self):
        pts = [(0.1, 0.2), (0.4, 0.9), (0.8, 0.3), (0.2, 0.7), (0.9, 0.9)]
        a1, c1, _ = kmeans(pts, 10, 1e-4)
        a2, c2, _ = kmeans(pts, 10, 1e-4)
        assert a1 == a2
        assert c1 == c2

    def test_inertia_never_increases(self):
        rng = np.random.default_rng(7)
        pts = rng.random((40, 2)).tolist()
        _, _, history = kmeans(pts, 25, 0.0)
        assert all(b <= a + 1e-9 for a, b in zip(history, history[1:]))

    @pytest.mark.parametrize("n", [1, 7, 8, 9, 100, 128, 129, 300, 1000])
    def test_means_sum_like_numpy(self, rng, n):
        # the hot-cluster tie-break compares interval means, so they must be
        # numpy's to the last bit: its pairwise sum, not a running one
        values = [rng.uniform(0.0, 1e6) for _ in range(n)]
        assert hotness._mean(values) == float(np.mean(values))

    def test_respects_iteration_cap(self):
        rng = np.random.default_rng(8)
        pts = rng.random((60, 2)).tolist()
        _, _, history = kmeans(pts, 3, 0.0)
        assert len(history) <= 3


def window(spec, step=100.0):
    """spec: {slice_id: n_updates}; updates spread over one window. Returns
    the classifier holding the window and the window's end time."""
    clf = HotnessClassifier(SLICE, PAGE)
    t = 0.0
    for rounds in range(max(spec.values())):
        for sl, n in sorted(spec.items()):
            if rounds < n:
                t += step
                clf.record_write(sl * 4, t)
    return clf, t


def hot_of(clf, now):
    return classify(clf.slices, clf.window_start_us, now)


class TestClassify:
    def test_heavy_slices_labeled_hot(self):
        clf, now = window({0: 40, 1: 38, 2: 2, 3: 1, 4: 2})
        assert hot_of(clf, now) == {0, 1}

    def test_unseen_slice_defaults_to_cold(self):
        clf, now = window({0: 10, 1: 1, 2: 2})
        clf.maybe_classify(ConfigProfile(kmeans_trigger_threshold=1), now)
        assert clf.is_hot(0)
        assert not clf.is_hot(99 * 4)

    def test_single_update_slice_gets_window_interval(self):
        clf = HotnessClassifier(SLICE, PAGE)
        for i in range(30):
            clf.record_write(0, float(i + 1))
        clf.record_write(4, 15.0)     # slice 1: one update
        assert hot_of(clf, 30.0) == {0}

    def test_identical_slices_all_cold(self):
        # one distinct feature point -> no clustering, median fallback,
        # nothing strictly above the median
        clf, now = window({0: 5, 1: 5, 2: 5})
        assert hot_of(clf, now) == frozenset()

    def test_empty_window_labels_nothing(self):
        clf = HotnessClassifier(SLICE, PAGE)
        assert hot_of(clf, 100.0) == frozenset()

    def test_single_slice_is_cold(self):
        clf = HotnessClassifier(SLICE, PAGE)
        clf.record_write(0, 1.0)
        clf.record_write(0, 2.0)
        assert hot_of(clf, 10.0) == frozenset()


# one slice's window statistics: an update count (often a shared small
# value, so counts tie) and a mean update interval, which a single-update
# slice does not have
slice_stats = st.tuples(
    st.one_of(st.sampled_from([1, 2, 5]),
              st.integers(min_value=1, max_value=60)),
    st.one_of(st.sampled_from([100.0, 250.0]),
              st.floats(min_value=0.0, max_value=1e6)))


@settings(max_examples=200, deadline=None)
@given(stats=st.dictionaries(st.integers(min_value=0, max_value=4095),
                             slice_stats, max_size=200),
       window_us=st.sampled_from([0.5, 1e3, 1e6]),
       iterations=st.integers(min_value=1, max_value=30))
@example(stats={0: (1, 0.0), 1: (1, 0.0), 2: (3, 100.0), 3: (3, 250.0)},
         window_us=1e3, iterations=10)
@example(stats={0: (5, 100.0), 1: (1, 0.0), 2: (5, 100.0)},
         window_us=0.5, iterations=1)
def test_classify_matches_the_numpy_reference(stats, window_us, iterations):
    """The list 2-means labels the same slices hot as the numpy k-cluster
    reference at k = 2."""
    mean = {s: (interval if count >= 2 else 0.0)
            for s, (count, interval) in stats.items()}
    ref = UpdateStats(SLICE, PAGE)
    ref.slices = {s: SliceStats(count, 0.0, mean[s])
                  for s, (count, _) in stats.items()}
    want = reference_classify(ref, window_us, k=2,
                              max_iterations=iterations).hot_slices()
    slices = {s: [count, 0.0, mean[s]] for s, (count, _) in stats.items()}
    assert classify(slices, 0.0, window_us,
                    max_iterations=iterations) == want


class TestClassifier:
    def test_trigger_threshold_and_reset(self):
        clf = HotnessClassifier(SLICE, PAGE)
        cfg = ConfigProfile(kmeans_trigger_threshold=100)
        t = 0.0
        for i in range(99):
            t += 10.0
            clf.record_write((i % 8), t)
            assert clf.maybe_classify(cfg, t) is None
        t += 10.0
        clf.record_write(0, t)
        hot = clf.maybe_classify(cfg, t)
        assert hot is not None and hot == clf.hot
        assert clf.generation == 1
        assert clf.writes_since_classify == 0
        assert clf.slices == {}          # window consumed

    def test_labels_survive_between_windows(self):
        clf = HotnessClassifier(SLICE, PAGE)
        cfg = ConfigProfile(kmeans_trigger_threshold=50)
        t = 0.0
        for i in range(50):
            t += 10.0
            # slice 0 hammered, slices 1-3 touched once each
            lpn = 0 if i % 4 else (i % 16)
            clf.record_write(lpn, t)
        clf.maybe_classify(cfg, t)
        assert clf.is_hot(0)
        assert not clf.is_hot(3 * 4)

    def test_reconfigure_resets_on_size_change(self):
        clf, now = window({0: 40, 1: 2, 2: 1})
        clf.maybe_classify(ConfigProfile(kmeans_trigger_threshold=1), now)
        assert clf.is_hot(0)
        clf.record_write(0, now + 1.0)
        clf.reconfigure(SLICE * 2, now_us=now + 50.0)
        assert clf.slice_size == SLICE * 2
        assert clf.slices == {}
        assert clf.window_start_us == now + 50.0
        assert clf.writes_since_classify == 0
        assert not clf.is_hot(0)
        assert clf.generation == 1

    def test_reconfigure_same_size_is_a_no_op(self):
        clf = HotnessClassifier(SLICE, PAGE)
        clf.record_write(0, 1.0)
        clf.reconfigure(SLICE, now_us=50.0)
        assert clf.slices != {}
