"""Slice-level hotness classification from update statistics via 2-means.

Logical space is cut into fixed-size slices; every host write updates its
slice's update count and running mean update interval. A write is only
logged when it happens, as one entry in each of three column lists (lpn,
time, page count), so logging allocates no object the cyclic collector
tracks; the statistics replay the log, in order and with the same float
operations, when they are read (a classification, a read of `slices`) or
when the log reaches LOG_SPANS spans. Classification
clusters (count, interval) with K-means and labels the most-updated cluster
hot. Statistics are windowed: each classification consumes and resets them,
so the hot slices track the last classification window, not all history.

The clustering is plain list code over at most a few hundred points. It
repeats the float operations of the numpy formulation kept in
tests/oracles.py (the same differences, products, sums and divisions in the
same order), so the labels, and every report, are the same bit for bit.
"""
from __future__ import annotations

from .config import ConfigProfile
from .errors import ConfigError

# K-means stops once no centroid coordinate moves by this much
KMEANS_TOL = 1e-4

# written spans the classifier logs before it folds them into its slice
# statistics unasked, which bounds the log's memory
LOG_SPANS = 4096


def _minmax(col: list[float]) -> list[float]:
    lo, hi = min(col), max(col)
    if hi == lo:
        return [0.0] * len(col)
    span = hi - lo
    return [(v - lo) / span for v in col]


def _pairwise_sum(a: list[float]) -> float:
    """numpy's add.reduce over a 1-D float64 array: a running sum below 8
    items, eight interleaved running sums up to 128, halves above that."""
    n = len(a)
    if n < 8:
        res = 0.0
        for x in a:
            res += x
        return res
    if n <= 128:
        end = n - n % 8
        r = []
        for j in range(8):
            acc = a[j]
            for x in a[j + 8:end:8]:
                acc += x
            r.append(acc)
        res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        for x in a[end:]:
            res += x
        return res
    half = n // 2
    half -= half % 8
    return _pairwise_sum(a[:half]) + _pairwise_sum(a[half:])


def _mean(a: list[float]) -> float:
    return _pairwise_sum(a) / len(a)


def kmeans(points, max_iterations: int,
           tol: float) -> tuple[list[int], list[list[float]], list[float]]:
    """Lloyd's algorithm for two clusters with deterministic seeding.

    `points` holds (x, y) rows already normalized to comparable scales.
    Centroids start at the first row holding the lowest x and the last row
    holding the highest x: the two ends of the (x, row) order. Returns
    (assignments, centroids, inertia history).
    """
    n = len(points)
    xs = [p[0] for p in points]
    low = xs.index(min(xs))
    high = n - 1 - xs[::-1].index(max(xs))
    centroids = [list(points[low]), list(points[high])]
    assign = [0] * n
    inertia_history: list[float] = []
    for _ in range(max_iterations):
        (ax, ay), (bx, by) = centroids
        assign = []
        nearest = []
        # per-cluster coordinate sums, accumulated row by row
        asx = asy = bsx = bsy = 0.0
        a_n = 0
        for x, y in points:
            dx = x - ax
            dy = y - ay
            da = dx * dx + dy * dy
            dx = x - bx
            dy = y - by
            db = dx * dx + dy * dy
            if da <= db:    # distance ties go to cluster 0
                assign.append(0)
                nearest.append(da)
                asx += x
                asy += y
                a_n += 1
            else:
                assign.append(1)
                nearest.append(db)
                bsx += x
                bsy += y
        inertia_history.append(_pairwise_sum(nearest))
        moved = 0.0
        for j, sx, sy, m in ((0, asx, asy, a_n), (1, bsx, bsy, n - a_n)):
            if not m:
                continue  # empty cluster keeps its centroid
            cx, cy = centroids[j]
            new_c = [sx / m, sy / m]
            moved = max(moved, abs(new_c[0] - cx), abs(new_c[1] - cy))
            centroids[j] = new_c
        if moved < tol:
            break
    return assign, centroids, inertia_history


def classify(slices: dict[int, list], window_start_us: float, now_us: float,
             max_iterations: int = ConfigProfile.kmeans_max_iterations,
             tol: float = KMEANS_TOL) -> frozenset[int]:
    """The hot slice ids of one window's statistics.

    `slices` maps a slice id to [update count, last update us, mean update
    interval us]. Features per slice: update count and mean update interval
    (slices with a single update get the window length imputed). Hot is the
    cluster with the highest mean update count, ties broken by the lowest
    mean interval. Fewer than two distinct feature points leave nothing
    hot.
    """
    slice_ids = sorted(slices)
    if not slice_ids:
        return frozenset()
    window_len = float(max(now_us - window_start_us, 1.0))
    counts = [float(slices[s][0]) for s in slice_ids]
    intervals = [float(slices[s][2]) if slices[s][0] >= 2 else window_len
                 for s in slice_ids]
    points = list(zip(_minmax(counts), _minmax(intervals)))
    if len(set(points)) < 2:
        # min-max scaling keeps distinct counts distinct, so every count is
        # equal here: none is above the median, none is hot
        return frozenset()
    assign, _, _ = kmeans(points, max_iterations, tol)
    rows: tuple[list[int], list[int]] = ([], [])
    for i, a in enumerate(assign):
        rows[a].append(i)
    # maximize count, then minimize interval, then lower cluster index
    _, _, best = min((-_mean([counts[i] for i in r]),
                      _mean([intervals[i] for i in r]), j)
                     for j, r in enumerate(rows) if r)
    return frozenset(slice_ids[i] for i in rows[best])


class HotnessClassifier:
    """Owns the slice grid, the window statistics, the trigger counter and
    the current hot slices. Slices nobody labeled read cold."""

    def __init__(self, slice_size: int, page_size: int,
                 kmeans_tol: float = KMEANS_TOL):
        self.page_size = page_size
        self.kmeans_tol = kmeans_tol
        self.generation = 0             # classifications run so far
        self._restart(slice_size, 0.0)

    def _restart(self, slice_size: int, now_us: float) -> None:
        """Set the slice grid and start an empty window with nothing hot.
        slice_size must be a positive multiple of page_size so no page
        straddles two slices."""
        page_size = self.page_size
        if slice_size <= 0 or page_size <= 0 or slice_size % page_size != 0:
            raise ConfigError(
                f"slice_size {slice_size} must be a positive multiple of "
                f"page_size {page_size}")
        self.slice_size = slice_size
        self.pages_per_slice = slice_size // page_size
        self._slices: dict[int, list] = {}
        # the log of spans not yet in _slices: one column per field
        self._lpns: list[int] = []
        self._stamps: list[float] = []
        self._sizes: list[int] = []
        self.window_start_us = now_us
        self.hot: frozenset[int] = frozenset()
        self.writes_since_classify = 0

    def record_write(self, lpn: int, now_us: float, n_pages: int = 1) -> None:
        """Count a write of pages lpn .. lpn + n_pages - 1 at `now_us`.
        Called once per written span (n_pages >= 1); the slice statistics
        take it in when they are next read."""
        self.writes_since_classify += n_pages
        lpns = self._lpns
        lpns.append(lpn)
        self._stamps.append(now_us)
        self._sizes.append(n_pages)
        if len(lpns) >= LOG_SPANS:
            self._fold()

    def _fold(self) -> None:
        """Take the logged spans into the slice statistics, in write order:
        per page, its slice's update count and running mean gap. A span
        inside one slice, the common case, takes one pass of the middle
        loop."""
        per_slice = self.pages_per_slice
        slices = self._slices
        lpns, stamps, sizes = self._lpns, self._stamps, self._sizes
        for lpn, now_us, n_pages in zip(lpns, stamps, sizes):
            end = lpn + n_pages
            idx = lpn // per_slice
            while True:
                # the span's pages in slice idx: lpn up to the slice's end
                stop = (idx + 1) * per_slice
                if stop > end:
                    stop = end
                pages = stop - lpn
                s = slices.get(idx)
                if s is None:
                    s = slices[idx] = [1, now_us, 0.0]
                    pages -= 1
                while pages:
                    # the running-mean step: the gap since the slice's last
                    # update joins the mean of its update_count - 1 gaps
                    count = s[0] = s[0] + 1
                    s[2] += (now_us - s[1] - s[2]) / (count - 1)
                    s[1] = now_us
                    pages -= 1
                if stop == end:
                    break
                lpn = stop
                idx += 1
        lpns.clear()
        stamps.clear()
        sizes.clear()

    @property
    def slices(self) -> dict[int, list]:
        """Slice id -> [update count, last update us, running mean of the
        update_count - 1 gaps in us] over the window's writes so far."""
        if self._lpns:
            self._fold()
        return self._slices

    def is_hot(self, lpn: int) -> bool:
        return lpn // self.pages_per_slice in self.hot

    def maybe_classify(self, config: ConfigProfile,
                       now_us: float) -> frozenset[int] | None:
        """Re-cluster once enough writes accumulated; resets the window."""
        if self.writes_since_classify < config.kmeans_trigger_threshold:
            return None
        self.generation += 1
        self.hot = classify(self.slices, self.window_start_us, now_us,
                            max_iterations=config.kmeans_max_iterations,
                            tol=self.kmeans_tol)
        self._slices = {}
        self.window_start_us = now_us
        self.writes_since_classify = 0
        return self.hot

    def reconfigure(self, slice_size: int, now_us: float) -> None:
        """Slice geometry changed: old slice ids are meaningless, restart."""
        if slice_size != self.slice_size:
            self._restart(slice_size, now_us)
