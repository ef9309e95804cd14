"""Slice-level hotness classification from update statistics via 2-means.

Logical space is cut into fixed-size slices; every host write updates its
slice's update count and running mean update interval. Classification
clusters (count, interval) with K-means and labels the most-updated cluster
hot. Statistics are windowed: each classification consumes and resets them,
so the hot slices track the last classification window, not all history.
"""
from __future__ import annotations

import numpy as np

from .config import ConfigProfile
from .errors import ConfigError

# K-means stops once no centroid coordinate moves by this much
KMEANS_TOL = 1e-4


def _minmax(col: np.ndarray) -> np.ndarray:
    lo, hi = col.min(), col.max()
    if hi == lo:
        return np.zeros_like(col)
    return (col - lo) / (hi - lo)


def kmeans(points: np.ndarray, max_iterations: int,
           tol: float) -> tuple[np.ndarray, np.ndarray, list[float]]:
    """Lloyd's algorithm for two clusters with deterministic seeding.

    Rows are feature vectors already normalized to comparable scales.
    Centroids start at the points with the lowest and the highest first
    feature (ties to the lower row). Returns (assignments, centroids,
    inertia history).
    """
    n = len(points)
    order = np.lexsort((np.arange(n), points[:, 0]))
    centroids = points[[order[0], order[-1]]].astype(float).copy()
    assign = np.zeros(n, dtype=int)
    inertia_history: list[float] = []
    for _ in range(max_iterations):
        # nearest centroid; ties go to the lower index via argmin
        d2 = ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        assign = d2.argmin(axis=1)
        inertia_history.append(float(d2[np.arange(n), assign].sum()))
        moved = 0.0
        for j in (0, 1):
            members = points[assign == j]
            if len(members) == 0:
                continue  # empty cluster keeps its centroid
            new_c = members.mean(axis=0)
            moved = max(moved, float(np.abs(new_c - centroids[j]).max()))
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
    mean interval. With fewer than two distinct feature points the fallback
    is a single threshold at the median update count (all-identical points
    leave nothing hot).
    """
    slice_ids = sorted(slices)
    if not slice_ids:
        return frozenset()
    window_len = max(now_us - window_start_us, 1.0)
    counts = np.array([slices[s][0] for s in slice_ids], dtype=float)
    intervals = np.array([slices[s][2] if slices[s][0] >= 2 else window_len
                          for s in slice_ids], dtype=float)
    points = np.column_stack([_minmax(counts), _minmax(intervals)])
    if len(np.unique(points, axis=0)) < 2:
        median = float(np.median(counts))
        return frozenset(s for s, c in zip(slice_ids, counts) if c > median)
    assign, _, _ = kmeans(points, max_iterations, tol)
    # maximize count, then minimize interval, then lower cluster index
    _, _, best = min((-counts[assign == j].mean(),
                      intervals[assign == j].mean(), j)
                     for j in (0, 1) if (assign == j).any())
    return frozenset(s for s, a in zip(slice_ids, assign) if a == best)


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
        # slice id -> [update count, last update us, running mean of the
        # update_count - 1 gaps in us]
        self.slices: dict[int, list] = {}
        self.window_start_us = now_us
        self.hot: frozenset[int] = frozenset()
        self.writes_since_classify = 0

    def record_write(self, lpn: int, now_us: float) -> None:
        idx = lpn // self.pages_per_slice
        s = self.slices.get(idx)
        if s is None:
            self.slices[idx] = [1, now_us, 0.0]
        else:
            s[0] += 1
            gap = now_us - s[1]
            s[2] += (gap - s[2]) / (s[0] - 1)
            s[1] = now_us
        self.writes_since_classify += 1

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
        self.slices = {}
        self.window_start_us = now_us
        self.writes_since_classify = 0
        return self.hot

    def reconfigure(self, slice_size: int, now_us: float) -> None:
        """Slice geometry changed: old slice ids are meaningless, restart."""
        if slice_size != self.slice_size:
            self._restart(slice_size, now_us)
