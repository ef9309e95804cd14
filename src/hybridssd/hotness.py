"""Slice-level hotness classification from update statistics via 2-means.

Logical space is cut into fixed-size slices; every host write updates its
slice's update count and running mean update interval. Classification
clusters (count, interval) with K-means and labels the most-updated cluster
Hot. Statistics are windowed: each classification consumes and resets them,
so labels track the last classification window, not all history.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .config import ConfigProfile
from .errors import ConfigError


class Hotness(enum.Enum):
    HOT = "hot"
    COLD = "cold"


def slice_of(lpn: int, slice_size: int, page_size: int) -> int:
    """Slice index owning an lpn. slice_size must be a positive multiple of
    page_size so no page straddles two slices."""
    if slice_size <= 0 or page_size <= 0 or slice_size % page_size != 0:
        raise ConfigError(
            f"slice_size {slice_size} must be a positive multiple of "
            f"page_size {page_size}")
    return lpn * page_size // slice_size


@dataclass
class SliceStats:
    update_count: int = 0
    last_time_us: float | None = None
    mean_interval_us: float = 0.0   # running mean over update_count-1 gaps


class UpdateStats:
    """Per-slice write statistics for the current classification window."""

    def __init__(self, slice_size: int, page_size: int):
        slice_of(0, slice_size, page_size)  # validates the pair
        self.slice_size = slice_size
        self.page_size = page_size
        self.window_start_us = 0.0
        self.slices: dict[int, SliceStats] = {}

    def record_update(self, lpn: int, now_us: float) -> None:
        idx = slice_of(lpn, self.slice_size, self.page_size)
        s = self.slices.get(idx)
        if s is None:
            s = self.slices[idx] = SliceStats()
        s.update_count += 1
        if s.last_time_us is not None:
            gap = now_us - s.last_time_us
            n_gaps = s.update_count - 1
            s.mean_interval_us += (gap - s.mean_interval_us) / n_gaps
        s.last_time_us = now_us

    def reset(self, now_us: float) -> None:
        self.slices = {}
        self.window_start_us = now_us


@dataclass(frozen=True)
class HotnessLabels:
    """One classification's labels. Unlabeled slices default to Cold."""

    labels: dict
    slice_size: int
    page_size: int

    def label_of(self, lpn: int) -> Hotness:
        idx = slice_of(lpn, self.slice_size, self.page_size)
        return self.labels.get(idx, Hotness.COLD)

    def hot_slices(self) -> set:
        return {s for s, v in self.labels.items() if v is Hotness.HOT}


def _minmax(col: np.ndarray) -> np.ndarray:
    lo, hi = col.min(), col.max()
    if hi == lo:
        return np.zeros_like(col)
    return (col - lo) / (hi - lo)


def kmeans(points: np.ndarray, k: int, max_iterations: int,
           tol: float) -> tuple[np.ndarray, np.ndarray, list[float]]:
    """Lloyd's algorithm with deterministic extreme-point seeding.

    Rows are feature vectors already normalized to comparable scales.
    Centroids start at the points with extreme first-feature values
    (evenly spaced quantile positions for k > 2). Returns (assignments,
    centroids, inertia history).
    """
    n = len(points)
    order = np.lexsort((np.arange(n), points[:, 0]))
    idx = [order[round(j * (n - 1) / (k - 1))] for j in range(k)] \
        if k > 1 else [order[-1]]
    centroids = points[idx].astype(float).copy()
    assign = np.zeros(n, dtype=int)
    inertia_history: list[float] = []
    for _ in range(max_iterations):
        # nearest centroid; ties go to the lower index via argmin
        d2 = ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        assign = d2.argmin(axis=1)
        inertia_history.append(float(d2[np.arange(n), assign].sum()))
        moved = 0.0
        for j in range(k):
            members = points[assign == j]
            if len(members) == 0:
                continue  # empty cluster keeps its centroid
            new_c = members.mean(axis=0)
            moved = max(moved, float(np.abs(new_c - centroids[j]).max()))
            centroids[j] = new_c
        if moved < tol:
            break
    return assign, centroids, inertia_history


def classify(stats: UpdateStats, now_us: float, k: int = 2,
             max_iterations: int = 10, tol: float = 1e-4) -> HotnessLabels:
    """Label every observed slice Hot or Cold from this window's stats.

    Features per slice: update count and mean update interval (slices with a
    single update get the window length imputed). Hot is the cluster with the
    highest mean update count, ties broken by the lowest mean interval. With
    fewer distinct feature points than k the fallback is a single threshold
    at the median update count (all-identical points label everything Cold).
    """
    slice_ids = sorted(stats.slices)
    if not slice_ids:
        return HotnessLabels({}, stats.slice_size, stats.page_size)
    window_len = max(now_us - stats.window_start_us, 1.0)
    counts = np.array([stats.slices[s].update_count for s in slice_ids],
                      dtype=float)
    intervals = np.array([
        stats.slices[s].mean_interval_us if stats.slices[s].update_count >= 2
        else window_len
        for s in slice_ids], dtype=float)
    points = np.column_stack([_minmax(counts), _minmax(intervals)])
    distinct = np.unique(points, axis=0)
    if len(distinct) < k:
        median = float(np.median(counts))
        labels = {s: (Hotness.HOT if c > median else Hotness.COLD)
                  for s, c in zip(slice_ids, counts)}
        return HotnessLabels(labels, stats.slice_size, stats.page_size)
    assign, _, _ = kmeans(points, k, max_iterations, tol)
    best = None
    best_key = None
    for j in range(k):
        member = assign == j
        if not member.any():
            continue
        # maximize count, then minimize interval, then lower cluster index
        key = (-counts[member].mean(), intervals[member].mean(), j)
        if best_key is None or key < best_key:
            best, best_key = j, key
    labels = {s: (Hotness.HOT if assign[i] == best else Hotness.COLD)
              for i, s in enumerate(slice_ids)}
    return HotnessLabels(labels, stats.slice_size, stats.page_size)


class HotnessClassifier:
    """Owns the window statistics, the trigger counter, and current labels."""

    def __init__(self, slice_size: int, page_size: int,
                 kmeans_tol: float = 1e-4):
        self.stats = UpdateStats(slice_size, page_size)
        self.labels = HotnessLabels({}, slice_size, page_size)
        self.writes_since_classify = 0
        self.generation = 0             # classifications run so far
        self.kmeans_tol = kmeans_tol

    def record_write(self, lpn: int, now_us: float) -> None:
        self.stats.record_update(lpn, now_us)
        self.writes_since_classify += 1

    def is_hot(self, lpn: int) -> bool:
        return self.labels.label_of(lpn) is Hotness.HOT

    def maybe_classify(self, config: ConfigProfile,
                       now_us: float) -> HotnessLabels | None:
        """Re-cluster once enough writes accumulated; resets the window."""
        if self.writes_since_classify < config.kmeans_trigger_threshold:
            return None
        self.generation += 1
        self.labels = classify(
            self.stats, now_us, k=2,
            max_iterations=config.kmeans_max_iterations,
            tol=self.kmeans_tol)
        self.stats.reset(now_us)
        self.writes_since_classify = 0
        return self.labels

    def reconfigure(self, slice_size: int, now_us: float) -> None:
        """Slice geometry changed: old slice ids are meaningless, restart."""
        if slice_size == self.stats.slice_size:
            return
        page_size = self.stats.page_size
        self.stats = UpdateStats(slice_size, page_size)
        self.stats.window_start_us = now_us
        self.labels = HotnessLabels({}, slice_size, page_size)
        self.writes_since_classify = 0
