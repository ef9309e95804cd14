"""Independent reference implementations used to check the simulator.

Everything here is written flat and dumb on purpose: plain lists, no shared
code with the package beyond the latency table values and its exception
types, so an agreement between the two is evidence rather than tautology.
The op log, the payload tracker, `PerPageHost` and the action-source
adapters are the exceptions: they work on an engine's own state, to check
the engine against itself.
"""
import enum
import math
from dataclasses import dataclass
from heapq import heappop

from hybridssd.errors import CapacityError, ConfigError
from hybridssd.ftl import SAFETY_BOUND, ActionKind
from hybridssd.ssd import Mode

INVALID = "X"


def recompute_request_latency(entry, lat):
    """Latency of one logged request from its (op, mode, channel) records.

    Parallel ops overlap across channels (cost = slowest channel); serial
    ops are a dependency chain (cost = plain sum).
    """
    def op_cost(op, mode):
        if op == "read":
            return lat.read_slc if mode == "slc" else lat.read_qlc
        if op == "program":
            return lat.write_slc if mode == "slc" else lat.write_qlc
        if op == "erase":
            return lat.erase_slc if mode == "slc" else lat.erase_qlc
        raise AssertionError(f"unknown op {op!r}")

    per_channel = {}
    for op, mode, ch in entry["parallel"]:
        per_channel[ch] = per_channel.get(ch, 0.0) + op_cost(op, mode)
    total = max(per_channel.values()) if per_channel else 0.0
    for op, mode, ch in entry["serial"]:
        total += op_cost(op, mode)
    return total


def recompute_total_latency(op_log, lat):
    return sum(recompute_request_latency(e, lat) for e in op_log)


class FlashOpLog:
    """Every flash op one FtlEngine performs, observed from outside.

    Wraps the read/program/erase methods of the engine's SsdState instance
    and the request and action entry points of the engine instance. Each
    handle_write/handle_read call, rejected ones included, appends one entry
    {"parallel": [...], "serial": [...]} of (op, mode, channel) records; ops
    that run inside execute_action are GC work and go under "serial". Ops
    outside any request (a direct execute_action call) are not logged. The
    bulk ops count per page: relocate logs one read on its victim and one
    program on the destination per lpn it moves, then the erase its
    erase_block call logs; program_run logs one program per lpn it
    appends. Serial ops are a plain sum, so their order in the log does
    not matter for whole-microsecond costs.
    """

    def __init__(self, ftl):
        self.entries = []
        self._current = None
        self._in_action = False
        ssd = ftl.ssd
        for op, name in (("read", "read_page"), ("program", "program_page"),
                         ("erase", "erase_block")):
            setattr(ssd, name, self._flash_op(op, ssd, getattr(ssd, name)))
        relocate, program_run = ssd.relocate, ssd.program_run

        def move(src, plan):
            for block_id, lpns in plan:
                self._log("read", ssd, src, len(lpns))
                self._log("program", ssd, block_id, len(lpns))
            return relocate(src, plan)

        def run(block_id, lpns):
            self._log("program", ssd, block_id, len(lpns))
            return program_run(block_id, lpns)

        ssd.relocate, ssd.program_run = move, run
        for name in ("handle_write", "handle_read"):
            setattr(ftl, name, self._request(getattr(ftl, name)))
        ftl.execute_action = self._action(ftl.execute_action)

    def _log(self, op, ssd, block_id, count=1):
        if self._current is not None:
            # mode before the op: an erase or program never changes it
            mode = ssd.mode[block_id].value
            part = "serial" if self._in_action else "parallel"
            self._current[part].extend(
                [(op, mode, block_id % ssd.geometry.channels)] * count)

    def _flash_op(self, op, ssd, fn):
        def wrapped(block_id, *args, **kwargs):
            self._log(op, ssd, block_id)
            return fn(block_id, *args, **kwargs)
        return wrapped

    def _request(self, fn):
        def wrapped(*args, **kwargs):
            self._current = {"parallel": [], "serial": []}
            self.entries.append(self._current)
            try:
                return fn(*args, **kwargs)
            finally:
                self._current = None
        return wrapped

    def _action(self, fn):
        def wrapped(*args, **kwargs):
            self._in_action = True
            try:
                return fn(*args, **kwargs)
            finally:
                self._in_action = False
        return wrapped


class PagePayloads:
    """The payload each physical page of one FtlEngine holds, observed from
    outside.

    Wraps the engine instance's handle_write and execute_action and the
    read_page/program_page/relocate/program_run methods of its SsdState
    instance. The wrapped handle_write takes an extra `tag` keyword: every
    page programmed by that host write holds the tag. A page programmed
    inside execute_action (a GC migration) holds the payload of the page
    read just before it, and each read pays for one program only, so a
    migration that skips its read moves None instead of the data. In bulk,
    relocate hands the payload of the victim page that stores each lpn to
    the page that lpn moves to; a page program_run writes inside
    execute_action, not moved from anywhere, gets None.
    """

    def __init__(self, ftl):
        self.ssd = ftl.ssd
        self.by_ppn = {}
        self._tag = None
        self._last_read = None
        self._in_action = False
        read, program = self.ssd.read_page, self.ssd.program_page
        relocate, program_run = self.ssd.relocate, self.ssd.program_run
        write, action = ftl.handle_write, ftl.execute_action

        def read_page(block_id, page_idx):
            self._last_read = self.by_ppn.get((block_id, page_idx))
            return read(block_id, page_idx)

        def program_page(block_id, page_idx, lpn):
            if self._in_action:
                payload, self._last_read = self._last_read, None
            else:
                payload = self._tag
            us = program(block_id, page_idx, lpn)
            self.by_ppn[(block_id, page_idx)] = payload
            return us

        def move(src, plan):
            where = {lpn: idx for idx, lpn in enumerate(self.ssd.pages[src])}
            us = relocate(src, plan)
            for _, lpns in plan:
                for lpn in lpns:
                    self.by_ppn[self.ssd.locate(lpn)] = self.by_ppn.get(
                        (src, where.get(lpn)))
            return us

        def run(block_id, lpns):
            start = len(self.ssd.pages[block_id])
            program_run(block_id, lpns)
            for idx, lpn in enumerate(lpns, start):
                self.by_ppn[(block_id, idx)] = (
                    None if self._in_action else self._tag)

        def handle_write(lpn, n_pages=1, hot=None, tag=None):
            self._tag = tag
            try:
                return write(lpn, n_pages, hot)
            finally:
                self._tag = None

        def execute_action(kind):
            self._in_action = True
            try:
                return action(kind)
            finally:
                self._in_action = False

        self.ssd.read_page, self.ssd.program_page = read_page, program_page
        self.ssd.relocate, self.ssd.program_run = move, run
        ftl.handle_write, ftl.execute_action = handle_write, execute_action

    def payload_of(self, lpn):
        """Payload at the page the device maps lpn to (None if unmapped)."""
        ppn = self.ssd.locate(lpn)
        return None if ppn is None else self.by_ppn.get(ppn)


class PerPageHost:
    """An FtlEngine's host path one page at a time, every step its own
    call: per page the preferred mode, a region with space, a slot in it
    (opening a free block where the channel has none) and the program,
    which retires a block it fills; forced space management when neither
    region has space.

    It runs on the engine's own pools, cursors, counters and space
    management. `slc`, `qlc` and `slc_first` are the two modes and the
    SLC-first placement strategy.
    """

    def __init__(self, ftl, slc, qlc, slc_first):
        self.ftl = ftl
        self.slc, self.qlc, self.slc_first = slc, qlc, slc_first

    def has_space(self, mode):
        ftl = self.ftl
        return (ftl.free_count[mode] > 0 or ftl.active[mode].count(None)
                < ftl.ssd.geometry.channels)

    def allocate_page(self, mode):
        """(block id, page index) of the next slot in `mode` from the
        stripe cursor on, or None."""
        ftl = self.ftl
        channels = ftl.ssd.geometry.channels
        active = ftl.active[mode]
        start = ftl.stripe_cursor[mode]
        for i in range(channels):
            ch = (start + i) % channels
            block_id = active[ch]
            if block_id is None and ftl.free[mode][ch]:
                ftl.free_count[mode] -= 1
                block_id = active[ch] = (heappop(ftl.free[mode][ch])
                                         % len(ftl.ssd.mode))
            if block_id is not None:
                ftl.stripe_cursor[mode] = (ch + 1) % channels
                return block_id, len(ftl.ssd.pages[block_id])
        return None

    def place(self, mode):
        """A slot in `mode` if it has space, else in the other region."""
        if not self.has_space(mode):
            mode = self.qlc if mode is self.slc else self.slc
            if not self.has_space(mode):
                return None
        return self.allocate_page(mode)

    def program(self, placed, lpn):
        """Program `lpn` at `placed`; (latency, channel)."""
        ftl = self.ftl
        ssd = ftl.ssd
        block_id, page_idx = placed
        us = ssd.program_page(block_id, page_idx, lpn)
        ftl.wa.device_pages_written += 1
        ch = block_id % ssd.geometry.channels
        if not ssd.free_pages(block_id):
            active = ftl.active[ssd.mode[block_id]]
            if active[ch] == block_id:
                active[ch] = None
        return us, ch

    def preferred_mode(self, hot):
        if self.ftl.config.placement_strategy is self.slc_first:
            return self.slc
        return self.slc if hot else self.qlc

    def handle_write(self, lpn, n_pages=1, hot=None):
        ftl = self.ftl
        if (lpn < 0 or n_pages < 1
                or lpn + n_pages > ftl.ssd.logical_capacity_pages):
            ftl.rejected_requests += 1
            return 0.0
        per_channel = {}
        gc_us = 0.0
        for i in range(lpn, lpn + n_pages):
            old = ftl.ssd.locate(i)
            if old is not None:
                ftl.ssd.invalidate_page(*old)
            mode = self.preferred_mode(hot)
            placed = self.place(mode)
            if placed is None:
                gc_us += ftl._space_management(forced=True)
                placed = self.place(mode)
                if placed is None:
                    raise CapacityError("device full even after space "
                                        "management")
            us, ch = self.program(placed, i)
            per_channel[ch] = per_channel.get(ch, 0.0) + us
        ftl.wa.host_pages_written += n_pages
        gc_us += ftl._space_management()
        base = max(per_channel.values()) if per_channel else 0.0
        return base + gc_us

    def handle_read(self, lpn, n_pages=1):
        ftl = self.ftl
        if (lpn < 0 or n_pages < 1
                or lpn + n_pages > ftl.ssd.logical_capacity_pages):
            ftl.rejected_requests += 1
            return 0.0
        per_channel = {}
        for i in range(lpn, lpn + n_pages):
            ppn = ftl.ssd.locate(i)
            if ppn is None:
                ftl.unmapped_reads += 1
                continue
            us = ftl.ssd.read_page(*ppn)
            ch = ppn[0] % ftl.ssd.geometry.channels
            per_channel[ch] = per_channel.get(ch, 0.0) + us
        return max(per_channel.values()) if per_channel else 0.0


def free_ids(ftl, mode, ch):
    """Block ids in the engine's free pool of `mode` on channel `ch`,
    decoded from the pooled wear keys."""
    n_blocks = len(ftl.ssd.mode)
    return {key % n_blocks for key in ftl.free[mode][ch]}


def least_worn(erase_count, ids):
    """The set-scan allocator's pick from `ids`: fewest erases, then lowest
    id; None from no ids."""
    return min(ids, key=lambda b: (erase_count[b], b), default=None)


class MiniSlcFtl:
    """Single-channel, all-SLC page-mapped FTL with the same policy choices
    as the engine: append-only active block, cheapest-free-block allocation,
    min-(valid, erase, id) victim, GC below a free-fraction threshold,
    forced GC when allocation fails, 64-round safety bound."""

    def __init__(self, n_blocks, pages_per_block, logical_pages,
                 gc_trigger_pct):
        self.n = n_blocks
        self.ppb = pages_per_block
        self.logical = logical_pages
        self.th = gc_trigger_pct / 100.0
        self.pages = [[None] * pages_per_block for _ in range(n_blocks)]
        self.wp = [0] * n_blocks
        self.erase_count = [0] * n_blocks
        self.free_pool = set(range(n_blocks))
        self.active = None
        self.map = {}
        self.host = 0
        self.device = 0
        self.erases = 0
        self.warnings = 0

    # helpers ------------------------------------------------------------

    def _valid(self, b):
        return sum(1 for p in self.pages[b][:self.wp[b]]
                   if p is not None and p != INVALID)

    def _invalid(self, b):
        return sum(1 for p in self.pages[b][:self.wp[b]] if p == INVALID)

    def _free_fraction(self):
        return len(self.free_pool) / self.n

    def _has_space(self):
        return self.active is not None or bool(self.free_pool)

    def _free_pages(self):
        pages = len(self.free_pool) * self.ppb
        if self.active is not None:
            pages += self.ppb - self.wp[self.active]
        return pages

    def _take_active(self):
        if self.active is None:
            if not self.free_pool:
                return None
            self.active = min(self.free_pool,
                              key=lambda b: (self.erase_count[b], b))
            self.free_pool.remove(self.active)
        return self.active

    def _program(self, lpn):
        b = self._take_active()
        if b is None:
            return False
        idx = self.wp[b]
        self.pages[b][idx] = lpn
        self.wp[b] += 1
        self.map[lpn] = (b, idx)
        self.device += 1
        if self.wp[b] == self.ppb:
            self.active = None
        return True

    def _victim(self):
        best, key = None, None
        for b in range(self.n):
            if b == self.active or self._invalid(b) == 0:
                continue
            k = (self._valid(b), self.erase_count[b], b)
            if key is None or k < key:
                best, key = b, k
        return best

    def _gc_once(self):
        v = self._victim()
        if v is None:
            return False
        if self._valid(v) > self._free_pages():
            return False
        for idx in range(self.wp[v]):
            lpn = self.pages[v][idx]
            if lpn is None or lpn == INVALID:
                continue
            self.pages[v][idx] = INVALID
            del self.map[lpn]
            self._program(lpn)
        self.pages[v] = [None] * self.ppb
        self.wp[v] = 0
        self.erase_count[v] += 1
        self.erases += 1
        self.free_pool.add(v)
        return True

    def _gc_loop(self, forced):
        rounds = 0
        while rounds < 64:
            if forced:
                if self._has_space():
                    break
            elif self._free_fraction() >= self.th:
                break
            if not self._gc_once():
                break           # fallback policy idles when nothing fits
            rounds += 1
        if rounds >= 64:
            self.warnings += 1

    # host interface -------------------------------------------------------

    def write(self, lpn, n_pages=1):
        if lpn < 0 or n_pages < 1 or lpn + n_pages > self.logical:
            return
        for i in range(lpn, lpn + n_pages):
            old = self.map.get(i)
            if old is not None:
                b, idx = old
                self.pages[b][idx] = INVALID
                del self.map[i]
            if not self._has_space():
                self._gc_loop(forced=True)
            if not self._program(i):
                raise AssertionError("oracle device full")
        self.host += n_pages
        self._gc_loop(forced=False)

    @property
    def wa(self):
        return self.device / self.host


def kmeans_two_point(points, max_iterations=10):
    """Plain 1-D-friendly 2-means on normalized points; returns labels.

    Seeds at the two extreme points along the first axis (ties broken by the
    second), assigns by squared distance with lower-index preference, recomputes
    means until stable. Used to sanity-check cluster membership.
    """
    if len(points) < 2:
        return [0] * len(points)
    order = sorted(range(len(points)), key=lambda i: points[i])
    c = [list(points[order[0]]), list(points[order[-1]])]
    labels = [0] * len(points)
    for _ in range(max_iterations):
        changed = False
        for i, p in enumerate(points):
            d = [sum((a - b) ** 2 for a, b in zip(p, cj)) for cj in c]
            j = 0 if d[0] <= d[1] else 1
            if labels[i] != j:
                labels[i] = j
                changed = True
        for j in (0, 1):
            members = [points[i] for i in range(len(points)) if labels[i] == j]
            if members:
                c[j] = [sum(col) / len(members) for col in zip(*members)]
        if not changed:
            break
    return labels


# --- hotness reference ---------------------------------------------------------
# The classifier as three objects that each keep the slice grid and check it
# on every lookup: per-slice window statistics, one classification's labels,
# and a K-means for any k. HotnessClassifier must agree with it step by step.

class Hotness(enum.Enum):
    HOT = "hot"
    COLD = "cold"


def slice_of(lpn, slice_size, page_size):
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

    def __init__(self, slice_size, page_size):
        slice_of(0, slice_size, page_size)  # validates the pair
        self.slice_size = slice_size
        self.page_size = page_size
        self.window_start_us = 0.0
        self.slices = {}

    def record_update(self, lpn, now_us):
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

    def reset(self, now_us):
        self.slices = {}
        self.window_start_us = now_us


@dataclass(frozen=True)
class HotnessLabels:
    """One classification's labels. Unlabeled slices default to Cold."""

    labels: dict
    slice_size: int
    page_size: int

    def label_of(self, lpn):
        idx = slice_of(lpn, self.slice_size, self.page_size)
        return self.labels.get(idx, Hotness.COLD)

    def hot_slices(self):
        return {s for s, v in self.labels.items() if v is Hotness.HOT}


def _minmax(col):
    import numpy as np
    lo, hi = col.min(), col.max()
    if hi == lo:
        return np.zeros_like(col)
    return (col - lo) / (hi - lo)


def reference_kmeans(points, k, max_iterations, tol):
    """Lloyd's algorithm seeded at evenly spaced quantiles of the first
    feature; returns (assignments, centroids, inertia history)."""
    import numpy as np
    n = len(points)
    order = np.lexsort((np.arange(n), points[:, 0]))
    idx = [order[round(j * (n - 1) / (k - 1))] for j in range(k)] \
        if k > 1 else [order[-1]]
    centroids = points[idx].astype(float).copy()
    assign = np.zeros(n, dtype=int)
    inertia_history = []
    for _ in range(max_iterations):
        d2 = ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        assign = d2.argmin(axis=1)
        inertia_history.append(float(d2[np.arange(n), assign].sum()))
        moved = 0.0
        for j in range(k):
            members = points[assign == j]
            if len(members) == 0:
                continue
            new_c = members.mean(axis=0)
            moved = max(moved, float(np.abs(new_c - centroids[j]).max()))
            centroids[j] = new_c
        if moved < tol:
            break
    return assign, centroids, inertia_history


def reference_classify(stats, now_us, k=2, max_iterations=10, tol=1e-4):
    """Label every observed slice Hot or Cold from one window's stats: the
    cluster with the highest mean count (then lowest mean interval) is Hot;
    with fewer than k distinct points, counts above the median are Hot."""
    import numpy as np
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
    assign, _, _ = reference_kmeans(points, k, max_iterations, tol)
    best = None
    best_key = None
    for j in range(k):
        member = assign == j
        if not member.any():
            continue
        key = (-counts[member].mean(), intervals[member].mean(), j)
        if best_key is None or key < best_key:
            best, best_key = j, key
    labels = {s: (Hotness.HOT if assign[i] == best else Hotness.COLD)
              for i, s in enumerate(slice_ids)}
    return HotnessLabels(labels, stats.slice_size, stats.page_size)


class ReferenceClassifier:
    """Window statistics, trigger counter and labels over the objects
    above; a slice_size change restarts all three."""

    def __init__(self, slice_size, page_size, kmeans_tol=1e-4):
        self.stats = UpdateStats(slice_size, page_size)
        self.labels = HotnessLabels({}, slice_size, page_size)
        self.writes_since_classify = 0
        self.generation = 0
        self.kmeans_tol = kmeans_tol

    def record_write(self, lpn, now_us):
        self.stats.record_update(lpn, now_us)
        self.writes_since_classify += 1

    def is_hot(self, lpn):
        return self.labels.label_of(lpn) is Hotness.HOT

    def maybe_classify(self, config, now_us):
        if self.writes_since_classify < config.kmeans_trigger_threshold:
            return None
        self.generation += 1
        self.labels = reference_classify(
            self.stats, now_us, k=2,
            max_iterations=config.kmeans_max_iterations,
            tol=self.kmeans_tol)
        self.stats.reset(now_us)
        self.writes_since_classify = 0
        return self.labels

    def reconfigure(self, slice_size, now_us):
        if slice_size == self.stats.slice_size:
            return
        page_size = self.stats.page_size
        self.stats = UpdateStats(slice_size, page_size)
        self.stats.window_start_us = now_us
        self.labels = HotnessLabels({}, slice_size, page_size)
        self.writes_since_classify = 0


def q_update(q, alpha, gamma, r, max_next):
    """One Bellman backup, spelled out."""
    return q + alpha * (r + gamma * max_next - q)


def bucket_fraction(fraction, n_buckets):
    """Map a [0,1] fraction onto 0..n_buckets-1 (1.0 lands in the top)."""
    b = int(fraction * n_buckets)
    return min(max(b, 0), n_buckets - 1)


class FlatQTable:
    """Q-table on one flat (state, action) -> value dict, argmax ties to the
    earliest of `actions`, non-finite backups reset to 0."""

    def __init__(self, actions):
        self.actions = list(actions)
        self.q = {}
        self.reset_warnings = 0

    def value(self, state, action):
        return self.q.get((state, action), 0.0)

    def best_action(self, state):
        best = self.actions[0]
        for kind in self.actions[1:]:
            if self.value(state, kind) > self.value(state, best):
                best = kind
        return best

    def max_value(self, state):
        return max(self.value(state, kind) for kind in self.actions)

    def update(self, state, action, r, next_state, alpha, gamma):
        new = q_update(self.value(state, action), alpha, gamma, r,
                       self.max_value(next_state))
        if not math.isfinite(new):
            self.reset_warnings += 1
            new = 0.0
        self.q[(state, action)] = new
        return new

    def to_json_dict(self):
        return {",".join(str(x) for x in state) + "|" + action.value: v
                for (state, action), v in self.q.items()}


class ReferenceAgent:
    """The space-management agent recomputed on every call: each
    observation rebuckets all inputs and ranks the write intensity by
    rescanning the 256-sample window, each decision queues a fresh (state,
    kind) pair. Q-values live in a FlatQTable over `actions`; `slc` and
    `qlc` are the keys of the occupancy dicts."""

    def __init__(self, rng, actions, slc, qlc):
        self.rng = rng
        self.actions = tuple(actions)
        self.slc, self.qlc = slc, qlc
        self.qtable = FlatQTable(self.actions)
        self.pending = []
        self.intensity_samples = []
        self.decisions = 0
        self.trainings = 0

    def intensity_bucket(self, writes_per_second):
        samples = self.intensity_samples
        samples.append(writes_per_second)
        del samples[:-256]
        below = sum(1 for s in samples if s < writes_per_second)
        equal = sum(1 for s in samples if s == writes_per_second)
        return bucket_fraction((below + 0.5 * equal) / len(samples), 4)

    def observe_state(self, free_count, block_tally, write_rate,
                      hot_write_fraction):
        fractions = []
        for mode in (self.slc, self.qlc):
            blocks = block_tally[mode]
            fractions.append(free_count[mode] / blocks if blocks else 0.0)
        return (bucket_fraction(fractions[0], 10),
                bucket_fraction(fractions[1], 10),
                self.intensity_bucket(write_rate),
                bucket_fraction(hot_write_fraction, 4))

    def choose_action(self, state, epsilon):
        if self.rng.random() < epsilon:
            kind = self.rng.choice(self.actions)
        else:
            kind = self.qtable.best_action(state)
        self.pending.append((state, kind))
        self.decisions += 1
        return kind

    def train(self, avg_response_us, next_state, config):
        if not self.pending:
            return None
        r = 1.0 if avg_response_us <= config.rl_reward_threshold else -1.0
        for state, action in self.pending:
            self.qtable.update(state, action, r, next_state,
                               config.rl_learning_rate, config.rl_discount)
        self.pending = []
        self.trainings += 1
        return r


def per_draw(pick):
    """An action source of the engine's (ftl, skip, limit) contract made
    from a picker `pick(ftl) -> kind`, asked once per draw."""
    def source(ftl, skip, limit):
        for draws in range(1, limit + 1):
            kind = pick(ftl)
            ftl.action_counts[kind] += 1
            if kind is ActionKind.IDLE or kind not in skip:
                return kind, draws
        return None, limit
    return source


def per_round_space_management(ftl, pick, forced=False):
    """`FtlEngine._space_management` one round per draw: each round
    re-tests the stop condition unless a kind is futile, asks `pick(ftl)`
    (the fallback order when `forced` or without an action source) and
    counts a repeat of a futile kind or an ineligible conversion as a zero
    outcome that takes no time."""
    if not forced and not ftl._regions_below_threshold():
        return 0.0
    total = 0.0
    futile = set()
    for round_ in range(SAFETY_BOUND):
        if round_ and not futile:
            if forced:
                if ftl._has_space(Mode.SLC) or ftl._has_space(Mode.QLC):
                    break
            elif not ftl._regions_below_threshold():
                break
        if forced or ftl.action_source is None:
            kind = ftl._fallback_action()
        else:
            kind = pick(ftl)
        ftl.action_counts[kind] += 1
        if kind is ActionKind.IDLE:
            break
        if kind in futile or (kind is ActionKind.SLC_TO_QLC_MC
                              and not ftl.mc_eligible()):
            futile.add(kind)
            ftl.ineffective_actions += 1
            continue
        outcome = ftl.execute_action(kind)
        if outcome.effective:
            futile.clear()
        else:
            futile.add(kind)
            ftl.ineffective_actions += 1
        total += outcome.latency_us
    else:
        ftl.capacity_pressure_warnings += 1
    return total


class PerBlockDevice:
    """A fresh device and an engine's free pools built one block at a time:
    the ids below the rounded SLC share start in `slc`, the rest in `qlc`.
    Blocks are [mode, erase_count] lists that `wear` and `convert` change
    as tests change a device."""

    def __init__(self, geometry, split, slc, qlc):
        self.geometry = geometry
        self.slc = slc
        total = geometry.total_blocks
        n_slc = int(split * total + 0.5)
        self.blocks = []
        for block_id in range(total):
            self.blocks.append([slc if block_id < n_slc else qlc, 0])
        self.block_tally = {slc: n_slc, qlc: total - n_slc}

    def fields(self):
        """(mode, pages, free pages, erase_count, valid_count) per block,
        the free pages read from the geometry by mode; no block holds a
        written page."""
        geo = self.geometry
        return [(mode, (), geo.pages_per_block_slc if mode is self.slc
                 else geo.pages_per_block_qlc, erases, 0)
                for mode, erases in self.blocks]

    def wear(self, block_id, erases):
        self.blocks[block_id][1] = erases

    def convert(self, block_id, mode):
        block = self.blocks[block_id]
        if block[0] is not mode:
            self.block_tally[block[0]] -= 1
            self.block_tally[mode] += 1
            block[0] = mode

    def free_pools(self, wear_key):
        """Every block in its mode's pool on its channel, keyed by
        `wear_key(block_id)`; each pool sorted."""
        pools = {mode: [[] for _ in range(self.geometry.channels)]
                 for mode in self.block_tally}
        for block_id, (mode, _) in enumerate(self.blocks):
            pools[mode][self.geometry.channel_of(block_id)].append(
                wear_key(block_id))
        return {mode: [sorted(pool) for pool in by_channel]
                for mode, by_channel in pools.items()}


def reference_parse_line(spec, line, read, write):
    """One trace line as (timestamp in us, (op, offset, size)), or None:
    the column count recomputed from the spec's columns on every line."""
    parts = (line.split(spec.delimiter) if spec.delimiter
             else line.split())
    needed = max(spec.ts_col, spec.op_col, spec.offset_col, spec.size_col)
    if len(parts) <= needed:
        return None
    try:
        ts = float(parts[spec.ts_col]) * spec.ts_scale_us
        offset = int(float(parts[spec.offset_col])) * spec.offset_scale
        size = int(float(parts[spec.size_col])) * spec.size_scale
    except (ValueError, OverflowError):
        return None
    op_text = parts[spec.op_col].strip().lower()
    if op_text in spec.read_values:
        op = read
    elif op_text in spec.write_values:
        op = write
    else:
        return None
    if not math.isfinite(ts) or ts < 0 or offset < 0 or size <= 0:
        return None
    return ts, (op, offset, size)


def reference_load_trace(path, spec, read, write):
    """(records in timestamp order, file order among ties; skipped count),
    parsing line by line: blank lines and `#` comments are no records and
    no skips."""
    timed, skipped = [], 0
    with open(path, "r", encoding="utf-8-sig", errors="replace") as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parsed = reference_parse_line(spec, line, read, write)
            if parsed is None:
                skipped += 1
            else:
                timed.append(parsed)
    timed.sort(key=lambda pair: pair[0])
    return [record for _, record in timed], skipped
