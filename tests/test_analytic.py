"""Write amplification on a single-mode device against analytic models.

An all-SLC device under uniform random single-page overwrites is the case
the cleaning models describe. The engine's greedy victim choice should sit
below FIFO cleaning and near the large-block greedy limit. Both models take
the reserve, the free blocks that the GC trigger keeps back, as an input,
read from the engine's own trigger.
"""
import random

import pytest

from hybridssd import (ConfigProfile, FtlEngine, LatencyModel, Mode, SsdState,
                       desk_geometry)

from oracles import fifo_wa, greedy_limit_wa, spare_utilization

SEED = 7
# the greedy limit is for infinitely large blocks; 64-page blocks sit above
# it, but by chance alone a run may read a little below
GREEDY_TOLERANCE = 0.85


@pytest.mark.parametrize("op_ratio", [0.125, 0.25])
@pytest.mark.parametrize("gc_trigger", [1, 6])
def test_uniform_overwrites_sit_between_the_greedy_limit_and_fifo(
        op_ratio, gc_trigger):
    ppb = 64
    geo = desk_geometry(1, 256, ppb, op_ratio=op_ratio)
    ssd = SsdState(geo, LatencyModel(), initial_mode_split=1.0)
    ftl = FtlEngine(ssd, ConfigProfile(gc_trigger_threshold=gc_trigger))
    logical = ssd.logical_capacity_pages
    ftl.fill(logical)
    rng = random.Random(SEED)
    for _ in range(2 * logical):
        ftl.handle_write(rng.randrange(logical))
    ftl.reset_counters()
    reserve = ftl.gc_trigger_blocks[Mode.SLC]
    for _ in range(4 * logical):
        ftl.handle_write(rng.randrange(logical))
        assert ftl.free_count[Mode.SLC] == reserve
    wa = ftl.wa.device_pages_written / ftl.wa.host_pages_written
    rho = spare_utilization(logical, len(ssd.mode) * ppb, reserve, ppb)
    assert GREEDY_TOLERANCE * greedy_limit_wa(rho) <= wa <= fifo_wa(rho)
