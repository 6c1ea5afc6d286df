"""Acceptance: an HD table holds its codebook once, at its packed size.

At the paper's configuration (a 4,096-entry codebook of 10,000-bit
circular-hypervectors) the packed codebook is 4,096 rows of 1,256 bytes,
5,144,576 bytes.  Routing, the position memo and the fault surface read
only packed words, so a freshly built table should hold little more
than that one copy:

* ``make_table("hd", seed=0)`` holds at most 1.25x the packed codebook
  and peaks at most 2x while it builds (the builder never holds the
  byte-per-bit form, 8x);
* with ``expose_codebook=True`` the table adds its own writable copy
  (the corruptible region) and holds at most 2.25x.

``tracemalloc`` counts the bytes numpy allocates, so these bounds do
not depend on host speed or on the allocator's page reuse the way RSS
does.  A warm-up build runs first, so one-time import and numpy
allocations stay out of the count.
"""

from __future__ import annotations

import gc
import tracemalloc

import pytest

from repro.hashing import make_table
from repro.hdc.packing import row_bytes

#: The paper config's packed codebook: 4,096 rows of 157 words.
PACKED_CODEBOOK_BYTES = 4_096 * row_bytes(10_000)

#: Bytes a built table may hold, and peak at while it builds, as
#: multiples of the packed codebook.
HELD_BOUND = 1.25
PEAK_BOUND = 2.0
EXPOSED_HELD_BOUND = 2.25


def _traced_build(**config):
    """``(table, held, peak)``: traced bytes the built table holds, and the
    traced peak while it builds."""
    make_table("hd", seed=0, **config)  # warm-up
    gc.collect()
    tracemalloc.start()
    try:
        table = make_table("hd", seed=0, **config)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return table, held, peak


@pytest.mark.parametrize("expose_codebook", [False, True])
def test_table_holds_one_packed_codebook(expose_codebook, capsys):
    table, held, peak = _traced_build(expose_codebook=expose_codebook)
    with capsys.disabled():
        print(
            "\nhd table, expose_codebook={}: holds {:.2f} MB ({:.2f}x the "
            "packed codebook), peak {:.2f} MB ({:.2f}x) while building".format(
                expose_codebook,
                held / 1e6,
                held / PACKED_CODEBOOK_BYTES,
                peak / 1e6,
                peak / PACKED_CODEBOOK_BYTES,
            )
        )
    assert table.codebook.packed().nbytes == PACKED_CODEBOOK_BYTES
    if expose_codebook:
        assert held <= EXPOSED_HELD_BOUND * PACKED_CODEBOOK_BYTES
    else:
        assert held <= HELD_BOUND * PACKED_CODEBOOK_BYTES
        assert peak <= PEAK_BOUND * PACKED_CODEBOOK_BYTES
