"""Cache on equals cache off: the hot-key cache never changes an answer.

Two batchers on twin planes serve the same random mixed batches, one
through a small cache that starts full and one with no cache at all.
Every batch's ``(values, found, deleted, owners)`` must match between
the two, and after each batch every resident entry must equal the
store's value -- whatever the admission rule installs, declines or
writes around.
"""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.hashing import make_table
from repro.serve import HotKeyCache, MicroBatcher
from repro.service import Router
from repro.store import DataPlane

#: Small constructor configs so the expensive tables stay fast here.
_CONFIGS = {"hd": {"dim": 256, "codebook_size": 64}}

_UNIVERSE = 40
_STORED = 32
_CAPACITY = 6

_keys = st.lists(st.integers(0, _UNIVERSE - 1), max_size=20)
_batches = st.lists(
    st.tuples(
        _keys, _keys.map(lambda keys: keys[:5]), _keys.map(lambda keys: keys[:10])
    ),
    min_size=1,
    max_size=25,
)


def build_plane(name):
    router = Router(make_table(name, seed=11, **_CONFIGS.get(name, {})))
    router.sync(["srv-{}".format(index) for index in range(5)])
    plane = DataPlane(router)
    plane.put_many(list(range(_STORED)), list(range(_STORED)))
    return plane


@pytest.mark.parametrize("name", ["consistent", "hd"])
@given(batches=_batches)
def test_cache_on_equals_cache_off(name, batches):
    cached_plane, bare_plane = build_plane(name), build_plane(name)
    cache = HotKeyCache(_CAPACITY)
    cached = MicroBatcher(cached_plane, cache=cache)
    bare = MicroBatcher(bare_plane, cache=None)
    cached.serve_gets(list(range(_CAPACITY)))
    assert len(cache) == _CAPACITY
    for index, (gets, deletes, puts) in enumerate(batches):
        values = [1_000 * (index + 1) + position for position in range(len(puts))]
        got = cached.serve(gets, deletes, puts, values)
        want = bare.serve(gets, deletes, puts, values)
        assert got[0].tolist() == want[0].tolist()
        assert np.array_equal(got[1], want[1])
        assert np.array_equal(got[2], want[2])
        assert got[3].tolist() == want[3].tolist()
        for key in cache.keys():
            assert cache.peek(key) == cached_plane.get(key)
