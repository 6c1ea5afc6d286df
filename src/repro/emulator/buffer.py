"""The request buffer between generator and hash-table module.

"The hash table module reads incoming requests from a buffer" (Section
5.1).  The buffer accepts any request stream and re-emits it as
*dispatch units*: membership requests pass through one-by-one (they are
barriers -- a lookup must see every join before it), while consecutive
lookup keys are coalesced into batches of at most ``batch_size`` (the
paper batches 256 requests to amortise GPU transfer overhead).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Iterable, Iterator, List, Union

import numpy as np

from .requests import (
    JoinRequest,
    LeaveRequest,
    LookupBurst,
    LookupRequest,
    Request,
)

__all__ = ["RequestBuffer", "DispatchUnit"]

#: What the buffer emits: a membership request, or a uint64 key batch.
DispatchUnit = Union[JoinRequest, LeaveRequest, np.ndarray]


class RequestBuffer:
    """Coalesces a request stream into batched dispatch units."""

    def __init__(self, batch_size: int = 256):
        if batch_size < 1:
            raise ValueError("batch size must be at least 1")
        self._batch_size = batch_size
        self._pending: Deque[np.ndarray] = deque()
        self._pending_count = 0

    @property
    def batch_size(self) -> int:
        """Maximum lookup keys per emitted batch."""
        return self._batch_size

    def _push_keys(self, keys: np.ndarray) -> None:
        if keys.size:
            self._pending.append(np.asarray(keys, dtype=np.uint64))
            self._pending_count += int(keys.size)

    def _pop_batch(self) -> np.ndarray:
        """Pop exactly ``min(batch_size, pending)`` keys."""
        want = min(self._batch_size, self._pending_count)
        parts: List[np.ndarray] = []
        got = 0
        while got < want:
            head = self._pending.popleft()
            take = min(head.size, want - got)
            parts.append(head[:take])
            if take < head.size:
                self._pending.appendleft(head[take:])
            got += take
        self._pending_count -= got
        return np.concatenate(parts) if len(parts) > 1 else parts[0]

    def dispatch(self, requests: Iterable[Request]) -> Iterator[DispatchUnit]:
        """Stream dispatch units for ``requests``.

        Emits full batches as soon as they fill, flushes the remainder
        before any membership change, and flushes the tail at the end.
        """
        for request in requests:
            if isinstance(request, (JoinRequest, LeaveRequest)):
                while self._pending_count:
                    yield self._pop_batch()
                yield request
            elif isinstance(request, LookupRequest):
                if isinstance(request.key, bool) or not isinstance(
                    request.key, (int, np.integer)
                ):
                    raise TypeError(
                        "batched dispatch requires integer lookup keys"
                    )
                self._push_keys(np.asarray([request.key], dtype=np.uint64))
                while self._pending_count >= self._batch_size:
                    yield self._pop_batch()
            elif isinstance(request, LookupBurst):
                self._push_keys(request.keys)
                while self._pending_count >= self._batch_size:
                    yield self._pop_batch()
            else:
                raise TypeError(
                    "unsupported request type {!r}".format(type(request).__name__)
                )
        while self._pending_count:
            yield self._pop_batch()
