"""Build the serving stack, drive it with a closed loop, check every result.

One run of a workload is: set the stack up (timed, several times, the
median is ``setup_s``), warm the loop up, then measure a window of
``seconds`` during which ``callers`` coroutines each issue their next
request as soon as the previous one resolves.  Callers and the system
share one process and one asyncio thread.  Every read is checked against
the callers' own record of what they wrote; after the window every
stored key is read back at its current owner.

Every time the benchmark reports is divided by the host's slowdown over
the stretch it was measured in (``hostspeed``).
"""

from __future__ import annotations

import asyncio
import gc
import math
import resource
import statistics
import time
from array import array
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro import make_table
from repro.control import ControlLoop, FleetState, ServerSpec
from repro.memory import BurstError, FaultInjector
from repro.serve import ServingFrontend
from repro.service import Router
from repro.store import DataPlane

import hostspeed
from spans import LAYER_METRICS, Tracer
from workloads import CHUNK_BITS, CHUNK, GET, PUT, RequestStream, Workload

#: End-to-end metrics, in report order: ``name -> unit``.
END_TO_END: Dict[str, str] = {
    "setup_s": "s",
    "goodput_rps": "req/s",
    "p50_ms": "ms",
    "peak_rss_mb": "MB",
}

#: Printed with the end-to-end metrics of every untraced run but not
#: gated: zero on a healthy run of most workloads (``fail_frac``),
#: defined on ``resize_under_load`` only, or (``p99_ms``) set by the
#: host's sub-second stalls more than by the program.
REPORTED: Dict[str, str] = {
    "p99_ms": "ms",
    "fail_frac": "ratio",
    "rebalance_s": "s",
    "misroute_frac": "ratio",
}

SETUP_REPEATS = 5
#: The timed window is cut into slices of about this many seconds; each
#: slice's times are divided by the host's slowdown measured in it.
SLICE_SECONDS = 0.25
#: Longest traced window (spans are held in memory, ~70 bytes a request).
TRACE_SECONDS = 10.0
#: Seconds a caller may still wait for its last request after the window.
DRAIN_TIMEOUT = 30.0
#: Interval between the resize workload's ``ControlLoop`` ticks.
CONTROL_PERIOD = 0.02
#: Where the resize workload's four changes land, as window fractions.
SUSPECT_AT, READMIT_AT, SCALE_OUT_AT, BURST_AT = 0.20, 0.30, 0.40, 0.60

_MASK32 = (1 << 32) - 1


def stored_value(key: int, seq: int) -> int:
    """The value a caller writes: its key, and the write's sequence number.

    Sequence 0 is the value stored at set-up, so a read names exactly
    which write it observed -- or shows it observed none.
    """
    return (key << 32) | seq


# -- the system under test ------------------------------------------------------


@dataclass
class Stack:
    """One assembled serving tier."""

    fleet: FleetState
    router: Router
    plane: DataPlane
    control: ControlLoop
    frontend: ServingFrontend


def build_stack(workload: Workload, stream: RequestStream) -> Stack:
    """Table built, fleet joined, keys stored and tracked, cache warmed."""
    table = make_table(workload.algorithm, **workload.table_config)
    fleet = FleetState(ServerSpec(server_name(index)) for index in range(workload.servers))
    router = Router(table)
    plane = DataPlane(router)
    control = ControlLoop(router, plane, fleet)
    control.bootstrap()
    keys = np.arange(workload.stored_keys, dtype=np.int64)
    plane.put_many(keys, stored_value(keys, 0))
    plane.track()
    frontend = ServingFrontend(
        plane,
        max_batch=workload.max_batch,
        max_delay=workload.max_delay,
        cache_capacity=workload.cache_capacity,
    )
    frontend.batcher.serve_gets(stream.hot_keys(workload.cache_capacity))
    return Stack(fleet, router, plane, control, frontend)


def server_name(index: int) -> str:
    return "s{:03d}".format(index)


# -- the callers ------------------------------------------------------------------


class ClosedLoop:
    """Caller coroutines sharing one request stream and one ground truth.

    Ground truth: every mutation takes the next global sequence number;
    ``_seq_key[seq]`` is the key a put wrote (``~key`` for a delete), and
    ``_last[key]`` the newest mutation of ``key`` whose caller has
    resumed.  A read issued after that mutation resolved must observe it
    or a newer one.  Reads observe the pre-batch state and deletes apply
    before puts within a batch, so on workloads with deletes a caller
    waits for an in-flight mutation of the same key before issuing its
    own (the order a per-key-consistent client keeps); puts alone apply
    in issue order and need no wait.
    """

    def __init__(self, frontend: ServingFrontend, stream: RequestStream,
                 window: Tuple[float, float], tracer: Optional[Tracer] = None):
        self._frontend = frontend
        self._stream = stream
        self._tracer = tracer
        self._serialize = stream.workload.delete_frac > 0
        self.window = window
        self._cursor = 0
        self._chunk_index = -1
        self._ops: List[int] = []
        self._keys: List[int] = []
        # The ground truth lives in flat int64 arrays (per key, or 8
        # bytes per mutation), so the callers' own memory barely depends
        # on how many requests a run completes and cannot move the
        # process's peak from one run to the next.
        stored_keys = stream.workload.stored_keys
        self._last = array("q", [0]) * stored_keys
        self._seq_key = array("q", [0])
        self._last_delete = array("q", [-1]) * stored_keys
        self._busy: Dict[int, Optional[list]] = {}
        #: Latency of every request completed in the window, one float32
        #: array per slice (no large reallocation).
        self.slices = [
            array("f") for __ in range(max(1, round((window[1] - window[0]) / SLICE_SECONDS)))
        ]
        self.attempted = 0
        #: ``(kind, key, t0, t1)`` for every request that did not get a
        #: correct answer: ``miss`` (classified at the end), ``error``,
        #: ``stale`` or ``never_written``.
        self.issues: List[Tuple[str, int, float, float]] = []
        self.first_error: Optional[str] = None
        self.own_s = 0.0

    def _load(self, chunk: int) -> None:
        self._ops, self._keys = self._stream.chunk(chunk)
        self._chunk_index = chunk

    async def _claim(self, key: int) -> None:
        busy = self._busy
        while key in busy:
            waiters = busy[key]
            if waiters is None:
                waiters = busy[key] = []
            turn = asyncio.get_running_loop().create_future()
            waiters.append(turn)
            await turn
        busy[key] = None

    def _release(self, key: int) -> None:
        for turn in self._busy.pop(key) or ():
            if not turn.done():
                turn.set_result(None)

    def _check_read(self, key: int, found: bool, value, lower: int) -> Optional[str]:
        if not found:
            return None if self._last_delete[key] >= lower else "miss"
        try:
            owner, seq = value >> 32, value & _MASK32
        except TypeError:
            return "never_written"
        if owner != key or (
            seq and (seq >= len(self._seq_key) or self._seq_key[seq] != key)
        ):
            return "never_written"
        return "stale" if seq < lower else None

    async def caller(self) -> None:
        frontend = self._frontend
        lookup, put, delete = frontend.lookup, frontend.put, frontend.delete
        clock = time.perf_counter
        last, seq_key, last_delete = self._last, self._seq_key, self._last_delete
        start, stop = self.window
        slices = self.slices
        # Shaved so that rounding can never index past the last slice.
        per_second = len(slices) / (stop - start) * (1 - 1e-9)
        tracer = self._tracer
        serialize = self._serialize
        resumed = clock()
        while True:
            rid = self._cursor
            self._cursor = rid + 1
            if rid >> CHUNK_BITS != self._chunk_index:
                self._load(rid >> CHUNK_BITS)
            op = self._ops[rid & (CHUNK - 1)]
            key = self._keys[rid & (CHUNK - 1)]
            kind = None
            if op == GET:
                lower = last[key]
                if tracer is not None:
                    tracer.current_rid = rid
                t0 = clock()
                try:
                    found, value = await lookup(key)
                except Exception as error:  # noqa: BLE001 - every error is a failed request
                    t1 = clock()
                    kind = self._error(error)
                else:
                    t1 = clock()
                    if not (found and lower == 0 and value == key << 32):
                        kind = self._check_read(key, found, value, lower)
            else:
                if serialize:
                    if key in self._busy:
                        await self._claim(key)
                        resumed = clock()
                    else:
                        self._busy[key] = None
                seq = len(seq_key)
                if op == PUT:
                    seq_key.append(key)
                    call = put(key, stored_value(key, seq))
                else:
                    seq_key.append(~key)
                    last_delete[key] = seq
                    call = delete(key)
                if tracer is not None:
                    tracer.current_rid = rid
                t0 = clock()
                try:
                    await call
                except Exception as error:  # noqa: BLE001 - every error is a failed request
                    kind = self._error(error)
                t1 = clock()
                if last[key] < seq:
                    last[key] = seq
                if serialize:
                    self._release(key)
            if start <= t0 < stop:
                self.attempted += 1
            if start <= t1 < stop:
                slices[int((t1 - start) * per_second)].append(t1 - t0)
            if kind is not None:
                self.issues.append((kind, key, t0, t1))
            if tracer is not None and tracer.active:
                tracer.request(rid, t0, t1)
                self.own_s += t0 - resumed
            resumed = t1
            if t1 >= stop:
                return

    def _error(self, error: Exception) -> str:
        if self.first_error is None:
            self.first_error = repr(error)
        return "error"

    def final_state(self) -> Tuple[np.ndarray, np.ndarray]:
        """Each key's expected ``(value, present)`` once every call resolved."""
        seqs = np.frombuffer(self._last, dtype=np.int64)
        keys = np.arange(seqs.size, dtype=np.int64)
        touched = seqs > 0
        present = np.ones(seqs.size, dtype=bool)
        present[touched] = np.frombuffer(self._seq_key, dtype=np.int64)[seqs[touched]] >= 0
        return (keys << 32) | seqs, present


# -- the resize workload's control plane ------------------------------------------


class ResizeEvents:
    """Ticks a ``ControlLoop`` through four changes at fixed window points.

    1. one server turns suspect (failover: its uncached keys miss,
       because the data plane keeps no replicas);
    2. it is readmitted;
    3. ``scale_out`` servers are admitted in one tick (epoch close,
       re-track, migration, cache invalidation);
    4. a ``burst_bits`` multi-cell upset hits the live table's memory.
    """

    def __init__(self, stack: Stack, workload: Workload, stream: RequestStream):
        self._stack = stack
        self._workload = workload
        self._rng = stream.events_rng()
        self.victim = server_name(int(self._rng.integers(workload.servers)))
        keys = np.arange(workload.stored_keys, dtype=np.int64)
        #: Keys the victim owns while it is suspect (no membership change
        #: happens before it is readmitted).
        self.victim_keys = stack.router.assign_batch(keys) == self.victim
        self.suspect_from = self.readmitted_at = math.inf
        self.flagged_servers = 0
        self.rebalance_s = 0.0
        self.moved_keys = 0
        self.flipped_bits = 0
        self.injected_at = math.inf
        self._injector: Optional[FaultInjector] = None
        self._clean: Optional[dict] = None
        self.misrouted: Optional[np.ndarray] = None

    def _suspect(self) -> None:
        self.suspect_from = time.perf_counter()
        self._stack.fleet.mark_suspect(self.victim)
        self._stack.control.tick()
        self.flagged_servers = max(self.flagged_servers, len(self._stack.router.avoided))

    def _readmit(self) -> None:
        self._stack.fleet.mark_healthy(self.victim)
        self._stack.control.tick()
        self.readmitted_at = time.perf_counter()

    def _scale_out(self) -> None:
        workload = self._workload
        started = time.perf_counter()
        for index in range(workload.servers, workload.servers + workload.scale_out):
            self._stack.fleet.add(ServerSpec(server_name(index)))
        report = self._stack.control.tick()
        self.rebalance_s = time.perf_counter() - started
        self.moved_keys = sum(record.probes_moved for record in report.epochs)

    def _burst(self) -> None:
        self._injector = FaultInjector(self._stack.router.table.memory_regions())
        self._clean = self._injector.snapshot()
        self.injected_at = time.perf_counter()
        flipped = self._injector.inject(BurstError(length=self._workload.burst_bits), self._rng)
        self.flipped_bits = len(flipped)

    async def run(self, start: float, stop: float) -> None:
        clock = time.perf_counter
        schedule = [
            (SUSPECT_AT, self._suspect),
            (READMIT_AT, self._readmit),
            (SCALE_OUT_AT, self._scale_out),
        ]
        if self._workload.burst_bits:
            schedule.append((BURST_AT, self._burst))
        for point, change in schedule:
            due = start + point * (stop - start)
            while clock() < due:
                await asyncio.sleep(min(CONTROL_PERIOD, due - clock()))
                self._stack.control.tick()
            change()
        while clock() < stop:
            await asyncio.sleep(CONTROL_PERIOD)
            self._stack.control.tick()

    def measure_misroutes(self) -> None:
        """Owners of every stored key with the burst vs just before it."""
        if self._injector is None:
            return
        router = self._stack.router
        keys = np.arange(self._workload.stored_keys, dtype=np.int64)
        corrupted = self._injector.snapshot()
        owners = router.route_batch(keys)
        self._injector.restore(self._clean)
        clean = router.route_batch(keys)
        self._injector.restore(corrupted)
        self.misrouted = owners != clean

    def degraded(self, key: int, t0: float, t1: float) -> bool:
        """Whether a miss is the documented effect of a change, not a bug."""
        if self.victim_keys[key] and t1 >= self.suspect_from and t0 <= self.readmitted_at:
            return True
        return self.misrouted is not None and bool(self.misrouted[key]) and t1 >= self.injected_at


# -- one measured window ----------------------------------------------------------


@dataclass
class Window:
    """What one measured window saw."""

    seconds: float
    loop: ClosedLoop
    events: Optional[ResizeEvents]
    hit_rate: float
    unresolved: int
    #: Requests issued in the window, by outcome (``_classify``).
    counts: Dict[str, int] = field(default_factory=dict)
    #: Completion times of requests completed in the window without a
    #: correct answer.
    bad_completions: np.ndarray = field(default_factory=lambda: np.empty(0))
    verified_keys: int = 0
    verify_failures: int = 0
    #: ``(time, seconds)`` of every host-speed probe.
    probes: Tuple[np.ndarray, ...] = ()

    @property
    def failed(self) -> int:
        return (
            self.counts.get("miss", 0)
            + self.counts.get("error", 0)
            + self.counts.get("stale", 0)
            + self.counts.get("never_written", 0)
            + self.unresolved
        )

    @property
    def attempted(self) -> int:
        return self.loop.attempted + self.unresolved

    @property
    def correct(self) -> bool:
        return self.failed == 0 and self.verify_failures == 0

    @property
    def fail_frac(self) -> float:
        degraded = self.counts.get("degraded", 0)
        return (self.failed + degraded) / self.attempted if self.attempted else 0.0

    @property
    def samples(self) -> int:
        return sum(len(part) for part in self.loop.slices)

    def _slice_of(self, times: np.ndarray) -> np.ndarray:
        start = self.loop.window[0]
        count = len(self.loop.slices)
        return np.clip(((times - start) * (count / self.seconds)).astype(np.int64), 0, count - 1)

    def host_factors(self) -> np.ndarray:
        """The host's slowdown in each slice (``hostspeed.factor``).

        A slice no probe ran in (one long stall) takes the window's
        median probe.
        """
        times, spent = self.probes
        start, stop = self.loop.window
        inside = (times >= start) & (times < stop)
        slice_of = self._slice_of(times[inside])
        spent = spent[inside]
        everywhere = hostspeed.factor(spent) if spent.size else 1.0
        return np.array([
            hostspeed.factor(spent[slice_of == index]) if (slice_of == index).any() else everywhere
            for index in range(len(self.loop.slices))
        ])

    def good_completions(self) -> np.ndarray:
        """Requests completed correctly in each slice."""
        bad = np.bincount(self._slice_of(self.bad_completions), minlength=len(self.loop.slices))
        return np.array([len(part) for part in self.loop.slices]) - bad

    def serving(self) -> Dict[str, float]:
        """Goodput, p50 and p99 over the whole window, at reference speed.

        Each slice's elapsed time and latencies are divided by the host's
        slowdown in that slice; goodput is every correct completion over
        the summed reference-speed time, p50 and p99 come from every
        latency sample of the window pooled.
        """
        factors = self.host_factors()
        width = self.seconds / len(self.loop.slices)
        latencies = [
            np.frombuffer(part, dtype=np.float32) / factor
            for part, factor in zip(self.loop.slices, factors)
        ]
        pooled = np.concatenate(latencies)
        if not pooled.size:
            return {"goodput_rps": 0.0, "p50_ms": 0.0, "p99_ms": 0.0}
        p50, p99 = np.percentile(pooled, [50, 99])
        return {
            "goodput_rps": float(self.good_completions().sum() / (width / factors).sum()),
            "p50_ms": float(p50) * 1e3,
            "p99_ms": float(p99) * 1e3,
        }


def _classify(window: Window) -> None:
    start, stop = window.loop.window
    counts: Dict[str, int] = {}
    bad_completions = []
    events = window.events
    for kind, key, t0, t1 in window.loop.issues:
        if kind == "miss" and events is not None and events.degraded(key, t0, t1):
            kind = "degraded"
        if start <= t0 < stop:
            counts[kind] = counts.get(kind, 0) + 1
        if start <= t1 < stop:
            bad_completions.append(t1)
    window.counts = counts
    window.bad_completions = np.asarray(bad_completions, dtype=np.float64)


def _verify_stored(stack: Stack, window: Window, stored_keys: int) -> None:
    """Read every stored key back at its current owner."""
    keys = np.arange(stored_keys, dtype=np.int64)
    values, found = stack.plane.get_many(keys)
    expected, present = window.loop.final_state()
    observed = np.zeros(stored_keys, dtype=np.int64)
    observed[found] = values[found].astype(np.int64)
    wrong = (found != present) | (found & (observed != expected))
    events = window.events
    if events is not None and events.misrouted is not None:
        wrong &= ~(events.misrouted & ~found)
    window.verified_keys = stored_keys
    window.verify_failures = int(np.count_nonzero(wrong))


async def _drive(stack: Stack, workload: Workload, stream: RequestStream,
                 seconds: float, warmup: float, tracer: Optional[Tracer]) -> Window:
    frontend = stack.frontend
    metrics = frontend.metrics
    clock = time.perf_counter
    events = (
        ResizeEvents(stack, workload, stream)
        if workload.scale_out or workload.burst_bits
        else None
    )
    frontend.start()
    start = clock() + warmup
    stop = start + seconds
    loop = ClosedLoop(frontend, stream, (start, stop), tracer)
    cache_counts: List[Tuple[int, int]] = []

    async def mark_window() -> None:
        await asyncio.sleep(max(0.0, start - clock()))
        cache_counts.append((metrics.cache_hits, metrics.cache_misses))
        if tracer is not None:
            tracer.open_window()
        await asyncio.sleep(max(0.0, stop - clock()))
        if tracer is not None:
            tracer.close_window()
        cache_counts.append((metrics.cache_hits, metrics.cache_misses))

    probes = (array("d"), array("d"))

    async def probe_host() -> None:
        times, spent = probes
        while clock() < stop:
            await asyncio.sleep(hostspeed.PERIOD)
            spent.append(hostspeed.probe())
            times.append(clock())

    helpers = [asyncio.ensure_future(mark_window()), asyncio.ensure_future(probe_host())]
    if events is not None:
        helpers.append(asyncio.ensure_future(events.run(start, stop)))
    if tracer is not None:
        helpers.append(asyncio.ensure_future(tracer.lag_probe(stop)))
    callers = [asyncio.ensure_future(loop.caller()) for __ in range(workload.callers)]
    done, pending = await asyncio.wait(callers, timeout=stop - clock() + DRAIN_TIMEOUT)
    for task in pending:
        task.cancel()
    await asyncio.gather(*pending, return_exceptions=True)
    for task in done:
        task.result()
    await asyncio.gather(*helpers)
    await frontend.stop()
    (hits0, misses0), (hits1, misses1) = cache_counts
    lookups = (hits1 - hits0) + (misses1 - misses0)
    return Window(
        seconds=seconds,
        loop=loop,
        events=events,
        hit_rate=(hits1 - hits0) / lookups if lookups else 0.0,
        unresolved=len(pending),
        probes=tuple(np.frombuffer(column, dtype=np.float64) for column in probes),
    )


def measure_window(stack: Stack, workload: Workload, stream: RequestStream,
                   seconds: float, tracer: Optional[Tracer] = None) -> Window:
    """Serve one timed window, then classify and verify what it did."""
    warmup = min(1.0, seconds / 5)
    window = asyncio.run(_drive(stack, workload, stream, seconds, warmup, tracer))
    if window.events is not None:
        window.events.measure_misroutes()
    _classify(window)
    _verify_stored(stack, window, workload.stored_keys)
    return window


# -- a whole run -------------------------------------------------------------------


@dataclass
class Report:
    """What one run prints: header lines, then the result object."""

    lines: List[str]
    correct: bool
    attempted: int
    failed: int
    metrics: Dict[str, Tuple[float, str]]

    def result(self) -> dict:
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": value, "unit": unit}
                for name, (value, unit) in self.metrics.items()
            },
        }


def _setup(workload: Workload, stream: RequestStream) -> Tuple[Stack, float]:
    """A built stack, and its set-up time at reference speed."""
    with hostspeed.SetupProbe() as probe:
        started = time.perf_counter()
        stack = build_stack(workload, stream)
        elapsed = time.perf_counter() - started
    return stack, elapsed / probe.slowdown()


def _describe(workload: Workload, window: Window) -> List[str]:
    settings = " ".join("{}={}".format(k, v) for k, v in workload.settings().items())
    events = window.events
    counts = window.counts
    return [
        "settings: " + settings,
        "measured: hit_rate={:.4f} flagged_servers={} host_factor={:.3f} "
        "raw_goodput_rps={:.0f} samples={} attempted={} "
        "degraded_misses={} failed={} (miss={} error={} stale={} never_written={} "
        "unresolved={}) verified_keys={} verify_failures={}".format(
            window.hit_rate,
            events.flagged_servers if events is not None else 0,
            float(np.median(window.host_factors())),
            window.good_completions().sum() / window.seconds,
            window.samples,
            window.attempted,
            counts.get("degraded", 0),
            window.failed,
            counts.get("miss", 0),
            counts.get("error", 0),
            counts.get("stale", 0),
            counts.get("never_written", 0),
            window.unresolved,
            window.verified_keys,
            window.verify_failures,
        )
        + (
            ""
            if events is None
            else " epoch_moved_keys={} flipped_bits={}".format(
                events.moved_keys, events.flipped_bits
            )
        )
        + ("" if window.loop.first_error is None else " first_error=" + window.loop.first_error),
    ]


def _reported(window: Window, serving: Dict[str, float]) -> Dict[str, float]:
    events = window.events
    misrouted = events.misrouted if events is not None else None
    return {
        "p99_ms": serving["p99_ms"],
        "fail_frac": window.fail_frac,
        "rebalance_s": events.rebalance_s if events is not None else 0.0,
        "misroute_frac": float(misrouted.mean()) if misrouted is not None else 0.0,
    }


def run_untraced(workload: Workload, seed: int, seconds: float) -> Report:
    """The end-to-end run: median set-up of several, one measured window."""
    stream = RequestStream(workload, seed)
    setup_times = []
    stack = None
    for __ in range(SETUP_REPEATS):
        if stack is not None:
            stack.frontend.close()
            stack = None
            gc.collect()
        stack, elapsed = _setup(workload, stream)
        setup_times.append(elapsed)
    window = measure_window(stack, workload, stream, seconds)
    # Read before the latencies are pooled: the pooled copies grow with
    # the requests a run completes.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    stack.frontend.close()
    serving = window.serving()
    values = {
        "setup_s": statistics.median(setup_times),
        **serving,
        "peak_rss_mb": peak_rss_mb,
    }
    lines = _describe(workload, window)
    lines += [
        "  {:<14} {:>16.6g} {}".format(name, value, unit)
        for name, unit, value in [(n, END_TO_END[n], values[n]) for n in END_TO_END]
        + [(n, REPORTED[n], v) for n, v in _reported(window, serving).items()]
    ]
    return Report(
        lines=lines,
        correct=window.correct,
        attempted=window.attempted,
        failed=window.failed,
        metrics={name: (values[name], unit) for name, unit in END_TO_END.items()},
    )


def run_traced(workload: Workload, seed: int, seconds: float, spans_path=None) -> Report:
    """The per-layer run: an untraced window for the baseline goodput,
    then the same workload from a fresh set-up with every layer traced.

    Both windows last at most ``TRACE_SECONDS``: every span stays in
    memory until the run ends.
    """
    seconds = min(seconds, TRACE_SECONDS)
    stream = RequestStream(workload, seed)
    stack, __ = _setup(workload, stream)
    baseline = measure_window(stack, workload, stream, seconds)
    stack.frontend.close()
    del stack
    gc.collect()
    stack, __ = _setup(workload, stream)
    tracer = Tracer()
    tracer.install(stack.frontend, stack.control)
    try:
        window = measure_window(stack, workload, stream, seconds, tracer)
    finally:
        tracer.uninstall()
    stack.frontend.close()
    values, self_share = tracer.layer_metrics(
        workload.max_batch, window.loop.own_s, window.attempted
    )
    events = window.events
    values["service.flagged_servers"] = events.flagged_servers if events is not None else 0
    serving = window.serving()
    values.update(_reported(window, serving))
    untraced = baseline.serving()["goodput_rps"]
    values["trace.overhead_frac"] = 1.0 - serving["goodput_rps"] / untraced if untraced else 0.0
    if spans_path is not None:
        tracer.write(spans_path)
    lines = _describe(workload, window)
    lines.append(
        "self time by layer (share of the traced window): "
        + " ".join(
            "{}={:.3f}".format(layer, share)
            for layer, share in sorted(self_share.items(), key=lambda item: -item[1])
        )
    )
    lines += [
        "  {:<32} {:>16.6g} {}".format(name, values[name], unit)
        for name, unit in LAYER_METRICS.items()
    ]
    return Report(
        lines=lines,
        correct=window.correct and baseline.correct,
        attempted=window.attempted,
        failed=window.failed,
        metrics={name: (values[name], unit) for name, unit in LAYER_METRICS.items()},
    )
