"""The benchmark's closed-loop driver and the statistics it reports.

One thread issues every operation.  A closed loop keeps at most
``outstanding`` operations in flight: the next one is issued only when a
slot frees, so a slow system is offered less load instead of a growing
queue.  Each operation is timed from the moment it is issued -- the clock
starts before the ``submit_*`` call, so admission work done on the caller's
thread (fingerprinting, the store lookup) is part of its latency.
"""

from __future__ import annotations

import math
import statistics
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Callable, Iterable, List, Optional


@dataclass(eq=False)
class Op:
    """One operation of a workload, generated from the workload seed.

    ``issue`` performs the call and returns a future (synchronous calls
    return an already resolved one).  ``after`` names an earlier operation
    that must have completed before this one is issued: an exact repeat is
    only a repeat once its original's result exists.  ``inputs`` is what the
    output check needs to recompute the result.

    When the operation completes, the loop stamps it, keeps ``keep(result)``
    as its ``output`` (or the exception as its ``error``) and drops the
    future and the call: a run holds only what its checks need, so the
    process's memory after the load is the program's, not the benchmark's.
    """

    kind: str
    frames: int
    issue: Optional[Callable[[], Future]]
    inputs: dict = field(default_factory=dict)
    after: Optional["Op"] = None
    keep: Callable[[object], object] = lambda result: result
    output: object = None
    error: Optional[BaseException] = None
    completed: bool = False
    issued: float = 0.0
    submitted: float = 0.0
    done: float = 0.0

    @property
    def latency_s(self) -> float:
        return self.done - self.issued

    @property
    def admit_s(self) -> float:
        return self.submitted - self.issued

    def complete(self, future: Future) -> None:
        """Stamp the operation done and keep what its checks need."""
        self.done = time.monotonic()
        try:
            self.output = self.keep(future.result())
        except Exception as error:  # noqa: BLE001 - counted as a failed operation
            self.error = error


def resolved(call: Callable[[], object]) -> Future:
    """Run a synchronous call and hand back its outcome as a done future."""
    future: Future = Future()
    try:
        future.set_result(call())
    except Exception as error:  # noqa: BLE001 - counted as a failed operation
        future.set_exception(error)
    return future


@dataclass
class Phase:
    """The operations one phase issued, and its wall-clock window."""

    ops: List[Op]
    started: float
    finished: float
    cpu_s: float

    @property
    def wall_s(self) -> float:
        return self.finished - self.started

    def rate(self, ops: Optional[List[Op]] = None, per: str = "op") -> float:
        """Operations (or frames) per second of the phase; by default of all
        its operations, or of the given ones, e.g. those that succeeded."""
        ops = self.ops if ops is None else ops
        count = len(ops) if per == "op" else sum(op.frames for op in ops)
        return count / self.wall_s



def run_closed_loop(blocks: Iterable[List[Op]], outstanding: int,
                    seconds: Optional[float] = None) -> Phase:
    """Issue whole blocks of operations until ``seconds`` have passed.

    The time limit is checked between blocks only, so every phase issues
    whole blocks and the mix inside a block is exact.  ``seconds=None``
    issues every block given.  Returns once every issued operation has
    completed.
    """
    slots = threading.Semaphore(outstanding)
    progress = threading.Condition()
    ops: List[Op] = []

    def finish(op: Op) -> Callable[[Future], None]:
        def callback(future: Future) -> None:
            op.complete(future)
            with progress:
                op.completed = True
                progress.notify_all()
            slots.release()

        return callback

    cpu_start = time.process_time()
    started = time.monotonic()
    for block in blocks:
        for op in block:
            if op.after is not None:
                with progress:
                    progress.wait_for(lambda: op.after.completed)
            slots.acquire()
            op.issued = time.monotonic()
            try:
                future = op.issue()
            except Exception as error:  # noqa: BLE001 - a failed operation
                future = Future()
                future.set_exception(error)
            op.submitted = time.monotonic()
            op.issue = None
            ops.append(op)
            future.add_done_callback(finish(op))
            del future
        if seconds is not None and time.monotonic() - started >= seconds:
            break
    # Every operation gives its slot back once it has completed (and its
    # output is kept), so holding every slot means the phase has ended.
    for _ in range(outstanding):
        slots.acquire()
    finished = max(op.done for op in ops) if ops else time.monotonic()
    return Phase(ops, started, finished, time.process_time() - cpu_start)


# --------------------------------------------------------------------------- #
# Statistics
# --------------------------------------------------------------------------- #
#: Tail percentiles, highest first.  A run reports the highest one with at
#: least ten samples beyond it; a fixed ladder keeps runs of nearly the same
#: length on the same percentile.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)
#: Fewer samples than this and a run reports its median as its tail: a
#: percentile with fewer than ten samples beyond it is no tail.
TAIL_MIN_SAMPLES = 40


def tail(values: List[float]) -> tuple:
    """``(percentile, value)``: the highest percentile of
    :data:`TAIL_PERCENTILES` with ten samples beyond it, by nearest rank.

    Below :data:`TAIL_MIN_SAMPLES` samples it is the median.
    """
    n = len(values)
    if n < TAIL_MIN_SAMPLES:
        return 50.0, median(values)
    percentile = next(p for p in TAIL_PERCENTILES if n * (100.0 - p) / 100.0 >= 10)
    rank = math.ceil(percentile / 100.0 * n)
    return percentile, sorted(values)[rank - 1]


def median(values: Iterable[float]) -> float:
    values = list(values)
    return statistics.median(values) if values else math.nan
