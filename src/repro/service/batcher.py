"""Micro-batching: coalesce concurrent requests into one dispatch.

A :class:`MicroBatcher` holds submitted jobs for at most ``window``
seconds (or until ``max_batch`` of them accumulate) and then hands the
whole batch to an async ``dispatch`` callable that must return one result
per job, in order.  Per-request process-pool overhead (pickling, queue
wakeups, executor management) is paid once per batch instead of once per
request, which is what turns the PR-1 vectorized hot path into serving
throughput.

``window = 0`` (or ``max_batch = 1``) is the single-request fast path:
each job dispatches immediately on the submitter's own await, with no
timer and no intermediate future.
"""

from __future__ import annotations

import asyncio
from typing import Any, Awaitable, Callable, Sequence

__all__ = ["MicroBatcher"]

Dispatch = Callable[[Sequence[Any]], Awaitable[Sequence[Any]]]


class MicroBatcher:
    """Time/size-windowed batching in front of an async dispatch function.

    Parameters
    ----------
    dispatch:
        ``async (jobs) -> results`` with ``len(results) == len(jobs)``.
        An exception from ``dispatch`` propagates to every job waiting on
        the batch.
    window:
        Seconds to wait after the *first* job of a batch before flushing.
    max_batch:
        Flush immediately once this many jobs are pending.
    """

    def __init__(self, dispatch: Dispatch, *, window: float = 0.005, max_batch: int = 32):
        if window < 0:
            raise ValueError("window must be >= 0")
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        self._dispatch = dispatch
        self.window = window
        self.max_batch = max_batch
        self._pending: list[tuple[Any, asyncio.Future]] = []
        self._timer: asyncio.TimerHandle | None = None
        self._inflight: set[asyncio.Task] = set()
        self._closed = False
        # accounting for /v1/metrics
        self.batches = 0
        self.jobs = 0
        self.largest_batch = 0

    # -- submission ----------------------------------------------------------------

    @property
    def pending(self) -> int:
        """Jobs currently waiting for a window/size flush."""
        return len(self._pending)

    async def submit(self, job: Any) -> Any:
        """Enqueue one job and wait for its result."""
        if self._closed:
            raise RuntimeError("batcher is closed")
        if self.window == 0 or self.max_batch == 1:
            # fast path: no timer, no future indirection
            self._account(1)
            return (await self._dispatch([job]))[0]
        loop = asyncio.get_running_loop()
        fut: asyncio.Future = loop.create_future()
        self._pending.append((job, fut))
        if len(self._pending) >= self.max_batch:
            self._flush_now()
        elif len(self._pending) == 1:
            self._timer = loop.call_later(self.window, self._flush_now)
        return await fut

    # -- flushing ------------------------------------------------------------------

    def _account(self, size: int) -> None:
        self.batches += 1
        self.jobs += size
        self.largest_batch = max(self.largest_batch, size)

    def _flush_now(self) -> None:
        """Detach the pending batch and run it as its own task."""
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        if not self._pending:
            return
        batch, self._pending = self._pending, []
        self._account(len(batch))
        task = asyncio.get_running_loop().create_task(self._run_batch(batch))
        self._inflight.add(task)
        task.add_done_callback(self._inflight.discard)

    async def _run_batch(self, batch: list[tuple[Any, asyncio.Future]]) -> None:
        jobs = [job for job, _ in batch]
        try:
            results = await self._dispatch(jobs)
            if len(results) != len(jobs):
                raise RuntimeError(
                    f"dispatch returned {len(results)} results for {len(jobs)} jobs"
                )
        except BaseException as exc:  # noqa: BLE001 - forwarded to every waiter
            for _, fut in batch:
                if not fut.done():
                    fut.set_exception(exc)
            return
        for (_, fut), result in zip(batch, results):
            if not fut.done():
                fut.set_result(result)

    async def flush(self) -> None:
        """Force-dispatch pending jobs and wait for all in-flight batches."""
        self._flush_now()
        while self._inflight:
            await asyncio.gather(*list(self._inflight), return_exceptions=True)

    async def close(self) -> None:
        """Drain everything and refuse further submissions."""
        self._closed = True
        await self.flush()
