"""MMS gateway: routing, transit delay, filter hooks, optional congestion.

Every MMS passes through the service provider's gateway infrastructure
(paper §3.1), which is where the two reception-point response mechanisms
plug in.  Filters are consulted once per *message*; a blocked message never
reaches any of its recipients.

The paper assumes the infrastructure absorbs the virus's traffic; setting
a finite ``capacity_per_hour`` relaxes that assumption: the gateway then
behaves as a FIFO queue with exponentially distributed service times
(mean ``1/capacity``), so offered load above capacity builds a backlog
and stretches delivery latency — the congestion effect the paper's
introduction cites as a provider-side cost of virus traffic.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, List, Optional, Sequence

import numpy as np

from ..des.random import Distribution, Exponential
from ..des.simulator import Simulator
from .messages import MMSMessage

#: A gateway filter: returns True to BLOCK the message.
MessageFilter = Callable[[MMSMessage, float], bool]
#: Downstream delivery sink: (message) -> None, called at delivery time.
DeliverySink = Callable[[MMSMessage], None]


class MMSGateway:
    """Routes messages from senders to recipients with a transit delay."""

    def __init__(
        self,
        sim: Simulator,
        rng: np.random.Generator,
        delay_mean: float,
        sink: DeliverySink,
        capacity_per_hour: Optional[float] = None,
    ) -> None:
        if delay_mean < 0:
            raise ValueError(f"delay_mean must be >= 0, got {delay_mean}")
        if capacity_per_hour is not None and capacity_per_hour <= 0:
            raise ValueError(
                f"capacity_per_hour must be > 0 or None, got {capacity_per_hour}"
            )
        self.sim = sim
        self.rng = rng
        self._delay: Distribution = (
            Exponential(delay_mean) if delay_mean > 0 else None  # type: ignore[assignment]
        )
        self._service: Optional[Distribution] = (
            Exponential(1.0 / capacity_per_hour) if capacity_per_hour else None
        )
        self._queue: Deque[MMSMessage] = deque()
        self._busy = False
        self._sink = sink
        self._filters: List[MessageFilter] = []
        #: Messages that entered the gateway.
        self.messages_processed = 0
        #: Messages stopped by a filter.
        self.messages_blocked = 0
        #: Messages that reached delivery.
        self.messages_delivered = 0
        #: Peak congestion backlog observed (finite capacity only).
        self.max_backlog = 0
        #: Total time messages spent queued (for mean-wait reporting).
        self.total_queue_wait = 0.0
        self._enqueue_times: Deque[float] = deque()

    def add_filter(self, message_filter: MessageFilter) -> None:
        """Register a filter (reception-point response mechanism)."""
        self._filters.append(message_filter)

    def submit(self, message: MMSMessage) -> bool:
        """Accept a message for routing.

        Returns ``True`` if the message passed the filters and was
        scheduled for delivery, ``False`` if a filter blocked it.
        Messages with no valid recipients (all dials invalid) never enter
        the gateway — they fail in the network; callers should not submit
        them.
        """
        if not message.recipients:
            raise ValueError("gateway received a message with no valid recipients")
        self.messages_processed += 1
        if self._filters:
            now = self.sim.now
            for message_filter in self._filters:
                if message_filter(message, now):
                    self.messages_blocked += 1
                    return False
        if self._service is not None:
            self._enqueue(message)
        elif self._delay is None:
            self._deliver(message)
        else:
            delay = self._delay.sample(self.rng)
            self.sim.schedule(
                delay, lambda: self._deliver(message), label="deliver"
            )
        return True

    # -- finite-capacity queueing -------------------------------------------

    @property
    def backlog(self) -> int:
        """Messages currently queued awaiting processing."""
        return len(self._queue)

    def _enqueue(self, message: MMSMessage) -> None:
        self._queue.append(message)
        self._enqueue_times.append(self.sim.now)
        self.max_backlog = max(self.max_backlog, len(self._queue))
        if not self._busy:
            self._busy = True
            self._serve_next()

    def _serve_next(self) -> None:
        if not self._queue:
            self._busy = False
            return
        message = self._queue.popleft()
        self.total_queue_wait += self.sim.now - self._enqueue_times.popleft()
        assert self._service is not None
        service_time = self._service.sample(self.rng)
        transit = self._delay.sample(self.rng) if self._delay is not None else 0.0

        def complete(message=message):
            self._deliver(message)
            self._serve_next()

        self.sim.schedule(service_time + transit, complete, label="gw_service")

    def mean_queue_wait(self) -> float:
        """Mean time delivered messages spent waiting in the backlog."""
        if self.messages_delivered == 0:
            return 0.0
        return self.total_queue_wait / self.messages_delivered

    def _deliver(self, message: MMSMessage) -> None:
        self.messages_delivered += 1
        self._sink(message)


__all__ = ["MMSGateway", "MessageFilter", "DeliverySink"]
