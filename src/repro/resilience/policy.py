"""Retry policy: bounded backoff schedules with deterministic jitter.

The policy is pure configuration plus one pure function — the backoff
schedule.  Jitter is derived by hashing ``(seed, task key, attempt)``, so
two runs of the same campaign produce *identical* retry timing decisions
(no wall-clock or global-RNG dependence), which is what makes the
fault-injection suite reproducible and the property tests exact.
:class:`SupervisionReport` applies the policy to failed attempts (retry
after backoff, or quarantine) and keeps the :class:`FailureEvent` audit
trail the executor (:class:`~repro.core.parallel.WorkerPool`) reports.
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional


def _unit_hash(seed: int, key: str, attempt: int) -> float:
    """Deterministic uniform-ish value in ``[0, 1)`` from the triple."""
    payload = f"{seed}:{key}:{attempt}".encode("utf-8")
    digest = hashlib.sha256(payload).digest()
    return int.from_bytes(digest[:8], "big") / 2**64


@dataclass(frozen=True)
class RetryPolicy:
    """How failed replication attempts are retried and bounded.

    A task *fails permanently* (is quarantined) after
    ``max_retries + 1`` failed attempts; the campaign continues without
    it and the failure is reported.  ``task_timeout`` bounds one attempt's
    wall time (``None`` = unbounded); a timed-out worker is terminated
    and respawned.  ``max_pool_respawns`` bounds how often one worker is
    rebuilt before it is retired; once every worker is retired the
    remaining tasks run serially in-process.
    """

    max_retries: int = 2
    task_timeout: Optional[float] = None
    backoff_base: float = 0.05
    backoff_factor: float = 2.0
    backoff_cap: float = 30.0
    jitter: float = 0.5
    seed: int = 0
    max_pool_respawns: int = 8

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.task_timeout is not None and self.task_timeout <= 0:
            raise ValueError(
                f"task_timeout must be > 0 or None, got {self.task_timeout}"
            )
        if self.backoff_base < 0:
            raise ValueError(f"backoff_base must be >= 0, got {self.backoff_base}")
        if self.backoff_factor < 1.0:
            raise ValueError(
                f"backoff_factor must be >= 1, got {self.backoff_factor}"
            )
        if self.backoff_cap < self.backoff_base:
            raise ValueError("backoff_cap must be >= backoff_base")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError(f"jitter must be in [0, 1], got {self.jitter}")
        if self.max_pool_respawns < 0:
            raise ValueError(
                f"max_pool_respawns must be >= 0, got {self.max_pool_respawns}"
            )

    @property
    def max_attempts(self) -> int:
        """Total attempts before quarantine (first try + retries)."""
        return self.max_retries + 1

    @property
    def max_backoff(self) -> float:
        """Hard upper bound of any delay :meth:`backoff_delay` can return."""
        return self.backoff_cap * (1.0 + self.jitter / 2.0)

    def backoff_delay(self, key: str, attempt: int) -> float:
        """Delay (seconds) before retry number ``attempt`` of task ``key``.

        ``attempt`` counts failures so far (>= 1).  The schedule is
        exponential (``base * factor**(attempt-1)``) capped at
        ``backoff_cap``, then scaled by a deterministic jitter factor in
        ``[1 - jitter/2, 1 + jitter/2)`` hashed from
        ``(policy seed, key, attempt)`` — so schedules are reproducible
        across runs yet decorrelated across tasks.
        """
        if attempt < 1:
            raise ValueError(f"attempt must be >= 1, got {attempt}")
        raw = self.backoff_base * self.backoff_factor ** (attempt - 1)
        capped = min(raw, self.backoff_cap)
        scale = 1.0 - self.jitter / 2.0 + self.jitter * _unit_hash(
            self.seed, key, attempt
        )
        return capped * scale

    def to_dict(self) -> dict:
        """Manifest-ready view of the policy."""
        return {
            "max_retries": self.max_retries,
            "task_timeout": self.task_timeout,
            "backoff_base": self.backoff_base,
            "backoff_factor": self.backoff_factor,
            "backoff_cap": self.backoff_cap,
            "jitter": self.jitter,
            "seed": self.seed,
            "max_pool_respawns": self.max_pool_respawns,
        }


@dataclass(frozen=True)
class FailureEvent:
    """One failed attempt and the supervisor's decision about it."""

    task_id: int
    key: str
    attempt: int
    kind: str  # "crash" | "timeout" | "error"
    action: str  # "retry" | "quarantine"
    detail: str

    def to_dict(self) -> Dict[str, Any]:
        """Manifest-ready view."""
        return asdict(self)


@dataclass
class SupervisionReport:
    """What supervision did during one executor stream."""

    events: List[FailureEvent] = field(default_factory=list)
    #: Task ids (positions in the job stream) that exhausted their attempts.
    quarantined: List[int] = field(default_factory=list)
    respawns: int = 0
    #: Worker slots retired after spending their respawn budget.
    retired: List[int] = field(default_factory=list)
    #: Attempts run inline because no worker survived.
    inline: int = 0
    #: Tasks re-queued because the worker holding them was lost.
    reassigned: int = 0

    def record(self, policy: RetryPolicy, task_id: int, key: str,
               attempt: int, kind: str, detail: str) -> Optional[float]:
        """Log failed ``attempt``; return the retry delay, or ``None``
        once the task has exhausted its attempts and is quarantined."""
        delay = None
        if attempt + 1 >= policy.max_attempts:
            self.quarantined.append(task_id)
        else:
            delay = policy.backoff_delay(key, attempt + 1)
        action = "quarantine" if delay is None else "retry"
        self.events.append(
            FailureEvent(task_id, key, attempt, kind, action, detail)
        )
        return delay


__all__ = ["FailureEvent", "RetryPolicy", "SupervisionReport"]
