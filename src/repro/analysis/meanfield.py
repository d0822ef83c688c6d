"""Deterministic mean-field approximation of the propagation model.

A classic epidemiology companion to the stochastic simulation: assume the
population is well mixed, track the *expected* number of phones in each
consent stratum, and integrate the resulting ODE system.  The consent
decay makes the standard SIR form insufficient — a phone that has
received n infected messages accepts the next with probability
``AF/2^(n+1)`` — so the susceptible compartment is stratified by received
count:

    x_n(t)  = expected susceptible phones having received n messages
    I(t)    = expected infected phones
    mu(t)   = per-phone infected-message arrival rate
            = sigma * I(t) / (N - 1)

    dx_0/dt = -mu * x_0
    dx_n/dt =  mu * (1 - p_n) * x_{n-1}  -  mu * x_n         (n >= 1)
    dI/dt   =  mu * sum_n p_{n+1} * x_n

where ``sigma`` is the rate of *valid deliveries* per infected phone and
``p_n = AF/2^n``.  The fixed point reproduces the paper's analytic
plateau: every susceptible phone eventually accepts with probability
``1 - prod(1 - p_n) ≈ 0.40``, so I(∞) ≈ 0.40 × susceptible.

The approximation is exact in expectation for random dialing (Virus 3's
targets are uniform) and a well-mixed bound for contact-list viruses; it
omits the read delay and message budgets, so it runs slightly ahead of
the simulation.  Used by tests and the analytical example to sanity-check
simulated plateaus and growth rates without Monte Carlo noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..core.user import ACCEPTANCE_NEGLIGIBLE_AFTER, acceptance_probability
from .timeseries import StepCurve


@dataclass(frozen=True)
class MeanFieldParameters:
    """Inputs to the mean-field integration."""

    #: Total phones N.
    population: int
    #: Susceptible phones (paper: 800).
    susceptible: int
    #: Valid infected-message deliveries per infected phone per hour.
    delivery_rate: float
    #: Consent acceptance factor (paper: 0.468).
    acceptance_factor: float = 0.468
    #: Initially infected phones.
    initial_infected: float = 1.0

    def __post_init__(self) -> None:
        if self.population < 2:
            raise ValueError(f"population must be >= 2, got {self.population}")
        if not 0 <= self.susceptible <= self.population:
            raise ValueError(
                f"susceptible must be in [0, population], got {self.susceptible}"
            )
        if self.delivery_rate <= 0:
            raise ValueError(f"delivery_rate must be > 0, got {self.delivery_rate}")
        if not 0.0 <= self.acceptance_factor <= 1.0:
            raise ValueError(
                f"acceptance_factor must be in [0, 1], got {self.acceptance_factor}"
            )
        if self.initial_infected < 1:
            raise ValueError(
                f"initial_infected must be >= 1, got {self.initial_infected}"
            )


@dataclass
class MeanFieldResult:
    """Integrated trajectory."""

    times: np.ndarray
    infected: np.ndarray
    susceptible_remaining: np.ndarray

    @property
    def final_infected(self) -> float:
        """Infected count at the end of the horizon."""
        return float(self.infected[-1])

    def curve(self) -> StepCurve:
        """The trajectory as a step curve (for comparison with simulation)."""
        return StepCurve(list(zip(self.times.tolist(), self.infected.tolist())))

    def time_to_reach(self, level: float) -> Optional[float]:
        """First time the infected count reaches ``level``."""
        hits = np.nonzero(self.infected >= level)[0]
        if len(hits) == 0:
            return None
        return float(self.times[hits[0]])


def integrate_mean_field(
    parameters: MeanFieldParameters,
    horizon: float,
    dt: float = 0.01,
) -> MeanFieldResult:
    """Euler-integrate the stratified mean-field ODE system to ``horizon``.

    ``dt`` is adaptive-safe at the defaults: the fastest rate in the
    system is ``mu(t) <= delivery_rate``, and the integrator refuses steps
    with ``mu*dt > 0.5`` (it subdivides instead), so the forward-Euler
    update stays stable.  This is :func:`integrate_delayed_response` with
    a response that never detects, so it never activates.
    """
    return integrate_delayed_response(
        parameters, DelayedResponseTerms(detection_level=math.inf), horizon, dt
    )


@dataclass(frozen=True)
class DelayedResponseTerms:
    """Response-mechanism terms for the delayed-response integrator.

    The base mean-field system has no notion of a provider response;
    these terms add one mechanism's effect as ODE modifications gated on
    a detection event — the analytic counterpart of the simulation's
    :class:`~repro.core.parameters.ResponseDeployment` axis:

    * detection fires when cumulative infections reach
      ``detection_level`` (the simulator's ``detectable_infections``);
    * the mechanism activates ``activation_delay`` hours later (its own
      delay **plus** any deployment latency);
    * after activation, coverage ramps at ``rollout_rate`` per hour
      (``None`` = instantaneous full coverage);
    * ``block_fraction`` is the fraction of deliveries suppressed at
      full coverage (gateway scan 1.0, detection algorithm = accuracy);
    * ``patch_window`` spreads a patch uniformly over that many hours
      from activation, removing susceptibles and silencing infected
      phones (immunization);
    * ``silence_delay`` silences each actively spreading phone exactly
      that many hours after its counting starts — at activation for
      phones already infected, at infection time for later ones
      (blacklisting: counting threshold × mean send interval, the
      deterministic budget-exhaustion delay).  A partial rollout
      stretches the delay by the current coverage.
    """

    detection_level: float
    activation_delay: float = 0.0
    rollout_rate: Optional[float] = None
    block_fraction: float = 0.0
    patch_window: Optional[float] = None
    silence_delay: Optional[float] = None

    def __post_init__(self) -> None:
        if self.detection_level < 1:
            raise ValueError(
                f"detection_level must be >= 1, got {self.detection_level}"
            )
        if self.activation_delay < 0:
            raise ValueError(
                f"activation_delay must be >= 0, got {self.activation_delay}"
            )
        if self.rollout_rate is not None and self.rollout_rate <= 0:
            raise ValueError(
                f"rollout_rate must be > 0 or None, got {self.rollout_rate}"
            )
        if not 0.0 <= self.block_fraction <= 1.0:
            raise ValueError(
                f"block_fraction must be in [0, 1], got {self.block_fraction}"
            )
        if self.patch_window is not None and self.patch_window <= 0:
            raise ValueError(
                f"patch_window must be > 0 or None, got {self.patch_window}"
            )
        if self.silence_delay is not None and self.silence_delay <= 0:
            raise ValueError(
                f"silence_delay must be > 0 or None, got {self.silence_delay}"
            )


def integrate_delayed_response(
    parameters: MeanFieldParameters,
    terms: DelayedResponseTerms,
    horizon: float,
    dt: float = 0.01,
) -> MeanFieldResult:
    """Euler-integrate the mean-field system with one delayed response.

    The stratified system of the module docstring plus an *active*
    infected compartment ``A`` (phones still propagating): blacklist
    silencing and patch quarantine drain ``A`` without reducing the
    cumulative infected count ``I``, matching the simulators' accounting where an
    infected phone stays counted after its MMS service is cut.  The
    returned ``infected`` series is cumulative ``I``.

    Blacklist silencing is a delay term, not a hazard: infection mass
    entering ``A`` while counting is live is scheduled for removal
    ``silence_delay`` hours later (a heap of pending cutoffs), which
    reproduces the sharp budget-exhaustion cutoff the simulation shows
    instead of an exponential tail.
    """
    import heapq
    if horizon <= 0:
        raise ValueError(f"horizon must be > 0, got {horizon}")
    if dt <= 0:
        raise ValueError(f"dt must be > 0, got {dt}")

    strata = ACCEPTANCE_NEGLIGIBLE_AFTER + 1
    accept = np.array(
        [
            acceptance_probability(parameters.acceptance_factor, n)
            for n in range(1, strata + 1)
        ]
    )
    # x[n] = susceptible phones having received n messages.  Patient zero
    # comes out of the susceptible pool.
    x = np.zeros(strata + 1)
    x[0] = max(0.0, parameters.susceptible - parameters.initial_infected)
    infected = parameters.initial_infected
    active = parameters.initial_infected
    detection_time: Optional[float] = None
    counting_started = False
    pending_cutoffs: list = []  # heap of (due_time, active mass to silence)

    steps = int(np.ceil(horizon / dt))
    times = np.empty(steps + 1)
    infected_series = np.empty(steps + 1)
    susceptible_series = np.empty(steps + 1)
    times[0] = 0.0
    infected_series[0] = infected
    susceptible_series[0] = x.sum()

    per_phone = parameters.delivery_rate / (parameters.population - 1)
    now = 0.0
    for step in range(1, steps + 1):
        remaining = min(dt, horizon - times[step - 1])
        # Subdivide so the per-substep transition probability stays small.
        mu = per_phone * active
        substeps = max(1, int(np.ceil(mu * remaining / 0.5)))
        h = remaining / substeps
        for _ in range(substeps):
            if detection_time is None and infected >= terms.detection_level:
                detection_time = now
            coverage = 0.0
            if detection_time is not None:
                activation = detection_time + terms.activation_delay
                if now >= activation:
                    if terms.rollout_rate is None:
                        coverage = 1.0
                    else:
                        coverage = min(
                            1.0, (now - activation) * terms.rollout_rate
                        )
            mu = per_phone * active * (1.0 - terms.block_fraction * coverage)
            flow_out = mu * x[:strata]
            new_infections = float(np.dot(flow_out, accept))
            advanced = flow_out * (1.0 - accept)
            x[:strata] -= flow_out * h
            x[1 : strata + 1] += advanced * h
            infected += new_infections * h
            active += new_infections * h
            if terms.silence_delay is not None and coverage > 0.0:
                delay = terms.silence_delay / coverage
                if not counting_started:
                    counting_started = True
                    if active > 0.0:
                        heapq.heappush(pending_cutoffs, (now + delay, active))
                if new_infections > 0.0:
                    heapq.heappush(
                        pending_cutoffs, (now + delay, new_infections * h)
                    )
                while pending_cutoffs and pending_cutoffs[0][0] <= now:
                    _, amount = heapq.heappop(pending_cutoffs)
                    active = max(0.0, active - amount)
            if coverage > 0.0:
                if terms.patch_window is not None:
                    # Uniform rollout over the window: the per-phone
                    # hazard for a still-unpatched phone is
                    # 1/(window - elapsed), driving a linear decline.
                    elapsed = now - (detection_time + terms.activation_delay)
                    if elapsed >= terms.patch_window:
                        x[:] = 0.0
                        active = 0.0
                    else:
                        hazard = min(
                            1.0 / h, 1.0 / (terms.patch_window - elapsed)
                        )
                        x -= x * hazard * h
                        active -= active * hazard * h
            now += h
        times[step] = times[step - 1] + remaining
        now = times[step]
        infected_series[step] = infected
        susceptible_series[step] = x.sum()

    return MeanFieldResult(
        times=times,
        infected=infected_series,
        susceptible_remaining=susceptible_series,
    )


def response_terms_for(config, deployment=None) -> DelayedResponseTerms:
    """Derive :class:`DelayedResponseTerms` from a scenario.

    The scenario must carry exactly one detection-triggered response
    (gateway scan, detection algorithm, immunization, or blacklist) —
    the analytic system models a single mechanism.  ``deployment``
    overrides ``config.deployment`` when given; its latency adds to the
    mechanism's own delay and its rollout rate becomes the coverage
    ramp (for immunization, the effective patch window).
    """
    from ..core.parameters import (
        BlacklistConfig,
        DetectionAlgorithmConfig,
        GatewayScanConfig,
        ImmunizationConfig,
        MonitoringConfig,
        UserEducationConfig,
    )

    dep = deployment if deployment is not None else config.deployment
    latency = dep.latency_hours if dep is not None else 0.0
    rollout = dep.rollout_rate if dep is not None else None
    level = float(config.detection.detectable_infections)

    triggered = [
        r for r in config.responses
        if not isinstance(r, (MonitoringConfig, UserEducationConfig))
    ]
    if len(triggered) != 1:
        raise ValueError(
            "the delayed-response mean-field system models exactly one "
            f"triggered mechanism; scenario {config.name!r} has "
            f"{len(triggered)}"
        )
    response = triggered[0]
    if isinstance(response, GatewayScanConfig):
        return DelayedResponseTerms(
            detection_level=level,
            activation_delay=response.activation_delay + latency,
            rollout_rate=rollout,
            block_fraction=1.0,
        )
    if isinstance(response, DetectionAlgorithmConfig):
        return DelayedResponseTerms(
            detection_level=level,
            activation_delay=response.analysis_period + latency,
            rollout_rate=rollout,
            block_fraction=response.accuracy,
        )
    if isinstance(response, ImmunizationConfig):
        window = (
            1.0 / rollout if rollout is not None else response.deployment_window
        )
        return DelayedResponseTerms(
            detection_level=level,
            activation_delay=response.development_time + latency,
            patch_window=window,
        )
    if isinstance(response, BlacklistConfig):
        mean_interval = config.virus.send_interval_distribution().mean
        if mean_interval <= 0:
            raise ValueError(
                "blacklist terms need a positive mean send interval"
            )
        # Every outgoing message counts (invalid dials included), so the
        # budget-exhaustion delay uses the raw message rate, not the
        # delivery rate.
        return DelayedResponseTerms(
            detection_level=level,
            activation_delay=latency,
            rollout_rate=rollout,
            silence_delay=response.threshold * mean_interval,
        )
    raise ValueError(
        f"no delayed-response terms for {type(response).__name__}"
    )


def mean_field_for_scenario(config) -> MeanFieldParameters:
    """Derive :class:`MeanFieldParameters` from a :class:`ScenarioConfig`.

    The delivery rate is the reciprocal of the virus's mean send interval
    (minimum wait plus exponential slack), scaled by the valid-number
    fraction for random dialing — the rate at which one infected phone
    produces *deliverable* infected messages.  Message budgets, dormancy,
    read delay, and response mechanisms have no mean-field counterpart
    here; :func:`repro.core.san_model.assert_san_compatible` rejects
    configs that carry them before a differential campaign starts.
    """
    virus = config.virus
    mean_interval = virus.send_interval_distribution().mean
    if mean_interval <= 0:
        raise ValueError(
            f"virus {virus.name!r} has a zero mean send interval; the "
            "mean-field delivery rate would be infinite"
        )
    delivery_rate = virus.valid_number_fraction / mean_interval
    return MeanFieldParameters(
        population=config.network.population,
        susceptible=config.network.susceptible_count,
        delivery_rate=delivery_rate,
        acceptance_factor=config.user.acceptance_factor,
    )


def expected_mean_field_plateau(parameters: MeanFieldParameters) -> float:
    """The analytic fixed point: initial infected + susceptible × P(ever accept)."""
    from ..core.user import total_acceptance_probability

    eventual = total_acceptance_probability(parameters.acceptance_factor)
    pool = max(0.0, parameters.susceptible - parameters.initial_infected)
    return parameters.initial_infected + pool * eventual


__all__ = [
    "MeanFieldParameters",
    "MeanFieldResult",
    "DelayedResponseTerms",
    "integrate_mean_field",
    "integrate_delayed_response",
    "mean_field_for_scenario",
    "response_terms_for",
    "expected_mean_field_plateau",
]
