"""Cross-engine differential campaigns.

For each matched scenario, three independent descriptions of the same
stochastic process are compared:

* the **production engine** (:mod:`repro.core`) — event-scheduled model,
  replicated with per-replication RNG streams;
* the **SAN engine** (:mod:`repro.san` via :mod:`repro.core.san_model`) —
  the Möbius-style composed-submodel formalism the paper used;
* the **xl engine** (:mod:`repro.xl`) — the array-backed large-population
  engine, exercised here at small N so its batched-round dynamics are
  gated against the event-scheduled reference;
* the **mean-field analysis** (:mod:`repro.analysis.meanfield`) — the
  deterministic ODE companion whose fixed point is the paper's analytic
  plateau ``patient zero + susceptible x P(ever accept) ~ 0.40 x S``.

All stochastic engines run on the *same pinned contact graph* with the
same patient zero, so the statistical gates compare the processes rather
than topology luck.  The mean-field trajectory is well mixed and ignores
pacing jitter, so it is held to looser, explicitly declared tolerances:
the plateau must match within a relative band, and growth (time to half
plateau) within a declared ratio band.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Sequence

import numpy as np

from ..analysis.meanfield import (
    expected_mean_field_plateau,
    integrate_mean_field,
    mean_field_for_scenario,
)
from ..analysis.report import format_table
from ..analysis.stats import SampleSummary, summarize
from ..core.san_model import assert_san_compatible, san_final_infected_samples
from ..core.simulation import run_scenario
from ..des.random import StreamFactory
from ..topology.generators import contact_network
from .gates import (
    GateResult,
    failures,
    mean_equivalence_gate,
    prediction_gate,
    rank_gate,
    ratio_gate,
    welch_gate,
)
from .scenarios import (
    VALIDATION_SEED,
    DifferentialScenario,
    baseline_differential_scenarios,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..frontier.crosscheck import CrosscheckResult


@dataclass(frozen=True)
class Tolerances:
    """Declared statistical acceptance tolerances for one campaign.

    These are printed with every report so a pass is always interpretable:
    "agreement" means *within these bounds*, nothing stronger.
    """

    #: Core-vs-SAN mean difference allowance floor (infections).
    mean_absolute_floor: float = 3.0
    #: ... or this many standard errors of the difference, if larger.
    mean_se_multiplier: float = 2.5
    #: Alpha for the Welch two-sample location test.
    welch_alpha: float = 0.01
    #: Alpha for the Mann-Whitney rank test.
    rank_alpha: float = 0.01
    #: Relative band for engine means around the mean-field plateau.
    plateau_rel_tolerance: float = 0.25
    #: Band for (simulated time to half plateau) / (mean-field time).
    #: Mean-field runs ahead (well mixed, no pacing jitter), so the band
    #: is asymmetric around 1.
    growth_ratio_low: float = 0.5
    growth_ratio_high: float = 10.0


@dataclass
class ScenarioVerdict:
    """Everything one differential scenario produced."""

    scenario: DifferentialScenario
    core_finals: List[float]
    san_finals: List[float]
    plateau_prediction: float
    meanfield_half_time: Optional[float]
    core_half_time: Optional[float]
    xl_finals: List[float] = field(default_factory=list)
    gates: List[GateResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        """True when every gate passed."""
        return all(g.passed for g in self.gates)

    @property
    def core_summary(self) -> SampleSummary:
        """Summary of the production engine's final infection counts."""
        return summarize(self.core_finals)

    @property
    def san_summary(self) -> SampleSummary:
        """Summary of the SAN engine's final infection counts."""
        return summarize(self.san_finals)

    @property
    def xl_summary(self) -> SampleSummary:
        """Summary of the xl engine's final infection counts."""
        return summarize(self.xl_finals)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable form."""
        return {
            "scenario": self.scenario.name,
            "virus": self.scenario.virus_number,
            "passed": self.passed,
            "core_finals": [float(v) for v in self.core_finals],
            "san_finals": [float(v) for v in self.san_finals],
            "xl_finals": [float(v) for v in self.xl_finals],
            "core_mean": self.core_summary.mean,
            "san_mean": self.san_summary.mean if self.san_finals else None,
            "xl_mean": self.xl_summary.mean if self.xl_finals else None,
            "plateau_prediction": self.plateau_prediction,
            "meanfield_half_time": self.meanfield_half_time,
            "core_half_time": self.core_half_time,
            "gates": [asdict(g) for g in self.gates],
        }


def _agreement_gates(
    reference: List[float],
    candidate: List[float],
    label: str,
    tolerances: Tolerances,
) -> List[GateResult]:
    """The mean, Welch and rank gates of one engine pair, named ``label``."""
    return [
        mean_equivalence_gate(
            reference,
            candidate,
            absolute_margin=tolerances.mean_absolute_floor,
            se_multiplier=tolerances.mean_se_multiplier,
            name=f"{label} mean",
        ),
        welch_gate(
            reference, candidate, alpha=tolerances.welch_alpha,
            name=f"{label} welch",
        ),
        rank_gate(
            reference, candidate, alpha=tolerances.rank_alpha,
            name=f"{label} rank",
        ),
    ]


def run_differential_scenario(
    scenario: DifferentialScenario,
    seed: int = VALIDATION_SEED,
    replications: Optional[int] = None,
    tolerances: Tolerances = Tolerances(),
) -> ScenarioVerdict:
    """Run one scenario through all three engines and gate the agreement."""
    config = scenario.config
    assert_san_compatible(config)
    reps = replications if replications is not None else scenario.replications
    if reps < 2:
        raise ValueError(f"differential gates need >= 2 replications, got {reps}")

    streams = StreamFactory(seed)
    network = config.network
    graph = contact_network(
        network.population,
        network.mean_contact_list_size,
        streams.stream(f"topology-{scenario.name}"),
        model=network.topology_model,
        exponent=network.powerlaw_exponent,
    )
    patient_zero = 0  # every phone is susceptible in matched scenarios

    core_results = [
        run_scenario(
            config, seed=seed, replication=rep, graph=graph, patient_zero=patient_zero
        )
        for rep in range(reps)
    ]
    core_finals = [float(r.total_infected) for r in core_results]

    xl_config = config.with_engine("xl")
    xl_finals = [
        float(
            run_scenario(
                xl_config,
                seed=seed,
                replication=rep,
                graph=graph,
                patient_zero=patient_zero,
            ).total_infected
        )
        for rep in range(reps)
    ]

    san_finals = san_final_infected_samples(
        graph,
        range(network.population),
        patient_zero,
        config.virus,
        config.user,
        until=config.duration,
        replications=reps,
        streams=streams,
        stream_prefix=f"san-{scenario.name}",
    )

    parameters = mean_field_for_scenario(config)
    plateau = expected_mean_field_plateau(parameters)
    trajectory = integrate_mean_field(
        parameters, horizon=config.duration, dt=config.duration / 2000.0
    )
    half_level = 0.5 * plateau
    meanfield_half_time = trajectory.time_to_reach(half_level)
    core_half_times = [
        t for t in (r.time_to_reach(half_level) for r in core_results) if t is not None
    ]
    # The growth gate needs the level reached in a majority of replications;
    # otherwise the scenario never grew and the plateau gates fail anyway.
    core_half_time = (
        float(np.mean(core_half_times))
        if len(core_half_times) * 2 >= len(core_results)
        else None
    )

    gates = [
        *_agreement_gates(core_finals, san_finals, "core-vs-san", tolerances),
        prediction_gate(
            core_finals, plateau, rel_tolerance=tolerances.plateau_rel_tolerance,
            name="core-vs-meanfield plateau",
        ),
        prediction_gate(
            san_finals, plateau, rel_tolerance=tolerances.plateau_rel_tolerance,
            name="san-vs-meanfield plateau",
        ),
        *_agreement_gates(core_finals, xl_finals, "core-vs-xl", tolerances),
        prediction_gate(
            xl_finals, plateau, rel_tolerance=tolerances.plateau_rel_tolerance,
            name="xl-vs-meanfield plateau",
        ),
        ratio_gate(
            core_half_time,
            meanfield_half_time,
            low=tolerances.growth_ratio_low,
            high=tolerances.growth_ratio_high,
            name="core-vs-meanfield growth",
        ),
    ]
    return ScenarioVerdict(
        scenario=scenario,
        core_finals=core_finals,
        san_finals=san_finals,
        xl_finals=xl_finals,
        plateau_prediction=plateau,
        meanfield_half_time=meanfield_half_time,
        core_half_time=core_half_time,
        gates=gates,
    )


def run_bluetooth_differential(
    scenario: Optional[DifferentialScenario] = None,
    seed: int = VALIDATION_SEED,
    replications: Optional[int] = None,
    tolerances: Tolerances = Tolerances(),
) -> ScenarioVerdict:
    """Gate xl's Bluetooth channel against core's at small N.

    The SAN composition and the mean-field ODE cannot express the
    proximity channel, so this runs the two simulation engines only:
    core's event-scheduled random-mixing channel is the reference, xl's
    vectorised per-round encounter phase the candidate.  Both spread by
    Bluetooth alone (the scenario silences MMS via dormancy), and the
    same three statistical gates used for core-vs-xl elsewhere apply —
    plus a plateau prediction: under random mixing every phone is offered
    the file until the consent series resolves, so the expected final
    count is ``1 + (population - 1) x P(ever accept)``.
    """
    from ..core.user import total_acceptance_probability
    from .scenarios import bluetooth_differential_scenario

    if scenario is None:
        scenario = bluetooth_differential_scenario()
    config = scenario.config
    if config.virus.bluetooth_rate <= 0:
        raise ValueError("bluetooth differential needs virus.bluetooth_rate > 0")
    reps = replications if replications is not None else scenario.replications
    if reps < 2:
        raise ValueError(f"differential gates need >= 2 replications, got {reps}")

    patient_zero = 0  # every phone is susceptible in matched scenarios
    core_finals = [
        float(
            run_scenario(
                config, seed=seed, replication=rep, patient_zero=patient_zero
            ).total_infected
        )
        for rep in range(reps)
    ]
    xl_config = config.with_engine("xl")
    xl_finals = [
        float(
            run_scenario(
                xl_config, seed=seed, replication=rep, patient_zero=patient_zero
            ).total_infected
        )
        for rep in range(reps)
    ]

    ever_accept = total_acceptance_probability(config.user.acceptance_factor)
    plateau = 1.0 + (config.network.population - 1) * ever_accept
    gates = [
        *_agreement_gates(core_finals, xl_finals, "core-vs-xl", tolerances),
        prediction_gate(
            core_finals, plateau, rel_tolerance=tolerances.plateau_rel_tolerance,
            name="core-vs-consent plateau",
        ),
        prediction_gate(
            xl_finals, plateau, rel_tolerance=tolerances.plateau_rel_tolerance,
            name="xl-vs-consent plateau",
        ),
    ]
    return ScenarioVerdict(
        scenario=scenario,
        core_finals=core_finals,
        san_finals=[],
        xl_finals=xl_finals,
        plateau_prediction=plateau,
        meanfield_half_time=None,
        core_half_time=None,
        gates=gates,
    )


@dataclass
class FrontierDifferential:
    """Core-vs-xl agreement on one matched scenario's critical latency.

    ``core`` and ``xl`` are the two engines' cross-checks of the same
    matched scenario; each holds its simulated frontier and the
    mean-field frontier it was judged against.
    """

    core: CrosscheckResult
    xl: CrosscheckResult
    gates: List[GateResult]

    @property
    def passed(self) -> bool:
        return all(g.passed for g in self.gates)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "scenario": self.core.simulated.scenario,
            "passed": self.passed,
            "core": self.core.simulated.manifest_section(),
            "xl": self.xl.simulated.manifest_section(),
            "analytic": self.core.analytic.to_dict(),
            "gates": [asdict(g) for g in self.gates],
        }

    def format_report(self) -> str:
        core, xl = self.core.simulated, self.xl.simulated
        analytic = self.core.analytic
        lines = [
            f"frontier differential: {core.scenario} (critical latency, hours)",
            f"  core: {core.critical:.2f} "
            f"[{core.bisection.low:.2f}, {core.bisection.high:.2f}] "
            f"({core.status})",
            f"  xl:   {xl.critical:.2f} "
            f"[{xl.bisection.low:.2f}, {xl.bisection.high:.2f}] "
            f"({xl.status})",
            f"  mean-field: {analytic.critical:.2f} ({analytic.status})",
        ]
        for gate in self.gates:
            lines.append(f"  {gate.format()}")
        return "\n".join(lines)


def run_frontier_differential(
    seed: int = VALIDATION_SEED,
    replications: int = 3,
    low: float = 0.0,
    high: float = 72.0,
    fraction: float = 0.5,
    tolerance: float = 4.0,
    latency_tolerance: float = 8.0,
    gate_slack: float = 6.0,
    scheduler: Optional[Any] = None,
) -> FrontierDifferential:
    """Gate core-vs-xl frontier estimates on the matched virus-1 blacklist.

    Both engines run :func:`repro.frontier.run_crosscheck` on the same
    matched virus × mechanism over the same latency range, sharing one
    scheduler; the blacklist is sharpened to the cross-check threshold,
    where containment is deep and the crossing steep (see
    :mod:`repro.frontier.crosscheck`).  The gates require (1) the two
    critical latencies to agree within ``latency_tolerance`` hours (2×
    the default bisection tolerance — one step of bracket
    disagreement), (2) each engine's bracket to contain the other's
    critical, and (3) the mean-field critical to land inside both
    engines' replication-spread confidence brackets (± ``gate_slack``).
    """
    from ..core.parameters import BlacklistConfig
    from ..experiments.scheduler import ReplicationScheduler
    from ..frontier import run_crosscheck

    owned = scheduler is None
    if owned:
        scheduler = ReplicationScheduler(processes=1)
    try:
        core, xl = [
            run_crosscheck(
                1,
                BlacklistConfig(),
                scheduler,
                low,
                high,
                fraction=fraction,
                tolerance=tolerance,
                replications=replications,
                seed=seed,
                engine=engine,
                slack=gate_slack,
            )
            for engine in ("core", "xl")
        ]
    finally:
        if owned:
            scheduler.close()
    delta = abs(core.simulated.critical - xl.simulated.critical)
    gates = [
        GateResult(
            name="core-vs-xl critical latency",
            passed=(
                core.simulated.status == xl.simulated.status
                and delta <= latency_tolerance
            ),
            statistic=delta,
            threshold=latency_tolerance,
            detail=(
                f"|Δcritical|={delta:.2f} h vs "
                f"tolerance {latency_tolerance:g} h "
                f"(core {core.simulated.status}, xl {xl.simulated.status})"
            ),
        )
    ]
    for label, value, bracket in (
        ("xl critical", xl.simulated.critical, core.simulated),
        ("core critical", core.simulated.critical, xl.simulated),
        ("mean-field critical", core.analytic.critical, core.simulated),
        ("mean-field critical", xl.analytic.critical, xl.simulated),
    ):
        gates.append(
            GateResult(
                name=f"{label} in {bracket.engine} confidence bracket",
                passed=bracket.contains(value, gate_slack),
                statistic=value,
                threshold=bracket.confidence_high + gate_slack,
                detail=(
                    f"value={value:.2f} vs bracket "
                    f"[{bracket.confidence_low:.2f}, "
                    f"{bracket.confidence_high:.2f}] ± {gate_slack:g}"
                ),
            )
        )
    return FrontierDifferential(core=core, xl=xl, gates=gates)


@dataclass
class CampaignResult:
    """Outcome of a whole differential campaign."""

    verdicts: List[ScenarioVerdict]
    seed: int
    tolerances: Tolerances

    @property
    def passed(self) -> bool:
        """True when every scenario passed every gate."""
        return all(v.passed for v in self.verdicts)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable form."""
        return {
            "seed": self.seed,
            "passed": self.passed,
            "tolerances": vars(self.tolerances),
            "scenarios": [v.to_dict() for v in self.verdicts],
        }

    def format_report(self) -> str:
        """Render the per-scenario table, failed gates, and tolerances."""
        rows = []
        for verdict in self.verdicts:
            core = verdict.core_summary
            san = verdict.san_summary
            xl = (
                f"{verdict.xl_summary.mean:.1f} ± "
                f"{verdict.xl_summary.ci_half_width:.1f}"
                if verdict.xl_finals
                else "—"
            )
            rows.append(
                [
                    verdict.scenario.name,
                    f"{core.mean:.1f} ± {core.ci_half_width:.1f}",
                    f"{san.mean:.1f} ± {san.ci_half_width:.1f}",
                    xl,
                    f"{verdict.plateau_prediction:.1f}",
                    f"{sum(g.passed for g in verdict.gates)}/{len(verdict.gates)}",
                    "PASS" if verdict.passed else "FAIL",
                ]
            )
        lines = [
            format_table(
                ["scenario", "core final", "SAN final", "xl final",
                 "mean-field", "gates", "status"],
                rows,
                title="Cross-engine differential campaign "
                f"(seed {self.seed}, 95% CIs)",
            )
        ]
        failed = [
            (v.scenario.name, g) for v in self.verdicts for g in failures(v.gates)
        ]
        if failed:
            lines.append("")
            lines.append("failed gates:")
            for scenario_name, gate in failed:
                lines.append(f"  {scenario_name}: {gate.format()}")
        tol = self.tolerances
        lines.append("")
        lines.append(
            "declared tolerances: "
            f"|Δmean| ≤ max({tol.mean_absolute_floor:g}, "
            f"{tol.mean_se_multiplier:g}×SE); Welch/rank alpha "
            f"{tol.welch_alpha:g}/{tol.rank_alpha:g}; plateau ±"
            f"{tol.plateau_rel_tolerance:.0%} (+CI); growth ratio in "
            f"[{tol.growth_ratio_low:g}, {tol.growth_ratio_high:g}]"
        )
        return "\n".join(lines)


def run_campaign(
    scenarios: Optional[Sequence[DifferentialScenario]] = None,
    seed: int = VALIDATION_SEED,
    replications: Optional[int] = None,
    tolerances: Tolerances = Tolerances(),
    echo: Optional[Callable[[str], None]] = None,
) -> CampaignResult:
    """Run a differential campaign over ``scenarios`` (default: all four)."""
    selected = (
        list(scenarios) if scenarios is not None else baseline_differential_scenarios()
    )
    if not selected:
        raise ValueError("campaign needs at least one scenario")
    verdicts = []
    for scenario in selected:
        if echo is not None:
            echo(f"validating {scenario.name} ...")
        verdicts.append(
            run_differential_scenario(
                scenario, seed=seed, replications=replications, tolerances=tolerances
            )
        )
    return CampaignResult(verdicts=verdicts, seed=seed, tolerances=tolerances)


__all__ = [
    "CampaignResult",
    "FrontierDifferential",
    "ScenarioVerdict",
    "Tolerances",
    "run_bluetooth_differential",
    "run_campaign",
    "run_differential_scenario",
    "run_frontier_differential",
]
