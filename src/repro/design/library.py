"""Every paper experiment as a ~20-line declarative design — the registry.

Each factory returns an :class:`~repro.design.compile.ExperimentDesign`
whose compiled series are **job-for-job identical** to the pre-DSL
hand-written builders (``tests/test_design_equivalence.py`` pins this
against job lists recorded from them).  :data:`DESIGN_FACTORIES` is the
one id table: ``repro-sim figure``, ``design`` and ``list`` all resolve
ids through :func:`get_design` / :func:`get_experiment`.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, List, NamedTuple, Tuple

from ..core.parameters import (
    BlacklistConfig,
    DetectionAlgorithmConfig,
    GatewayScanConfig,
    ImmunizationConfig,
    MonitoringConfig,
    UserEducationConfig,
)
from ..core.scenarios import VIRUS_NUMBERS
from ..core.units import HOURS, MINUTES
from ..experiments import checks
from ..experiments.spec import CheckResult, ExperimentSpec
from .compile import ExperimentDesign
from .model import DesignError, Factor, Level, Point, ablate, cross, derive_factor

#: The paper's expected unconstrained plateau: 800 susceptible × 0.40.
PAPER_PLATEAU = 320.0


def virus_factor(numbers: Tuple[int, ...] = VIRUS_NUMBERS) -> Factor:
    """The ``virus`` factor over paper virus numbers (labels ``virusN``)."""
    return Factor.of("virus", numbers, fmt="virus{}")


def response_factor(levels: Dict[str, object]) -> Factor:
    """A ``response`` factor from ``{label: response config(s)}``."""
    built = []
    for label, configs in levels.items():
        if not isinstance(configs, tuple):
            configs = (configs,)
        built.append(Level(label, configs))
    return Factor("response", tuple(built))


def design_fig1() -> ExperimentDesign:
    """Figure 1: baseline infection curves for all four viruses."""
    return ExperimentDesign(
        experiment_id="fig1",
        title="Baseline Infection Curves without Response Mechanisms",
        paper_ref="Figure 1",
        description=(
            "All four viruses produce classic S-shaped infection curves that "
            "plateau at ≈320 infected phones (800 susceptible × 0.40 total "
            "acceptance). Virus 2 is step-like (daily bursts); Virus 3 "
            "saturates within its 24-hour window; Viruses 1 and 4 take "
            "one to two weeks."
        ),
        design=cross(virus_factor()),
        label="{virus}",
        checkpoints=(24.0, 48.0, 96.0, 240.0, 432.0),
        shape_checks=(
            checks.plateau_near("virus1", PAPER_PLATEAU),
            checks.plateau_near("virus2", PAPER_PLATEAU),
            checks.plateau_near("virus3", PAPER_PLATEAU),
            checks.plateau_near("virus4", PAPER_PLATEAU),
            checks.s_shaped("virus1"),
            checks.s_shaped("virus4"),
            checks.steppier_than("virus2", "virus1"),
            checks.faster_saturation("virus3", "virus2"),
            checks.faster_saturation("virus2", "virus1"),
            checks.faster_saturation("virus1", "virus4"),
        ),
    )


def design_fig2() -> ExperimentDesign:
    """Figure 2: gateway virus scan on Virus 1, delay 6/12/24 h."""
    scan = Factor(
        "response",
        tuple(
            Level(f"{delay}h-delay", (GatewayScanConfig(delay * HOURS),))
            for delay in (6, 12, 24)
        ),
    )
    return ExperimentDesign(
        experiment_id="fig2",
        title="Virus Scan: Varying the Activation Time Delay (Virus 1)",
        paper_ref="Figure 2",
        description=(
            "The signature scan halts propagation once deployed; prompter "
            "deployment contains the infection earlier. Paper: with a 6-hour "
            "delay the infection reaches only ~5% of the baseline level; "
            "even 24 hours contains it to ~25%."
        ),
        design=cross(virus_factor((1,)), ablate(scan)),
        label="{response}",
        checkpoints=(24.0, 96.0, 432.0),
        shape_checks=(
            checks.final_ordering(["6h-delay", "12h-delay", "24h-delay", "baseline"]),
            checks.containment_below("6h-delay", "baseline", 0.15),
            checks.containment_below("24h-delay", "baseline", 0.45),
        ),
    )


def design_fig3() -> ExperimentDesign:
    """Figure 3: gateway detection algorithm on Virus 2, accuracy sweep."""
    detector = Factor(
        "response",
        tuple(
            Level(
                f"acc-{accuracy:.2f}",
                (DetectionAlgorithmConfig(accuracy=accuracy),),
            )
            for accuracy in (0.99, 0.95, 0.90, 0.85, 0.80)
        ),
    )
    return ExperimentDesign(
        experiment_id="fig3",
        title="Virus Detection Algorithm: Varying Detection Accuracy (Virus 2)",
        paper_ref="Figure 3",
        description=(
            "The heuristic detector blocks each infected message with "
            "probability equal to its accuracy, slowing (not stopping) the "
            "spread; higher accuracy slows more. Paper: at 0.95 accuracy, "
            "reaching 135 infected phones takes ~9 days instead of ~2."
        ),
        design=cross(virus_factor((2,)), ablate(detector)),
        label="{response}",
        checkpoints=(48.0, 120.0, 240.0),
        shape_checks=(
            checks.final_ordering(
                ["acc-0.99", "acc-0.95", "acc-0.90", "acc-0.85", "acc-0.80", "baseline"]
            ),
            checks.slower_to_level("acc-0.95", "baseline", level=135.0, min_delay=48.0),
            checks.slower_to_level("acc-0.80", "baseline", level=135.0, min_delay=12.0),
        ),
    )


def design_fig4() -> ExperimentDesign:
    """Figure 4: phone user education across all four viruses."""
    education = Factor(
        "response",
        (
            Level("", ()),
            Level(
                "-usered",
                (UserEducationConfig(acceptance_scale=0.5),),
                suffix="usered",
            ),
        ),
    )
    return ExperimentDesign(
        experiment_id="fig4",
        title="Phone User Education: Effective for All Viruses",
        paper_ref="Figure 4",
        description=(
            "Halving the acceptance factor reduces the total probability of "
            "eventual acceptance from 0.40 to ≈0.20 and halves the plateau "
            "for every virus — the only mechanism that is universally "
            "effective, including against Virus 3."
        ),
        design=cross(virus_factor(), education),
        label="{virus}{response}",
        checkpoints=(96.0, 432.0),
        shape_checks=tuple(
            checks.containment_between(
                f"virus{v}-usered",
                f"virus{v}",
                0.35,
                0.70,
                name=f"education halves virus{v} plateau",
            )
            for v in VIRUS_NUMBERS
        ),
    )


def design_fig5() -> ExperimentDesign:
    """Figure 5: immunization on Virus 4, (development, deployment) sweep."""

    def immunization_level(point: Point) -> Level:
        dev = point["dev"].value
        deploy = point["deploy"].value
        return Level(
            f"hours-{dev:.0f}-{dev + deploy:.0f}",
            (ImmunizationConfig(development_time=dev, deployment_window=deploy),),
        )

    grid = cross(Factor.of("dev", (24.0, 48.0)), Factor.of("deploy", (1.0, 6.0, 24.0)))
    immunization = derive_factor("response", grid, immunization_level)
    return ExperimentDesign(
        experiment_id="fig5",
        title="Immunization Using Patches: Varying the Deployment Times (Virus 4)",
        paper_ref="Figure 5",
        description=(
            "Patch development time (24 vs 48 h after detectability) sets how "
            "long the virus spreads unrestrained; the deployment window (1, "
            "6, 24 h) sets how much more it spreads during rollout. Paper: "
            "a 24-hour rollout admits ~60% more infections than a 1-hour "
            "rollout (24-hour development case)."
        ),
        design=cross(virus_factor((4,)), ablate(immunization)),
        label="{response}",
        checkpoints=(48.0, 96.0, 432.0),
        shape_checks=(
            checks.final_ordering(["hours-24-25", "hours-24-30", "hours-24-48"]),
            checks.final_ordering(["hours-48-49", "hours-48-54", "hours-48-72"]),
            checks.final_ordering(["hours-24-25", "hours-48-49"]),
            checks.final_ordering(["hours-24-48", "hours-48-72"]),
            checks.containment_below("hours-24-25", "baseline", 0.6),
        ),
    )


def design_fig6() -> ExperimentDesign:
    """Figure 6: monitoring on Virus 3, forced wait 15/30/60 min."""
    monitoring = Factor(
        "response",
        tuple(
            Level(
                f"{minutes}min-wait",
                (MonitoringConfig(forced_wait=minutes * MINUTES),),
            )
            for minutes in (15, 30, 60)
        ),
    )
    return ExperimentDesign(
        experiment_id="fig6",
        title="Monitoring: Varying the Wait Time for Suspicious Phones (Virus 3)",
        paper_ref="Figure 6",
        description=(
            "Monitoring flags Virus 3's anomalous volume and throttles "
            "flagged phones, buying hours for a secondary response; longer "
            "forced waits slow the spread more. Paper: baseline reaches 150 "
            "infections in ~2.5 h, while a 15-minute wait keeps the level "
            "under 150 for many hours."
        ),
        design=cross(virus_factor((3,)), ablate(monitoring)),
        label="{response}",
        checkpoints=(5.0, 10.0, 20.0, 24.0),
        shape_checks=(
            checks.slower_to_level("15min-wait", "baseline", level=150.0, min_delay=3.0),
            checks.slower_to_level("30min-wait", "baseline", level=150.0, min_delay=4.0),
            checks.slower_to_level("60min-wait", "baseline", level=150.0, min_delay=6.0),
        ),
    )


def blacklist_factor(fmt: str = "{}-messages") -> Factor:
    """Blacklist thresholds 10/20/30/40 as a ``response`` factor."""
    return Factor(
        "response",
        tuple(
            Level(fmt.format(threshold), (BlacklistConfig(threshold=threshold),))
            for threshold in (10, 20, 30, 40)
        ),
    )


def design_fig7() -> ExperimentDesign:
    """Figure 7: blacklisting on Virus 3, threshold 10/20/30/40."""
    return ExperimentDesign(
        experiment_id="fig7",
        title="Blacklisting: Varying the Activation Threshold (Virus 3)",
        paper_ref="Figure 7",
        description=(
            "Blacklisting counts suspected infected messages (invalid random "
            "dials included) and cuts off MMS service at the threshold; it "
            "is most effective against Virus 3 because invalid dials count "
            "too. Lower thresholds contain the virus harder."
        ),
        design=cross(virus_factor((3,)), ablate(blacklist_factor())),
        label="{response}",
        checkpoints=(5.0, 10.0, 24.0),
        shape_checks=(
            checks.final_ordering(
                ["10-messages", "20-messages", "30-messages", "40-messages", "baseline"]
            ),
            checks.containment_below("10-messages", "baseline", 0.35),
        ),
    )


def design_blacklist_slow() -> ExperimentDesign:
    """§5.2 text: blacklisting against the slow viruses (1 and 4) and V2."""
    return ExperimentDesign(
        experiment_id="blacklist-slow",
        title="Blacklisting against Viruses 1, 2 and 4 (§5.2 text)",
        paper_ref="Section 5.2 (text)",
        description=(
            "Paper: threshold 10 is somewhat effective for Viruses 1 and 4 "
            "(penetration restricted versus baseline) but higher thresholds "
            "are ineffective; blacklisting is completely ineffective against "
            "Virus 2 at any threshold because each multi-recipient message "
            "counts once."
        ),
        design=cross(virus_factor((1, 2, 4)), ablate(blacklist_factor("th{}"))),
        label="{virus}-{response}",
        checkpoints=(96.0, 432.0),
        shape_checks=(
            checks.containment_below("virus1-th10", "virus1-baseline", 0.70),
            checks.containment_below("virus4-th10", "virus4-baseline", 0.70),
            checks.final_ordering(
                ["virus1-th10", "virus1-th20", "virus1-th30", "virus1-th40"]
            ),
            checks.ineffective("virus2-th10", "virus2-baseline"),
            checks.ineffective("virus2-th40", "virus2-baseline"),
        ),
    )


def design_combined_defenses() -> ExperimentDesign:
    """Conclusion (future work): combinations of reaction mechanisms.

    The paper: "This work can be extended with an evaluation of
    combinations of reaction mechanisms, particularly when a response
    mechanism that only slows virus propagation requires a secondary
    mechanism to completely halt virus spread."  The design expresses
    that study for the hardest case, Virus 3: monitoring alone slows,
    the gateway scan alone is too late, and the combination contains.
    """
    monitoring = MonitoringConfig(forced_wait=15 * MINUTES)
    scan = GatewayScanConfig(activation_delay=6 * HOURS)
    combos = response_factor(
        {
            "baseline": (),
            "monitoring-only": monitoring,
            "scan-only": scan,
            "monitoring+scan": (monitoring, scan),
        }
    )
    return ExperimentDesign(
        experiment_id="combo",
        title="Combined Defenses against Virus 3 (conclusion, future work)",
        paper_ref="Section 6 (proposed extension)",
        description=(
            "Layering a slowing mechanism (monitoring) under a stopping "
            "mechanism (gateway scan) contains a rapid virus that defeats "
            "either alone: the forced waits hold the infection level down "
            "until the signature deploys."
        ),
        design=cross(
            virus_factor((3,)),
            Factor("duration", (Level("", 48 * HOURS),)),
            combos,
        ),
        label="{response}",
        checkpoints=(6.0, 12.0, 24.0, 48.0),
        shape_checks=(
            checks.ineffective("scan-only", "baseline", min_fraction=0.75),
            checks.containment_below("monitoring+scan", "baseline", 0.5),
            checks.containment_below(
                "monitoring+scan", "monitoring-only", 0.75,
                name="combination beats monitoring alone",
            ),
            checks.containment_below(
                "monitoring+scan", "scan-only", 0.6,
                name="combination beats scan alone",
            ),
        ),
    )


def design_scaling2000() -> ExperimentDesign:
    """§5.3 text: results scale from 1000 to 2000 phones."""

    def penetration_matches(results):
        small_pen = results["n1000"].final_summary().mean / 800.0
        big_pen = results["n2000"].final_summary().mean / 1600.0
        return CheckResult(
            name="penetration scales with population",
            passed=abs(small_pen - big_pen) <= 0.08,
            detail=f"n1000 penetration={small_pen:.1%}, n2000={big_pen:.1%}",
        )

    populations = Factor(
        "population",
        (Level("n1000", 1000), Level("n2000", 2000, suffix="-n2000")),
    )
    return ExperimentDesign(
        experiment_id="scaling2000",
        title="Population Scaling: 1000 vs 2000 Phones (§5.3 text)",
        paper_ref="Section 5.3 (text)",
        description=(
            "Paper: additional experiments with a 2000-phone population "
            "demonstrate that the results scale nicely — the penetration "
            "fraction and curve shape are preserved."
        ),
        design=cross(virus_factor((1,)), populations),
        label="{population}",
        checkpoints=(96.0, 240.0, 432.0),
        shape_checks=(penetration_matches,),
    )


def design_hybrid() -> ExperimentDesign:
    """Hybrid MMS + Bluetooth spreading under each response mechanism.

    The extension family beyond the paper (ROADMAP; Wang et al., Science
    2009): the ``channel`` factor switches the propagation pathway —
    MMS-only (the paper's regime), Bluetooth-only (MMS silenced by
    pushing dormancy past the horizon), and hybrid (both) — crossed with
    one representative configuration of every response mechanism.  Runs
    on the xl engine, whose vectorised per-round encounter phase is what
    makes the Bluetooth channel tractable (and, via presets, scales this
    same design to N=100k+).  The headline shapes: a hybrid virus spreads
    at least as far as either channel alone, the provider-side gateway
    scan — decisive against MMS — is blind to the Bluetooth pathway, and
    user education is the one mechanism that holds against all three
    channels because consent guards every transfer.
    """
    horizon = 96 * HOURS
    bt = {"bluetooth_rate": 1.0}
    bt_only = {"bluetooth_rate": 1.0, "dormancy": 10.0 * horizon}
    channel = Factor(
        "channel",
        (
            Level("mms", {}),
            Level("bt", bt_only, suffix="-bt"),
            Level("hybrid", bt, suffix="-hybrid"),
        ),
    )
    responses = response_factor(
        {
            "baseline": (),
            "scan": GatewayScanConfig(activation_delay=6 * HOURS),
            "detect": DetectionAlgorithmConfig(accuracy=0.95),
            "education": UserEducationConfig(acceptance_scale=0.5),
            "immunize": ImmunizationConfig(
                development_time=24 * HOURS, deployment_window=6 * HOURS
            ),
            "monitor": MonitoringConfig(forced_wait=15 * MINUTES),
            "blacklist": BlacklistConfig(threshold=10),
        }
    )
    return ExperimentDesign(
        experiment_id="hybrid",
        title="Hybrid MMS + Bluetooth Spreading under Each Response Mechanism",
        paper_ref="ROADMAP extension (Wang et al., Science 2009)",
        description=(
            "MMS-only vs Bluetooth-only vs hybrid spreading for Virus 1, "
            "crossed with every response mechanism, on the xl engine. "
            "Gateway-side responses cannot see Bluetooth transfers, so the "
            "hybrid virus escapes the scan that contains its MMS-only twin; "
            "only consent-side mechanisms (user education) bite on every "
            "channel."
        ),
        design=cross(
            virus_factor((1,)),
            Factor("duration", (Level("", horizon),)),
            channel,
            responses,
        ),
        label="{channel}-{response}",
        checkpoints=(24.0, 48.0, 96.0),
        shape_checks=(
            checks.final_ordering(
                ["mms-baseline", "hybrid-baseline"],
                name="hybrid spreads at least as far as MMS alone",
            ),
            checks.containment_below("mms-scan", "mms-baseline", 0.5),
            checks.ineffective(
                "bt-scan", "bt-baseline",
                name="gateway scan is blind to Bluetooth",
            ),
            checks.containment_below(
                "hybrid-education", "hybrid-baseline", 0.75,
                name="education bites on the hybrid channel",
            ),
            checks.containment_below(
                "bt-education", "bt-baseline", 0.75,
                name="education bites on the Bluetooth channel",
            ),
        ),
        default_replications=3,
        engine="xl",
    )


def design_frontier() -> ExperimentDesign:
    """Response-deployment latency sweep: the frontier family's grid view.

    The extension family behind ``repro-sim frontier`` (ROADMAP;
    Nikolopoulos & Polenakis, arXiv:1607.00827): the ``latency`` factor
    delays every detection-triggered response by a fixed number of hours
    after the virus reaches its detectable level, turning the paper's
    fixed deployment assumptions into an axis.  Where the frontier CLI
    *bisects* this axis for the critical latency, this design sweeps a
    coarse grid of it for the full curve family — virus 1 under the
    threshold-10 blacklist, on the xl engine at the paper population.
    The headline shape: containment decays monotonically as deployment
    slips, and a prompt response contains several times harder than one
    delayed past the epidemic's growth phase.
    """
    latency = Factor(
        "latency",
        tuple(
            Level(f"lat{hours:g}", float(hours), suffix=f"-lat{hours:g}")
            for hours in (0, 24, 48, 96)
        ),
    )
    return ExperimentDesign(
        experiment_id="frontier",
        title="Blacklist Deployment Latency Sweep (Virus 1)",
        paper_ref="ROADMAP extension (Nikolopoulos & Polenakis)",
        description=(
            "Deployment latency added to the blacklist's detection trigger "
            "for Virus 1, swept over 0-96 hours at the paper population. "
            "Later deployment monotonically weakens containment; the "
            "bisection frontier (repro-sim frontier) locates the critical "
            "latency this grid brackets."
        ),
        design=cross(
            virus_factor((1,)),
            response_factor({"blacklist": BlacklistConfig(threshold=10)}),
            latency,
        ),
        label="{latency}",
        checkpoints=(96.0, 240.0, 432.0),
        shape_checks=(
            checks.final_ordering(
                ["lat0", "lat24", "lat48", "lat96"],
                name="containment decays monotonically with latency",
            ),
            checks.containment_below(
                "lat0", "lat96", 0.5,
                name="prompt deployment contains hardest",
            ),
        ),
        default_replications=3,
        engine="xl",
    )


class SweepAxis(NamedTuple):
    """One response mechanism's strength axis (paper §5.3)."""

    #: The paper virus the mechanism is applied to.
    virus: int
    #: Human label of the strength axis, e.g. ``"activation delay (h)"``.
    label: str
    #: Whether *larger* strength values mean a *stronger* response.
    larger_is_stronger: bool
    #: The grid of strength values to simulate.
    strengths: Tuple[float, ...]
    #: Builds the response config for one strength value.
    response: Callable[[float], object]


#: One strength sweep per response mechanism, at the paper's operating
#: points: the §5.3 "point of diminishing returns" analysis.
SWEEP_AXES: Dict[str, SweepAxis] = {
    "scan_delay": SweepAxis(
        1, "activation delay (h)", False, (1.0, 3.0, 6.0, 12.0, 24.0, 48.0, 96.0),
        lambda v: GatewayScanConfig(activation_delay=v),
    ),
    "detection_accuracy": SweepAxis(
        2, "accuracy", True, (0.5, 0.7, 0.8, 0.85, 0.9, 0.95, 0.99),
        lambda v: DetectionAlgorithmConfig(accuracy=v),
    ),
    "education_scale": SweepAxis(
        1, "acceptance scale", False, (0.125, 0.25, 0.5, 0.75, 1.0),
        lambda v: UserEducationConfig(acceptance_scale=v),
    ),
    "patch_deployment": SweepAxis(
        4, "deployment window (h)", False, (0.5, 1.0, 3.0, 6.0, 12.0, 24.0, 48.0),
        lambda v: ImmunizationConfig(development_time=24.0, deployment_window=v),
    ),
    "monitoring_wait": SweepAxis(
        3, "forced wait (h)", True, (0.05, 0.125, 0.25, 0.5, 1.0, 2.0),
        lambda v: MonitoringConfig(forced_wait=v),
    ),
    "blacklist_threshold": SweepAxis(
        3, "threshold (messages)", False, (5.0, 10.0, 20.0, 30.0, 40.0, 60.0),
        lambda v: BlacklistConfig(threshold=int(v)),
    ),
}


def design_strength_sweep(
    sweep_id: str, axis: SweepAxis, *factors: Factor
) -> ExperimentDesign:
    """A strength sweep: the baseline, then one response level per strength.

    Each strength's level is labelled and suffixed ``{sweep_id}={v:g}``,
    which names its scenario (and so its result-cache key) as
    ``tests/fixtures/sweep_jobs.json`` pins.  ``factors`` (e.g.
    ``population``, ``duration``) refine the base scenario.
    """
    if len(axis.strengths) < 3:
        raise DesignError(
            f"sweep {sweep_id!r} needs >= 3 strengths for knee analysis"
        )
    strength = Factor(
        "response",
        tuple(
            Level(f"{sweep_id}={v:g}", (axis.response(v),), suffix=f"{sweep_id}={v:g}")
            for v in axis.strengths
        ),
    )
    return ExperimentDesign(
        experiment_id=sweep_id,
        title=f"Response Strength Sweep: {axis.label} (Virus {axis.virus})",
        paper_ref="Section 5.3 (diminishing returns)",
        description=(
            f"Final infections across {axis.label} values "
            f"{', '.join(f'{v:g}' for v in axis.strengths)} against the "
            "unprotected baseline; repro-sim sweep locates the point of "
            "diminishing returns on this curve."
        ),
        design=cross(virus_factor((axis.virus,)), *factors, ablate(strength)),
        label="{response}",
        default_replications=2,
    )


#: Design factories for every reproduced paper artifact, in paper order,
#: then the extensions and the strength sweeps.
DESIGN_FACTORIES: Dict[str, Callable[[], ExperimentDesign]] = {
    "fig1": design_fig1,
    "fig2": design_fig2,
    "fig3": design_fig3,
    "fig4": design_fig4,
    "fig5": design_fig5,
    "fig6": design_fig6,
    "fig7": design_fig7,
    "blacklist-slow": design_blacklist_slow,
    "combo": design_combined_defenses,
    "scaling2000": design_scaling2000,
    "hybrid": design_hybrid,
    "frontier": design_frontier,
    **{
        sweep_id: partial(design_strength_sweep, sweep_id, axis)
        for sweep_id, axis in SWEEP_AXES.items()
    },
}

#: Ids beyond the paper's figure set: the ROADMAP extensions and the
#: strength sweeps.  The legacy differential-equivalence freeze
#: (``design_jobs.json``) covers everything *except* these; the sweeps'
#: job lists are pinned by ``sweep_jobs.json`` instead.
EXTENSION_IDS = frozenset({"hybrid", "frontier", *SWEEP_AXES})


class UnknownExperimentError(KeyError):
    """An experiment id that is not in the registry.

    A ``KeyError`` subclass (callers catching ``KeyError`` keep working)
    whose message lists the valid ids, the way ``load_golden`` reports
    unknown fixtures — so a typo on the command line tells the user what
    to type instead of just what failed.
    """

    def __init__(self, experiment_id: str) -> None:
        super().__init__(experiment_id)
        self.experiment_id = experiment_id

    def __str__(self) -> str:
        known = ", ".join(DESIGN_FACTORIES)
        return f"unknown experiment {self.experiment_id!r}; known: {known}"


def experiment_ids() -> List[str]:
    """All registered experiment ids, in paper order."""
    return list(DESIGN_FACTORIES)


def get_design(experiment_id: str) -> ExperimentDesign:
    """Build the declarative design for one experiment id."""
    try:
        factory = DESIGN_FACTORIES[experiment_id]
    except KeyError:
        raise UnknownExperimentError(experiment_id) from None
    return factory()


def get_experiment(experiment_id: str) -> ExperimentSpec:
    """Build the runnable spec for one experiment id."""
    return get_design(experiment_id).to_spec()


__all__ = [
    "PAPER_PLATEAU",
    "DESIGN_FACTORIES",
    "EXTENSION_IDS",
    "SWEEP_AXES",
    "SweepAxis",
    "UnknownExperimentError",
    "experiment_ids",
    "get_design",
    "get_experiment",
    "virus_factor",
    "response_factor",
    "blacklist_factor",
    "design_strength_sweep",
]
