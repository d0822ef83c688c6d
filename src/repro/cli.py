"""Command-line interface.

Commands
--------
``repro-sim list``
    Show the registered paper experiments.
``repro-sim run --virus 3 --response blacklist --threshold 10``
    Simulate one scenario and print its summary/curve.
``repro-sim figure fig2 fig3 --processes 4 --csv out/figs.csv``
    Regenerate paper figures (one flattened batch): report, ASCII chart,
    shape checks.  ``--processes`` fans replications across a worker
    pool; results are cached on disk so reruns skip finished work
    (``--no-cache`` disables).
``repro-sim frontier --virus 1 --response blacklist``
    Bisect the response-time frontier: the largest deployment latency
    (or slowest rollout, ``--axis rollout``) the mechanism affords
    before the outbreak escapes containment, gated against the
    delayed-response mean-field ODE on a matched well-mixed scenario
    (``repro.frontier``).
``repro-sim topology --nodes 1000 --mean-degree 80 --out contacts.txt``
    Generate a contact-list network file.
``repro-sim sweep scan_delay``
    Strength sweep + diminishing-returns knee for one mechanism (§5.3).
``repro-sim profile --virus 1 --max-events 50000``
    Short instrumented run: hot-path breakdown by event label, ev/s,
    kernel stats.  Every command that simulates through the scheduler
    (``run``, ``scenario``, ``figure``, ``sweep``, ``frontier``,
    ``design run``) accepts ``--metrics PATH`` to append a schema-valid
    JSONL run manifest (see ``repro.obs``).
``repro-sim scenario my_scenario.json --replications 3``
    Simulate a scenario loaded from a JSON file, through the same
    scheduler, cache and report as ``run``.
``repro-sim design show fig5`` / ``design compile my_design.toml`` /
``design run fig4 --processes 4``
    Work with declarative experiment designs (``repro.design``): show
    the factor grid of a registry experiment or a TOML/JSON design
    file, compile it to the deduplicated job list, or run it (the same
    planner ``figure`` uses).
``repro-sim serve --spool spool/`` / ``submit my_design.toml`` /
``status``
    Campaign service (``repro.service``): run the always-on daemon,
    submit a design to it over its Unix socket (streams results back),
    or inspect queue depth, shard health, and campaign states.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import sys
from pathlib import Path
from typing import Callable, List, Optional, Sequence

from .analysis.report import ascii_chart, format_table
from .core.parameters import (
    BlacklistConfig,
    DetectionAlgorithmConfig,
    GatewayScanConfig,
    ImmunizationConfig,
    MobilityParameters,
    MonitoringConfig,
    NetworkParameters,
    ResponseConfig,
    ScenarioConfig,
    UserEducationConfig,
)
from .core.cache import ResultCache, default_cache_dir
from .obs.metrics import Metrics
from .core.scenarios import baseline_scenario
from .des.random import StreamFactory
from .experiments import (
    ExperimentResult,
    ExperimentSpec,
    ReplicationScheduler,
    export_csv,
    format_experiment_report,
    plan_experiment,
)
from .topology.contact_lists import write_contact_lists
from .topology.generators import contact_network
from .topology.metrics import DegreeStats
from .xl.presets import XL_PRESETS, xl_network


def _add_bluetooth_args(parser: argparse.ArgumentParser) -> None:
    """Bluetooth/mobility flags shared by ``run`` and ``profile``."""
    group = parser.add_argument_group("bluetooth / mobility")
    group.add_argument(
        "--bluetooth-rate", type=float, default=0.0,
        help="proximity encounters per hour per infected phone "
        "(0 = MMS only; core + xl engines)",
    )
    group.add_argument(
        "--mobility", action="store_true",
        help="draw Bluetooth partners from the random-waypoint grid "
        "instead of random mixing (xl engine only)",
    )
    group.add_argument("--arena-size", type=float, default=1000.0,
                       help="mobility arena side, metres")
    group.add_argument("--bt-radius", type=float, default=10.0,
                       help="Bluetooth radio radius, metres")
    group.add_argument("--speed-min", type=float, default=500.0,
                       help="waypoint speed minimum, metres/hour")
    group.add_argument("--speed-max", type=float, default=5000.0,
                       help="waypoint speed maximum, metres/hour")
    group.add_argument("--pause-min", type=float, default=0.0,
                       help="waypoint pause minimum, hours")
    group.add_argument("--pause-max", type=float, default=0.5,
                       help="waypoint pause maximum, hours")


def _mobility_from_args(args: argparse.Namespace) -> Optional[MobilityParameters]:
    """The waypoint-mobility config when ``--mobility`` was requested."""
    if not args.mobility:
        return None
    return MobilityParameters(
        arena_size=args.arena_size,
        speed_min=args.speed_min,
        speed_max=args.speed_max,
        pause_min=args.pause_min,
        pause_max=args.pause_max,
        bluetooth_radius=args.bt_radius,
    )


def _at_least(kind, minimum, strict=False):
    """argparse ``type``: ``kind`` values >= ``minimum`` (> if ``strict``),
    so a bad count exits 2 with usage instead of a deep traceback."""
    def parse(text: str):
        value = kind(text)
        if value < minimum or (strict and value == minimum):
            sign = ">" if strict else ">="
            raise argparse.ArgumentTypeError(f"must be {sign} {minimum}, got {text}")
        return value
    parse.__name__ = kind.__name__  # argparse names it in "invalid ... value"
    return parse


@contextlib.contextmanager
def _scenario_values(args: argparse.Namespace):
    """Turn a value the config or a generator rejects into a usage error.

    ``ScenarioConfig`` and its parts validate themselves on construction,
    and the topology generators check their parameters; a ``ValueError``
    raised inside this block exits 2 with the subcommand's usage and the
    message instead of a traceback.
    """
    try:
        yield
    except ValueError as exc:
        args.parser.error(str(exc))


positive_int = _at_least(int, 1)
non_negative_int = _at_least(int, 0)
positive_float = _at_least(float, 0.0, strict=True)
population_int = _at_least(int, 2)  # NetworkParameters needs two phones


def _add_scheduler_args(parser: argparse.ArgumentParser) -> None:
    """Replication-scheduler flags every simulating command shares."""
    parser.add_argument(
        "--processes", type=positive_int, default=1,
        help="worker processes for replications (1 = serial; results are "
        "bit-identical either way)",
    )
    parser.add_argument(
        "--no-auto-degrade", action="store_true",
        help="always dispatch to the worker pool when --processes > 1, "
        "even when the scheduler's cost model projects the pool would "
        "lose to serial (the projection and decision are still logged "
        "to the run manifest)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="disable the on-disk replication result cache",
    )
    parser.add_argument(
        "--cache-dir", default=None,
        help="result cache directory (default: $REPRO_CACHE_DIR or "
        "./.repro-cache — note: CWD-relative, see README 'Observability')",
    )
    parser.add_argument(
        "--metrics", default=None, metavar="PATH",
        help="collect run telemetry and append a JSONL run-manifest "
        "record (ev/s, cache hit ratio, per-worker rates) to PATH",
    )
    parser.add_argument(
        "--retries", type=non_negative_int, default=0, metavar="N",
        help="retry each failed/crashed/timed-out replication up to N "
        "times under the supervised pool before quarantining it "
        "(0 = fail fast, the historical behaviour)",
    )
    parser.add_argument(
        "--task-timeout", type=positive_float, default=None,
        metavar="SECONDS",
        help="kill and retry any single replication running longer than "
        "this (implies the supervised pool)",
    )
    parser.add_argument(
        "--resume", action="store_true",
        help="resume an interrupted campaign from its checkpoint: "
        "replications already completed (and still in the cache) are "
        "skipped, only the missing ones run (requires the cache)",
    )


def _add_response_args(parser: argparse.ArgumentParser) -> None:
    """Response-strength flags ``run`` and ``frontier`` share."""
    parser.add_argument("--delay", type=float, default=6.0,
                        help="scan activation delay, hours")
    parser.add_argument("--accuracy", type=float, default=0.95,
                        help="detection algorithm accuracy")
    parser.add_argument("--dev-time", type=float, default=24.0,
                        help="patch development time, hours")
    parser.add_argument("--deploy-window", type=float, default=6.0,
                        help="patch deployment window, hours")
    parser.add_argument("--threshold", type=int, default=10,
                        help="blacklist threshold, messages")


def add_daemon_args(parser: argparse.ArgumentParser) -> None:
    """Campaign-daemon flags (``repro-sim serve``, ``python -m repro.service``)."""
    parser.add_argument(
        "--spool", required=True,
        help="spool directory (journal, cache, checkpoints, results, logs)",
    )
    parser.add_argument(
        "--socket", default=None,
        help="Unix socket path (default: <spool>/daemon.sock)",
    )
    parser.add_argument(
        "--shards", type=positive_int, default=2,
        help="shard worker processes",
    )
    parser.add_argument(
        "--max-queue-depth", type=non_negative_int, default=8,
        help="queued campaigns before submissions are shed with retry_after",
    )
    parser.add_argument(
        "--heartbeat-timeout", type=positive_float, default=30.0,
        help="seconds of shard heartbeat silence before a respawn",
    )


def _make_scheduler(
    args: argparse.Namespace, label: str = ""
) -> ReplicationScheduler:
    """Build the scheduler the command's flags describe.

    ``label`` names the campaign checkpoint (kept under the cache root),
    so each command/scenario combination checkpoints independently.
    """
    from .resilience import CampaignCheckpoint, RetryPolicy, default_checkpoint_path

    if args.resume and args.no_cache:
        print("--resume requires the result cache (drop --no-cache)",
              file=sys.stderr)
        raise SystemExit(2)
    cache = None
    if not args.no_cache:
        cache = ResultCache(args.cache_dir if args.cache_dir else default_cache_dir())
    metrics = Metrics(enabled=True) if args.metrics else None
    resilience = None
    if args.retries or args.task_timeout:
        resilience = RetryPolicy(
            max_retries=args.retries, task_timeout=args.task_timeout
        )
    checkpoint = None
    if cache is not None and label:
        checkpoint = CampaignCheckpoint(
            default_checkpoint_path(cache.root, label),
            label=label,
            resume=args.resume,
        )
    return ReplicationScheduler(
        processes=args.processes,
        cache=cache,
        metrics=metrics,
        resilience=resilience,
        checkpoint=checkpoint,
        auto_degrade=not args.no_auto_degrade,
    )


def _record_run(
    args: argparse.Namespace,
    scheduler: ReplicationScheduler,
    label: str,
    frontier: Optional[dict] = None,
) -> None:
    """Append the run manifest when ``--metrics PATH`` was given, then
    print the ``--resume`` reconciliation line (when a resume happened)."""
    if args.metrics:
        path = scheduler.write_manifest(args.metrics, label=label, frontier=frontier)
        print(f"run manifest appended to {path}")
    totals = scheduler.resume_totals
    if totals:
        print(
            f"resume: {totals['previously_completed']} previously completed "
            f"({totals['resumed_from_cache']} served from cache, "
            f"{totals['lost_entries']} lost re-run), "
            f"{totals['fresh']} fresh"
        )


def _report_failures(scheduler: ReplicationScheduler) -> int:
    """Partial-failure summary on stderr; 3 when any replication failed."""
    if not scheduler.has_failures:
        return 0
    print(
        "partial failure: some replications were quarantined after "
        "exhausting retries",
        file=sys.stderr,
    )
    for line in scheduler.failure_summary():
        print(f"  {line}", file=sys.stderr)
    return 3


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-sim",
        description=(
            "Reproduction of 'Quantifying the Effectiveness of Mobile Phone "
            "Virus Response Mechanisms' (DSN 2007)"
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("list", help="list the registered paper experiments")

    run_parser = subparsers.add_parser("run", help="simulate one scenario")
    run_parser.set_defaults(parser=run_parser)
    run_parser.add_argument("--virus", type=int, choices=(1, 2, 3, 4), required=True)
    run_parser.add_argument(
        "--response",
        choices=("none", "scan", "detection", "education", "immunization",
                 "monitoring", "blacklist"),
        default="none",
    )
    _add_response_args(run_parser)
    run_parser.add_argument("--scale", type=float, default=0.5,
                            help="education acceptance-factor scale")
    run_parser.add_argument("--forced-wait", type=float, default=0.25,
                            help="monitoring forced wait, hours")
    run_parser.add_argument("--population", type=population_int, default=1000)
    run_parser.add_argument("--duration", type=positive_float, default=None,
                            help="override horizon, hours")
    run_parser.add_argument("--engine", choices=("core", "xl"), default="core",
                            help="simulation engine (xl = array-backed, "
                                 "for large populations)")
    run_parser.add_argument("--preset", choices=sorted(XL_PRESETS), default=None,
                            help="population preset (paper/xl-10k/xl-100k/xl-1m); "
                                 "overrides --population")
    run_parser.add_argument("--replications", type=positive_int, default=3)
    run_parser.add_argument("--seed", type=int, default=0)
    run_parser.add_argument("--no-chart", action="store_true")
    _add_bluetooth_args(run_parser)
    _add_scheduler_args(run_parser)

    figure_parser = subparsers.add_parser(
        "figure", help="regenerate one or more paper figures"
    )
    figure_parser.add_argument(
        "experiment_ids", nargs="+", metavar="experiment_id",
        help="e.g. fig1 .. fig7 (several ids run as one scheduled batch)",
    )
    figure_parser.add_argument("--engine", choices=("core", "xl"), default="core",
                               help="simulation engine for every series")
    figure_parser.add_argument("--replications", type=positive_int, default=None)
    figure_parser.add_argument("--seed", type=int, default=0)
    figure_parser.add_argument("--csv", default=None, help="export mean curves to CSV")
    figure_parser.add_argument("--svg", default=None, help="export the chart as SVG")
    figure_parser.add_argument("--no-chart", action="store_true")
    _add_scheduler_args(figure_parser)

    sweep_parser = subparsers.add_parser(
        "sweep", help="response-strength sweep + diminishing-returns knee (§5.3)"
    )
    sweep_parser.add_argument(
        "sweep_id",
        help="one of: scan_delay, detection_accuracy, education_scale, "
        "patch_deployment, monitoring_wait, blacklist_threshold",
    )
    sweep_parser.add_argument("--replications", type=positive_int, default=2)
    sweep_parser.add_argument("--seed", type=int, default=0)
    _add_scheduler_args(sweep_parser)

    scenario_parser = subparsers.add_parser(
        "scenario", help="simulate a scenario loaded from a JSON file"
    )
    scenario_parser.add_argument("path", help="scenario JSON file")
    scenario_parser.add_argument("--replications", type=positive_int, default=3)
    scenario_parser.add_argument("--seed", type=int, default=0)
    scenario_parser.add_argument("--no-chart", action="store_true")
    _add_scheduler_args(scenario_parser)

    frontier_parser = subparsers.add_parser(
        "frontier",
        help="bisect the response-time frontier: how much deployment "
        "latency (or how slow a rollout) a mechanism affords before the "
        "outbreak escapes containment — gated against the delayed-response "
        "mean-field ODE on a matched well-mixed scenario",
    )
    frontier_parser.set_defaults(parser=frontier_parser)
    frontier_parser.add_argument(
        "--virus", type=int, choices=(1, 2, 3, 4), required=True
    )
    frontier_parser.add_argument(
        "--response",
        choices=("scan", "detection", "immunization", "blacklist"),
        required=True,
        help="deployable mechanism to bisect (monitoring/education are "
        "standing policies — deployment timing does not apply)",
    )
    _add_response_args(frontier_parser)
    frontier_parser.add_argument(
        "--axis", choices=("latency", "rollout"), default="latency",
        help="bisect deployment latency (hours) or the rollout window "
        "(hours to full coverage; the rate is its reciprocal)",
    )
    frontier_parser.add_argument(
        "--low", type=float, default=0.0,
        help="bracket lower bound, hours (rollout axis: must be > 0)",
    )
    frontier_parser.add_argument("--high", type=float, default=168.0,
                                 help="bracket upper bound, hours")
    frontier_parser.add_argument(
        "--tolerance", type=float, default=4.0,
        help="stop when the bracket is narrower than this, hours",
    )
    frontier_parser.add_argument(
        "--fraction", type=float, default=0.5,
        help="containment = mean final infections <= this fraction of "
        "the analytic mean-field plateau",
    )
    frontier_parser.add_argument(
        "--slack", type=float, default=6.0,
        help="hours of slack around the simulated confidence bracket "
        "when judging the mean-field critical latency",
    )
    frontier_parser.add_argument(
        "--no-crosscheck", action="store_true",
        help="skip the matched-scenario mean-field gate (report the "
        "production frontier only)",
    )
    frontier_parser.add_argument("--population", type=population_int,
                                 default=1000)
    frontier_parser.add_argument("--duration", type=positive_float, default=None,
                                 help="override horizon, hours")
    frontier_parser.add_argument("--engine", choices=("core", "xl"),
                                 default="core")
    frontier_parser.add_argument("--replications", type=positive_int, default=3)
    frontier_parser.add_argument("--seed", type=int, default=0)
    _add_scheduler_args(frontier_parser)

    validate_parser = subparsers.add_parser(
        "validate",
        help="differential validation: golden-trace replay and cross-engine "
        "campaigns (forwards to 'python -m repro.validation')",
    )
    validate_parser.add_argument(
        "validation_args", nargs=argparse.REMAINDER,
        help="arguments for repro.validation (run | record | check ...)",
    )

    profile_parser = subparsers.add_parser(
        "profile",
        help="run a short instrumented scenario and print a hot-path "
        "breakdown (per-event-label or per-round-phase timings, ev/s)",
    )
    profile_parser.set_defaults(parser=profile_parser)
    profile_parser.add_argument(
        "--virus", type=int, choices=(1, 2, 3, 4), default=1
    )
    profile_parser.add_argument(
        "--engine", choices=("core", "xl"), default="core",
        help="core = per-event-label DES breakdown; "
        "xl = per-round phase breakdown on the array engine",
    )
    profile_parser.add_argument(
        "--preset", choices=sorted(XL_PRESETS), default=None,
        help="population preset; overrides --population (default on "
        "--engine xl without --population: xl-10k)",
    )
    profile_parser.add_argument("--population", type=population_int, default=None)
    profile_parser.add_argument("--duration", type=positive_float, default=None,
                                help="override horizon, hours")
    profile_parser.add_argument(
        "--max-events", type=positive_int, default=None,
        help="cap the core event loop (keeps profiles short; core engine only)",
    )
    profile_parser.add_argument("--seed", type=int, default=0)
    profile_parser.add_argument("--top", type=positive_int, default=10,
                                help="hot-path rows to print")
    profile_parser.add_argument(
        "--metrics", default=None, metavar="PATH",
        help="append the profile's run-manifest record to PATH",
    )
    _add_bluetooth_args(profile_parser)

    topology_parser = subparsers.add_parser(
        "topology", help="generate a contact-list network file"
    )
    topology_parser.set_defaults(parser=topology_parser)
    topology_parser.add_argument("--nodes", type=population_int, default=1000)
    topology_parser.add_argument("--mean-degree", type=positive_float, default=80.0)
    topology_parser.add_argument(
        "--model",
        default="powerlaw",
        choices=("powerlaw", "chunglu", "ba", "random", "smallworld", "ring", "complete"),
    )
    topology_parser.add_argument("--exponent", type=float, default=1.8)
    topology_parser.add_argument("--seed", type=int, default=0)
    topology_parser.add_argument("--out", required=True, help="output file path")

    design_parser = subparsers.add_parser(
        "design",
        help="show/compile/run declarative experiment designs "
        "(registry ids or TOML/JSON design files)",
    )
    design_sub = design_parser.add_subparsers(dest="design_command", required=True)
    spec_help = (
        "a registry experiment id (see repro-sim list) or a path to a "
        ".toml/.json design document"
    )
    design_show = design_sub.add_parser(
        "show", help="print a design's factor grid and the series it compiles to"
    )
    design_show.add_argument("spec", help=spec_help)
    design_compile = design_sub.add_parser(
        "compile",
        help="compile a design to its deduplicated scheduler job list",
    )
    design_compile.add_argument("spec", help=spec_help)
    design_compile.add_argument("--replications", type=positive_int, default=None)
    design_compile.add_argument("--seed", type=int, default=0)
    design_run = design_sub.add_parser(
        "run", help="run a design (the same deduplicated plan as 'figure')"
    )
    design_run.add_argument("spec", help=spec_help)
    design_run.add_argument("--replications", type=positive_int, default=None)
    design_run.add_argument("--seed", type=int, default=0)
    design_run.add_argument("--csv", default=None, help="export mean curves to CSV")
    design_run.add_argument("--no-chart", action="store_true")
    _add_scheduler_args(design_run)

    serve_parser = subparsers.add_parser(
        "serve",
        help="run the campaign daemon (durable queue, sharded execution, "
        "Unix-socket job API; see repro.service)",
    )
    add_daemon_args(serve_parser)

    submit_parser = subparsers.add_parser(
        "submit", help="submit a design document to a running campaign daemon"
    )
    submit_parser.add_argument(
        "design", help="path to a .toml/.json design document"
    )
    submit_parser.add_argument(
        "--socket", required=True, help="the daemon's Unix socket path"
    )
    submit_parser.add_argument("--replications", type=positive_int, default=None)
    submit_parser.add_argument("--seed", type=int, default=0)
    submit_parser.add_argument("--priority", type=int, default=0,
                               help="lower runs first (default 0)")
    submit_parser.add_argument(
        "--no-wait", action="store_true",
        help="return after admission instead of streaming results",
    )

    status_parser = subparsers.add_parser(
        "status", help="inspect a running campaign daemon"
    )
    status_parser.add_argument(
        "--socket", required=True, help="the daemon's Unix socket path"
    )
    status_parser.add_argument(
        "--id", default=None, help="show one campaign instead of the daemon"
    )
    return parser


def _build_response(args: argparse.Namespace) -> Optional[ResponseConfig]:
    if args.response == "none":
        return None
    if args.response == "scan":
        return GatewayScanConfig(activation_delay=args.delay)
    if args.response == "detection":
        return DetectionAlgorithmConfig(accuracy=args.accuracy)
    if args.response == "education":
        return UserEducationConfig(acceptance_scale=args.scale)
    if args.response == "immunization":
        return ImmunizationConfig(
            development_time=args.dev_time, deployment_window=args.deploy_window
        )
    if args.response == "monitoring":
        return MonitoringConfig(forced_wait=args.forced_wait)
    if args.response == "blacklist":
        return BlacklistConfig(threshold=args.threshold)
    raise ValueError(f"unknown response {args.response!r}")  # pragma: no cover


def _command_list(args: argparse.Namespace) -> int:
    from .design.library import experiment_ids, get_experiment

    rows = []
    for experiment_id in experiment_ids():
        spec = get_experiment(experiment_id)
        rows.append([experiment_id, spec.paper_ref, spec.title, len(spec.series)])
    print(format_table(["id", "paper artifact", "title", "series"], rows))
    return 0


def _engine_scenario(args: argparse.Namespace) -> ScenarioConfig:
    """The scenario the flags ``run`` and ``profile`` share name: virus,
    preset or population, duration, engine, Bluetooth and mobility."""
    if args.preset is not None:
        network = xl_network(args.preset)
    elif args.population is not None:
        network = NetworkParameters(population=args.population)
    else:
        network = None
    scenario = baseline_scenario(args.virus, network=network, duration=args.duration)
    if args.engine != "core":
        scenario = scenario.with_engine(args.engine)
    if args.bluetooth_rate > 0:
        scenario = dataclasses.replace(
            scenario,
            name=f"{scenario.name}-bt",
            virus=dataclasses.replace(
                scenario.virus, bluetooth_rate=args.bluetooth_rate
            ),
        )
    mobility = _mobility_from_args(args)
    if mobility is not None:
        # ScenarioConfig rejects mobility on the core engine with a
        # pointer at --engine xl.
        scenario = scenario.with_mobility(mobility)
    return scenario


def _run_scenario(args: argparse.Namespace) -> ScenarioConfig:
    """The scenario ``repro-sim run`` simulates."""
    scenario = _engine_scenario(args)
    response = _build_response(args)
    if response is not None:
        scenario = scenario.with_responses(response, suffix=args.response)
    return scenario


def _replicate_and_report(
    args: argparse.Namespace, scenario: ScenarioConfig, label: str, heading: str
) -> int:
    """Replicate one scenario through the scheduler and print its report
    (``run`` and ``scenario``); 3 when a replication was quarantined."""
    with _make_scheduler(args, label=label) as scheduler:
        result_set = scheduler.replicate(
            scenario, replications=args.replications, seed=args.seed
        )
    _record_run(args, scheduler, label)
    summary = result_set.final_summary()
    print(heading)
    print(f"replications: {result_set.replications}  (seed {args.seed})")
    print(f"scheduler: {scheduler.stats.format()}")
    print(f"final infected: {summary.format()}")
    print(
        f"penetration: {summary.mean / result_set.susceptible_count:.1%} of "
        f"{result_set.susceptible_count} susceptible phones"
    )
    detection_time = result_set.mean_detection_time()
    if detection_time is not None:
        print(f"mean detection time: {detection_time:.1f} h")
    if not args.no_chart:
        print()
        print(
            ascii_chart(
                {scenario.name: result_set.mean_curve()},
                title=f"{scenario.name} (mean of {result_set.replications})",
                end_time=scenario.duration,
            )
        )
    return _report_failures(scheduler)


def _command_run(args: argparse.Namespace) -> int:
    with _scenario_values(args):
        scenario = _run_scenario(args)
    return _replicate_and_report(
        args, scenario, f"run:{scenario.name}", f"scenario: {scenario.name}"
    )


def _command_scenario(args: argparse.Namespace) -> int:
    from .core.serialization import SerializationError, load_scenario

    try:
        scenario = load_scenario(args.path)
    except (OSError, SerializationError) as exc:
        print(f"cannot load scenario: {exc}", file=sys.stderr)
        return 2
    return _replicate_and_report(
        args,
        scenario,
        f"scenario:{scenario.name}",
        f"scenario: {scenario.name}  (from {args.path})",
    )


def _command_frontier(args: argparse.Namespace) -> int:
    from .frontier import FrontierSolver, run_crosscheck

    with _scenario_values(args):
        response = _build_response(args)
        scenario = baseline_scenario(
            args.virus,
            network=NetworkParameters(population=args.population),
            duration=args.duration,
        )
        if args.engine != "core":
            scenario = scenario.with_engine(args.engine)
        scenario = scenario.with_responses(response, suffix=args.response)
    label = f"frontier:{scenario.name}:{args.axis}"
    crosscheck = None
    with _make_scheduler(args, label=label) as scheduler:
        solver = FrontierSolver(
            scheduler,
            replications=args.replications,
            seed=args.seed,
            fraction=args.fraction,
            tolerance=args.tolerance,
        )
        try:
            production = solver.solve(
                scenario, low=args.low, high=args.high, axis=args.axis
            )
            if not args.no_crosscheck:
                # The analytic gate runs on the matched well-mixed
                # variant at the shared validation seed — the production
                # config above keeps the user's exact parameters.
                crosscheck = run_crosscheck(
                    args.virus,
                    response,
                    scheduler,
                    low=args.low,
                    high=args.high,
                    axis=args.axis,
                    fraction=args.fraction,
                    tolerance=args.tolerance,
                    replications=args.replications,
                    engine=args.engine,
                    slack=args.slack,
                )
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    print(production.format())
    section = {"production": production.manifest_section()}
    if crosscheck is not None:
        print()
        print("matched-scenario mean-field gate:")
        print(crosscheck.format())
        section["crosscheck"] = crosscheck.manifest_section()
    _record_run(args, scheduler, label, frontier=section)
    failures = _report_failures(scheduler)
    if failures:
        return failures
    if crosscheck is not None and not crosscheck.passed:
        print(
            "frontier cross-check FAILED: the mean-field critical "
            "estimate falls outside the simulated confidence bracket",
            file=sys.stderr,
        )
        return 1
    return 0


def _per_figure_path(template: str, experiment_id: str, multiple: bool) -> Path:
    """Output path for one figure: with several figures, suffix the id."""
    path = Path(template)
    if not multiple:
        return path
    return path.with_name(f"{path.stem}-{experiment_id}{path.suffix}")


def _run_designs(
    args: argparse.Namespace,
    specs: Sequence[ExperimentSpec],
    label: str,
    report: Callable[[ReplicationScheduler, List[ExperimentResult]], None],
) -> int:
    """Run registry designs as one scheduled batch and print their report.

    ``report(scheduler, results)`` prints the command's own report after
    the manifest and resume lines.  Partial failure (3) outranks a
    shape-check failure (1): an incomplete campaign can't be judged
    against the paper's shapes.
    """
    with _make_scheduler(args, label=label) as scheduler:
        results = scheduler.run_batch(
            specs, replications=args.replications, seed=args.seed
        )
    _record_run(args, scheduler, label)
    report(scheduler, results)
    failure_code = _report_failures(scheduler)
    if failure_code:
        return failure_code
    return 0 if all(result.all_checks_pass() for result in results) else 1


def _command_figure(args: argparse.Namespace) -> int:
    from .design.library import get_experiment

    try:
        specs = [get_experiment(eid) for eid in args.experiment_ids]
    except KeyError as exc:
        print(exc, file=sys.stderr)
        return 2
    if args.engine != "core":
        specs = [dataclasses.replace(spec, engine=args.engine) for spec in specs]
    multiple = len(specs) > 1

    def report(scheduler, results):
        for spec, result in zip(specs, results):
            print(format_experiment_report(result, chart=not args.no_chart))
            if args.csv:
                path = export_csv(
                    result, _per_figure_path(args.csv, spec.experiment_id, multiple)
                )
                print(f"\nmean curves written to {path}")
            if args.svg:
                from .analysis.svg import save_curves_svg

                curves = dict(list(result.mean_curves().items())[:8])
                path = save_curves_svg(
                    curves,
                    _per_figure_path(args.svg, spec.experiment_id, multiple),
                    title=f"{spec.paper_ref}: {spec.title}",
                    end_time=spec.horizon,
                )
                print(f"SVG chart written to {path}")
            if multiple:
                print()
        print(f"scheduler: {scheduler.stats.format()}")

    label = "figure:" + ",".join(args.experiment_ids)
    return _run_designs(args, specs, label, report)


def _command_sweep(args: argparse.Namespace) -> int:
    from .design.library import SWEEP_AXES, get_experiment
    from .experiments.sensitivity import format_sweep

    axis = SWEEP_AXES.get(args.sweep_id)
    if axis is None:
        known = ", ".join(SWEEP_AXES)
        print(f"unknown sweep {args.sweep_id!r}; known: {known}", file=sys.stderr)
        return 2

    def report(scheduler, results):
        print(format_sweep(axis, results[0]))
        if scheduler.cache is not None:
            cache = scheduler.cache
            print(f"cache: {cache.hits} hits, {cache.misses} misses")

    return _run_designs(
        args, [get_experiment(args.sweep_id)], f"sweep:{args.sweep_id}", report
    )


def _command_profile(args: argparse.Namespace) -> int:
    from .obs.manifest import append_manifest, build_manifest
    from .obs.profile import run_profile

    if args.engine == "xl" and args.preset is None and args.population is None:
        args.preset = "xl-10k"
    with _scenario_values(args):
        scenario = _engine_scenario(args)
    if scenario.engine == "xl" and args.max_events is not None:
        args.parser.error(
            "--max-events caps the core event loop; shorten an xl profile "
            "with --duration"
        )
    report = run_profile(scenario, seed=args.seed, max_events=args.max_events)
    print(report.format(top=args.top))
    if args.metrics:
        sections = report.manifest_sections()
        document = build_manifest(
            "profile", f"profile:{report.scenario_name}", **sections
        )
        path = append_manifest(args.metrics, document)
        print(f"\nprofile manifest appended to {path}")
    return 0


def _resolve_design(spec: str):
    """A design from a registry id or a ``.toml``/``.json`` file path."""
    from .design import load_design
    from .design.library import get_design

    if spec.lower().endswith((".toml", ".json")) or Path(spec).is_file():
        return load_design(spec)
    return get_design(spec)


def _factor_lines(design) -> List[str]:
    """One line per design factor, plus the Latin-square subsample."""
    lines = [
        f"factor {factor.name} ({factor.size}): "
        + ", ".join(level.label or "<none>" for level in factor.levels)
        for factor in design.design.factors()
    ]
    if design.subsample_seed is not None:
        lines.append(
            f"latin-square subsample: seed {design.subsample_seed}, "
            f"{design.design.size} of {design.design.inner.size} grid points"
        )
    return lines


def _command_design(args: argparse.Namespace) -> int:
    try:
        design = _resolve_design(args.spec)
        spec = design.to_spec()
    except (KeyError, OSError, TypeError, ValueError) as exc:
        # DesignError is a ValueError; so are the scenario and spec
        # checks (virus number, engine) that compiling a document runs.
        print(exc, file=sys.stderr)
        return 2

    if args.design_command == "show":
        print(f"design {design.experiment_id}: {design.title}")
        print(f"paper artifact: {design.paper_ref}")
        for line in _factor_lines(design):
            print(line)
        print(f"series ({len(spec.series)}):")
        for series in spec.series:
            print(f"  {series.label}: {series.scenario.name}")
        if spec.checkpoints:
            print("checkpoints: " + ", ".join(f"{c:g}h" for c in spec.checkpoints))
        print(f"shape checks: {len(spec.shape_checks)}")
        return 0

    if args.design_command == "compile":
        plan = plan_experiment(spec, replications=args.replications, seed=args.seed)
        print(
            f"design {design.experiment_id}: {len(plan.spec.series)} series × "
            f"{plan.replications} replication(s) (seed {plan.seed})"
        )
        for line in _factor_lines(design):
            print("  " + line)
        print(
            f"  jobs: {plan.requested_jobs} requested → {plan.unique_jobs} "
            f"unique after dedup (ratio {plan.dedup_ratio})"
        )
        return 0

    def report(scheduler, results):
        (result,) = results
        record = scheduler.design_sections[-1]
        print(format_experiment_report(result, chart=not args.no_chart))
        if args.csv:
            path = export_csv(result, args.csv)
            print(f"\nmean curves written to {path}")
        print(
            f"jobs: {record['requested_jobs']} requested → {record['unique_jobs']} "
            f"unique (dedup ratio {record['dedup_ratio']})"
        )
        print(f"scheduler: {scheduler.stats.format()}")

    return _run_designs(args, [spec], f"design:{design.experiment_id}", report)


def _command_serve(args: argparse.Namespace) -> int:
    from .service import CampaignDaemon

    daemon = CampaignDaemon(
        spool=args.spool,
        shards=args.shards,
        max_queue_depth=args.max_queue_depth,
        heartbeat_timeout=args.heartbeat_timeout,
    )
    socket_path = args.socket or str(daemon.spool / "daemon.sock")
    print(f"serving on {socket_path} (spool {daemon.spool})")
    sys.stdout.flush()
    daemon.serve(socket_path)
    return 0


def _command_submit(args: argparse.Namespace) -> int:
    from .design.io import read_design_document
    from .service import ServiceClient, ServiceError

    try:
        document = read_design_document(args.design)
    except (OSError, ValueError) as exc:
        print(f"cannot load design: {exc}", file=sys.stderr)
        return 2
    client = ServiceClient(args.socket)
    try:
        response = client.submit(
            document,
            replications=args.replications,
            seed=args.seed,
            priority=args.priority,
        )
        if not response.get("ok"):
            print(
                f"submission shed ({response.get('error')}); retry after "
                f"{response.get('retry_after')}s",
                file=sys.stderr,
            )
            return 4
        campaign_id = response["id"]
        print(
            f"admitted campaign {campaign_id}: {response['jobs']} job(s), "
            f"queue position {response['position']}"
        )
        if args.no_wait:
            return 0
        count = 0
        for _ in client.results(campaign_id):
            count += 1
        print(f"campaign {campaign_id} done: {count} result(s) streamed")
        return 0
    except (OSError, ServiceError) as exc:
        print(f"service error: {exc}", file=sys.stderr)
        return 2


def _command_status(args: argparse.Namespace) -> int:
    from .service import ServiceClient, ServiceError

    client = ServiceClient(args.socket)
    try:
        status = client.status(args.id)
    except (OSError, ServiceError) as exc:
        print(f"service error: {exc}", file=sys.stderr)
        return 2
    if args.id is not None:
        record = status["campaign"]
        print(
            f"campaign {record['id']}: {record['state']} "
            f"({record.get('completed', '?')}/{record.get('total', '?')})"
        )
        if record.get("error"):
            print(f"  error: {record['error']}")
        return 0
    queue = status["queue"]
    print(
        f"daemon pid {status['pid']} (up {status['uptime_seconds']:.0f}s, "
        f"protocol {status['protocol']})"
    )
    print(
        f"queue: {queue['pending']} pending / {queue['depth']} open "
        f"(max depth {queue['max_depth']}); draining: {status['draining']}"
    )
    recovery = queue["recovery"]
    if recovery["replayed_records"]:
        print(
            f"recovery: {recovery['pending']} pending + "
            f"{recovery['in_flight']} in-flight replayed "
            f"({recovery['torn_lines']} torn line(s))"
        )
    for shard in status["shards"]:
        state = (
            "quarantined" if shard["quarantined"]
            else "alive" if shard["alive"] else "dead"
        )
        print(
            f"shard {shard['shard']}: {state}, {shard['completed']} task(s), "
            f"{shard['respawns']} respawn(s), heartbeat "
            f"{shard['heartbeat_age']:.1f}s ago"
        )
    for campaign in status["campaigns"]:
        print(
            f"campaign {campaign['id']}: {campaign['state']} "
            f"({campaign['completed']}/{campaign['total']})"
        )
    return 0


def _command_topology(args: argparse.Namespace) -> int:
    streams = StreamFactory(args.seed)
    with _scenario_values(args):
        graph = contact_network(
            args.nodes,
            args.mean_degree,
            streams.stream("topology"),
            model=args.model,
            exponent=args.exponent,
        )
    write_contact_lists(graph, args.out)
    stats = DegreeStats.of(graph)
    print(
        f"wrote {args.out}: {graph.num_nodes} phones, {graph.num_edges} contacts, "
        f"mean list size {stats.mean:.1f} (median {stats.median:.0f}, "
        f"max {stats.maximum})"
    )
    return 0


def _command_validate(args: argparse.Namespace) -> int:
    from .validation.cli import main as validation_main

    return validation_main(args.validation_args)


# One handler per subcommand, keyed by the subparser name.  A table
# rather than ``set_defaults(handler=...)`` keeps each parsed namespace
# to the command's own flags (``serve`` and ``python -m repro.service``
# parse to the same namespace).
_COMMANDS = {
    "list": _command_list,
    "run": _command_run,
    "scenario": _command_scenario,
    "figure": _command_figure,
    "sweep": _command_sweep,
    "frontier": _command_frontier,
    "validate": _command_validate,
    "profile": _command_profile,
    "topology": _command_topology,
    "design": _command_design,
    "serve": _command_serve,
    "submit": _command_submit,
    "status": _command_status,
}


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point."""
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except KeyboardInterrupt:
        # The scheduler's context manager already ran abort(): pool
        # terminated, cache temp orphans swept, checkpoint flushed.
        print(
            "interrupted — progress is checkpointed; rerun with --resume "
            "to continue",
            file=sys.stderr,
        )
        return 130


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
