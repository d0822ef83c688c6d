"""Compile declarative designs to experiment specs and scheduler jobs.

:class:`ExperimentDesign` wraps a :class:`~repro.design.model.Design`
with the experiment metadata (id, title, paper reference, checkpoints,
shape checks) and a label template; ``to_spec()`` compiles it to an
:class:`~repro.experiments.spec.ExperimentSpec`, and
:func:`compile_design` plans that spec with the one planner,
:func:`~repro.experiments.spec.plan_experiment` (**cache-aware dedup**:
jobs whose ``(scenario config, seed, replication)`` cache keys coincide
collapse to one scheduled job and fan back out to every series that
requested them at collection time).  The factor interpretation
(``virus``, ``response``, ``population``, ...) lives in
:func:`build_scenario`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from ..core.parameters import NetworkParameters, ScenarioConfig
from ..core.scenarios import baseline_scenario
from ..experiments.spec import (
    ExperimentPlan,
    ExperimentSpec,
    SeriesSpec,
    ShapeCheck,
    plan_experiment,
)
from .model import Design, DesignError, DesignLike, Factor, Level, Point, Subsample

#: Factor names the scenario builder understands, in application order.
KNOWN_FACTORS = (
    "virus",
    "population",
    "topology",
    "duration",
    "af",
    "channel",
    "response",
    "latency",
    "rollout",
    "engine",
    "seed",
)


def _network_for(level: Level) -> NetworkParameters:
    """Interpret a ``population`` level: an int, preset name, or params."""
    value = level.value
    if isinstance(value, NetworkParameters):
        return value
    if isinstance(value, bool):
        raise DesignError(f"population level {level.label!r} is a bool")
    if isinstance(value, int):
        return NetworkParameters(population=value)
    if isinstance(value, str):
        from ..xl.presets import xl_network

        return xl_network(value)
    raise DesignError(
        f"population level {level.label!r} must be an int, preset name, or "
        f"NetworkParameters, got {type(value).__name__}"
    )


def build_scenario(point: Point) -> ScenarioConfig:
    """Interpret one design point as a scenario configuration.

    ``virus`` is required; every other factor refines the baseline: the
    network (``population``/``topology``), the horizon (``duration``),
    the acceptance factor (``af``), the response stack (``response``,
    applied with its level's name suffix exactly as the hand-written
    builders applied :meth:`ScenarioConfig.with_responses`), and the
    ``engine``.  Unknown factor names are errors, not silent no-ops.
    """
    unknown = sorted(set(point) - set(KNOWN_FACTORS))
    if unknown:
        raise DesignError(
            f"unknown factor(s) {unknown}; known factors: {list(KNOWN_FACTORS)}"
        )
    if "virus" not in point:
        raise DesignError("every design point needs a 'virus' factor")
    virus_level = point["virus"]
    if not isinstance(virus_level.value, int):
        raise DesignError(
            f"virus level {virus_level.label!r} must carry the paper virus "
            f"number, got {type(virus_level.value).__name__}"
        )

    network: Optional[NetworkParameters] = None
    name_suffix = ""
    if "population" in point:
        network = _network_for(point["population"])
        name_suffix = point["population"].suffix
    if "topology" in point:
        level = point["topology"]
        if not isinstance(level.value, dict):
            raise DesignError(
                f"topology level {level.label!r} must carry a dict of "
                "NetworkParameters overrides"
            )
        network = replace(
            network if network is not None else NetworkParameters(),
            **level.value,
        )
        name_suffix = name_suffix or level.suffix

    duration = None
    if "duration" in point:
        duration = float(point["duration"].value)

    scenario = baseline_scenario(
        virus_level.value, network=network, duration=duration
    )
    if name_suffix:
        scenario = scenario.with_name(scenario.name + name_suffix)
    if "af" in point:
        scenario = scenario.with_acceptance_factor(float(point["af"].value))
    if "channel" in point:
        # Propagation-channel axis: a dict of VirusParameters overrides
        # (e.g. ``{"bluetooth_rate": 2.0}`` for hybrid, or additionally
        # ``{"dormancy": <past horizon>}`` to silence MMS for BT-only).
        level = point["channel"]
        if not isinstance(level.value, dict):
            raise DesignError(
                f"channel level {level.label!r} must carry a dict of "
                "VirusParameters overrides"
            )
        if level.value:
            scenario = replace(
                scenario, virus=replace(scenario.virus, **level.value)
            )
        if level.suffix:
            scenario = scenario.with_name(scenario.name + level.suffix)
    if "response" in point:
        level = point["response"]
        responses = tuple(level.value)
        if responses or level.suffix:
            scenario = scenario.with_responses(*responses, suffix=level.suffix)
    if "latency" in point or "rollout" in point:
        # Response-deployment axes (the frontier family): ``latency`` is
        # the deployment delay in hours, ``rollout`` the coverage rate
        # per hour (``None`` = instantaneous).  Omitted factors leave the
        # scenario's deployment unset, so its serialization — and hence
        # cache identity — is byte-identical to pre-frontier documents.
        from ..core.parameters import ResponseDeployment

        latency = 0.0
        rollout: Optional[float] = None
        suffix_parts: List[str] = []
        if "latency" in point:
            level = point["latency"]
            latency = float(level.value)
            if level.suffix:
                suffix_parts.append(level.suffix)
        if "rollout" in point:
            level = point["rollout"]
            rollout = None if level.value is None else float(level.value)
            if level.suffix:
                suffix_parts.append(level.suffix)
        scenario = scenario.with_deployment(
            ResponseDeployment(latency_hours=latency, rollout_rate=rollout)
        )
        for part in suffix_parts:
            scenario = scenario.with_name(scenario.name + part)
    if "engine" in point:
        scenario = scenario.with_engine(str(point["engine"].value))
    return scenario


def render_label(
    template: Union[str, Callable[[Point], str]], point: Point
) -> str:
    """Render one series label from the design's label template.

    A string template substitutes ``{factor}`` with that factor's level
    label (``"{virus}-{response}"`` → ``"virus1-th10"``); a callable
    receives the whole point.
    """
    if callable(template):
        return template(point)
    try:
        return template.format(
            **{name: level.label for name, level in point.items()}
        )
    except KeyError as exc:
        raise DesignError(
            f"label template {template!r} references unknown factor {exc}"
        ) from None


@dataclass(frozen=True)
class ExperimentDesign:
    """A paper artifact as a declarative design plus its metadata.

    ``to_spec()`` compiles the design's points to the exact
    :class:`ExperimentSpec` the registry serves — same series labels,
    same scenario configs, same order — which is what the differential
    equivalence test pins against the pre-DSL hand-written builders.
    """

    experiment_id: str
    title: str
    paper_ref: str
    description: str
    design: DesignLike
    #: ``"{factor}"`` template or callable rendering each series label.
    label: Union[str, Callable[[Point], str]] = "{virus}"
    checkpoints: Tuple[float, ...] = ()
    shape_checks: Tuple[ShapeCheck, ...] = ()
    default_replications: int = 3
    engine: str = "core"

    def points(self) -> Tuple[Point, ...]:
        return self.design.points()

    def series(self) -> Tuple[SeriesSpec, ...]:
        """One series per design point, labels rendered from the template."""
        return tuple(
            SeriesSpec(render_label(self.label, point), build_scenario(point))
            for point in self.points()
        )

    def to_spec(self) -> ExperimentSpec:
        """Compile to the runnable spec (the registry's currency)."""
        return ExperimentSpec(
            experiment_id=self.experiment_id,
            title=self.title,
            paper_ref=self.paper_ref,
            description=self.description,
            series=self.series(),
            default_replications=self.default_replications,
            checkpoints=self.checkpoints,
            shape_checks=self.shape_checks,
            engine=self.engine,
            design=self,
        )

    @property
    def subsample_seed(self) -> Optional[int]:
        """The Latin-square seed, when the design subsamples its grid."""
        node = self.design
        if isinstance(node, Subsample):
            return node.seed
        return None

    def grid_section(self) -> Dict[str, Any]:
        """Manifest-ready description of the factor grid."""
        factors = [
            {
                "name": factor.name,
                "levels": factor.size,
                "labels": [level.label for level in factor.levels],
            }
            for factor in self.design.factors()
        ]
        return {
            "experiment": self.experiment_id,
            "factors": factors,
            "points": self.design.size,
            "subsample_seed": self.subsample_seed,
        }


def compile_design(
    design: ExperimentDesign,
    replications: Optional[int] = None,
    seed: int = 0,
) -> ExperimentPlan:
    """Compile one design and plan it as a deduplicated job list.

    A point carrying a ``seed`` factor pins its series to that master
    seed and an ``engine`` factor owns its series' engine; see
    :func:`~repro.experiments.spec.plan_experiment`.
    """
    return plan_experiment(design.to_spec(), replications=replications, seed=seed)


__all__ = [
    "KNOWN_FACTORS",
    "ExperimentDesign",
    "build_scenario",
    "render_label",
    "compile_design",
]
