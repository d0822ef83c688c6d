"""repro — reproduction of "Quantifying the Effectiveness of Mobile Phone
Virus Response Mechanisms" (Van Ruitenbeek, Courtney, Sanders, Stevens;
DSN 2007).

Subpackages
-----------
``repro.des``
    Discrete-event simulation kernel (Möbius-simulator substitute).
``repro.san``
    Stochastic activity network modeling layer (Möbius-formalism
    substitute).
``repro.topology``
    Contact-list network generation (NGCE substitute).
``repro.core``
    The paper's phone-virus propagation model, four virus scenarios, and
    six response mechanisms.
``repro.analysis``
    Infection-curve analysis, replication statistics, text reports.
``repro.experiments``
    Experiment specs, the one job planner, the scheduler and the runner.
``repro.design``
    Declarative designs; its library is the registry of every paper
    table/figure.

Quick start::

    from repro import baseline_scenario, run_scenario

    result = run_scenario(baseline_scenario(3), seed=1)
    print(result.total_infected, "phones infected")
"""

from .core import (
    BlacklistConfig,
    DetectionAlgorithmConfig,
    GatewayScanConfig,
    ImmunizationConfig,
    MonitoringConfig,
    NetworkParameters,
    ReplicationSet,
    ScenarioConfig,
    ScenarioResult,
    UserEducationConfig,
    UserParameters,
    VirusParameters,
    baseline_scenario,
    replicate_scenario,
    run_scenario,
    virus1,
    virus2,
    virus3,
    virus4,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "ScenarioConfig",
    "VirusParameters",
    "UserParameters",
    "NetworkParameters",
    "GatewayScanConfig",
    "DetectionAlgorithmConfig",
    "UserEducationConfig",
    "ImmunizationConfig",
    "MonitoringConfig",
    "BlacklistConfig",
    "baseline_scenario",
    "virus1",
    "virus2",
    "virus3",
    "virus4",
    "run_scenario",
    "replicate_scenario",
    "ScenarioResult",
    "ReplicationSet",
]
