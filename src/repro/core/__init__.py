"""The paper's primary contribution: the parameterized mobile-phone virus
propagation model with six response mechanisms.

Typical use::

    from repro.core import baseline_scenario, run_scenario, GatewayScanConfig

    scenario = baseline_scenario(1).with_responses(
        GatewayScanConfig(activation_delay=6.0), suffix="scan6h"
    )
    result = run_scenario(scenario, seed=42)
    print(result.total_infected)
"""

from .detection import DetectionTracker
from .gateway import MMSGateway
from .messages import MessageIdAllocator, MMSMessage
from .metrics import ModelMetrics
from .model import PhoneNetworkModel
from .parameters import (
    BlacklistConfig,
    DetectionAlgorithmConfig,
    DetectionParameters,
    GatewayScanConfig,
    ImmunizationConfig,
    LimitPeriod,
    MobilityParameters,
    MonitoringConfig,
    NetworkParameters,
    ResponseConfig,
    ResponseDeployment,
    ScenarioConfig,
    Targeting,
    UserEducationConfig,
    UserParameters,
    VirusParameters,
)
from .phone import Phone, PhoneState, PhoneStateError
from .responses import (
    Blacklist,
    DetectionAlgorithm,
    GatewayScan,
    Immunization,
    Monitoring,
    ResponseMechanism,
    UserEducation,
    build_mechanism,
)
from .scenarios import (
    VIRUS_HORIZONS,
    baseline_scenario,
    virus1,
    virus2,
    virus3,
    virus4,
    virus_parameters,
)
from .cache import CACHE_SCHEMA_VERSION, ResultCache, result_key
from .parallel import default_process_count
from .serialization import (
    SerializationError,
    load_scenario,
    result_from_dict,
    result_to_dict,
    save_scenario,
    scenario_from_dict,
    scenario_from_json,
    scenario_to_dict,
    scenario_to_json,
)
from .simulation import ReplicationSet, ScenarioResult, replicate_scenario, run_scenario
from .user import (
    PAPER_ACCEPTANCE_FACTOR,
    acceptance_probability,
    solve_acceptance_factor,
    total_acceptance_probability,
)
from .virus import VirusEngine

__all__ = [
    "PhoneNetworkModel",
    "ScenarioConfig",
    "VirusParameters",
    "UserParameters",
    "NetworkParameters",
    "MobilityParameters",
    "DetectionParameters",
    "Targeting",
    "LimitPeriod",
    "GatewayScanConfig",
    "DetectionAlgorithmConfig",
    "UserEducationConfig",
    "ImmunizationConfig",
    "MonitoringConfig",
    "BlacklistConfig",
    "ResponseConfig",
    "ResponseDeployment",
    "ResponseMechanism",
    "GatewayScan",
    "DetectionAlgorithm",
    "UserEducation",
    "Immunization",
    "Monitoring",
    "Blacklist",
    "build_mechanism",
    "Phone",
    "PhoneState",
    "PhoneStateError",
    "MMSMessage",
    "MessageIdAllocator",
    "MMSGateway",
    "ModelMetrics",
    "DetectionTracker",
    "VirusEngine",
    "virus1",
    "virus2",
    "virus3",
    "virus4",
    "virus_parameters",
    "baseline_scenario",
    "VIRUS_HORIZONS",
    "run_scenario",
    "replicate_scenario",
    "default_process_count",
    "ScenarioResult",
    "ReplicationSet",
    "SerializationError",
    "scenario_to_dict",
    "scenario_from_dict",
    "scenario_to_json",
    "scenario_from_json",
    "save_scenario",
    "load_scenario",
    "result_to_dict",
    "result_from_dict",
    "ResultCache",
    "result_key",
    "CACHE_SCHEMA_VERSION",
    "PAPER_ACCEPTANCE_FACTOR",
    "acceptance_probability",
    "total_acceptance_probability",
    "solve_acceptance_factor",
]
