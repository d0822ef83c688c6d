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

from .._lazy import lazy_surface

#: Each public name is imported from its submodule on first use (PEP 562),
#: so importing one layer (``core.parameters``, ``core.cache``) does not
#: load the model, the response mechanisms or the analysis helpers.
__getattr__, __dir__, __all__ = lazy_surface(
    __name__,
    globals(),
    {
        ".model": ("PhoneNetworkModel",),
        ".parameters": (
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
        ),
        ".responses": (
            "ResponseMechanism",
            "GatewayScan",
            "DetectionAlgorithm",
            "UserEducation",
            "Immunization",
            "Monitoring",
            "Blacklist",
            "build_mechanism",
        ),
        ".phone": ("Phone", "PhoneState", "PhoneStateError"),
        ".messages": ("MMSMessage", "MessageIdAllocator"),
        ".gateway": ("MMSGateway",),
        ".metrics": ("ModelMetrics",),
        ".detection": ("DetectionTracker",),
        ".virus": ("VirusEngine",),
        ".scenarios": (
            "virus1",
            "virus2",
            "virus3",
            "virus4",
            "virus_parameters",
            "baseline_scenario",
            "VIRUS_HORIZONS",
        ),
        ".simulation": (
            "run_scenario",
            "replicate_scenario",
            "ScenarioResult",
            "ReplicationSet",
        ),
        ".parallel": ("default_process_count",),
        ".serialization": (
            "SerializationError",
            "scenario_to_dict",
            "scenario_from_dict",
            "scenario_to_json",
            "scenario_from_json",
            "save_scenario",
            "load_scenario",
            "result_to_dict",
            "result_from_dict",
        ),
        ".cache": ("ResultCache", "result_key", "CACHE_SCHEMA_VERSION"),
        ".user": (
            "PAPER_ACCEPTANCE_FACTOR",
            "acceptance_probability",
            "total_acceptance_probability",
            "solve_acceptance_factor",
        ),
    },
)
