"""Array-backed large-population simulation engine.

``repro.xl`` scales the paper's model past the object kernel's practical
population ceiling by holding all phone state — infection status, consent
counters, pacing timers, message budgets, response-mechanism state — in
flat NumPy arrays over a CSR contact network, and advancing time with
batched event rounds instead of per-message heap events.

Entry points:

- :func:`run_scenario_xl` — one replication, same contract and
  :class:`~repro.core.simulation.ScenarioResult` as the core engine.
  (Normally reached via ``run_scenario(config)`` with ``engine="xl"``
  on the scenario.)
- :func:`xl_scenario` / :data:`XL_PRESETS` — paper viruses scaled to
  populations of 10k/100k/1M.
- :func:`hybrid_scenario` — a preset scenario with the Bluetooth
  proximity channel added (random mixing, or the waypoint grid with
  :func:`density_matched_mobility`).

Small-N equivalence with the core DES is enforced by the differential
gates in :mod:`repro.validation` (the xl engine is the third engine of
the matched-trio campaign).
"""

from .consent import acceptance_probabilities
from .engine import (
    MAX_ROUNDS,
    UnsupportedFeatureError,
    XLEngine,
    round_width,
    run_scenario_xl,
)
from .presets import (
    XL_PRESETS,
    density_matched_mobility,
    hybrid_scenario,
    xl_network,
    xl_scenario,
)

__all__ = [
    "XLEngine",
    "UnsupportedFeatureError",
    "run_scenario_xl",
    "round_width",
    "MAX_ROUNDS",
    "XL_PRESETS",
    "xl_network",
    "xl_scenario",
    "hybrid_scenario",
    "density_matched_mobility",
    "acceptance_probabilities",
]
