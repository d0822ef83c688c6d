#!/usr/bin/env python
"""Bluetooth propagation study (the paper's proposed extension).

The paper's conclusion proposes evaluating "response mechanisms for mobile
phone viruses that spread through means other than MMS messages, such as
viruses that spread using the Bluetooth interface".  This example does so
in two parts:

1. **Defense blind spots** — a pure Bluetooth worm in the core model:
   gateway scanning and blacklisting see no MMS traffic, so only user
   education and immunization remain effective.
2. **Mobility matters** — the same worm on the xl engine's vectorized
   Bluetooth channel, once under random mixing (fast movement, the core
   model's assumption) and once on the random-waypoint grid
   (``MobilityParameters``) at two densities, showing how locality slows
   a proximity virus.

Part 2 asserts that locality slows the spread; the script exits non-zero
if that ordering ever breaks.

Run:  python examples/bluetooth_study.py          (a few seconds)
"""

from __future__ import annotations

from repro.analysis import format_table
from repro.core import (
    GatewayScanConfig,
    ImmunizationConfig,
    MobilityParameters,
    NetworkParameters,
    ScenarioConfig,
    UserEducationConfig,
    UserParameters,
    VirusParameters,
    run_scenario,
)


def part_one_defense_blind_spots() -> None:
    network = NetworkParameters(population=500, mean_contact_list_size=30.0)
    worm = VirusParameters(
        name="bluetooth-worm",
        min_send_interval=10_000.0,  # MMS channel effectively disabled
        bluetooth_rate=2.0,          # two encounters per hour while infected
    )
    base = ScenarioConfig(
        name="bluetooth-worm", virus=worm, network=network,
        user=UserParameters(read_delay_mean=0.5), duration=120.0,
    )
    seed = 19
    baseline = run_scenario(base, seed=seed)
    rows = [["(baseline)", baseline.total_infected, "100%"]]
    for label, config in [
        ("gateway scan, 1 h", GatewayScanConfig(1.0)),
        ("user education, half", UserEducationConfig(0.5)),
        ("immunization, 6+2 h", ImmunizationConfig(6.0, 2.0)),
    ]:
        result = run_scenario(base.with_responses(config), seed=seed)
        rows.append(
            [label, result.total_infected,
             f"{result.total_infected / baseline.total_infected:.0%}"]
        )
    print(
        format_table(
            ["defense", "final infected", "vs baseline"],
            rows,
            title="Part 1 — defenses against a pure Bluetooth worm "
            "(500 phones, 120 h)",
        )
    )
    print(
        "Reading: the MMS gateway never sees Bluetooth transfers, so the "
        "scan is a no-op; consent- and patch-based defenses still work.\n"
    )


def part_two_xl_channel() -> None:
    population = 2500
    seed = 37
    worm = VirusParameters(
        name="bluetooth-worm-xl",
        min_send_interval=10_000.0,  # MMS channel effectively disabled
        bluetooth_rate=2.0,
    )
    base = ScenarioConfig(
        name="bluetooth-worm-xl",
        virus=worm,
        network=NetworkParameters(population=population),
        duration=48.0,
        engine="xl",
    )
    # Radius 20 m: the dense arena keeps ~3 phones in range (encounters
    # almost never fizzle, so it tracks random mixing) while the sparse
    # arena drops to ~0.3 — most attempts find nobody and the spread slows.
    regimes = [
        ("random mixing", base),
        (
            "dense grid (1 km²)",
            base.with_mobility(
                MobilityParameters(arena_size=1000.0, bluetooth_radius=20.0)
            ),
        ),
        (
            "sparse grid (3 km²)",
            base.with_mobility(
                MobilityParameters(arena_size=3000.0, bluetooth_radius=20.0)
            ),
        ),
    ]
    rows = []
    finals = {}
    for label, config in regimes:
        result = run_scenario(config, seed=seed)
        finals[label] = result.total_infected
        rows.append([label, result.total_infected])
    print(
        format_table(
            ["partner sampling", "infected by 48 h"],
            rows,
            title=f"Part 2 — mobility constrains a proximity worm "
            f"({population} phones, vectorized Bluetooth channel)",
        )
    )
    assert finals["sparse grid (3 km²)"] <= finals["random mixing"], (
        "locality should slow the outbreak: "
        f"sparse grid infected {finals['sparse grid (3 km²)']} phones vs "
        f"{finals['random mixing']} under random mixing"
    )
    print(
        "Reading: without mobility parameters the xl Bluetooth channel "
        "is random mixing (the core model's assumption); with the "
        "waypoint grid, encounters that find nobody within Bluetooth "
        "radius fizzle, and the sparser the arena the slower the spread."
    )


def main() -> None:
    part_one_defense_blind_spots()
    part_two_xl_channel()


if __name__ == "__main__":
    main()
