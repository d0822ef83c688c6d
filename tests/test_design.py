"""Unit tests for the design DSL: algebra, compile, IO, CLI, manifests."""

from __future__ import annotations

import json
import sys
import textwrap

import pytest

from repro.cli import main
from repro.core.parameters import BlacklistConfig, GatewayScanConfig
from repro.design import (
    DesignError,
    ExperimentDesign,
    Factor,
    Level,
    ablate,
    build_scenario,
    compile_design,
    cross,
    derive_factor,
    design_from_dict,
    latin_square,
    load_design,
    render_label,
)
from repro.design.library import UnknownExperimentError, get_design, get_experiment
from repro.obs.manifest import build_manifest, validate_manifest


# -- model -------------------------------------------------------------------


def virus_factor(*numbers):
    return Factor.of("virus", numbers, fmt="virus{}")


def test_factor_points_are_its_levels_in_order():
    factor = virus_factor(3, 1)
    assert [p["virus"].label for p in factor.points()] == ["virus3", "virus1"]
    assert factor.level("virus1").value == 1
    with pytest.raises(DesignError, match="no level"):
        factor.level("virus9")


def test_factor_rejects_duplicate_labels_and_empty():
    with pytest.raises(DesignError, match="duplicate"):
        Factor("virus", (Level("a", 1), Level("a", 2)))
    with pytest.raises(DesignError, match="no levels"):
        Factor("virus", ())


def test_cross_rejects_shared_factors():
    with pytest.raises(DesignError, match="share factor"):
        cross(virus_factor(1), virus_factor(2))


def test_operator_sugar_builds_cross():
    product = virus_factor(1, 2) * Factor.of("duration", (6.0, 12.0))
    assert product.size == 4


def test_ablate_prepends_baseline_and_rejects_collision():
    factor = ablate(
        Factor("response", (Level("th10", (BlacklistConfig(threshold=10),)),))
    )
    assert factor.levels[0].label == "baseline"
    assert factor.levels[0].value == ()
    with pytest.raises(DesignError, match="already has"):
        ablate(factor)


def test_derive_factor_collapses_a_grid():
    grid = cross(Factor.of("dev", (24.0,)), Factor.of("dep", (1.0, 6.0)))
    factor = derive_factor(
        "response",
        grid,
        lambda p: Level(f"{p['dev'].value:g}+{p['dep'].value:g}", ()),
    )
    assert [level.label for level in factor.levels] == ["24+1", "24+6"]


# -- scenario interpretation -------------------------------------------------


def test_build_scenario_requires_virus():
    with pytest.raises(DesignError, match="'virus' factor"):
        build_scenario({"duration": Level("6h", 6.0)})


def test_build_scenario_rejects_unknown_factors():
    with pytest.raises(DesignError, match="unknown factor"):
        build_scenario({"virus": Level("virus1", 1), "mystery": Level("x", 1)})


def test_build_scenario_applies_every_known_factor():
    scenario = build_scenario(
        {
            "virus": Level("virus3", 3),
            "population": Level("n500", 500, suffix="-n500"),
            "duration": Level("12h", 12.0),
            "af": Level("af0.2", 0.2),
            "response": Level("th10", (BlacklistConfig(threshold=10),), suffix="th10"),
            "engine": Level("xl", "xl"),
        }
    )
    assert scenario.name == "virus3-baseline-n500+th10"
    assert scenario.network.population == 500
    assert scenario.duration == 12.0
    assert scenario.user.acceptance_factor == 0.2
    assert scenario.responses == (BlacklistConfig(threshold=10),)
    assert scenario.engine == "xl"


def test_build_scenario_topology_overrides_network():
    scenario = build_scenario(
        {
            "virus": Level("virus1", 1),
            "topology": Level("dense", {"mean_contact_list_size": 120.0}),
        }
    )
    assert scenario.network.mean_contact_list_size == 120.0


def test_render_label_templates_and_callables():
    point = {"virus": Level("virus2", 2), "response": Level("th10", ())}
    assert render_label("{virus}-{response}", point) == "virus2-th10"
    assert render_label(lambda p: p["virus"].label.upper(), point) == "VIRUS2"
    with pytest.raises(DesignError, match="unknown factor"):
        render_label("{nope}", point)


def test_seed_factor_pins_series_seed():
    design = ExperimentDesign(
        experiment_id="seeded",
        title="per-point seeds",
        paper_ref="(test)",
        description="",
        design=cross(
            virus_factor(1), Factor.of("seed", (5, 9), fmt="seed{}")
        ),
        label="{seed}",
    )
    compiled = compile_design(design, replications=1, seed=0)
    assert [job.seed for job in compiled.jobs] == [5, 9]


# -- IO ----------------------------------------------------------------------

TOML_DOC = textwrap.dedent(
    """
    [design]
    id = "custom-blacklist"
    title = "Blacklist mini-grid"
    label = "{virus}-{response}"
    replications = 2
    checkpoints = [6.0, 24.0]

    [[factor]]
    name = "virus"
    levels = [1, 3]

    [[factor]]
    name = "response"
    ablate = true

    [[factor.levels]]
    label = "th10"
    responses = [{kind = "blacklist", threshold = 10}]

    [[factor.levels]]
    label = "th20"
    responses = [{kind = "blacklist", threshold = 20}]
    """
)


def json_document():
    return {
        "design": {
            "id": "custom-json",
            "label": "{virus}-{response}",
            "subsample": {"seed": 7},
        },
        "factor": [
            {"name": "virus", "levels": [1, 2, 3]},
            {
                "name": "response",
                "levels": [
                    {"label": "none"},
                    {
                        "label": "scan6",
                        "responses": [
                            {"kind": "gateway_scan", "activation_delay": 6.0}
                        ],
                    },
                ],
            },
        ],
    }


def test_load_design_from_toml(tmp_path):
    if sys.version_info < (3, 11):
        pytest.skip("tomllib requires Python 3.11+")
    path = tmp_path / "design.toml"
    path.write_text(TOML_DOC, encoding="utf-8")
    design = load_design(path)
    assert design.experiment_id == "custom-blacklist"
    assert design.default_replications == 2
    spec = design.to_spec()
    assert [s.label for s in spec.series] == [
        "virus1-baseline", "virus1-th10", "virus1-th20",
        "virus3-baseline", "virus3-th10", "virus3-th20",
    ]
    assert spec.series[1].scenario.responses == (BlacklistConfig(threshold=10),)


def test_load_design_from_json(tmp_path):
    path = tmp_path / "design.json"
    path.write_text(json.dumps(json_document()), encoding="utf-8")
    design = load_design(path)
    assert design.subsample_seed == 7
    points = design.design.points()
    # Subsample covers every virus and both response levels.
    assert {p["virus"].label for p in points} == {"virus1", "virus2", "virus3"}
    assert {p["response"].label for p in points} == {"none", "scan6"}
    spec = design.to_spec()
    scan = next(s for s in spec.series if s.label.endswith("scan6"))
    assert scan.scenario.responses == (GatewayScanConfig(activation_delay=6.0),)


def test_load_design_rejects_unknown_suffix_and_bad_documents(tmp_path):
    bad = tmp_path / "design.yaml"
    bad.write_text("x", encoding="utf-8")
    with pytest.raises(DesignError, match="expected .toml or .json"):
        load_design(bad)
    broken = tmp_path / "broken.json"
    broken.write_text("{not json", encoding="utf-8")
    with pytest.raises(DesignError, match="invalid JSON"):
        load_design(broken)


def test_design_from_dict_validates_structure():
    with pytest.raises(DesignError, match="'id'"):
        design_from_dict({"factor": [{"name": "virus", "levels": [1]}]})
    with pytest.raises(DesignError, match=r"\[\[factor\]\]"):
        design_from_dict({"design": {"id": "x"}})
    with pytest.raises(DesignError, match="unknown factor"):
        design_from_dict(
            {"design": {"id": "x"}, "factor": [{"name": "beverage", "levels": [1]}]}
        )
    with pytest.raises(DesignError, match="no scalar shorthand"):
        design_from_dict(
            {"design": {"id": "x"}, "factor": [{"name": "response", "levels": [1]}]}
        )
    with pytest.raises(DesignError, match="unknown response kind"):
        design_from_dict(
            {
                "design": {"id": "x"},
                "factor": [
                    {"name": "virus", "levels": [1]},
                    {
                        "name": "response",
                        "levels": [
                            {"label": "z", "responses": [{"kind": "nope"}]}
                        ],
                    },
                ],
            }
        )


# -- manifests ---------------------------------------------------------------


def test_compiled_manifest_section_is_schema_valid():
    compiled = compile_design(get_design("fig2"), replications=2, seed=1)
    section = compiled.manifest_section()
    assert section["experiment"] == "fig2"
    assert section["requested_jobs"] == 8
    assert section["unique_jobs"] == 8
    assert section["dedup_ratio"] == 1.0
    assert [f["name"] for f in section["factors"]] == ["virus", "response"]
    document = build_manifest(
        "run", "design:fig2", wall_seconds=0.1, design=[section]
    )
    assert validate_manifest(document) == []


def test_manifest_design_section_validation_catches_junk():
    good = compile_design(get_design("fig1"), replications=1, seed=0).manifest_section()
    base = dict(wall_seconds=0.1)
    assert validate_manifest(build_manifest("run", "x", design=[good], **base)) == []
    bad = dict(good)
    bad.pop("experiment")
    problems = validate_manifest(build_manifest("run", "x", design=[bad], **base))
    assert any("experiment" in p for p in problems)
    worse = dict(good, dedup_ratio=1.5)
    problems = validate_manifest(build_manifest("run", "x", design=[worse], **base))
    assert any("dedup_ratio" in p for p in problems)


# -- registry errors (satellite: helpful unknown-id message) -----------------


def test_get_experiment_error_lists_valid_ids():
    with pytest.raises(UnknownExperimentError) as excinfo:
        get_experiment("fig99")
    message = str(excinfo.value)
    assert "fig99" in message
    for known in ("fig1", "fig7", "blacklist-slow", "scaling2000"):
        assert known in message
    # Still a KeyError for pre-existing callers.
    assert isinstance(excinfo.value, KeyError)


def test_cli_figure_unknown_id_exits_2_with_id_list(capsys):
    code = main(["figure", "fig99", "--no-cache"])
    assert code == 2
    err = capsys.readouterr().err
    assert "fig99" in err
    assert "fig1" in err and "scaling2000" in err


def test_cli_design_unknown_spec_exits_2(capsys):
    code = main(["design", "show", "not-a-design"])
    assert code == 2
    err = capsys.readouterr().err
    assert "not-a-design" in err
    assert "fig1" in err


def _bad_document(design=None, virus=3, extra_factors=()):
    return {
        "design": {"id": "bad", **(design or {})},
        "factor": [
            {"name": "virus", "levels": [virus]},
            {"name": "population", "levels": [100]},
            {"name": "duration", "levels": [2.0]},
            *extra_factors,
        ],
    }


@pytest.mark.parametrize(
    "document, message",
    [
        (_bad_document({"engine": "bogus"}), "engine must be one of"),
        (_bad_document(virus=9), "virus number"),
        (_bad_document({"replications": "many"}), "replications"),
        (
            _bad_document(extra_factors=[{"name": "af", "levels": ["high"]}]),
            "'af'",
        ),
        (_bad_document({"replications": 0}), "replications"),
    ],
    ids=["engine", "virus", "replications-text", "af-text", "replications-zero"],
)
@pytest.mark.parametrize("command", ["show", "compile", "run"])
def test_cli_design_bad_document_exits_2(tmp_path, capsys, document, message, command):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(document), encoding="utf-8")
    argv = ["design", command, str(path)]
    if command == "run":
        argv += ["--no-cache", "--no-chart"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert message in err
    assert len(err.strip().splitlines()) == 1


# -- CLI ---------------------------------------------------------------------


def test_cli_design_show(capsys):
    assert main(["design", "show", "fig5"]) == 0
    out = capsys.readouterr().out
    assert "factor virus (1): virus4" in out
    assert "factor response (7)" in out
    assert "hours-24-25" in out
    assert "shape checks: 5" in out


def test_cli_design_compile(capsys):
    assert main(["design", "compile", "fig1", "--replications", "2"]) == 0
    out = capsys.readouterr().out
    assert "4 series × 2 replication(s)" in out
    assert "8 requested → 8 unique" in out


def test_cli_design_run_small(tmp_path, capsys):
    path = tmp_path / "tiny.json"
    path.write_text(
        json.dumps(
            {
                "design": {
                    "id": "tiny",
                    "label": "{virus}-{response}",
                    "checkpoints": [2.0, 4.0],
                },
                "factor": [
                    {"name": "virus", "levels": [3]},
                    {"name": "population", "levels": [150]},
                    {"name": "duration", "levels": [4.0]},
                    {
                        "name": "response",
                        "levels": [
                            {"label": "base"},
                            {
                                "label": "th10",
                                "suffix": "th10",
                                "responses": [
                                    {"kind": "blacklist", "threshold": 10}
                                ],
                            },
                        ],
                    },
                ],
            }
        ),
        encoding="utf-8",
    )
    manifest = tmp_path / "manifest.jsonl"
    code = main(
        [
            "design", "run", str(path),
            "--replications", "1",
            "--no-chart",
            "--cache-dir", str(tmp_path / "cache"),
            "--metrics", str(manifest),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "virus3-base" in out and "virus3-th10" in out
    assert "dedup ratio 1.0" in out
    records = [
        json.loads(line)
        for line in manifest.read_text(encoding="utf-8").splitlines()
        if line.strip()
    ]
    assert len(records) == 1
    design_section = records[0]["design"]
    assert design_section[0]["experiment"] == "tiny"
    assert design_section[0]["requested_jobs"] == 2
    assert design_section[0]["dedup_ratio"] == 1.0


def test_build_scenario_latency_and_rollout_factors():
    from repro.core.parameters import ResponseDeployment

    scenario = build_scenario(
        {
            "virus": Level("virus1", 1),
            "response": Level("bl", (BlacklistConfig(threshold=10),)),
            "latency": Level("lat24", 24.0, suffix="-lat24"),
            "rollout": Level("roll4", 0.25, suffix="-roll4h"),
        }
    )
    assert scenario.deployment == ResponseDeployment(
        latency_hours=24.0, rollout_rate=0.25
    )
    assert scenario.name.endswith("-lat24-roll4h")
    # A null rollout level keeps the instantaneous-coverage default.
    latency_only = build_scenario(
        {
            "virus": Level("virus1", 1),
            "latency": Level("lat0", 0.0),
        }
    )
    assert latency_only.deployment == ResponseDeployment(
        latency_hours=0.0, rollout_rate=None
    )


def test_build_scenario_without_deployment_factors_leaves_deployment_unset():
    scenario = build_scenario({"virus": Level("virus1", 1)})
    assert scenario.deployment is None


def test_frontier_design_compiles_with_deployments():
    from repro.core.parameters import ResponseDeployment
    from repro.design.library import EXTENSION_IDS

    assert "frontier" in EXTENSION_IDS
    spec = get_design("frontier").to_spec()
    assert spec.experiment_id == "frontier"
    labels = [series.label for series in spec.series]
    assert labels == ["lat0", "lat24", "lat48", "lat96"]
    for series, hours in zip(spec.series, (0.0, 24.0, 48.0, 96.0)):
        assert series.scenario.deployment == ResponseDeployment(
            latency_hours=hours, rollout_rate=None
        )
    assert spec.engine == "xl"
    compiled = compile_design(get_design("frontier"), replications=2, seed=0)
    assert len(compiled.jobs) == 8  # 4 distinct deployments x 2 replications
    assert compiled.manifest_section()["experiment"] == "frontier"
