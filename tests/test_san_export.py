"""Tests for SAN DOT export and the assortativity metric."""

from __future__ import annotations

import numpy as np
import pytest

from repro.des.random import Deterministic
from repro.san import (
    Case,
    InputGate,
    InstantaneousActivity,
    OutputGate,
    SANModel,
    TimedActivity,
    to_dot,
)
from repro.topology import complete_graph, degree_assortativity
from repro.topology.csr import _from_pairs, configuration_model


def gated_model() -> SANModel:
    model = SANModel("demo")
    model.place("fuel", 2)
    model.place("done", 0)
    model.place("flag", 1)
    model.add_activity(
        TimedActivity(
            "work",
            Deterministic(1.0),
            input_arcs=[("fuel", 2)],
            input_gates=[InputGate("armed", ("flag",), predicate=lambda m: m["flag"] > 0)],
            output_gates=[OutputGate("bump", ("done",), function=lambda m: m.add("done"))],
        )
    )
    model.add_activity(
        InstantaneousActivity(
            "branch",
            input_arcs=["done"],
            cases=[
                Case(0.3, output_arcs=["fuel"]),
                Case(0.7, output_arcs=[("flag", 1)]),
            ],
        )
    )
    return model


class TestDotExport:
    def test_structure_present(self):
        dot = to_dot(gated_model())
        assert dot.startswith('digraph "san"')
        assert '"p:fuel"' in dot
        assert "(2)" in dot  # initial marking annotation
        assert '"a:work"' in dot
        assert '"a:branch"' in dot
        assert '"ig:work:armed"' in dot
        assert '"og:work:bump"' in dot
        assert 'label="2"' in dot  # arc multiplicity
        assert "0.3" in dot and "0.7" in dot  # case probabilities

    def test_marking_dependent_case_labelled(self):
        model = SANModel("m")
        model.place("a", 1)
        model.add_activity(
            InstantaneousActivity(
                "act",
                input_arcs=["a"],
                cases=[
                    Case(lambda m: 1.0),
                    Case(lambda m: 0.0),
                ],
            )
        )
        dot = to_dot(model)
        assert "p(m)" in dot

    def test_deterministic_output(self):
        assert to_dot(gated_model()) == to_dot(gated_model())

    def test_quoting(self):
        model = SANModel("q")
        model.place('weird"name', 0)
        model.add_activity(
            TimedActivity("act", Deterministic(1.0), input_arcs=['weird"name'])
        )
        dot = to_dot(model, graph_name='g"raph')
        assert '\\"' in dot


class TestAssortativity:
    def test_regular_graph_degenerate(self):
        assert degree_assortativity(complete_graph(6)) == 0.0

    def test_empty_graph(self):
        assert degree_assortativity(_from_pairs(5, [])) == 0.0

    def test_star_is_disassortative(self):
        star = _from_pairs(6, [(0, i) for i in range(1, 6)])
        assert degree_assortativity(star) == pytest.approx(-1.0)

    def test_assortative_construction(self):
        # Two cliques of different sizes joined by one edge: high-degree
        # nodes mostly link to high-degree nodes.
        edges = [(u, v) for u in range(5) for v in range(u + 1, 5)]
        edges += [(u, v) for u in range(5, 9) for v in range(u + 1, 9)]
        graph = _from_pairs(9, edges + [(0, 5)])
        assert degree_assortativity(graph) > 0.0

    def test_configuration_model_near_neutral(self):
        graph = configuration_model(
            600, 12.0, 1.8, np.random.default_rng(0)
        )
        r = degree_assortativity(graph)
        assert -0.35 < r < 0.15
