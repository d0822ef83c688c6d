"""Experiment factories for every figure and textual result in §5.

Since the declarative design layer landed, each ``figN()`` factory is a
thin delegate that compiles the corresponding
:class:`~repro.design.compile.ExperimentDesign` from
:mod:`repro.design.library` — the factor grids now live there as
~20-line designs instead of hand-written series loops.  The factory
names (and :data:`PAPER_PLATEAU`) are kept as the stable public API;
the equivalence suite proves these delegates reproduce the pre-DSL
builders job-for-job against a fixture recorded from them.
"""

from __future__ import annotations

from ..design.library import PAPER_PLATEAU, build
from .spec import ExperimentSpec


def fig1() -> ExperimentSpec:
    """Figure 1: baseline infection curves for all four viruses."""
    return build("fig1")


def fig2() -> ExperimentSpec:
    """Figure 2: gateway virus scan on Virus 1, delay 6/12/24 h."""
    return build("fig2")


def fig3() -> ExperimentSpec:
    """Figure 3: gateway detection algorithm on Virus 2, accuracy sweep."""
    return build("fig3")


def fig4() -> ExperimentSpec:
    """Figure 4: phone user education across all four viruses."""
    return build("fig4")


def fig5() -> ExperimentSpec:
    """Figure 5: immunization on Virus 4, (development, deployment) sweep."""
    return build("fig5")


def fig6() -> ExperimentSpec:
    """Figure 6: monitoring on Virus 3, forced wait 15/30/60 min."""
    return build("fig6")


def fig7() -> ExperimentSpec:
    """Figure 7: blacklisting on Virus 3, threshold 10/20/30/40."""
    return build("fig7")


def text_blacklist_slow() -> ExperimentSpec:
    """§5.2 text: blacklisting against the slow viruses (1 and 4) and V2."""
    return build("blacklist-slow")


def combined_defenses() -> ExperimentSpec:
    """Conclusion (future work): combinations of reaction mechanisms."""
    return build("combo")


def scaling2000() -> ExperimentSpec:
    """§5.3 text: results scale from 1000 to 2000 phones."""
    return build("scaling2000")


def hybrid() -> ExperimentSpec:
    """Extension: hybrid MMS + Bluetooth spreading vs each response (xl)."""
    return build("hybrid")


def frontier() -> ExperimentSpec:
    """Extension: blacklist deployment-latency sweep vs Virus 1 (xl)."""
    return build("frontier")


__all__ = [
    "PAPER_PLATEAU",
    "fig1",
    "fig2",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "text_blacklist_slow",
    "combined_defenses",
    "scaling2000",
    "hybrid",
    "frontier",
]
