"""Declarative experiment-design DSL (factors → crossed designs → jobs).

The layer between "what the paper varies" and "what the scheduler
runs": :mod:`~repro.design.model` is the pure point algebra (factors,
crossing, nesting, ablation, seeded Latin-square subsampling),
:mod:`~repro.design.compile` interprets points as scenario configs and
compiles designs to cache-deduplicated job lists,
:mod:`~repro.design.library` re-expresses every paper experiment as a
design (and is the one experiment-id registry), and
:mod:`~repro.design.io` loads custom designs from TOML/JSON.  This
package builds on :mod:`repro.experiments`, never the other way round.
"""

from .compile import (
    KNOWN_FACTORS,
    ExperimentDesign,
    build_scenario,
    compile_design,
    render_label,
)
from .io import design_from_dict, load_design
from .model import (
    Concat,
    Cross,
    Design,
    DesignError,
    Factor,
    Level,
    Nest,
    Point,
    Subsample,
    ablate,
    concat,
    cross,
    derive_factor,
    latin_square,
    nest,
)

__all__ = [
    "Level",
    "Factor",
    "Point",
    "Design",
    "Cross",
    "Concat",
    "Nest",
    "Subsample",
    "DesignError",
    "cross",
    "concat",
    "nest",
    "latin_square",
    "ablate",
    "derive_factor",
    "KNOWN_FACTORS",
    "ExperimentDesign",
    "build_scenario",
    "render_label",
    "compile_design",
    "design_from_dict",
    "load_design",
]
