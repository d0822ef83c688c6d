"""Load declarative designs from TOML or JSON documents.

A design document is the on-disk form of an
:class:`~repro.design.compile.ExperimentDesign`: a ``design`` table
with the experiment metadata and an ordered list of ``factor`` tables
whose levels are either shorthand scalars (``levels = [1, 2, 4]`` for
the ``virus`` factor) or structured objects carrying a label plus a
value or a list of ``kind``-tagged response configs (the same tagged
form :mod:`repro.core.serialization` uses everywhere else).

TOML needs :mod:`tomllib` (Python 3.11+); on older interpreters the
loader raises a clear error and JSON documents keep working.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Union

from ..core.serialization import SerializationError, response_from_dict
from .compile import KNOWN_FACTORS, ExperimentDesign
from .model import DesignError, Factor, Level, ablate, cross, latin_square

#: Label format per factor for shorthand scalar levels.
_SHORTHAND_LABELS: Dict[str, str] = {
    "virus": "virus{}",
    "population": "n{}",
    "duration": "{:g}h",
    "af": "af{:g}",
    "engine": "{}",
    "seed": "seed{}",
}


def _shorthand_level(factor_name: str, value: Any) -> Level:
    """Interpret a bare scalar level (``levels = [1, 2, 4]``)."""
    fmt = _SHORTHAND_LABELS.get(factor_name)
    if fmt is None:
        raise DesignError(
            f"factor {factor_name!r} has no scalar shorthand; use structured "
            "levels with an explicit 'label'"
        )
    try:
        label = fmt.format(value)
    except (TypeError, ValueError):
        raise DesignError(
            f"factor {factor_name!r}: level {value!r} is not a valid "
            f"{factor_name} value"
        ) from None
    return Level(label, value)


def _structured_level(factor_name: str, data: Dict[str, Any]) -> Level:
    """Interpret one structured level object."""
    if "label" not in data:
        raise DesignError(
            f"factor {factor_name!r}: structured levels need a 'label'"
        )
    label = str(data["label"])
    suffix = str(data.get("suffix", ""))
    unknown = sorted(set(data) - {"label", "suffix", "value", "responses"})
    if unknown:
        raise DesignError(
            f"factor {factor_name!r} level {label!r}: unknown key(s) {unknown}"
        )
    if "responses" in data:
        if "value" in data:
            raise DesignError(
                f"factor {factor_name!r} level {label!r}: give either "
                "'value' or 'responses', not both"
            )
        entries = data["responses"]
        if not isinstance(entries, list):
            raise DesignError(
                f"factor {factor_name!r} level {label!r}: 'responses' must "
                "be a list of kind-tagged objects"
            )
        try:
            value: Any = tuple(response_from_dict(entry) for entry in entries)
        except SerializationError as exc:
            raise DesignError(
                f"factor {factor_name!r} level {label!r}: {exc}"
            ) from None
    elif "value" in data:
        value = data["value"]
    elif factor_name == "response":
        value = ()
    else:
        raise DesignError(
            f"factor {factor_name!r} level {label!r}: needs a 'value' "
            "(or 'responses' for the response factor)"
        )
    return Level(label, value, suffix=suffix)


def _factor_from_dict(data: Dict[str, Any]) -> Factor:
    """Build one factor from its document table."""
    if not isinstance(data, dict) or "name" not in data:
        raise DesignError("each factor entry must be an object with a 'name'")
    name = str(data["name"])
    if name not in KNOWN_FACTORS:
        raise DesignError(
            f"unknown factor {name!r}; known factors: {list(KNOWN_FACTORS)}"
        )
    unknown = sorted(set(data) - {"name", "levels", "level", "ablate", "baseline_label"})
    if unknown:
        raise DesignError(f"factor {name!r}: unknown key(s) {unknown}")
    raw_levels = data.get("levels", data.get("level"))
    if not isinstance(raw_levels, list) or not raw_levels:
        raise DesignError(f"factor {name!r} needs a non-empty 'levels' list")
    levels = tuple(
        _structured_level(name, entry)
        if isinstance(entry, dict)
        else _shorthand_level(name, entry)
        for entry in raw_levels
    )
    factor = Factor(name, levels)
    if data.get("ablate"):
        factor = ablate(factor, baseline_label=str(data.get("baseline_label", "baseline")))
    return factor


def design_from_dict(document: Dict[str, Any]) -> ExperimentDesign:
    """Build an :class:`ExperimentDesign` from a parsed document."""
    if not isinstance(document, dict):
        raise DesignError("design document must be an object/table at top level")
    meta = document.get("design")
    if not isinstance(meta, dict) or "id" not in meta:
        raise DesignError("document needs a [design] table with an 'id'")
    unknown = sorted(
        set(meta)
        - {
            "id",
            "title",
            "paper_ref",
            "description",
            "label",
            "replications",
            "checkpoints",
            "engine",
            "subsample",
        }
    )
    if unknown:
        raise DesignError(f"[design] table: unknown key(s) {unknown}")
    raw_factors = document.get("factor", document.get("factors"))
    if not isinstance(raw_factors, list) or not raw_factors:
        raise DesignError("document needs a non-empty [[factor]] list")
    extra = sorted(set(document) - {"design", "factor", "factors"})
    if extra:
        raise DesignError(f"design document: unknown top-level key(s) {extra}")

    design = cross(*(_factor_from_dict(entry) for entry in raw_factors))
    subsample = meta.get("subsample")
    if subsample is not None:
        if not isinstance(subsample, dict) or "seed" not in subsample:
            raise DesignError("[design.subsample] needs a 'seed'")
        size = subsample.get("size")
        design = latin_square(
            design,
            seed=int(subsample["seed"]),
            size=None if size is None else int(size),
        )

    try:
        replications = int(meta.get("replications", 3))
    except (TypeError, ValueError):
        replications = 0
    if replications < 1:
        raise DesignError(
            f"[design] replications must be an integer >= 1, got "
            f"{meta['replications']!r}"
        )

    experiment_id = str(meta["id"])
    return ExperimentDesign(
        experiment_id=experiment_id,
        title=str(meta.get("title", experiment_id)),
        paper_ref=str(meta.get("paper_ref", "(custom design)")),
        description=str(meta.get("description", "")),
        design=design,
        label=str(meta.get("label", "{virus}")),
        checkpoints=tuple(float(c) for c in meta.get("checkpoints", ())),
        default_replications=replications,
        engine=str(meta.get("engine", "core")),
    )


def read_design_document(path: Union[str, Path]) -> Dict[str, Any]:
    """Parse a ``.toml`` or ``.json`` design file to its raw document.

    The raw document is what :func:`design_from_dict` builds from and
    what the campaign daemon accepts over its socket.
    """
    path = Path(path)
    text = path.read_text(encoding="utf-8")
    if path.suffix.lower() == ".toml":
        try:
            import tomllib
        except ImportError:
            raise DesignError(
                f"cannot load {path.name}: TOML designs need Python 3.11+ "
                "(tomllib); re-export the design as JSON, which is always "
                "supported"
            ) from None
        try:
            document = tomllib.loads(text)
        except tomllib.TOMLDecodeError as exc:
            raise DesignError(f"{path.name}: invalid TOML: {exc}") from None
    elif path.suffix.lower() == ".json":
        try:
            document = json.loads(text)
        except json.JSONDecodeError as exc:
            raise DesignError(f"{path.name}: invalid JSON: {exc}") from None
    else:
        raise DesignError(
            f"unsupported design file {path.name!r}: expected .toml or .json"
        )
    return document


def load_design(path: Union[str, Path]) -> ExperimentDesign:
    """Load a design from a ``.toml`` or ``.json`` file."""
    return design_from_dict(read_design_document(path))


__all__ = ["design_from_dict", "load_design", "read_design_document"]
