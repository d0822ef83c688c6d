"""Analysis of simulation output: curves, statistics, epidemic measures,
and plain-text reporting."""

from .._lazy import lazy_surface

#: Each public name is imported from its submodule on first use (PEP 562):
#: a simulation job imports ``analysis.timeseries`` and ``analysis.stats``
#: only, never the mean-field solver or the SVG writer (whose
#: ``xml.sax.saxutils`` import pulls in ``urllib`` and ``http``).
__getattr__, __dir__, __all__ = lazy_surface(
    __name__,
    globals(),
    {
        ".timeseries": ("StepCurve", "CurveBand", "time_grid", "aggregate_curves"),
        ".stats": ("SampleSummary", "summarize", "welch_t_test"),
        ".epidemic": (
            "is_s_shaped",
            "growth_concentration",
            "exponential_growth_rate",
            "doubling_time",
        ),
        ".meanfield": (
            "MeanFieldParameters",
            "MeanFieldResult",
            "integrate_mean_field",
            "expected_mean_field_plateau",
        ),
        ".svg": ("render_curves_svg", "save_curves_svg"),
        ".report": ("ascii_chart", "format_table"),
    },
)
