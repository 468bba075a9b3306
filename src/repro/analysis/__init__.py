"""TCO analysis, table/figure rendering, CSV export, report generation."""

from .export import (
    write_fig4_csv,
    write_fig5_csv,
    write_fig6_csv,
    write_table5_csv,
)
from .plots import bar_chart, fig4_chart, fig5_chart, fig6_chart, line_plot
from .tco import (
    FleetPlan,
    ServerCosts,
    TcoComparison,
    compare,
    format_comparison,
)


__all__ = [
    "write_fig4_csv",
    "write_fig5_csv",
    "write_fig6_csv",
    "write_table5_csv",
    "bar_chart",
    "fig4_chart",
    "fig5_chart",
    "fig6_chart",
    "line_plot",
    "FleetPlan",
    "ServerCosts",
    "TcoComparison",
    "compare",
    "format_comparison",
]
