"""Experiment harnesses: one module per paper table/figure.

Each ``run_*`` regenerates the corresponding result and returns a
dataclass with a ``render()`` producing the terminal table. The CLI
(``seesaw-experiments``) dispatches to these; the benchmark suite under
``benchmarks/`` wraps them for pytest-benchmark.
"""

from repro.experiments.fig1 import Fig1Result, run_fig1
from repro.experiments.fig2 import Fig2Result, run_fig2
from repro.experiments.fig3 import Fig3Result, run_fig3a, run_fig3b
from repro.experiments.fig4 import Fig4Result, run_fig4
from repro.experiments.fig5 import Fig5Result, run_fig5
from repro.experiments.fig6 import Fig6Result, run_fig6
from repro.experiments.fig7 import Fig7Result, run_fig7
from repro.experiments.fig8 import Fig8Result, run_fig8
from repro.experiments.fig9 import Fig9Result, run_fig9
from repro.experiments.runner import build_controller
from repro.experiments.summary import SummaryResult, run_summary
from repro.experiments.table1 import Table1Result, run_table1
from repro.experiments.table2 import Table2Result, run_table2

__all__ = [
    "Fig1Result",
    "Fig2Result",
    "Fig3Result",
    "Fig4Result",
    "Fig5Result",
    "Fig6Result",
    "Fig7Result",
    "Fig8Result",
    "Fig9Result",
    "SummaryResult",
    "Table1Result",
    "Table2Result",
    "build_controller",
    "run_fig1",
    "run_fig2",
    "run_fig3a",
    "run_fig3b",
    "run_fig4",
    "run_fig5",
    "run_fig6",
    "run_fig7",
    "run_fig8",
    "run_fig9",
    "run_summary",
    "run_table1",
    "run_table2",
]

#: experiment registry for the CLI
EXPERIMENTS = {
    "fig1": run_fig1,
    "fig2": run_fig2,
    "fig3a": run_fig3a,
    "fig3b": run_fig3b,
    "fig4": run_fig4,
    "fig5": run_fig5,
    "fig6": run_fig6,
    "fig7": run_fig7,
    "fig8": run_fig8,
    "fig9": run_fig9,
    "summary": run_summary,
    "table1": run_table1,
    "table2": run_table2,
}
