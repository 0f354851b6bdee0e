"""FIG4 — required analysis views vs technology node.

Regenerates the motivation figure: the number of (corner × mode)
analysis views grows near-exponentially as the technology node
advances (paper Fig. 4).
"""

import math

from repro.apps.timing.views import enumerate_views, views_for_node
from repro.figures import fig4_table

from conftest import record_table


def test_fig4_view_growth(benchmark):
    table = benchmark(fig4_table)
    record_table(*table)

    # exponential shape: log(views) grows roughly linearly in node index
    series = [views for _node, _corners, _modes, views, _growth in table.rows]
    assert all(b >= a for a, b in zip(series, series[1:]))
    assert series[-1] >= 1024  # the workload size used in Fig. 6
    ratios = [b / a for a, b in zip(series, series[1:])]
    assert math.prod(ratios) ** (1 / len(ratios)) > 1.5  # ~2x per node


def test_fig4_views_are_materializable(benchmark):
    """The view generator scales to the counts the figure claims."""
    views = benchmark(enumerate_views, views_for_node(7))
    assert len(views) == views_for_node(7)
    assert len({v.name for v in views}) == len(views)
