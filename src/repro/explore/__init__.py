"""Interactive exploration: statistics, drill-down and the time dimension.

§2.3/§3.1: after the explanations are displayed, the user can click a group to
see "additional statistics about the group's rating", drill down from state to
city level aggregates, and move a time slider to watch the interpretations
evolve.  This package implements those interactions on top of the mining core:

* :mod:`repro.explore.statistics` — per-group rating statistics and group
  comparisons (the panel of Figure 3),
* :mod:`repro.explore.drilldown` — state ▸ city drill-down aggregates,
* :mod:`repro.explore.timeline` — time-sliced mining and per-group trends,
* :mod:`repro.explore.session` — a stateful exploration session stitching the
  query, mining and exploration steps together the way the web UI does.
"""

from .statistics import GroupStatistics, compare_groups, group_statistics
from .drilldown import CityAggregate, DrillDown
from .timeline import GroupTrendPoint, TimelineExplorer, TimelineSlice
from .session import ExplorationSession

__all__ = [
    "GroupStatistics",
    "compare_groups",
    "group_statistics",
    "CityAggregate",
    "DrillDown",
    "GroupTrendPoint",
    "TimelineExplorer",
    "TimelineSlice",
    "ExplorationSession",
]
