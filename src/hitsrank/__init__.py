"""Rank round-robin competition teams with hub/authority link analysis.

Match outcomes become a weighted directed graph whose edges point from
the losing team to the winning team. The mutually reinforcing iteration
then assigns each team an authority weight (large for winners) and a
hub weight (large for teams that feed points to others, so the best
team holds the smallest hub weight).
"""

from hitsrank.graph import (
    AdjacencyMatrix,
    MatchRecord,
    Outcome,
    TeamIndex,
    build_adjacency,
    from_named_matrix,
    sort_teams,
    transpose,
)
from hitsrank.hits import (
    DegenerateGraphError,
    DegenerateInputError,
    HitsResult,
    SolverConfig,
    VectorKind,
    WeightVector,
    authority_gram,
    hits,
    hub_gram,
)
from hitsrank.io import (
    ParseError,
    TableFormat,
    emit_comparison,
    emit_matrix,
    emit_table,
    parse_matches,
    parse_matrix,
    parse_table,
    table_object,
)
from hitsrank.rank import (
    ComparisonReport,
    ComparisonRow,
    HubOrder,
    Ordering,
    RankRow,
    RankTable,
    TableKind,
    compare_rankings,
    points_table,
    rank_authority,
    rank_hub,
)

__version__ = "0.1.0"

__all__ = [
    "AdjacencyMatrix",
    "ComparisonReport",
    "ComparisonRow",
    "DegenerateGraphError",
    "DegenerateInputError",
    "HitsResult",
    "HubOrder",
    "MatchRecord",
    "Ordering",
    "Outcome",
    "ParseError",
    "RankRow",
    "RankTable",
    "SolverConfig",
    "TableFormat",
    "TableKind",
    "TeamIndex",
    "VectorKind",
    "WeightVector",
    "authority_gram",
    "build_adjacency",
    "compare_rankings",
    "emit_comparison",
    "emit_matrix",
    "emit_table",
    "from_named_matrix",
    "hits",
    "hub_gram",
    "parse_matches",
    "parse_matrix",
    "parse_table",
    "table_object",
    "points_table",
    "rank_authority",
    "rank_hub",
    "sort_teams",
    "transpose",
]
