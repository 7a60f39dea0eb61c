"""Rank round-robin competition teams with hub/authority link analysis.

Match outcomes become a weighted directed graph whose edges point from
the losing team to the winning team. The mutually reinforcing iteration
then assigns each team an authority weight (large for winners) and a
hub weight (large for teams that feed points to others, so the best
team holds the smallest hub weight).

The public names load on first use, so ``import hitsrank`` loads no
numpy and ``python -m hitsrank`` can choose numpy's BLAS threads first.
"""

import sys
import types
from importlib import import_module

__version__ = "0.1.0"

_OWNERS = {
    "graph": "AdjacencyMatrix MatchRecord Outcome TeamIndex build_adjacency from_named_matrix sort_teams transpose",
    "hits": "DegenerateGraphError DegenerateInputError HitsResult SolverConfig VectorKind WeightVector "
    "authority_gram hits hub_gram",
    "io": "ParseError TableFormat emit_comparison emit_matrix emit_table parse_matches parse_matrix parse_table "
    "table_object",
    "rank": "ComparisonReport ComparisonRow HubOrder Ordering RankRow RankTable TableKind compare_rankings "
    "points_table rank_authority rank_hub",
}
_OWNER = {name: module for module, names in _OWNERS.items() for name in names.split()}

__all__ = sorted(_OWNER)


def __getattr__(name: str) -> object:
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{_OWNER[name]}"), name)
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))


class _Package(types.ModuleType):
    def __setattr__(self, name: str, value: object) -> None:
        # the import system binds each loaded submodule on its package, and
        # the submodule ``hits`` would cover the exported function ``hits``
        if not (name in _OWNER and isinstance(value, types.ModuleType)):
            super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
