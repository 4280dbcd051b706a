"""Rationality-and-beliefs-in-rationality graphs.

Model who is rational and who believes whom rational as a labelled
digraph, solve finite games under those beliefs by iterated elimination
of dominated strategies, decide when two graphs are indistinguishable,
and compress any graph to its unique minimal canonical form.
"""

from .errors import RbrError
from .formats import export_dot, parse_game, parse_rbr, read_graph, serialize_rbr
from .games import (
    Game,
    ReasoningScene,
    dominates,
    full_scene,
    make_binary_game,
    make_guess_average_game,
    make_sequence_game,
    make_scene,
    rational_response,
    utility_game,
)
from .graph import (
    NO_NODE,
    RbrGraph,
    adjacency,
    belief_hierarchy_bounded,
    believed_rational,
    path_sequences,
    validate_graph,
)
from .minimize import MinimisationReport, minimise
from .partition import (
    Partition,
    check_local_isomorphism,
    equivalence_report,
    find_isomorphism,
    finest_partition,
    graphs_equivalent,
    initial_partition,
    is_canonical,
    nodes_doxastically_equivalent,
    refine_once,
)
from .solve import (
    RationalSolutionReport,
    belief_scene,
    doxastic_rationalisability,
    full_solution,
    is_stable,
    iterate,
    rational_solution,
    rationalise,
)

__version__ = "0.1.0"

__all__ = [
    "Game",
    "MinimisationReport",
    "NO_NODE",
    "Partition",
    "RationalSolutionReport",
    "RbrError",
    "RbrGraph",
    "ReasoningScene",
    "adjacency",
    "belief_hierarchy_bounded",
    "belief_scene",
    "believed_rational",
    "check_local_isomorphism",
    "dominates",
    "doxastic_rationalisability",
    "equivalence_report",
    "export_dot",
    "find_isomorphism",
    "finest_partition",
    "full_scene",
    "full_solution",
    "graphs_equivalent",
    "initial_partition",
    "is_canonical",
    "is_stable",
    "iterate",
    "make_binary_game",
    "make_guess_average_game",
    "make_scene",
    "make_sequence_game",
    "minimise",
    "nodes_doxastically_equivalent",
    "parse_game",
    "parse_rbr",
    "path_sequences",
    "rational_response",
    "rational_solution",
    "rationalise",
    "read_graph",
    "refine_once",
    "serialize_rbr",
    "utility_game",
    "validate_graph",
]
