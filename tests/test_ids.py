"""The one id rule: an id is an int (a bool counts) in 0..n-1.

Every public entry point that takes a node, agent or block id accepts
exactly those ids, as before, and answers anything else with the error
its module documents: ``UnknownNode`` for a node, a
``GraphValidationError`` for a label or designation, ``PartialMapping``
for a block id or a map entry, ``SceneOwnerMismatch`` for a scene owner,
and ``KeyError`` for a table game's utility agent.  A partition's block
count is a non-negative int, under the same rule for bools.
"""

from __future__ import annotations

import re

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from rbr import (
    Partition,
    adjacency,
    belief_hierarchy_bounded,
    belief_scene,
    believed_rational,
    check_local_isomorphism,
    dominates,
    finest_partition,
    full_scene,
    full_solution,
    initial_partition,
    make_binary_game,
    make_guess_average_game,
    make_scene,
    make_sequence_game,
    minimise,
    nodes_doxastically_equivalent,
    parse_game,
    parse_rbr,
    path_sequences,
    rational_response,
    refine_once,
    validate_graph,
)
from rbr.errors import (
    DuplicateDeclaration,
    GraphValidationError,
    PartialMapping,
    SceneOwnerMismatch,
    UnknownNode,
)
from rbr.graph import NO_NODE
from rbr.minimize import quotient
from .conftest import ABC
from .test_properties import _merged_table_game, graphs

GAMES = {
    "guess23:3:4": make_guess_average_game(3, 4),
    "gk:2": make_sequence_game(ABC, 2),
    "binary": make_binary_game(ABC),
    "table": _merged_table_game(),
}


def _bad_ids(valid, bound):
    """Values that are not ids below ``bound``: a float and a digit string
    equal in value or text to the valid id ``valid``, None, -1, the bound
    itself and an int far past it."""
    return [float(valid), str(valid), None, -1, bound, 2**70]


def _with(seq, i, x) -> tuple:
    return (*seq[:i], x, *seq[i + 1:])


def _designation(g) -> dict:
    return {a: n for a, n in enumerate(g.designated) if n != NO_NODE}


# Each case draws an argument slot that takes an id and returns the ids'
# bound there, a valid id for the slot, the call with an id in the slot,
# and the error documented for a bad one.

def _node_case(fn):
    def case(g, game, data):
        n = data.draw(st.integers(0, g.num_nodes - 1))
        return g.num_nodes, n, lambda x: fn(g, game, x), UnknownNode
    return case


def _label(g, game, data):
    i = data.draw(st.integers(0, g.num_nodes - 1))

    def call(x):
        labels = _with(g.labels, i, x)
        return validate_graph(g.agents, g.num_nodes, labels, list(g.edges()), _designation(g))
    return g.num_agents, g.labels[i], call, GraphValidationError


def _designated_agent(g, game, data):
    a = data.draw(st.sampled_from(sorted(_designation(g))))

    def call(x):
        designation = {x if b == a else b: n for b, n in _designation(g).items()}
        return validate_graph(g.agents, g.num_nodes, g.labels, list(g.edges()), designation)
    return g.num_agents, a, call, GraphValidationError


def _designated_node(g, game, data):
    a = data.draw(st.sampled_from(sorted(_designation(g))))

    def call(x):
        designation = {**_designation(g), a: x}
        return validate_graph(g.agents, g.num_nodes, g.labels, list(g.edges()), designation)
    return g.num_nodes, g.designated[a], call, GraphValidationError


def _block_case(fn, partition):
    def case(g, game, data):
        p = partition(g)
        i = data.draw(st.integers(0, g.num_nodes - 1))

        def call(x):
            return fn(g, Partition(_with(p.block_of, i, x), p.block_count))
        return p.block_count, p.block_of[i], call, PartialMapping
    return case


def _map_entry(g, game, data):
    report = minimise(g)
    i = data.draw(st.integers(0, g.num_nodes - 1))

    def call(x):
        return check_local_isomorphism(g, report.output, _with(report.block_map, i, x))
    return report.output.num_nodes, report.block_map[i], call, PartialMapping


def _owner_case(fn):
    def case(g, game, data):
        a = data.draw(st.integers(0, game.num_agents - 1))
        return game.num_agents, a, lambda x: fn(game, a, x), SceneOwnerMismatch
    return case


def _table_utility(g, game, data):
    table = GAMES["table"]
    a = data.draw(st.integers(0, table.num_agents - 1))
    outcome = tuple(data.draw(st.sampled_from(space)) for space in table.strategies)
    return table.num_agents, a, lambda x: table.utility(x, outcome), KeyError


def _all_sets(game):
    return {b: game.strategies[b] for b in range(game.num_agents)}


CASES = {
    "check_node": _node_case(lambda g, game, n: g.check_node(n)),
    "adjacency": _node_case(lambda g, game, n: adjacency(g, n)),
    "believed_rational": _node_case(lambda g, game, n: believed_rational(g, n)),
    "path_sequences": _node_case(lambda g, game, n: path_sequences(g, n, 2)),
    "belief_hierarchy_bounded": _node_case(
        lambda g, game, n: belief_hierarchy_bounded(g, n, 2)),
    "nodes_doxastically_equivalent": _node_case(
        lambda g, game, n: nodes_doxastically_equivalent(g, n, g, 0)),
    "belief_scene": _node_case(
        lambda g, game, n: belief_scene(g, game, full_solution(g, game), n)),
    "validate_graph label": _label,
    "validate_graph designated agent": _designated_agent,
    "validate_graph designated node": _designated_node,
    "refine_once block": _block_case(refine_once, initial_partition),
    "quotient block": _block_case(quotient, finest_partition),
    "check_local_isomorphism entry": _map_entry,
    "make_scene owner": _owner_case(lambda game, a, x: make_scene(game, x, _all_sets(game))),
    "full_scene owner": _owner_case(lambda game, a, x: full_scene(game, x)),
    "dominates owner": _owner_case(lambda game, a, x: dominates(
        game, x, full_scene(game, a), game.strategies[a][0], game.strategies[a][-1])),
    "rational_response owner": _owner_case(
        lambda game, a, x: rational_response(game, x, full_scene(game, a))),
    "table utility agent": _table_utility,
}


@pytest.mark.parametrize("case", CASES)
@given(g=graphs(), game=st.sampled_from(sorted(GAMES)), data=st.data())
@settings(max_examples=20, deadline=None)
def test_every_id_argument_takes_exactly_the_ids_below_its_bound(case, g, game, data):
    bound, valid, call, error = CASES[case](g, GAMES[game], data)
    for bad in _bad_ids(valid, bound):
        with pytest.raises(error):
            call(bad)
    # A valid id answers as before, and a bool as the int it equals.
    answer = call(valid)
    if valid in (0, 1):
        assert call(bool(valid)) == answer


@pytest.mark.parametrize("fn, partition", [
    (refine_once, initial_partition),
    (quotient, finest_partition),
], ids=["refine_once", "quotient"])
@given(g=graphs())
@settings(max_examples=20, deadline=None)
def test_a_block_count_is_a_non_negative_int(fn, partition, g):
    p = partition(g)
    count = p.block_count
    for bad in [None, str(count), float(count), count + 0.5, -1]:
        with pytest.raises(PartialMapping, match=f"^block count {re.escape(repr(bad))} is not"):
            fn(g, Partition(p.block_of, bad))
    # A bool counts as the int it equals, as for every id.
    answer = fn(g, p)
    if count == 1:
        assert fn(g, Partition(p.block_of, True)) == answer


def test_stray_ids_are_named_by_repr(b2):
    game = make_guess_average_game(3, 4)
    with pytest.raises(PartialMapping, match="^node 0 is in block '0', outside 0..1$"):
        refine_once(b2, Partition(("0", 1), 2))
    with pytest.raises(PartialMapping, match=r"^node 1 is in block 1\.0, outside 0..1$"):
        quotient(b2, Partition((0, 1.0), 2))
    for call in (lambda: full_scene(game, 1.0),
                 lambda: rational_response(game, 1.0, full_scene(game, 1)),
                 lambda: dominates(game, 1.0, full_scene(game, 1), 1, 2)):
        with pytest.raises(SceneOwnerMismatch, match=r"^no agent 1\.0 among 3 agents$"):
            call()
    table = _merged_table_game()
    with pytest.raises(KeyError):
        table.utility(1.0, tuple(space[0] for space in table.strategies))


@pytest.mark.parametrize("text, line", [
    ("agents a b a\n", 1),
    ("game normal-form\nagents a b a\n", 2),
], ids=["graph", "game"])
def test_both_line_parsers_name_a_repeated_agent(text, line):
    parse = parse_game if text.startswith("game") else parse_rbr
    with pytest.raises(DuplicateDeclaration, match=f"^line {line}: agent a repeated$"):
        parse(text)
