import ast
import itertools
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from rbr import (
    belief_hierarchy_bounded,
    make_binary_game,
    make_guess_average_game,
    make_sequence_game,
    nodes_doxastically_equivalent,
    rational_solution,
)
import rbr.graph
import rbr.oracle
import rbr.solve
from rbr.errors import SizeCap
from rbr.oracle import (
    brute_force_hierarchy,
    brute_force_rational_solution,
    gk_distinguisher,
)
from .conftest import ABC


def test_hierarchy_examples(b1, b3):
    assert brute_force_hierarchy(b1, 0, 2) == {(0,), (0, 1), (0, 2)}
    assert brute_force_hierarchy(b3, 2, 3) == {
        (2,), (2, 0), (2, 1), (2, 0, 1), (2, 1, 0)
    }


def test_hierarchy_isolated_node():
    from rbr import validate_graph

    g = validate_graph(("a", "b"), 1, [0], [], {0: 0})
    assert brute_force_hierarchy(g, 0, 5) == {(0,)}


def test_hierarchy_depth_cap(b1):
    with pytest.raises(SizeCap):
        brute_force_hierarchy(b1, 0, 13)


def test_hierarchy_matches_core(corpus):
    for g in corpus:
        for n in g.nodes():
            for depth in (1, 3, 5):
                assert brute_force_hierarchy(g, n, depth) == belief_hierarchy_bounded(
                    g, n, depth
                )


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_hierarchy_budget_matches_the_oracle_label_count(corpus, data):
    # The walk's budget counts the labels of the sequences it returns, so
    # it raises exactly when the oracle's sequences hold more than the cap.
    g = data.draw(st.sampled_from(corpus))
    n = data.draw(st.integers(0, g.num_nodes - 1))
    depth = data.draw(st.integers(0, 7))
    cap = data.draw(st.integers(0, 120))
    expect = brute_force_hierarchy(g, n, depth)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rbr.graph, "DEFAULT_CELL_CAP", cap)
        if sum(map(len, expect)) > cap:
            with pytest.raises(SizeCap):
                belief_hierarchy_bounded(g, n, depth)
        else:
            assert belief_hierarchy_bounded(g, n, depth) == expect


def test_solution_examples(b1, b2):
    guess = make_guess_average_game(3, 10, agents=ABC)
    assert brute_force_rational_solution(b1, guess) == (frozenset({1}),) * 3
    assert brute_force_rational_solution(b2, guess) == (frozenset(range(1, 6)),) * 2


def test_solution_binary(b4):
    assert brute_force_rational_solution(b4, make_binary_game(ABC)) == (
        frozenset({1}),
    ) * 5


def test_solution_matches_core(corpus):
    for g in corpus:
        if g.num_agents < 2:
            continue
        guess = make_guess_average_game(g.num_agents, 4, agents=g.agents)
        assert brute_force_rational_solution(g, guess) == rational_solution(
            g, guess
        ).solution


def test_distinguisher_examples(b1, b2, b3):
    assert gk_distinguisher(b1, 0, b2, 0, 8) == 2
    assert gk_distinguisher(b2, 0, b3, 0, 8) is None
    assert gk_distinguisher(b1, 0, b1, 0, 8) is None


def test_distinguisher_agrees_with_partition(b1, b2, b3, b4, corpus3):
    graphs = [b1, b2, b3, b4] + corpus3[:6]
    for ga in graphs:
        for gb in graphs:
            k_max = ga.num_nodes + gb.num_nodes
            for na in ga.nodes():
                for nb in gb.nodes():
                    found = gk_distinguisher(ga, na, gb, nb, k_max)
                    assert (found is None) == nodes_doxastically_equivalent(
                        ga, na, gb, nb
                    )


def _chain(agents, length):
    """Path of ``length`` nodes whose labels cycle through ``agents``."""
    from rbr import validate_graph

    labels = [i % len(agents) for i in range(length)]
    edges = [(i, i + 1) for i in range(length - 1)]
    return validate_graph(agents, length, labels, edges, {0: 0})


def test_distinguisher_skips_games_too_large_to_certify():
    # Chains one node apart first differ at the longer chain's length;
    # there the sequence game is over the payoff-table cap, so the depth
    # is returned uncertified.
    for agents, length in ((ABC, 7), (("a", "b", "c", "d"), 4)):
        ga, gb = _chain(agents, length - 1), _chain(agents, length)
        assert gk_distinguisher(ga, 0, gb, 0, length + 1) == length


@pytest.mark.parametrize("agents", [("a", "b"), ABC], ids=["2 agents", "3 agents"])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_oracle_sequence_game_is_the_builtin_game(agents, k):
    """The oracle's own sequence game has the builtin's strategy spaces
    and the same verdict on every outcome against each deviation of
    each agent."""
    own, builtin = rbr.oracle.sequence_game(agents, k), make_sequence_game(agents, k)
    assert own.agents == builtin.agents
    assert own.strategies == builtin.strategies
    assert own.utility is None
    for outcome in itertools.product(*own.strategies):
        for a, space in enumerate(own.strategies):
            for s in space:
                other = outcome[:a] + (s,) + outcome[a + 1:]
                assert own.compare(a, outcome, other) == builtin.compare(a, outcome, other)


@pytest.mark.parametrize("layer, forbidden", [
    # The oracle-agreement suites compare against rbr.oracle; if it routed
    # through solve, partition or minimize, they would compare the
    # optimised path with itself.
    # Nor may it build its keys with the builder both of those share.
    # Nor may it certify with the builtin sequence game it checks.
    (rbr.oracle, ("rbr.solve", "rbr.partition", "rbr.minimize",
                  "rbr.graph.successor_keys", "rbr.games.make_sequence_game",
                  "rbr.graph.DEFAULT_CELL_CAP", "rbr.graph.check_cells")),
    # The solver groups nodes by scene key and refines no partition.
    (rbr.solve, ("rbr.partition", "rbr.minimize")),
], ids=["oracle", "solve"])
def test_imports_nothing_from_the_forbidden_layers(layer, forbidden):
    tree = ast.parse(Path(layer.__file__).read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = ("rbr." * bool(node.level) + (node.module or "")).rstrip(".")
            imported.add(module)
            imported.update(f"{module}.{alias.name}" for alias in node.names)
    assert not [m for m in imported for f in forbidden if m == f or m.startswith(f + ".")]
