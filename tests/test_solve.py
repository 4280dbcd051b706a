import pytest

import rbr.solve
from rbr import (
    belief_scene,
    doxastic_rationalisability,
    full_solution,
    is_stable,
    iterate,
    make_binary_game,
    make_guess_average_game,
    rational_solution,
    rationalise,
    validate_graph,
)
from rbr.errors import AgentMissingFromGame, InvalidSolution, ZeroLength
from rbr.partition import disjoint_union
from rbr.solve import safety_bound
from .conftest import ABC


@pytest.fixture(scope="module")
def guess():
    return make_guess_average_game(3, 10, agents=ABC)


ALL10 = frozenset(range(1, 11))


def test_full_solution(b1, b2, guess):
    assert full_solution(b1, guess) == (ALL10,) * 3
    assert full_solution(b2, guess) == (ALL10,) * 2


def test_full_solution_needs_matching_agents(b1):
    with pytest.raises(AgentMissingFromGame):
        full_solution(b1, make_guess_average_game(2, 10))


def test_belief_scene_reads_successors(b2, guess):
    s = (ALL10, frozenset(range(1, 8)))
    scene = belief_scene(b2, guess, s, 0)
    assert scene.owner == 0
    assert scene.opponents[1] == frozenset(range(1, 8))
    assert scene.opponents[2] == ALL10  # c not believed rational: full space


def test_belief_scene_isolated_node(guess):
    from rbr import validate_graph

    g = validate_graph(ABC, 1, [0], [], {0: 0})
    scene = belief_scene(g, guess, full_solution(g, guess), 0)
    assert scene.opponents[1] == scene.opponents[2] == ALL10


def test_belief_scene_needs_matching_agents(b1):
    s = (frozenset({1}),) * 3
    for game in (make_guess_average_game(2, 10),
                 make_guess_average_game(3, 10, agents=("x", "y", "z"))):
        with pytest.raises(AgentMissingFromGame):
            belief_scene(b1, game, s, 0)


@pytest.mark.parametrize("game", [
    make_guess_average_game(2, 5),
    make_guess_average_game(4, 5),
    make_guess_average_game(3, 5, agents=("x", "y", "z")),
], ids=["fewer agents", "more agents", "other names"])
def test_solution_calls_need_matching_agents(b3, game):
    s = full_solution(b3, make_guess_average_game(3, 5, agents=ABC))
    for call in (lambda: rationalise(b3, game, s),
                 lambda: iterate(b3, game, s, 1),
                 lambda: is_stable(b3, game, s)):
        with pytest.raises(AgentMissingFromGame):
            call()


def test_belief_scene_needs_a_full_solution(b1, guess):
    with pytest.raises(InvalidSolution):
        belief_scene(b1, guess, full_solution(b1, guess)[:-1], 0)


@pytest.mark.parametrize("s", [5, None], ids=["int", "None"])
def test_solution_calls_reject_a_solution_without_a_length(b2, guess, s):
    for call in (lambda: belief_scene(b2, guess, s, 0),
                 lambda: rationalise(b2, guess, s),
                 lambda: iterate(b2, guess, s, 1),
                 lambda: is_stable(b2, guess, s)):
        with pytest.raises(InvalidSolution,
                           match=f"^solution of type {type(s).__name__} is not a sequence$"):
            call()


@pytest.mark.parametrize("make", [set, frozenset, dict.fromkeys, iter, lambda s: (e for e in s)],
                         ids=["set", "frozenset", "dict", "iterator", "generator"])
def test_solution_calls_reject_a_solution_that_is_not_a_sequence(guess, make):
    # A set of the two-node mutual graph's right length: its order, and so
    # which node gets which entry, is arbitrary.
    g = validate_graph(("a", "b"), 2, [0, 1], [(0, 1), (1, 0)], {0: 0, 1: 1})
    game = make_guess_average_game(2, 5, agents=("a", "b"))
    full = full_solution(g, game)
    for call in (lambda s: belief_scene(g, game, s, 0),
                 lambda s: rationalise(g, game, s),
                 lambda s: iterate(g, game, s, 1),
                 lambda s: is_stable(g, game, s)):
        with pytest.raises(InvalidSolution, match="^solution of type .* is not a sequence$"):
            call(make([full[0], frozenset({1})]))


@pytest.mark.parametrize("i", ["2", 1.5, -1, None], ids=["str", "float", "negative", "None"])
def test_iterate_rejects_a_round_count_that_is_not_a_count(b1, guess, i):
    with pytest.raises(ZeroLength, match=f"^round count must be an int >= 0, got {i!r}$"):
        iterate(b1, guess, full_solution(b1, guess), i)


def test_iterate_takes_a_bool_round_count(b1, guess):
    full = full_solution(b1, guess)
    assert iterate(b1, guess, full, True) == iterate(b1, guess, full, 1)
    assert iterate(b1, guess, full, False) == full


def test_rationalise_rounds(b1, b2, guess):
    assert rationalise(b1, guess, full_solution(b1, guess)) == (
        frozenset(range(1, 8)),
    ) * 3
    s7 = (frozenset(range(1, 8)),) * 2
    assert rationalise(b2, guess, s7) == (frozenset(range(1, 7)),) * 2


def test_rationalise_binary_game_collapses(b4):
    game = make_binary_game(ABC)
    s = full_solution(b4, game)
    assert rationalise(b4, game, s) == (frozenset({1}),) * 5


def test_iterate(b1, b3, guess):
    full = full_solution(b1, guess)
    assert iterate(b1, guess, full, 0) == full
    assert iterate(b1, guess, full, 3) == (frozenset({1, 2, 3}),) * 3
    assert iterate(b3, guess, full_solution(b3, guess), 4)[2] == frozenset({1, 2, 3})


def test_iterate_rejects_bad_solution(b1, guess):
    with pytest.raises(InvalidSolution):
        iterate(b1, guess, (frozenset(),) * 3, 1)


@pytest.mark.parametrize("entry", [[1, 2], {1, 2}], ids=["list", "set"])
def test_iterate_and_is_stable_want_frozenset_entries(b2, guess, entry):
    # A list or set entry lies inside its space, but the solver hashes it.
    s = (frozenset({1, 2}), entry)
    for call in (lambda: belief_scene(b2, guess, s, 0),
                 lambda: rationalise(b2, guess, s),
                 lambda: iterate(b2, guess, s, 1),
                 lambda: is_stable(b2, guess, s)):
        with pytest.raises(InvalidSolution, match="^node 1 entry is not a nonempty frozenset"):
            call()


def test_rational_solution_checks_no_entry(b1, guess, monkeypatch):
    # The solver's rounds, full passes included, check no solution.
    monkeypatch.setattr(rbr.solve, "check_solution", None)
    report = rational_solution(b1, guess)
    assert report.solution == (frozenset({1}),) * 3
    assert report.nodes_keyed[1] == b1.num_nodes  # round 2 is a full pass


def test_rationalise_rejects_a_short_solution(b2, guess):
    # Node 0's b-successor is node 1, which the solution leaves out.
    with pytest.raises(InvalidSolution):
        rationalise(b2, guess, (ALL10,))


def test_is_stable(b1, guess):
    assert is_stable(b1, guess, (frozenset({1}),) * 3)
    assert is_stable(b1, guess, [frozenset({1})] * 3)
    assert not is_stable(b1, guess, full_solution(b1, guess))
    mutual = validate_graph(("a", "b"), 2, [0, 1], [(0, 1), (1, 0)], {0: 0, 1: 1})
    for game in (make_binary_game(("a", "b")), make_guess_average_game(2, 5, agents=("a", "b"))):
        fix = rational_solution(mutual, game).solution
        assert is_stable(mutual, game, fix)
        assert is_stable(mutual, game, list(fix))


def test_rational_solution_reports(b1, b2, guess):
    rep = rational_solution(b1, guess, keep_trace=True)
    assert rep.solution == (frozenset({1}),) * 3
    assert rep.iterations == 5
    assert rep.trace[0] == full_solution(b1, guess)
    assert rep.trace[-1] == rep.trace[-2] == rep.solution
    assert rational_solution(b2, guess).solution == (frozenset(range(1, 6)),) * 2


def test_fixpoint_certified(corpus3, guess):
    for g in corpus3:
        rep = rational_solution(g, guess)
        assert is_stable(g, guess, rep.solution)
        assert iterate(g, guess, full_solution(g, guess), rep.iterations) == rep.solution
        assert rep.iterations < safety_bound(g, guess)


def test_doxastic_rationalisability(b1, b2, b4, guess):
    assert doxastic_rationalisability(b1, guess) == (frozenset({1}),) * 3
    assert doxastic_rationalisability(b2, guess) == (
        frozenset(range(1, 6)),
        frozenset(range(1, 6)),
        ALL10,  # c is irrational: anything goes
    )
    assert doxastic_rationalisability(b4, guess) == (
        frozenset(range(1, 6)),
        frozenset(range(1, 6)),
        frozenset({1}),
    )


def test_rational_solution_of_a_disjoint_union(b1, b3):
    # The union has no designated nodes, so none of it is reachable.
    union = disjoint_union(b1, b3)
    rep = rational_solution(union, make_guess_average_game(3, 6, agents=ABC))
    low = frozenset({1, 2, 3})
    assert rep.iterations == 4
    assert rep.solution == (frozenset({1}),) * 3 + (low, low, frozenset({1, 2}))
