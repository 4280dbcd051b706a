import dataclasses
import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from rbr import (
    Game,
    dominates,
    full_scene,
    make_binary_game,
    make_guess_average_game,
    make_scene,
    make_sequence_game,
    rational_response,
    rational_solution,
    utility_game,
)
from rbr.errors import ForeignStrategy, SceneOwnerMismatch, SizeCap, TooFewAgents
import rbr.games
import rbr.graph
from rbr.games import (
    ClassTable,
    Quit,
    ReasoningScene,
    alternating_sequences,
)
from .test_properties import _merged_table_game


@pytest.fixture(scope="module")
def guess():
    return make_guess_average_game(3, 10)


def test_guess_high_numbers_dominated(guess):
    scene = full_scene(guess, 0)
    assert dominates(guess, 0, scene, 8, 7)
    assert dominates(guess, 0, scene, 9, 7)
    assert not dominates(guess, 0, scene, 7, 7)


def test_guess_full_scene_response(guess):
    assert rational_response(guess, 0, full_scene(guess, 0)) == set(range(1, 8))


def test_guess_narrowed_scene(guess):
    scene = make_scene(guess, 0, {1: range(1, 8), 2: range(1, 8)})
    assert dominates(guess, 0, scene, 6, 5)
    scene2 = make_scene(guess, 0, {1: range(1, 8), 2: range(1, 11)})
    assert rational_response(guess, 0, scene2) == set(range(1, 7))


def test_guess_utilities_are_exact(guess):
    # 2/3 of the mean of 9 and 8 is 17/3; 6 is nearer than 5.
    assert guess.utility(0, (6, 9, 8)) == Fraction(-1, 3)
    assert guess.utility(0, (5, 9, 8)) == Fraction(-2, 3)


def test_scene_owner_checked(guess):
    with pytest.raises(SceneOwnerMismatch):
        rational_response(guess, 1, full_scene(guess, 0))


@pytest.mark.parametrize("owner", [-1, 3, 5])
def test_scene_for_no_agent_of_the_game_is_rejected(guess, owner):
    with pytest.raises(SceneOwnerMismatch, match=f"^no agent {owner} among 3 agents$"):
        make_scene(guess, owner, {0: [1], 1: [1], 2: [4]})
    with pytest.raises(SceneOwnerMismatch, match=f"^no agent {owner} among 3 agents$"):
        full_scene(guess, owner)
    scene = ReasoningScene(owner, (frozenset({1}),) * 3)
    with pytest.raises(SceneOwnerMismatch, match=f"^no agent {owner} among 3 agents$"):
        rational_response(guess, owner, scene)
    with pytest.raises(SceneOwnerMismatch, match=f"^no agent {owner} among 3 agents$"):
        dominates(guess, owner, scene, 1, 2)


@pytest.mark.parametrize("per_cell", [False, True], ids=["respond", "class table"])
def test_scene_with_a_slot_per_agent_of_another_game_is_rejected(per_cell):
    three = make_guess_average_game(3, 4)
    two = make_guess_average_game(2, 4)
    if per_cell:
        three, two = _per_cell(three), _per_cell(two)
    for game, scene, slots in [
        (three, full_scene(two, 0), 2),
        (two, full_scene(three, 0), 3),
    ]:
        message = f"^scene has {slots} opponent slots for {game.num_agents} agents$"
        with pytest.raises(ForeignStrategy, match=message):
            rational_response(game, 0, scene)
        with pytest.raises(ForeignStrategy, match=message):
            dominates(game, 0, scene, 1, 2)


def test_singleton_space_survives():
    g = make_guess_average_game(3, 1)
    assert rational_response(g, 0, full_scene(g, 0)) == {1}


def test_empty_own_space_has_an_empty_response():
    g = utility_game(["a", "b"], [(), (0, 1)], lambda a, o: 0)
    assert rational_response(g, 0, full_scene(g, 0)) == frozenset()


def test_single_opponent_profile_keeps_the_best_replies(guess):
    # Against one profile strict dominance is "strictly worse there", so
    # the response is the set of best replies, ties included.
    assert rational_response(guess, 0, make_scene(guess, 0, {1: {9}, 2: {8}})) == {6}
    g = utility_game(
        ["a", "b"],
        [(0, 1, 2, 3), ("x",)],
        lambda a, o: -abs(2 * o[0] - 3) if a == 0 else 0,
    )
    assert rational_response(g, 0, full_scene(g, 0)) == {1, 2}


def test_one_agent_game():
    solo = make_binary_game(["a"])
    assert rational_response(solo, 0, full_scene(solo, 0)) == {1}
    g = utility_game(["a"], [(0, 1, 2)], lambda a, o: Fraction(min(o[0], 1), 2))
    assert rational_response(g, 0, full_scene(g, 0)) == {1, 2}


def test_payoff_table_size_cap(guess, monkeypatch):
    # Each agent's table has 10 x 10 x 10 cells.
    scene = full_scene(guess, 0)
    monkeypatch.setattr(rbr.graph, "DEFAULT_CELL_CAP", 1000)
    assert rational_response(guess, 0, scene) == set(range(1, 8))
    monkeypatch.setattr(rbr.graph, "DEFAULT_CELL_CAP", 999)
    with pytest.raises(
        SizeCap, match="^the payoff table of agent 0 is over the cap of 999 cells$"
    ):
        rational_response(guess, 0, scene)


def test_empty_own_space_has_an_empty_table():
    # 0 x 1001 x 1000 cells: the zero factor counts even after the
    # opponents' factors pass the cap.
    g = utility_game(["a", "b", "c"], [(), range(1001), range(1000)], lambda a, o: 0)
    assert rational_response(g, 0, full_scene(g, 0)) == frozenset()


def test_opponent_profile_size_cap(guess, monkeypatch):
    # Agent 0's full scene allows 10 x 10 opponent profiles.
    scene = full_scene(guess, 0)
    monkeypatch.setattr(rbr.graph, "DEFAULT_CELL_CAP", 100)
    assert dominates(guess, 0, scene, 10, 9)
    monkeypatch.setattr(rbr.graph, "DEFAULT_CELL_CAP", 99)
    with pytest.raises(SizeCap, match="^the opponent-profile product of agent 0's scene "
                                      "is over the cap of 99 cells$"):
        dominates(guess, 0, scene, 10, 9)


def test_builtin_games_are_size_checked_before_construction(monkeypatch):
    # 101**3 = 1030301 cells: rejected from the arguments alone.
    with pytest.raises(
        SizeCap, match="^the guess23 payoff table is over the cap of 1000000 cells$"
    ):
        make_guess_average_game(3, 101)
    make_guess_average_game(3, 100)
    # Three agents have 64 strategies each up to length 6: 262,144 cells.
    make_sequence_game(["a", "b", "c"], 6)

    def no_sequences(*args):
        raise AssertionError("sequence spaces built before the size check")

    monkeypatch.setattr("rbr.games.alternating_sequences", no_sequences)
    # Three agents: 2**l strategies each up to length l, so the check
    # stops at length 7, the first with (2**7)**3 cells over the cap.
    for k in (7, 30, 10**9):
        with pytest.raises(
            SizeCap, match="^the gk payoff table is over the cap of 1000000 cells$"
        ):
            make_sequence_game(["a", "b", "c"], k)


def test_huge_builtin_arguments_raise_size_cap():
    # Neither the table's size nor any argument is formatted in full: a
    # 10,000-digit table size once broke the message with a ValueError.
    for build in (
        lambda: make_guess_average_game(2, 10**5000),
        lambda: make_guess_average_game(10**6, 2),
        lambda: make_guess_average_game(10**5000, 2, agents=("a", "b")),
        lambda: make_sequence_game(("a", "b"), 10**5000),
    ):
        with pytest.raises(SizeCap, match="over the cap of 1000000 cells"):
            build()


def test_guess_average_agents_are_counted_before_they_are_named(monkeypatch):
    # With a max of 1 the table has one cell, so the check that stops a
    # huge agent count is the strategy spaces' one: count times max.
    def no_names(count):
        raise AssertionError("agent names built before the size check")

    monkeypatch.setattr(rbr.games, "_agent_names", no_names)
    message = "^the guess23 strategy spaces is over the cap of 1000000 cells$"
    for build in (
        lambda: make_guess_average_game(10**5000, 1, agents=("a", "b")),
        lambda: make_guess_average_game(10**7, 1),
    ):
        with pytest.raises(SizeCap, match=message):
            build()
    monkeypatch.undo()
    monkeypatch.setattr(rbr.graph, "DEFAULT_CELL_CAP", 10)
    assert make_guess_average_game(10, 1).num_agents == 10
    with pytest.raises(SizeCap, match="^the guess23 strategy spaces is over the cap of 10 cells$"):
        make_guess_average_game(11, 1)


def test_long_two_agent_sequence_space():
    # One sequence per length; built without deep recursion.
    game = make_sequence_game(["a", "b"], 999)
    assert len(game.strategies[0]) == 1000
    assert max(len(s) for s in game.strategies[1][1:]) == 999


def test_scene_outside_the_space_is_rejected(guess):
    scene = ReasoningScene(0, (frozenset(), frozenset({11}), frozenset({1})))
    with pytest.raises(ForeignStrategy):
        rational_response(guess, 0, scene)


def test_make_scene_without_an_opponent_set_names_the_agent():
    game = make_guess_average_game(3, 4)
    with pytest.raises(ForeignStrategy, match="no opponent set for agent 2"):
        make_scene(game, 0, {1: [1]})


def test_make_scene_with_an_empty_opponent_set_names_the_agent():
    game = make_guess_average_game(3, 4)
    with pytest.raises(ForeignStrategy,
                       match="^opponent set for agent 2 is empty or leaves its space$"):
        make_scene(game, 0, {1: [1], 2: []})


@pytest.mark.parametrize("entries", [5, [[1]]], ids=["not iterable", "unhashable"])
def test_make_scene_with_a_malformed_opponent_set_names_the_agent(entries):
    game = make_guess_average_game(3, 4)
    with pytest.raises(ForeignStrategy, match="^opponent set for agent 1 "):
        make_scene(game, 0, {1: entries, 2: [1]})


@pytest.mark.parametrize("per_cell", [False, True], ids=["respond", "class table"])
def test_scene_slots_are_checked_by_set_inclusion(per_cell):
    """A slot is read as a set: ``{True}`` equals ``{1}``, so it is inside
    the space ``(0, 1)`` on every path that reads a scene."""
    game = make_binary_game(("a", "b"))
    if per_cell:
        game = _per_cell(game)
    scene = ReasoningScene(0, (frozenset(), {True}))
    assert make_scene(game, 0, {1: {True}}) == make_scene(game, 0, {1: {1}})
    assert rational_response(game, 0, scene) == {1}
    assert dominates(game, 0, scene, 0, 1)


@pytest.mark.parametrize("slot", [5, None, [1], (1,), "1"],
                         ids=["int", "None", "list", "tuple", "str"])
def test_scene_slot_that_is_not_a_set_is_rejected(slot):
    game = make_guess_average_game(3, 4)
    scene = ReasoningScene(0, (frozenset(), slot, frozenset({1})))
    for call in [
        lambda: rational_response(game, 0, scene),
        lambda: rational_response(_per_cell(game), 0, scene),
        lambda: dominates(game, 0, scene, 1, 2),
    ]:
        with pytest.raises(ForeignStrategy, match="^opponent set for agent 1 is not a set$"):
            call()


@pytest.mark.parametrize("opponents", [None, 5, [frozenset(), {1}, {1}]],
                         ids=["None", "int", "list"])
def test_scene_whose_opponents_are_not_a_tuple_is_rejected(opponents):
    game = make_guess_average_game(3, 4)
    scene = ReasoningScene(0, opponents)
    message = "^opponent sets of agent 0's scene are not a tuple$"
    with pytest.raises(ForeignStrategy, match=message):
        rational_response(game, 0, scene)
    with pytest.raises(ForeignStrategy, match=message):
        dominates(game, 0, scene, 1, 2)


def test_scene_owner_mismatch_prints_both_ids_as_values():
    game = make_guess_average_game(3, 4)
    with pytest.raises(SceneOwnerMismatch, match="^scene owned by 0, not '0'$"):
        rational_response(game, "0", full_scene(game, 0))


def test_guess_target_on_a_midpoint_keeps_both_neighbours():
    # Five guessers: 4·9 = 12·(2·1 + 1), so opponents summing to 9 put the
    # target 2·9/12 = 3/2 midway between 1 and 2, and neither dominates.
    game = make_guess_average_game(5, 4)
    scene = make_scene(game, 0, {1: {3}, 2: {2}, 3: {2}, 4: {2}})
    assert rational_response(game, 0, scene) == {1, 2}
    assert rational_response(_per_cell(game), 0, scene) == {1, 2}


def test_new_payoffs_get_a_fresh_payoff_table():
    game = make_guess_average_game(3, 10)
    scene = full_scene(game, 0)
    per_cell = _per_cell(game)
    assert rational_response(per_cell, 0, scene) == set(range(1, 8))
    assert len(per_cell.respond.table(0)[1]) == 19
    flipped = utility_game(game.agents, game.strategies, lambda a, o: -game.utility(a, o))
    assert rational_response(flipped, 0, scene) == {1, 2, 3, 10}
    # A constant utility has one column class; the cached 19 stay with per_cell.
    flat = utility_game(game.agents, game.strategies, lambda a, o: 0)
    assert rational_response(flat, 0, scene) == set(range(1, 11))
    assert len(flat.respond.table(0)[1]) == 1
    assert len(per_cell.respond.table(0)[1]) == 19


@pytest.mark.parametrize("make", [
    lambda: make_guess_average_game(3, 10),
    lambda: _per_cell(make_guess_average_game(3, 10)),
], ids=["respond", "class table"])
def test_replaced_utility_keeps_the_responder(make):
    """``respond`` is a field of the game, so replacing the utility keeps
    it, and the responses with it."""
    game = make()
    scene = full_scene(game, 0)
    replaced = dataclasses.replace(game, utility=lambda a, o: 0)
    assert replaced.respond is game.respond
    assert rational_response(replaced, 0, scene) == set(range(1, 8))


def test_utility_evaluated_once_per_table_cell(b1):
    game = make_guess_average_game(3, 10, agents=("a", "b", "c"))
    calls = []

    def utility(a, o):
        calls.append((a, o))
        return game.utility(a, o)

    counted = utility_game(game.agents, game.strategies, utility)
    assert rational_solution(b1, counted).solution == (frozenset({1}),) * 3
    assert len(calls) == len(set(calls)) == 3 * 10**3


def test_too_few_agents():
    with pytest.raises(TooFewAgents):
        make_guess_average_game(1, 10)
    with pytest.raises(TooFewAgents):
        make_sequence_game(["a"], 2)


@pytest.mark.parametrize("make, message", [
    (lambda: make_guess_average_game(2, 5.5), "guess-average max 5.5 is not an int"),
    (lambda: make_guess_average_game("2", 5), "guess-average agent count '2' is not an int"),
    (lambda: make_sequence_game(("a", "b"), 2.5), "sequence length bound 2.5 is not an int"),
], ids=["float max", "str count", "float length"])
def test_builtin_constructors_name_a_bound_that_is_not_an_int(make, message):
    with pytest.raises(TooFewAgents) as exc:
        make()
    assert str(exc.value) == message


def test_alternating_sequence_spaces():
    g2 = make_sequence_game(["a", "b"], 2)
    assert set(g2.strategies[0]) == {Quit(0), (0,), (0, 1)}
    g1 = make_sequence_game(["a", "b", "c"], 1)
    assert set(g1.strategies[0]) == {Quit(0), (0,)}


def test_sequence_game_elimination():
    """With full uncertainty only the bare own-name sequence dies: it is
    overridden whenever anyone names you, and never wins."""
    g = make_sequence_game(["a", "b"], 2)
    resp = rational_response(g, 0, full_scene(g, 0))
    assert resp == set(g.strategies[0]) - {(0,)}


def test_sequence_game_utility_cases():
    g = make_sequence_game(["a", "b"], 2)
    assert g.utility(0, (Quit(0), (1,))) == 0
    assert g.utility(0, ((0, 1), (1,))) == 1      # tail (b) matches b's play
    assert g.utility(0, ((0, 1), (1, 0))) == -1


def test_binary_game():
    g = make_binary_game(["a", "b", "c"])
    for a in range(3):
        scene = full_scene(g, a)
        assert dominates(g, a, scene, 0, 1)
        assert not dominates(g, a, scene, 1, 0)
        assert rational_response(g, a, scene) == {1}


@given(st.integers(2, 3), st.integers(1, 4))
def test_sigma_sets_alternate(num_agents, k):
    for s in alternating_sequences(num_agents, 0, k):
        assert 1 <= len(s) <= k and s[0] == 0
        assert all(x != y for x, y in zip(s, s[1:]))


@given(st.data())
def test_dominance_asymmetric(data):
    g = make_guess_average_game(2, 6)
    scene = full_scene(g, 0)
    s = data.draw(st.integers(1, 6))
    s2 = data.draw(st.integers(1, 6).filter(lambda x: x != s))
    assert not (dominates(g, 0, scene, s, s2) and dominates(g, 0, scene, s2, s))


@given(st.data())
@settings(deadline=None)
def test_response_monotone_in_scene(data):
    """A narrower scene (``narrower_than``) never widens the response, on
    every kind of responder: the builtins' closed forms, a table game's
    class table, a builtin's per-cell class table and the pairwise scan."""
    for g in RESPONDER_KINDS:
        a = data.draw(st.integers(0, g.num_agents - 1))
        wide, narrow = {}, {}
        for b, space in enumerate(g.strategies):
            if b != a:
                wide[b] = data.draw(st.sets(st.sampled_from(space), min_size=1))
                kept = [t for t in space if t in wide[b]]
                narrow[b] = data.draw(st.sets(st.sampled_from(kept), min_size=1))
        big, small = make_scene(g, a, wide), make_scene(g, a, narrow)
        assert small.narrower_than(big)
        assert rational_response(g, a, small) <= rational_response(g, a, big)
        # Dominance carries down from the wider scene too, for every
        # ordered pair of distinct strategies.
        for s, s2 in itertools.permutations(g.strategies[a], 2):
            if dominates(g, a, big, s, s2):
                assert dominates(g, a, small, s, s2)


def test_response_never_empty():
    g = make_guess_average_game(3, 5)
    for a in range(3):
        assert rational_response(g, a, full_scene(g, a))


def _per_cell(game):
    """A new utility game with ``game``'s payoffs and no responder of its
    own, so that it is solved on a class table built one ``utility`` call
    per cell."""
    return utility_game(game.agents, game.strategies, game.utility)


def _pairwise(game):
    """``game``'s compare-only copy, answered by pairwise ``dominates``
    checks."""
    return Game(game.agents, game.strategies, game.compare)


# One game per kind of responder: the three closed forms, a table game's
# class table, a builtin's per-cell class table and the pairwise scan.
RESPONDER_KINDS = [
    make_guess_average_game(3, 8),
    make_sequence_game("abc", 3),
    make_binary_game("abc"),
    _merged_table_game(),
    _per_cell(make_sequence_game("abc", 2)),
    _pairwise(make_guess_average_game(3, 5)),
]


def test_references_are_distinct_responders():
    for game in (make_guess_average_game(3, 4), _merged_table_game()):
        per_cell = _per_cell(game)
        assert isinstance(per_cell.respond, ClassTable)
        assert per_cell.respond is not game.respond
        assert _pairwise(game).respond is None


SMALL_BUILTINS = {
    **{
        f"guess23:{n}:{top}": make_guess_average_game(n, top)
        for n in (2, 3, 4)
        for top in range(1, 7)
    },
    **{
        f"gk:{k}, {n} agents": make_sequence_game("abcd"[:n], k)
        for n in (2, 3, 4)
        for k in (1, 2, 3)
    },
    **{f"binary, {n} agents": make_binary_game("abc"[:n]) for n in (1, 2, 3)},
}

# gk:4 and gk:5 on four agents are over the profile cap.
LARGER_BUILTINS = {
    f"gk:{k}, {n} agents": make_sequence_game("abc"[:n], k)
    for n in (2, 3)
    for k in (4, 5)
}


def _assert_scales_the_per_cell_columns(game, a, classes, class_columns):
    """Each column's class column is agent ``a``'s per-cell column, a
    payoff per own strategy from ``game.utility``, times one positive
    scale for all columns."""
    axes = list(game.strategies)
    axes[a] = (None,)
    profiles = list(itertools.product(*axes))
    assert len(classes) == len(profiles)
    scale = None
    for c, profile in zip(classes, profiles):
        cells = [game.utility(a, profile[:a] + (s,) + profile[a + 1:])
                 for s in game.strategies[a]]
        assert len(class_columns[c]) == len(cells)
        for x, y in zip(class_columns[c], cells):
            if scale is None and y:
                scale = Fraction(x, y)
                assert scale > 0
            assert x == (scale or 0) * y


@pytest.mark.parametrize("name", {**SMALL_BUILTINS, **LARGER_BUILTINS})
def test_builtin_rows_scale_the_per_cell_rows(name):
    """A builtin's class table pays, in every column, what its per-cell
    utilities pay, up to one positive scale per agent."""
    _class_counts({**SMALL_BUILTINS, **LARGER_BUILTINS}[name])


def _class_counts(game):
    """Per agent, the number of column classes of its payoff table, after
    checking that each column equals its class's column up to one
    positive scale, and that the classes are distinct and all used."""
    counts = []
    for a in range(game.num_agents):
        classes, columns = _per_cell(game).respond.table(a)
        _assert_scales_the_per_cell_columns(game, a, classes, columns)
        assert sorted(set(classes)) == list(range(len(columns)))
        assert len(set(columns)) == len(columns)
        counts.append(len(columns))
    return counts


@pytest.mark.parametrize("n, top", [(2, 1), (2, 9), (3, 5), (3, 16), (4, 4)])
def test_guess_average_classes_are_the_opponents_sums(n, top):
    assert _class_counts(make_guess_average_game(n, top)) == [(n - 1) * (top - 1) + 1] * n


@pytest.mark.parametrize(
    "make, columns, count",
    [
        (lambda: make_guess_average_game(3, 100), 10_000, 199),
        (lambda: make_sequence_game("abc", 5), 1_024, 256),
    ],
    ids=["guess23:3:100", "gk:5"],
)
def test_large_builtin_tables_merge_their_columns(make, columns, count):
    classes, class_columns = _per_cell(make()).respond.table(0)
    assert (len(classes), len(class_columns)) == (columns, count)


@pytest.mark.parametrize("n, k", [(2, 1), (2, 4), (3, 1), (3, 3), (3, 5), (4, 3)])
def test_sequence_game_classes_count_the_opponents_tails(n, k):
    """An opponent's column digit matters only when it plays a tail of
    one of the agent's sequences, a sequence of length at most k - 1;
    Quit and its length-k sequences share one class."""
    expected = [
        math.prod(len(alternating_sequences(n, b, k - 1)) + 1 for b in range(n) if b != a)
        for a in range(n)
    ]
    assert _class_counts(make_sequence_game("abcd"[:n], k)) == expected


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_binary_game_has_one_class(n):
    assert _class_counts(make_binary_game("abcd"[:n])) == [1] * n


# Five guessers give s = 3(5 - 1) = 12, so a target can sit exactly on the
# midpoint of two guesses, where neither dominates the other; gk:4 has
# tails of length three.
EXACTNESS_BUILTINS = {
    **{f"guess23:5:{top}": make_guess_average_game(5, top) for top in range(3, 10)},
    **{f"gk:4, {n} agents": make_sequence_game("abc"[:n], 4) for n in (2, 3)},
}

CLASSES_AND_PER_CELL = [
    (g, _per_cell(g)) for g in {**SMALL_BUILTINS, **EXACTNESS_BUILTINS}.values()
]


# No deadline: the first draw of a game builds its per-cell reference table,
# up to 59,049 exact utilities per agent for guess23:5:9.
@given(st.data())
@settings(deadline=None)
def test_rows_and_per_cell_responses_agree(data):
    """A builtin's closed-form responses are the responses on its
    per-cell payoff table."""
    game, per_cell = data.draw(st.sampled_from(CLASSES_AND_PER_CELL))
    a = data.draw(st.integers(0, game.num_agents - 1))
    opponents = {
        b: data.draw(st.sets(st.sampled_from(space), min_size=1))
        for b, space in enumerate(game.strategies)
        if b != a
    }
    scene = make_scene(game, a, opponents)
    assert rational_response(game, a, scene) == rational_response(per_cell, a, scene)


@pytest.mark.parametrize(
    "make",
    [
        make_binary_game,
        lambda agents: make_sequence_game(agents, 2),
        lambda agents: make_guess_average_game(3, 10, agents),
    ],
    ids=["binary", "gk:2", "guess23:3:10"],
)
def test_builtin_solve_calls_no_utility(b1, make):
    game = make(b1.agents)
    calls = []

    def utility(a, o):
        calls.append((a, o))
        return game.utility(a, o)

    def compare(a, s, s2):
        calls.append((a, s, s2))
        return game.compare(a, s, s2)

    counted = dataclasses.replace(game, utility=utility, compare=compare)
    expected = rational_solution(b1, _per_cell(game)).solution
    assert rational_solution(b1, counted).solution == expected
    assert calls == []


@pytest.mark.parametrize(
    "make",
    [
        lambda agents: make_sequence_game(agents, 5),
        lambda agents: make_guess_average_game(3, 100, agents),
    ],
    ids=["gk:5", "guess23:3:100"],
)
def test_builtin_tables_never_take_the_per_cell_path(b1, make, monkeypatch):
    """With its per-cell utility and the table builder both refused, a
    builtin still solves b1 as before, through ``game.respond``."""
    game = make(b1.agents)
    expected = rational_solution(b1, game).solution

    def refuse(*args):
        raise AssertionError(f"per-cell payoff called with {args}")

    monkeypatch.setattr(ClassTable, "table", refuse)
    refusing = dataclasses.replace(game, utility=refuse)
    assert rational_solution(b1, refusing).solution == expected


# guess23:3:100's per-cell reference fills three tables of a million
# cells, so its b1 solution is stated.
@pytest.mark.parametrize(
    "make, expected",
    [
        (lambda agents: make_guess_average_game(3, 100, agents), (frozenset({1}),) * 3),
        (lambda agents: make_sequence_game(agents, 5), None),
        (make_binary_game, None),
    ],
    ids=["guess23:3:100", "gk:5", "binary"],
)
def test_builtin_solves_build_no_class_table(b1, make, expected, monkeypatch):
    """Builtin solves answer every scene with the closed-form response, so
    no payoff table is built."""
    game = make(b1.agents)
    if expected is None:
        expected = rational_solution(b1, _per_cell(game)).solution

    def refuse(*args):
        raise AssertionError(f"class table built with {args}")

    monkeypatch.setattr(ClassTable, "table", refuse)
    assert rational_solution(b1, game).solution == expected
    assert not isinstance(game.respond, ClassTable)
