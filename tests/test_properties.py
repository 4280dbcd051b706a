"""Hypothesis suites for the theory-level invariants."""

from __future__ import annotations

import functools
import itertools
import operator
import random
from fractions import Fraction
from unittest import mock

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from rbr import (
    Game,
    belief_hierarchy_bounded,
    belief_scene,
    dominates,
    finest_partition,
    full_solution,
    graphs_equivalent,
    initial_partition,
    is_canonical,
    is_stable,
    iterate,
    make_binary_game,
    make_guess_average_game,
    make_scene,
    make_sequence_game,
    minimise,
    parse_game,
    path_sequences,
    rational_response,
    rational_solution,
    rationalise,
    refine_once,
    utility_game,
    validate_graph,
)
from rbr.errors import ForeignStrategy, NonTermination
from rbr.games import ClassTable, ReasoningScene
from rbr.graph import NO_NODE, successor_keys
from rbr.partition import disjoint_union
from rbr.oracle import (
    brute_force_hierarchy,
    brute_force_rational_solution,
    brute_force_round,
)
import rbr.partition
import rbr.solve
from rbr.solve import safety_bound
from .conftest import ABC, blow_up, chain, iterated_rationalise, iterated_refinement


@st.composite
def graphs(draw, max_nodes=6, num_agents=3):
    """Small valid graphs over a fixed universe, reachability enforced by
    trimming."""
    agents = ABC[:num_agents]
    n = draw(st.integers(1, max_nodes))
    labels = [draw(st.integers(0, num_agents - 1)) for _ in range(n)]
    edges = []
    for src in range(n):
        for a in range(num_agents):
            if a == labels[src]:
                continue
            targets = [m for m in range(n) if labels[m] == a]
            if targets:
                pick = draw(st.sampled_from(targets + [None]))
                if pick is not None:
                    edges.append((src, pick))
    designation = {}
    for a in range(num_agents):
        candidates = [m for m in range(n) if labels[m] == a]
        if candidates and draw(st.booleans()):
            designation[a] = draw(st.sampled_from(candidates))
    if not designation:
        designation = {labels[0]: 0}

    reach = set(designation.values())
    frontier = list(reach)
    while frontier:
        src = frontier.pop()
        for s, t in edges:
            if s == src and t not in reach:
                reach.add(t)
                frontier.append(t)
    keep = sorted(reach)
    remap = {old: new for new, old in enumerate(keep)}
    return validate_graph(
        agents,
        len(keep),
        [labels[m] for m in keep],
        sorted({(remap[s], remap[t]) for s, t in edges if s in reach and t in reach}),
        {a: remap[m] for a, m in designation.items()},
    )


@given(graphs())
@settings(max_examples=60, deadline=None)
def test_monotone_chain_from_full(g):
    game = make_guess_average_game(3, 5, agents=ABC)
    prev = full_solution(g, game)
    for _ in range(safety_bound(g, game)):
        cur = rationalise(g, game, prev)
        assert all(c <= p for c, p in zip(cur, prev))
        prev = cur
    assert is_stable(g, game, prev)


@given(graphs(), st.integers(0, 3))
@settings(max_examples=40, deadline=None)
def test_rationalisation_monotone_in_solution(g, i):
    game = make_guess_average_game(3, 5, agents=ABC)
    big = iterate(g, game, full_solution(g, game), i)
    small = iterate(g, game, big, 1)
    ra, rb = rationalise(g, game, big), rationalise(g, game, small)
    assert all(y <= x for x, y in zip(ra, rb))


@given(graphs())
@settings(max_examples=40, deadline=None)
def test_stability_absorbs(g):
    game = make_binary_game(ABC)
    rep = rational_solution(g, game)
    for i in (1, 2, 3):
        assert iterate(g, game, rep.solution, i) == rep.solution


@given(graphs(), st.integers(1, 3))
@settings(max_examples=30, deadline=None)
def test_sequence_game_round_identity(g, k):
    """Round i of the depth-k sequence game eliminates exactly the
    depth-i belief sequences."""
    game = make_sequence_game(ABC, k)
    current = full_solution(g, game)
    for i in range(1, k + 2):
        current = rationalise(g, game, current)
        bound = min(i, k)
        for n in g.nodes():
            expect = frozenset(game.strategies[g.labels[n]]) - belief_hierarchy_bounded(
                g, n, bound
            )
            assert current[n] == expect


@given(graphs())
@settings(max_examples=40, deadline=None)
def test_refinement_reaches_fixpoint_within_node_count(g):
    p = initial_partition(g)
    for _ in range(g.num_nodes):
        p = refine_once(g, p)
    assert refine_once(g, p) == p
    assert p == finest_partition(g)


@given(graphs())
@settings(max_examples=40, deadline=None)
def test_finest_blocks_are_hierarchy_classes(g):
    p = finest_partition(g)
    depth = g.num_nodes
    for n in g.nodes():
        for m in g.nodes():
            same = belief_hierarchy_bounded(g, n, depth) == belief_hierarchy_bounded(
                g, m, depth
            )
            assert p.same_block(n, m) == same


@given(
    g=graphs(), other=graphs(), copies=st.integers(1, 3),
    rng=st.randoms(use_true_random=False),
)
@settings(max_examples=40, deadline=None)
def test_hierarchy_walk_matches_oracle_at_every_node(g, other, copies, rng):
    """At every node, reachable or not, the bounded hierarchy and the
    path sequences agree with the oracle's DFS; blow-ups leave copies
    unreachable and unions drop the designation."""
    blown, _ = blow_up(rng, g, copies)
    for h in (g, blown, disjoint_union(g, other), disjoint_union(blown, other)):
        for n in h.nodes():
            for depth in range(7):
                expect = brute_force_hierarchy(h, n, depth)
                assert belief_hierarchy_bounded(h, n, depth) == expect
                if depth:
                    assert path_sequences(h, n, depth) == {
                        seq for seq in expect if len(seq) == depth
                    }


@given(graphs())
@settings(max_examples=40, deadline=None)
def test_minimise_sound_and_canonical(g):
    out = minimise(g).output
    assert is_canonical(out)
    assert graphs_equivalent(g, out)


BUILTIN_GAMES = {
    "guess23": lambda: make_guess_average_game(3, 6, agents=ABC),
    "gk:2": lambda: make_sequence_game(ABC, 2),
    "gk:3": lambda: make_sequence_game(ABC, 3),
    "binary": lambda: make_binary_game(ABC),
}


@pytest.mark.parametrize("name", sorted(BUILTIN_GAMES))
@given(g=graphs())
@settings(max_examples=25, deadline=None)
def test_builtin_game_solution_matches_oracle(name, g):
    game = BUILTIN_GAMES[name]()
    assert rational_solution(g, game).solution == brute_force_rational_solution(g, game)


@pytest.mark.parametrize("name", sorted(BUILTIN_GAMES))
@given(g=graphs(), copies=st.integers(1, 3), rng=st.randoms(use_true_random=False))
@settings(max_examples=25, deadline=None)
def test_lifted_trace_matches_node_by_node_rounds(name, g, copies, rng):
    """On a blow-up, the trace starts at the full solution and each round
    is the oracle's node-by-node round of the one before it."""
    game = BUILTIN_GAMES[name]()
    g, _ = blow_up(rng, g, copies)
    rep = rational_solution(g, game, keep_trace=True)
    assert len(rep.trace) == rep.iterations + 2
    assert rep.trace[0] == tuple(frozenset(game.strategies[a]) for a in g.labels)
    for before, after in zip(rep.trace, rep.trace[1:]):
        assert after == brute_force_round(g, game, before)
    assert rep.trace[-1] == rep.trace[-2] == rep.solution


@pytest.mark.parametrize("name", sorted(BUILTIN_GAMES))
def test_blow_up_solution_is_the_core_solution_lifted(name, corpus3):
    game = BUILTIN_GAMES[name]()
    rng = random.Random(name)
    for core in corpus3:
        g, image = blow_up(rng, core, 4)
        p, core_p = finest_partition(g), finest_partition(core)
        assert all(p.same_block(n, m) == core_p.same_block(image[n], image[m])
                   for n in g.nodes() for m in g.nodes())
        core_solution = brute_force_rational_solution(core, game)
        assert rational_solution(g, game).solution == tuple(core_solution[v] for v in image)


@pytest.mark.parametrize("case", ["blow-up", "chain"])
def test_one_response_per_distinct_scene(case, corpus3, monkeypatch):
    """A solve builds one scene per distinct scene over all its rounds and
    answers each once, without refining a partition."""
    if case == "blow-up":
        core = max(corpus3, key=lambda g: g.num_nodes)
        g, _ = blow_up(random.Random(3), core, 50)
        game = make_guess_average_game(3, 6, agents=ABC)
    else:
        g = chain(400)
        game = make_sequence_game(("a", "b"), 3)
    distinct = set()
    for s in rational_solution(g, game, keep_trace=True).trace[:-1]:
        distinct.update(belief_scene(g, game, s, n) for n in g.nodes())

    scenes, responses, passes = [], [], []
    for module, name, calls in [(rbr.solve, "_key_scene", scenes),
                                (rbr.solve, "rational_response", responses),
                                (rbr.partition, "refine_once", passes)]:
        original = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a, f=original, c=calls: c.append(1) or f(*a))
    rational_solution(g, game)
    assert g.num_nodes >= 200
    assert len(scenes) == len(responses) == len(distinct) < g.num_nodes
    assert not passes


@st.composite
def table_games(draw, agents):
    """A ``game normal-form`` document with small rationals of mixed
    denominators, so negatives and ties are common."""
    spaces = [[f"s{i}" for i in range(draw(st.integers(1, 3)))] for _ in agents]
    lines = ["game normal-form", "agents " + " ".join(agents)]
    lines += [f"strategies {name}: {' '.join(sp)}" for name, sp in zip(agents, spaces)]
    for name in agents:
        for profile in itertools.product(*spaces):
            num = draw(st.integers(-3, 3))
            den = draw(st.sampled_from([1, 2, 3, 4, 6]))
            lines.append(f"utility {name} {' '.join(profile)} {num}/{den}")
    return parse_game("\n".join(lines) + "\n")


@st.composite
def pareto_games(draw, agents):
    """A compare-only game: each agent ranks outcomes by the Pareto order
    on two criteria, so many outcomes are incomparable."""
    spaces = tuple(tuple(range(draw(st.integers(1, 3)))) for _ in agents)
    scores = {
        (a, o): draw(st.tuples(st.integers(0, 2), st.integers(0, 2)))
        for a in range(len(agents))
        for o in itertools.product(*spaces)
    }

    def compare(a, s, s2):
        x, y = scores[a, s], scores[a, s2]
        if x == y:
            return 0
        if x[0] >= y[0] and x[1] >= y[1]:
            return 1
        if x[0] <= y[0] and x[1] <= y[1]:
            return -1
        return None

    return Game(agents=tuple(agents), strategies=spaces, compare=compare)


@pytest.mark.parametrize("games", [table_games, pareto_games])
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_drawn_game_solution_matches_oracle(games, data):
    num_agents = data.draw(st.integers(2, 3))
    g = data.draw(graphs(num_agents=num_agents))
    game = data.draw(games(ABC[:num_agents]))
    assert rational_solution(g, game).solution == brute_force_rational_solution(g, game)


@st.composite
def merging_games(draw, agents):
    """A utility game whose payoff tables have equal columns, so column
    classes really merge: either every utility comes from a set of two or
    three values, or each agent's columns are copies of one to three
    drawn columns."""
    spaces = [tuple(range(draw(st.integers(1, 4)))) for _ in agents]
    copies = draw(st.booleans())
    if copies:
        cell = st.integers(-2, 2)
    else:
        cell = st.sampled_from(
            draw(st.sampled_from([(0, 1), (-1, 0, 1), (Fraction(1, 2), 2, -3)])))
    table = {}
    for a, own in enumerate(spaces):
        column = st.lists(cell, min_size=len(own), max_size=len(own))
        if copies:
            column = st.sampled_from(draw(st.lists(column, min_size=1, max_size=3)))
        axes = list(spaces)
        axes[a] = (None,)
        for profile in itertools.product(*axes):
            for s, u in zip(own, draw(column)):
                table[a, profile[:a] + (s,) + profile[a + 1:]] = u
    return utility_game(agents, spaces, lambda a, o: table[a, o])


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_column_classes_match_the_pairwise_path(data):
    """Dominance over the scene's column classes answers what pairwise
    ``dominates`` checks over every opponent profile answer."""
    agents = ABC[:data.draw(st.integers(1, 3))]
    game = data.draw(merging_games(agents))
    pairwise = Game(game.agents, game.strategies, game.compare)
    for a in range(len(agents)):
        scene = make_scene(game, a, {
            b: data.draw(st.sets(st.sampled_from(space), min_size=1))
            for b, space in enumerate(game.strategies) if b != a
        })
        assert rational_response(game, a, scene) == rational_response(pairwise, a, scene)


# Builtin games with tables of hundreds to thousands of columns, whose
# columns merge into a few dozen classes.
BIG_TABLE_GAMES = {
    "gk:3": make_sequence_game(ABC, 3),
    "gk:4": make_sequence_game(ABC, 4),
    "guess23:3:5": make_guess_average_game(3, 5),
    "guess23:3:9": make_guess_average_game(3, 9),
}


@functools.cache
def _class_table(game):
    """``game``'s own class table, or for a builtin the one of a utility
    game with its payoffs, built one ``utility`` call per cell."""
    if isinstance(game.respond, ClassTable):
        return game.respond
    return utility_game(game.agents, game.strategies, game.utility).respond


def _classes_hit(table, scene):
    """The classes of the columns ``scene`` allows in the class table
    ``table``, enumerated one profile at a time: a column's index is its
    opponent profile's strategy indices in mixed radix, last opponent
    fastest."""
    classes = table.table(scene.owner)[0]
    axes = [
        [(i, len(space)) for i, s in enumerate(space) if s in scene.opponents[b]]
        for b, space in enumerate(table.strategies)
        if b != scene.owner
    ]
    hit = set()
    for profile in itertools.product(*axes):
        column = 0
        for i, radix in profile:
            column = column * radix + i
        hit.add(classes[column])
    return hit


@pytest.mark.parametrize("name", BIG_TABLE_GAMES)
@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_big_builtin_classes_match_the_pairwise_path(name, data):
    """Drawn sub-scenes of a big builtin table, scenes within one column
    class and the full scene, which hits every class, answer as pairwise
    ``dominates`` checks do."""
    game = BIG_TABLE_GAMES[name]
    table = _class_table(game)
    a = data.draw(st.integers(0, 2))
    hits = data.draw(st.sampled_from(["drawn", "one class", "every class"]))
    profile = [data.draw(st.sampled_from(space)) for space in game.strategies]

    def class_of(b, t):
        singletons = {c: {t if c == b else x} for c, x in enumerate(profile) if c != a}
        return _classes_hit(table, make_scene(game, a, singletons))

    opponents = {}
    for b, space in enumerate(game.strategies):
        if b == a:
            continue
        if hits == "one class":
            space = [t for t in space if class_of(b, t) == class_of(b, profile[b])]
        if hits == "every class":
            opponents[b] = space
        else:
            opponents[b] = data.draw(st.sets(st.sampled_from(space), min_size=1))
    scene = make_scene(game, a, opponents)
    if hits != "drawn":
        count = 1 if hits == "one class" else len(table.table(a)[1])
        assert len(_classes_hit(table, scene)) == count
    pairwise = Game(game.agents, game.strategies, game.compare)
    assert rational_response(game, a, scene) == rational_response(pairwise, a, scene)


def _merged_table_game():
    """A 3-agent table document whose utilities depend on the own
    strategy and on the parity of the opponents' strategy indices, so
    that each agent's columns merge into two classes."""
    sizes = (3, 4, 2)
    lines = ["game normal-form", "agents " + " ".join(ABC)]
    lines += [f"strategies {name}: " + " ".join(f"s{i}" for i in range(n))
              for name, n in zip(ABC, sizes)]
    for a, name in enumerate(ABC):
        for profile in itertools.product(*map(range, sizes)):
            odd = (sum(profile) - profile[a]) % 2
            own = profile[a] if odd else -profile[a]
            cells = " ".join(f"s{i}" for i in profile)
            lines.append(f"utility {name} {cells} {own}/{2 + odd}")
    return parse_game("\n".join(lines) + "\n")


# Scenes of these games have one to three opponents, whose picks give
# the column indices in mixed radix, and none in the 1-agent game.
HIT_GAMES = {
    **BIG_TABLE_GAMES,
    "guess23:2:7": make_guess_average_game(2, 7),
    "gk:3, 2 agents": make_sequence_game(("a", "b"), 3),
    "guess23:4:4": make_guess_average_game(4, 4),
    "gk:2, 4 agents": make_sequence_game(("a", "b", "c", "d"), 2),
    "merged table": _merged_table_game(),
    "binary, 1 agent": make_binary_game(("a",)),
}


@pytest.mark.parametrize("name", HIT_GAMES)
@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_scene_classes_are_the_enumerated_columns_classes(name, data):
    """The classes a scene hits, read through its column indices, are the
    classes of its columns enumerated one profile at a time, also when the
    last opponent has one strategy in the scene."""
    game = HIT_GAMES[name]
    a = data.draw(st.integers(0, game.num_agents - 1))
    opponents = {
        b: data.draw(st.sets(st.sampled_from(space), min_size=1))
        for b, space in enumerate(game.strategies)
        if b != a
    }
    if opponents and data.draw(st.booleans()):
        last = max(opponents)
        opponents[last] = {data.draw(st.sampled_from(game.strategies[last]))}
    scene = make_scene(game, a, opponents)
    table = _class_table(game)
    assert table.hits(a, scene) == _classes_hit(table, scene)


@pytest.mark.parametrize("name", [n for n, g in HIT_GAMES.items() if g.num_agents > 1])
@given(data=st.data())
@settings(max_examples=10, deadline=None)
def test_empty_or_foreign_opponent_sets_are_rejected(name, data):
    """Every path that reads a scene, the compare-only ones included,
    rejects an empty or foreign opponent set with the same message."""
    game = HIT_GAMES[name]
    a = data.draw(st.integers(0, game.num_agents - 1))
    b = data.draw(st.integers(0, game.num_agents - 1).filter(lambda b: b != a))
    opponents = [frozenset(space) for space in game.strategies]
    opponents[a] = frozenset()
    if data.draw(st.booleans()):
        opponents[b] = frozenset()
    else:
        kept = data.draw(st.sets(st.sampled_from(game.strategies[b])))
        opponents[b] = frozenset(kept | {("foreign",)})
    scene = ReasoningScene(a, tuple(opponents))
    compare_only = Game(game.agents, game.strategies, game.compare)
    s = game.strategies[a][0]
    message = f"^opponent set for agent {b} is empty or leaves its space$"
    for call in [
        lambda: rational_response(game, a, scene),
        lambda: rational_response(compare_only, a, scene),
        lambda: dominates(game, a, scene, s, s),
        lambda: make_scene(game, a, dict(enumerate(opponents))),
    ]:
        with pytest.raises(ForeignStrategy, match=message):
            call()


@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_column_class_solution_matches_oracle(data):
    num_agents = data.draw(st.integers(2, 3))
    g = data.draw(graphs(num_agents=num_agents))
    game = data.draw(merging_games(ABC[:num_agents]))
    assert rational_solution(g, game).solution == brute_force_rational_solution(g, game)


@st.composite
def refinement_inputs(draw):
    """A small drawn graph, a blow-up of one, or a chain of 1-300 nodes."""
    kind = draw(st.sampled_from(["graph", "blow-up", "chain"]))
    if kind == "chain":
        return chain(draw(st.integers(1, 300)))
    g = draw(graphs(max_nodes=24))
    if kind == "blow-up":
        rng = random.Random(draw(st.integers(0, 2**32)))
        g, _ = blow_up(rng, g, draw(st.integers(2, 8)))
    return g


@given(refinement_inputs())
@settings(max_examples=200, deadline=None)
def test_worklist_refiner_matches_iterated_refine_once(g):
    """The refiner gives the partition and the rounds of iterating
    refine_once, and on small graphs the hierarchy classes."""
    p = finest_partition(g)
    report = minimise(g)
    expect, counts = iterated_refinement(g)
    assert p == expect
    assert report.block_map == expect.block_of
    assert report.refinement_rounds == len(counts) - 1
    assert report.blocks_per_round == tuple(counts)
    if g.num_nodes <= 8:
        h = [belief_hierarchy_bounded(g, n, g.num_nodes) for n in g.nodes()]
        assert all(p.same_block(n, m) == (h[n] == h[m])
                   for n in g.nodes() for m in g.nodes())


@st.composite
def key_inputs(draw):
    """A graph of 0-6 nodes over 1-3 agents, a head, values and fills,
    and the nodes to key: None, 0-2 drawn nodes, or a drawn subset."""
    num_agents = draw(st.integers(1, 3))
    if draw(st.booleans()):
        g = validate_graph(ABC[:num_agents], 0, [], [], {})
    else:
        g = draw(graphs(num_agents=num_agents))
    head = draw(st.lists(st.integers(), min_size=g.num_nodes, max_size=g.num_nodes))
    values = draw(st.lists(st.text(max_size=2), min_size=g.num_nodes, max_size=g.num_nodes))
    fills = draw(st.lists(st.sampled_from("xyz"), min_size=num_agents, max_size=num_agents))
    nodes = draw(st.none() | st.lists(st.sampled_from(g.nodes()), max_size=2)
                 | st.lists(st.sampled_from(g.nodes()), max_size=8, unique=True)
                 if g.num_nodes else st.sampled_from([None, []]))
    return g, head, values, fills, nodes


@given(key_inputs())
@settings(max_examples=300, deadline=None)
def test_successor_keys_match_the_per_node_reference(case):
    """Whether keyed in full through the graph's getters or on a subset
    through getters of its own, every node's key is its head, then per
    agent the value at its successor or that agent's fill."""
    g, head, values, fills, nodes = case
    keyed = g.nodes() if nodes is None else nodes
    expect = [
        (head[n], *(values[m] if m != NO_NODE else fills[a] for a, m in enumerate(g.succ[n])))
        for n in keyed
    ]
    assert list(successor_keys(g, head, values, fills, nodes)) == expect


SOLVE_GAMES = {
    "binary": make_binary_game,
    "gk:2": lambda agents: make_sequence_game(agents, 2),
    "gk:3": lambda agents: make_sequence_game(agents, 3),
    "guess23:6": lambda agents: make_guess_average_game(len(agents), 6, agents=agents),
}


@given(graphs(max_nodes=12), st.sampled_from([*sorted(SOLVE_GAMES), "table"]), st.data())
@settings(max_examples=150, deadline=None)
def test_response_memo_answers_each_key_on_its_belief_scene(g, name, data):
    """The solver's memo builds the scene of a key itself; for every node
    of a drawn solution, the scene of the node's key is its belief scene,
    and the memo's answer the rational response there."""
    if name == "table":
        game = data.draw(table_games(g.agents))
    else:
        game = SOLVE_GAMES[name](g.agents)
    s = tuple(
        frozenset(data.draw(st.sets(st.sampled_from(game.strategies[a]), min_size=1)))
        for a in g.labels
    )
    spaces = [frozenset(space) for space in game.strategies]
    memo = rbr.solve._ResponseMemo(game)
    for n, key in zip(g.nodes(), successor_keys(g, g.labels, s, spaces)):
        scene = belief_scene(g, game, s, n)
        assert rbr.solve._key_scene(key) == scene
        assert memo[key] == rational_response(game, g.labels[n], scene)


@given(refinement_inputs(), st.sampled_from([*sorted(SOLVE_GAMES), "table"]), st.data())
@settings(max_examples=200, deadline=None)
def test_dirty_set_solve_matches_iterated_rationalise(g, name, data):
    """Whichever rounds key only the predecessors of changed nodes, the
    solve has the rounds, iterations and counters of iterating the full
    ``rationalise``."""
    if name == "table":
        game = data.draw(table_games(g.agents))
    else:
        game = SOLVE_GAMES[name](g.agents)
    rep = rational_solution(g, game, keep_trace=True)
    if rep.iterations:
        with mock.patch("rbr.solve.safety_bound", return_value=rep.iterations - 1):
            with pytest.raises(NonTermination):
                rational_solution(g, game)
    trace = iterated_rationalise(g, game)
    assert rep.trace == trace
    assert rep.iterations == len(trace) - 2
    assert rep.solution == trace[-1]
    assert rep.entries_changed == tuple(
        sum(map(operator.ne, old, new)) for old, new in zip(trace, trace[1:]))
    assert len(rep.nodes_keyed) == len(trace) - 1


@given(refinement_inputs(), st.sampled_from([*sorted(SOLVE_GAMES), "table"]), st.data())
@settings(max_examples=100, deadline=None)
def test_solve_answers_each_scene_key_once(g, name, data):
    """Round 1 answers one scene per label present, and the rounds
    together answer every distinct scene key of R^0 .. R^iterations once."""
    if name == "table":
        game = data.draw(table_games(g.agents))
    else:
        game = SOLVE_GAMES[name](g.agents)
    rep = rational_solution(g, game, keep_trace=True)
    spaces = [frozenset(space) for space in game.strategies]
    keys = set()
    for s in rep.trace[:-1]:
        keys.update(successor_keys(g, g.labels, s, spaces))
    assert len(rep.scenes_answered) == len(rep.nodes_keyed)
    assert rep.scenes_answered[0] == len(set(g.labels))
    assert sum(rep.scenes_answered) == len(keys)


def _one_object_per_value(entries) -> bool:
    """True iff any two equal ``entries`` are one object."""
    first: dict = {}
    return all(first.setdefault(entry, entry) is entry for entry in entries)


@given(refinement_inputs(), st.sampled_from([*sorted(SOLVE_GAMES), "table"]), st.data())
@settings(max_examples=100, deadline=None)
def test_equal_entries_of_one_solve_are_one_object(g, name, data):
    """Within one solve, its trace included, and within one ``iterate``
    from the full solution, equal entries are one object, so the solver
    may compare them by identity."""
    if name == "table":
        game = data.draw(table_games(g.agents))
    else:
        game = SOLVE_GAMES[name](g.agents)
    rep = rational_solution(g, game, keep_trace=True)
    assert _one_object_per_value(itertools.chain.from_iterable(rep.trace))
    rounds = data.draw(st.integers(0, rep.iterations + 1))
    assert _one_object_per_value(iterate(g, game, full_solution(g, game), rounds))


@pytest.mark.parametrize("scale", [0.5, 2.0])
@pytest.mark.parametrize("case", ["blow-up", "chain"])
def test_solve_keys_labels_then_predecessors_of_changes(case, scale, corpus3):
    """Round 1 keys one node per label; a round after one that changed
    every entry keys all nodes, and any other round exactly the
    predecessors of the nodes the round before changed.  The rule has
    no size threshold, so it holds alike on 150 and on 600 nodes
    (``scale`` times 300)."""
    size = int(300 * scale)
    if case == "blow-up":
        core = max(corpus3, key=lambda g: g.num_nodes)
        g, _ = blow_up(random.Random(3), core, size // core.num_nodes)
        game = make_guess_average_game(3, 6, agents=ABC)
    else:
        g = chain(size)
        game = make_guess_average_game(2, 10, agents=("a", "b"))
    rep = rational_solution(g, game, keep_trace=True)
    n = g.num_nodes
    changed = [[v for v in g.nodes() if old[v] != new[v]]
               for old, new in zip(rep.trace, rep.trace[1:])]
    assert n == size and rep.iterations >= 4
    assert rep.entries_changed == tuple(map(len, changed))
    assert rep.nodes_keyed[0] == len(set(g.labels))
    for keyed, before in zip(rep.nodes_keyed[1:], changed):
        preds = {u for v in before for u in g.predecessors[v]}
        assert keyed == (n if len(before) == n else len(preds))
    assert sum(rep.nodes_keyed) < (rep.iterations + 1) * n
    assert min(rep.nodes_keyed[1:]) < n


@pytest.mark.parametrize("name", ["binary", "gk:3"])
def test_solve_whose_rounds_change_every_entry_builds_no_predecessors(name, corpus3):
    """When every round but the last changes all n entries, every round
    after the first is a full pass, and the predecessor lists are never
    built."""
    core = max(corpus3, key=lambda g: g.num_nodes)
    g, _ = blow_up(random.Random(3), core, 20)
    rep = rational_solution(g, SOLVE_GAMES[name](g.agents))
    n = g.num_nodes
    assert rep.iterations >= 1
    assert rep.entries_changed[:-1] == (n,) * rep.iterations
    assert rep.nodes_keyed[1:] == (n,) * rep.iterations
    assert "predecessors" not in g.__dict__

