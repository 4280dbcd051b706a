import random
from unittest import mock

import pytest
from hypothesis import given, settings

from rbr import (
    check_local_isomorphism,
    find_isomorphism,
    finest_partition,
    graphs_equivalent,
    initial_partition,
    is_canonical,
    make_guess_average_game,
    minimise,
    nodes_doxastically_equivalent,
    rational_solution,
    refine_once,
    validate_graph,
)
from rbr.errors import AgentUniverseMismatch, LabelMixingPartition, NotCanonical, PartialMapping
from rbr.graph import NO_NODE, RbrGraph
from rbr.minimize import _quotient_graph, quotient
import rbr.partition
from rbr.partition import Partition, _finest_with_rounds, disjoint_union
from .conftest import ABC, blow_up, chain, iterated_refinement
from .test_properties import graphs, refinement_inputs


def test_initial_partition_is_label_classes(b1, b5):
    assert initial_partition(b1).block_count == 3
    p5 = initial_partition(b5)
    assert sorted(len(b) for b in p5.blocks()) == [1, 3, 3]
    single = validate_graph(("a",), 1, [0], [], {0: 0})
    assert initial_partition(single).block_count == 1


def test_refine_once_b5_already_stable(b5):
    p = initial_partition(b5)
    assert refine_once(b5, p) == p


def test_refine_once_splits_by_successor_blocks(b1, b2):
    union = disjoint_union(b1, b2)
    p = refine_once(union, initial_partition(union))
    # b1's a-node sees a c-successor, b2's does not.
    assert not p.same_block(0, 3)


def test_refine_discrete_partition_fixed(b3):
    p = Partition(block_of=(0, 1, 2), block_count=3)
    assert refine_once(b3, p) == p


def test_refine_rejects_label_mixing(b1):
    with pytest.raises(LabelMixingPartition):
        refine_once(b1, Partition(block_of=(0, 0, 1), block_count=2))


def test_refine_and_quotient_reject_a_partition_of_the_wrong_length(b2):
    for p in (Partition((0, 1, 2), 3), Partition((0,), 1)):
        with pytest.raises(PartialMapping, match="partition of"):
            refine_once(b2, p)
        with pytest.raises(PartialMapping, match="partition of"):
            quotient(b2, p)


def _first_mixing_block(g, p):
    """The block a label check names: that of the first node, in node
    order, whose label differs from the first member of its block."""
    rep = {}
    for n, k in enumerate(p.block_of):
        if rep.setdefault(k, g.labels[n]) != g.labels[n]:
            return k
    return None


def test_label_mixing_message_names_the_first_mixing_block(corpus, b1, b5):
    rng = random.Random(11)
    named = set()
    for g in [*corpus, b1, b5]:
        for _ in range(10):
            count = rng.randint(1, g.num_nodes)
            p = Partition(tuple(rng.randrange(count) for _ in g.nodes()), count)
            k = _first_mixing_block(g, p)
            if k is None:
                refine_once(g, p)
                continue
            with pytest.raises(LabelMixingPartition, match=rf"^block {k} mixes labels$"):
                refine_once(g, p)
            named.add(k)
    assert len(named) > 2


def test_finest_partition(b1, b4, b5):
    assert finest_partition(b1).block_count == 3
    assert finest_partition(b4).block_count == 5  # real vs doxastic a/b differ
    p5 = finest_partition(b5)
    assert p5.block_count == 3
    assert sorted(len(b) for b in p5.blocks()) == [1, 3, 3]


def test_node_equivalence(b1, b2, b3, b4):
    assert nodes_doxastically_equivalent(b2, 0, b3, 0)
    assert nodes_doxastically_equivalent(b1, 2, b4, 2)
    assert not nodes_doxastically_equivalent(b1, 0, b2, 0)


def test_node_equivalence_requires_shared_universe(b1):
    other = validate_graph(("a", "b"), 1, [0], [], {0: 0})
    with pytest.raises(AgentUniverseMismatch):
        nodes_doxastically_equivalent(b1, 0, other, 0)


def test_graphs_equivalent(b1, b2, b3, b4, b5):
    assert graphs_equivalent(b5, b3)
    assert not graphs_equivalent(b1, b2)  # designation domains differ
    assert not graphs_equivalent(b3, b4)  # c's hierarchies differ


def test_is_canonical(b3, b5):
    assert is_canonical(b3)
    assert not is_canonical(b5)
    assert is_canonical(validate_graph(("a",), 1, [0], [], {0: 0}))


def test_check_local_isomorphism(b3, b5):
    report = minimise(b5)
    assert check_local_isomorphism(b5, report.output, report.block_map)
    assert check_local_isomorphism(b3, b3, (0, 1, 2))
    # Swapping the a- and b-images breaks the label clause.
    bad = tuple({0: 1, 1: 0}.get(m, m) for m in report.block_map)
    assert not check_local_isomorphism(b5, report.output, bad)


def test_check_local_isomorphism_wants_total_map(b3):
    with pytest.raises(PartialMapping):
        check_local_isomorphism(b3, b3, (0, 1))


def test_find_isomorphism(b3, b4, b5):
    out = minimise(b5).output
    alpha = find_isomorphism(out, b3)
    assert alpha is not None
    assert check_local_isomorphism(out, b3, alpha)
    assert find_isomorphism(b3, minimise(b4).output) is None
    assert find_isomorphism(b3, b3) == (0, 1, 2)


def test_find_isomorphism_rejects_non_canonical(b3, b5):
    with pytest.raises(NotCanonical):
        find_isomorphism(b5, b3)
    # Different agent universes are reported before canonicity.
    other = validate_graph(("a", "b"), 1, [0], [], {0: 0})
    with pytest.raises(AgentUniverseMismatch):
        find_isomorphism(b5, other)


def test_find_isomorphism_builds_one_partition(b3, b5, monkeypatch):
    import rbr.partition

    calls = []
    original = rbr.partition.initial_partition

    def counted(g):
        calls.append(g.num_nodes)
        return original(g)

    monkeypatch.setattr(rbr.partition, "initial_partition", counted)
    assert find_isomorphism(b3, b3) == (0, 1, 2)
    assert calls == [6]
    calls.clear()
    with pytest.raises(NotCanonical):
        find_isomorphism(b5, b3)
    assert calls == [10]


def test_refinement_chain_properties(corpus):
    for g in corpus:
        p = initial_partition(g)
        counts = [p.block_count]
        for _ in range(g.num_nodes + 1):
            p = refine_once(g, p)
            counts.append(p.block_count)
        assert counts == sorted(counts)
        # Stabilisation is permanent.
        assert refine_once(g, p) == p
        # Same block implies same label.
        for block in p.blocks():
            assert len({g.labels[n] for n in block}) == 1


def test_long_chain_refines_in_linear_work():
    # Refining a chain splits one node off per round; re-keying every node
    # in every round would key about n^2 nodes.
    n = 20_000
    g = chain(n)
    report = minimise(g)
    assert report.refinement_rounds == n - 2
    assert report.blocks_per_round == tuple(range(2, n + 1))
    assert report.nodes_keyed < 3 * n
    assert report.block_map == tuple(range(n))
    assert report.output.succ == g.succ
    assert report.output.labels == g.labels


def test_one_round_blow_up_keys_each_node_twice():
    # A blow-up that one round makes stable, like the refine benchmark's
    # 10-agent ones: round 1 refines, round 2 keys every node to confirm,
    # and no round needs the predecessor lists.
    agents = tuple(f"ag{i}" for i in range(10))
    # Agent 0's node i believes only in agent i+1's node 9+i, which
    # believes in node i: round 1 tells agent 0's nodes apart.
    labels = [0] * 9 + list(range(1, 10))
    edges = [(i, 9 + i) for i in range(9)] + [(9 + i, i) for i in range(9)]
    designation = {0: 0, **{a: 8 + a for a in range(1, 10)}}
    core = validate_graph(agents, 18, labels, edges, designation)
    g, image = blow_up(random.Random(7), core, 40)
    report = minimise(g)
    assert report.refinement_rounds == 1
    assert report.blocks_per_round == (10, 18)
    assert report.nodes_keyed == 2 * g.num_nodes
    assert "predecessors" not in g.__dict__
    assert report.block_map == tuple(image)


@pytest.mark.parametrize("copies", [1, 2, 5])
def test_round_2_split_into_equal_parts_matches_iterated_refinement(copies):
    # Round 1 tells the b nodes 3, 4 and 5 apart by which successors
    # they have, so round 2 splits the a nodes 0, 1 and 2, which believe
    # in them, into three parts of ``copies`` nodes each.
    edges = [(0, 3), (1, 4), (2, 5), (3, 0), (4, 6), (5, 0), (5, 6)]
    core = validate_graph(ABC, 7, [0, 0, 0, 1, 1, 1, 2], edges, {0: 0, 1: 3, 2: 6},
                          require_reachable=False)
    g, image = blow_up(random.Random(copies), core, copies)
    p, counts, _ = _finest_with_rounds(g)
    expect, expect_counts = iterated_refinement(g)
    assert p == expect
    assert counts == expect_counts
    assert counts[:3] == [3, 5, 7]
    assert p.block_of == tuple(image)


@given(refinement_inputs())
@settings(max_examples=200, deadline=None)
def test_gathered_round_2_leaves_the_state_of_a_full_worklist_round(g):
    """From round 1's partition, the gathered round 2 leaves the block
    ids, sizes, members and moved nodes of a worklist round keying every
    node, ties between equal parts broken alike."""
    q = refine_once(g, initial_partition(g))
    r = refine_once(g, q)
    block = [*q.block_of, NO_NODE]
    sizes = list(map(len, q.blocks()))
    members = list(map(set, q.blocks()))
    moved = rbr.partition._split_round(g.succ, block, sizes, members, g.nodes())
    assert rbr.partition._worklist_start(q, r) == (block, sizes, members, moved)


def test_solves_and_refinements_build_the_getters_once(corpus3):
    core = max(corpus3, key=lambda g: g.num_nodes)
    g, _ = blow_up(random.Random(5), core, 30)
    game = make_guess_average_game(3, 6, agents=ABC)
    assert "gathers" not in g.__dict__
    minimise(g)
    gathers = g.__dict__["gathers"]
    assert len(gathers) == g.num_agents
    for _ in range(2):
        minimise(g)
        rational_solution(g, game)
        finest_partition(g)
    assert g.__dict__["gathers"] is gathers


def test_derived_and_raw_graphs_start_without_getters(b3, b5):
    finest_partition(b3)
    finest_partition(b5)
    assert "gathers" in b3.__dict__ and "gathers" in b5.__dict__
    raw = RbrGraph(agents=b5.agents, labels=b5.labels, succ=b5.succ,
                   designated=b5.designated)
    union = disjoint_union(b3, b5)
    quotient = _quotient_graph(b5, finest_partition(b5))
    for g in (raw, union, quotient):
        assert "gathers" not in g.__dict__


def _validated_quotient(g, p):
    """The quotient rebuilt from its first members' edges through
    ``validate_graph``: the reference for ``_quotient_graph``'s
    unchecked build."""
    firsts = [members[0] for members in p.blocks()]
    edges = [
        (k, p.block_of[m]) for k, n in enumerate(firsts) for m in g.succ[n] if m != NO_NODE
    ]
    return validate_graph(
        g.agents,
        p.block_count,
        [g.labels[n] for n in firsts],
        edges,
        {a: p.block_of[n] for a, n in enumerate(g.designated) if n != NO_NODE},
        node_names=[g.node_names[n] for n in firsts],
        require_reachable=False,
    )


def test_quotient_equals_the_validated_build(corpus3, b3, b5):
    rng = random.Random(7)
    graphs = [*corpus3, b3, b5, disjoint_union(b3, b5), validate_graph(ABC, 0, [], [], {})]
    graphs += [blow_up(rng, core, rng.randint(2, 6))[0] for core in corpus3]
    for g in graphs:
        p = finest_partition(g)
        assert _quotient_graph(g, p) == _validated_quotient(g, p)
        assert quotient(g, p) == _validated_quotient(g, p)


@given(graphs())
@settings(max_examples=100, deadline=None)
def test_drawn_quotient_equals_the_validated_build(g):
    p = finest_partition(g)
    assert _quotient_graph(g, p) == _validated_quotient(g, p)


def _validated_union(ga, gb):
    """The union rebuilt from edges through ``validate_graph``: the
    reference for ``disjoint_union``'s unchecked build."""
    off = ga.num_nodes
    edges = list(ga.edges()) + [(n + off, m + off) for n, m in gb.edges()]
    return validate_graph(
        ga.agents,
        ga.num_nodes + gb.num_nodes,
        ga.labels + gb.labels,
        edges,
        {},
        node_names=ga.node_names + gb.node_names,
        require_reachable=False,
    )


def _check_union(ga, gb):
    union = disjoint_union(ga, gb)
    assert union == _validated_union(ga, gb)

    def answers():
        return graphs_equivalent(ga, gb), [
            nodes_doxastically_equivalent(ga, na, gb, nb)
            for na in ga.nodes()
            for nb in gb.nodes()
        ]

    direct = answers()
    with mock.patch.object(rbr.partition, "disjoint_union", _validated_union):
        assert answers() == direct


def test_disjoint_union_equals_the_validated_build(corpus, b1, b2, b3, b4, b5):
    graphs = [*corpus, b1, b2, b3, b4, b5, validate_graph(ABC, 0, [], [], {})]
    for ga in graphs:
        for gb in graphs:
            if ga.agents == gb.agents:
                _check_union(ga, gb)


@given(graphs(), graphs())
@settings(max_examples=100, deadline=None)
def test_drawn_disjoint_union_equals_the_validated_build(ga, gb):
    _check_union(ga, gb)
