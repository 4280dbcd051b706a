import contextlib
import dataclasses
import io
import os
import random
import tempfile
from collections import Counter, defaultdict
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from rbr import (
    check_local_isomorphism,
    equivalence_report,
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
    serialize_rbr,
    validate_graph,
)
from rbr.cli import main
from rbr.errors import (
    AgentUniverseMismatch,
    LabelMixingPartition,
    NotCanonical,
    NotFinest,
    PartialMapping,
)
from rbr.graph import NO_NODE, RbrGraph
from rbr.minimize import _quotient_graph, quotient
import rbr.partition
from rbr.partition import Partition, _finest_with_rounds, disjoint_union
from .conftest import ABC, blow_up, chain, cyclic_word, iterated_refinement
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


def test_block_ids_outside_the_block_count_are_a_partial_mapping():
    # Nodes 0:a, 1:b, 2:a, 3:c; node 0 believes in node 1, node 2 in no
    # one, so the two a nodes split.
    g = validate_graph(ABC, 4, [0, 1, 0, 2], [(0, 1), (1, 0), (3, 2)], {0: 0, 2: 3})
    assert refine_once(g, Partition((0, 1, 0, 2), 3)) == Partition((0, 1, 2, 3), 4)
    with pytest.raises(NotFinest):
        quotient(g, Partition((0, 1, 0, 2), 3))
    # A block count of 1 leaves blocks 1 and 2 outside the numbering; the
    # fill id of a missing successor, 1, would collide with node 1's block.
    for p in (Partition((0, 1, 0, 2), 1), Partition((0, -1, 0, 2), 3)):
        with pytest.raises(PartialMapping, match="^node 1 is in block -?1, outside 0"):
            refine_once(g, p)
        with pytest.raises(PartialMapping, match="^node 1 is in block -?1, outside 0"):
            quotient(g, p)


def test_refine_and_quotient_reject_a_partition_of_the_wrong_length(b2):
    for p in (Partition((0, 1, 2), 3), Partition((0,), 1)):
        with pytest.raises(PartialMapping, match="partition of"):
            refine_once(b2, p)
        with pytest.raises(PartialMapping, match="partition of"):
            quotient(b2, p)


def test_refine_and_quotient_reject_what_is_not_a_partition(b2):
    for call in (refine_once, quotient):
        with pytest.raises(PartialMapping, match="^None is not a Partition$"):
            call(b2, None)


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


def test_equivalence_report(b1, b2, b3, b4, b5):
    assert equivalence_report(b5, b3) == {0: True, 1: True, 2: True}
    assert equivalence_report(b1, b2) is None  # designation domains differ
    assert equivalence_report(b3, b4) == {0: True, 1: True, 2: False}
    assert list(equivalence_report(b2, b2)) == [0, 1]  # c is not designated
    # Different agent universes raise before the domains are compared.
    other = validate_graph(("a", "b"), 1, [0], [], {0: 0})
    for ga, gb in ((b1, other), (other, b1)):
        with pytest.raises(AgentUniverseMismatch):
            equivalence_report(ga, gb)


def _renumbered(g, order):
    """The graph on the nodes in ``order``, node order[i] becoming node i;
    ``order`` must hold every node that a kept node believes in."""
    new = {n: i for i, n in enumerate(order)}
    return validate_graph(
        g.agents,
        len(order),
        [g.labels[n] for n in order],
        [(new[n], new[m]) for n, m in g.edges() if n in new],
        {a: new[n] for a, n in enumerate(g.designated) if n != NO_NODE},
    )


def _reachable_part(g):
    """``g`` cut down to the nodes its designated nodes reach, as a graph
    document must be."""
    keep, frontier = set(), [n for n in g.designated if n != NO_NODE]
    while frontier:
        n = frontier.pop()
        if n not in keep:
            keep.add(n)
            frontier.extend(m for m in g.succ[n] if m != NO_NODE)
    return _renumbered(g, sorted(keep))


@st.composite
def graph_pairs(draw):
    """Two drawn graphs, or a drawn graph and a blow-up or a node
    permutation of it, so that equivalent pairs occur; in either order."""
    g = draw(graphs())
    kind = draw(st.sampled_from(["drawn", "blow-up", "permutation"]))
    if kind == "drawn":
        other = draw(graphs())
    elif kind == "blow-up":
        rng = random.Random(draw(st.integers(0, 2**32)))
        other = _reachable_part(blow_up(rng, g, draw(st.integers(2, 3)))[0])
    else:
        other = _renumbered(g, draw(st.permutations(list(g.nodes()))))
    return (g, other) if draw(st.booleans()) else (other, g)


def _equiv_cli(ga, gb):
    """Exit code, stdout and stderr of ``rbr equiv`` on the two graphs'
    documents."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        paths = [os.path.join(tmp, name) for name in ("a.rbr", "b.rbr")]
        for path, g in zip(paths, (ga, gb)):
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(serialize_rbr(g))
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["equiv", *paths])
    return code, out.getvalue(), err.getvalue()


@given(graph_pairs())
@settings(max_examples=150, deadline=None)
def test_every_two_graph_verdict_reads_the_equivalence_report(pair):
    ga, gb = pair
    report = equivalence_report(ga, gb)
    if report is None:
        assert ga.designation_domain() != gb.designation_domain()
        lines = ["not equivalent: designation domains differ"]
    else:
        assert list(report) == sorted(ga.designation_domain())
        assert report == {
            a: nodes_doxastically_equivalent(ga, ga.designated[a], gb, gb.designated[a])
            for a in ga.designation_domain()
        }
        lines = [f"agent {ga.agents[a]}: hierarchies {'same' if same else 'differ'}"
                 for a, same in report.items()]
    verdict = report is not None and all(report.values())
    assert graphs_equivalent(ga, gb) == verdict
    if report is not None:
        lines.append("equivalent" if verdict else "not equivalent")
    assert _equiv_cli(ga, gb) == (0 if verdict else 1, "\n".join(lines) + "\n", "")


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


def test_check_local_isomorphism_checks_each_clause(b3):
    # Two undesignated nodes without successors: only the label clause
    # rejects the swap.
    loose = validate_graph(("a", "b"), 2, [0, 1], [], {}, require_reachable=False)
    assert check_local_isomorphism(loose, loose, (0, 1))
    assert not check_local_isomorphism(loose, loose, (1, 0))
    # b3 maps onto itself by the identity, but not once a designation
    # or a belief edge is dropped on either side.
    assert check_local_isomorphism(b3, b3, (0, 1, 2))
    a_node = b3.designated[0]
    undesignated = dataclasses.replace(b3, designated=(NO_NODE, *b3.designated[1:]))
    assert not check_local_isomorphism(b3, undesignated, (0, 1, 2))
    assert not check_local_isomorphism(undesignated, b3, (0, 1, 2))
    row = b3.succ[a_node]
    a = next(x for x, m in enumerate(row) if m != NO_NODE)
    cut = list(b3.succ)
    cut[a_node] = (*row[:a], NO_NODE, *row[a + 1 :])
    unbelieving = dataclasses.replace(b3, succ=tuple(cut))
    assert not check_local_isomorphism(b3, unbelieving, (0, 1, 2))
    assert not check_local_isomorphism(unbelieving, b3, (0, 1, 2))


def _local_isomorphism_by_definition(ga, gb, alpha):
    """The definition, clause by clause, on edge lists: ``alpha`` is onto
    ``gb``'s nodes and keeps labels; per agent x, it maps the x-labelled
    successors of every node onto the x-labelled successors of the
    node's image; and it maps each agent's designated node onto that
    agent's designated node in ``gb``, with the same agents designated."""
    if set(alpha) != set(gb.nodes()):
        return False
    if any(ga.labels[n] != gb.labels[alpha[n]] for n in ga.nodes()):
        return False
    succ_a, succ_b = defaultdict(set), defaultdict(set)
    for n, m in ga.edges():
        succ_a[n, ga.labels[m]].add(alpha[m])
    for n, m in gb.edges():
        succ_b[n, gb.labels[m]].add(m)
    if any(succ_a[n, x] != succ_b[alpha[n], x]
           for n in ga.nodes() for x in range(ga.num_agents)):
        return False
    if ga.designation_domain() != gb.designation_domain():
        return False
    return all(alpha[ga.designated[x]] == gb.designated[x] for x in ga.designation_domain())


@st.composite
def local_isomorphism_cases(draw):
    """A drawn graph or a blow-up of one, its minimal form and its block
    map, the map or the minimal form perturbed in one of five ways."""
    g = draw(graphs(max_nodes=8))
    if draw(st.booleans()):
        g, _ = blow_up(random.Random(draw(st.integers(0, 2**32))), g, draw(st.integers(2, 3)))
    report = minimise(g)
    out, alpha = report.output, list(report.block_map)
    kind = draw(st.sampled_from(
        ["block map", "swap", "same label", "other label", "extra node", "designation"]))
    if kind == "swap":
        # Two nodes of one label trade images: labels and surjectivity
        # survive, so successors and designations decide.
        pairs = [(n, m) for n in g.nodes() for m in range(n)
                 if g.labels[n] == g.labels[m] and alpha[n] != alpha[m]]
        if pairs:
            n, m = draw(st.sampled_from(pairs))
            alpha[n], alpha[m] = alpha[m], alpha[n]
    elif kind == "same label":
        n = draw(st.sampled_from(list(g.nodes())))
        alpha[n] = draw(st.sampled_from([k for k in out.nodes() if out.labels[k] == g.labels[n]]))
    elif kind == "other label":
        # Only a node whose image shares its row, such as two nodes
        # without successors, keeps the other clauses.
        pairs = [(n, k) for n in g.nodes() for k in out.nodes() if out.labels[k] != g.labels[n]]
        if pairs:
            n, k = draw(st.sampled_from(pairs))
            alpha[n] = k
    elif kind == "extra node":
        x = draw(st.integers(0, g.num_agents - 1))
        out = dataclasses.replace(out, labels=(*out.labels, x), node_names=(),
                                  succ=(*out.succ, (NO_NODE,) * g.num_agents))
    elif kind == "designation":
        x = draw(st.integers(0, g.num_agents - 1))
        k = draw(st.sampled_from([NO_NODE] + [v for v in out.nodes() if out.labels[v] == x]))
        designated = list(out.designated)
        designated[x] = k
        out = dataclasses.replace(out, designated=tuple(designated))
    return g, out, tuple(alpha), kind


@given(local_isomorphism_cases())
@settings(max_examples=300, deadline=None)
def test_check_local_isomorphism_matches_the_definition(case):
    g, out, alpha, kind = case
    verdict = check_local_isomorphism(g, out, alpha)
    assert verdict == _local_isomorphism_by_definition(g, out, alpha)
    if kind == "block map":
        assert verdict


def test_check_local_isomorphism_wants_total_map(b3):
    for alpha in [(0, 1), (0, 1.0, 2), (0, "1", 2), (0, None, 2), (0, 3, 2), (0, -1, 2),
                  iter([0, 1, 2])]:
        with pytest.raises(PartialMapping):
            check_local_isomorphism(b3, b3, alpha)


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
    """From round 1's partition, the gathered round 2 leaves the state of
    a worklist round keying every node, up to the naming of blocks: the
    same partition, member sets and moved nodes, ties between equal parts
    broken alike, and the ``NO_NODE`` sentinel."""
    q = refine_once(g, initial_partition(g))
    r = refine_once(g, q)
    block = [*q.block_of, NO_NODE]
    members = list(map(set, q.blocks()))
    moved = rbr.partition._split_round(g.succ, block, members, g.nodes())
    start_block, start_members, start_moved = rbr.partition._worklist_start(q, r)
    assert start_block[-1] == block[-1] == NO_NODE
    assert rbr.partition._normalise(start_block[:-1]) == rbr.partition._normalise(block[:-1])
    for ids, sets in ((start_block, start_members), (block, members)):
        assert [set(part) for part in Partition(tuple(ids[:-1]), len(sets)).blocks()] == sets
    assert sorted(map(sorted, start_members)) == sorted(map(sorted, members))
    assert sorted(start_moved) == sorted(moved)


def _fibonacci_word(n):
    a, b = [0], [0, 1]
    while len(b) < n:
        a, b = b, b + a
    return b[:n]


def test_cyclic_fibonacci_word_is_its_own_minimal_form():
    w = _fibonacci_word(1024)
    g = cyclic_word(w)
    report = minimise(g)
    assert report.output.num_nodes == 1024
    assert report.block_map == tuple(range(1024))
    # Its cube folds back onto it.
    cube = cyclic_word(w * 3)
    folded = minimise(cube).output
    assert folded.num_nodes == 1024
    assert graphs_equivalent(cube, g) and graphs_equivalent(folded, g)
    assert find_isomorphism(folded, g) is not None
    # Every node tells itself apart, so moving the designation to another
    # node with the same label changes the graph.
    same = [k for k in g.nodes() if k and g.labels[k] == g.labels[0]]
    for k in (same[0], same[len(same) // 2], same[-1]):
        assert not graphs_equivalent(cyclic_word(w, k), g)


@st.composite
def cyclic_words(draw):
    pairs = draw(st.lists(st.integers(0, 3), min_size=1, max_size=150))
    return cyclic_word([bit for pair in pairs for bit in divmod(pair, 2)])


@given(st.one_of(refinement_inputs(), cyclic_words()))
@settings(max_examples=200, deadline=None)
def test_no_node_changes_block_id_more_than_log_n_times(g):
    """A node that changes block id in a worklist round leaves the
    largest part of its block, so its new block is at most half the old
    one.  Counted over round 2 (``_worklist_start``) and every
    ``_split_round``, a node in a block of s nodes after round 1 moves at
    most floor(log2 s) times, and so at most floor(log2 n) times."""
    moves = Counter()
    start, split = rbr.partition._worklist_start, rbr.partition._split_round

    def counted_start(*args):
        state = start(*args)
        moves.update(state[2])
        return state

    def counted_split(*args):
        moved = split(*args)
        moves.update(moved)
        return moved

    with mock.patch.object(rbr.partition, "_worklist_start", counted_start), \
            mock.patch.object(rbr.partition, "_split_round", counted_split):
        p = finest_partition(g)
    assert p == iterated_refinement(g)[0]
    q = refine_once(g, initial_partition(g))
    sizes = Counter(q.block_of)
    for v, count in moves.items():
        assert count <= sizes[q.block_of[v]].bit_length() - 1


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
        return graphs_equivalent(ga, gb), equivalence_report(ga, gb), [
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
