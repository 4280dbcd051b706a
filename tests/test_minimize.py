import pytest

from rbr import (
    NO_NODE,
    check_local_isomorphism,
    find_isomorphism,
    finest_partition,
    graphs_equivalent,
    initial_partition,
    is_canonical,
    minimise,
    serialize_rbr,
    validate_graph,
)
from rbr.errors import NotFinest
from rbr.minimize import quotient
from rbr.partition import Partition, disjoint_union
from rbr.oracle import brute_force_hierarchy
from .conftest import ABC, chain, iterated_refinement


def test_quotient_of_b5(b3, b5):
    out = quotient(b5, finest_partition(b5))
    assert out.num_nodes == 3
    assert sorted(out.edges()) == [(0, 1), (1, 0), (2, 0), (2, 1)]
    assert out.designation_domain() == {0, 1, 2}
    assert graphs_equivalent(out, b3)


def test_quotient_requires_finest():
    # Chain graph whose two a-nodes the label partition fails to separate.
    g = validate_graph(ABC, 3, [0, 1, 0], [(0, 1), (1, 2)], {0: 0})
    with pytest.raises(NotFinest):
        quotient(g, initial_partition(g))


def test_quotient_requires_smallest_member_numbering(b3):
    # Stable, but block k must be the block whose smallest member is the
    # k-th smallest, as refine_once numbers them.
    with pytest.raises(NotFinest):
        quotient(b3, Partition(block_of=(1, 0, 2), block_count=3))


def test_quotient_identity_on_canonical(b3):
    out = quotient(b3, finest_partition(b3))
    assert find_isomorphism(out, b3) is not None
    assert out.labels == b3.labels


def test_minimise_b5(b3, b5):
    report = minimise(b5)
    assert report.output.num_nodes == 3
    assert graphs_equivalent(report.output, b3)
    assert find_isomorphism(report.output, b3) is not None
    assert check_local_isomorphism(b5, report.output, report.block_map)


def test_minimise_single_node():
    g = validate_graph(("a",), 1, [0], [], {0: 0})
    report = minimise(g)
    assert report.output.num_nodes == 1
    assert report.refinement_rounds == 0


def test_minimise_contract_on_corpus(corpus):
    for g in corpus:
        report = minimise(g)
        out = report.output
        assert graphs_equivalent(g, out)
        assert is_canonical(out)
        assert check_local_isomorphism(g, out, report.block_map)
        # Node count = number of distinct bounded hierarchies at depth |N|.
        hierarchies = {brute_force_hierarchy(g, n, g.num_nodes) for n in g.nodes()}
        assert out.num_nodes == len(hierarchies)
        # Idempotent up to isomorphism, deterministic byte-for-byte.
        again = minimise(out)
        assert find_isomorphism(again.output, out) is not None
        assert serialize_rbr(minimise(g).output) == serialize_rbr(out)


def test_minimise_reuses_the_finest_partition(corpus, monkeypatch):
    import rbr.minimize

    def stability_pass(g, p):
        raise AssertionError("minimise re-checked a partition it refined")

    monkeypatch.setattr(rbr.minimize, "refine_once", stability_pass)
    for g in corpus + [chain(60)]:
        report = minimise(g)
        assert report.block_map == finest_partition(g).block_of
        # The rounds are those of refine_once iterated to its fixpoint.
        _, counts = iterated_refinement(g)
        assert report.refinement_rounds == len(counts) - 1


def test_hierarchy_multiset_preserved(corpus):
    for g in corpus:
        out = minimise(g).output
        depth = g.num_nodes
        before = {brute_force_hierarchy(g, n, depth) for n in g.nodes()}
        after = {brute_force_hierarchy(out, n, depth) for n in out.nodes()}
        assert before == after


def test_minimise_of_a_graph_without_reachability(b1, b3, b5):
    # A disjoint union designates nothing; its quotient keeps that.
    union = disjoint_union(b1, b3)
    report = minimise(union)
    assert report.block_map == tuple(range(6))
    assert report.output.succ == union.succ
    assert report.output.designated == (NO_NODE,) * 3
    # b5's three a/b pairs and b3's one collapse to a single pair.
    assert minimise(disjoint_union(b5, b3)).block_map == (0, 1, 0, 1, 0, 1, 2, 0, 1, 2)
