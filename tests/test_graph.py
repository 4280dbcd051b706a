import pytest

from rbr import (
    adjacency,
    belief_hierarchy_bounded,
    believed_rational,
    nodes_doxastically_equivalent,
    path_sequences,
    validate_graph,
)
from rbr.errors import (
    DanglingEdge,
    DesignationMismatch,
    DuplicateSuccessor,
    GraphValidationError,
    SelfBelief,
    SizeCap,
    UnknownNode,
    UnreachableNode,
    ZeroLength,
)
import rbr.graph
from rbr.graph import _levels, successor_keys
from .conftest import ABC, chain


def test_minimal_legal_graph():
    g = validate_graph(("a",), 1, [0], [], {0: 0})
    assert g.num_nodes == 1
    assert adjacency(g, 0) == frozenset()
    assert believed_rational(g, 0) == frozenset()


def test_rejects_same_label_edge():
    with pytest.raises(SelfBelief):
        validate_graph(ABC, 2, [0, 0], [(0, 1)], {0: 0})


def test_rejects_two_successors_with_same_label():
    with pytest.raises(DuplicateSuccessor):
        validate_graph(ABC, 3, [0, 1, 1], [(0, 1), (0, 2)], {0: 0})


def test_rejects_designation_label_mismatch():
    with pytest.raises(DesignationMismatch):
        validate_graph(ABC, 2, [0, 1], [(0, 1)], {0: 1})


def test_rejects_unreachable_node(b1):
    with pytest.raises(UnreachableNode):
        validate_graph(
            ABC, 4, list(b1.labels) + [0], list(b1.edges()), {0: 0, 1: 1, 2: 2}
        )


def test_rejects_label_array_of_the_wrong_length():
    with pytest.raises(GraphValidationError, match="^1 labels for 2 nodes$") as exc:
        validate_graph(("a", "b"), 2, [0], [], {0: 0})
    assert exc.type is GraphValidationError


def test_rejects_node_names_of_the_wrong_length():
    with pytest.raises(GraphValidationError, match="^1 node names for 2 nodes$"):
        validate_graph(("a", "b"), 2, [0, 1], [(0, 1)], {0: 0}, node_names=["x"])


def test_rejects_a_label_outside_the_agent_range():
    with pytest.raises(GraphValidationError, match="^node 0 has unknown agent label 5$") as exc:
        validate_graph(("a",), 1, [5], [], {})
    assert exc.type is GraphValidationError


def test_rejects_a_designation_by_an_unknown_agent():
    with pytest.raises(GraphValidationError, match="^designation names unknown agent 7$") as exc:
        validate_graph(("a", "b"), 2, [0, 1], [(0, 1)], {7: 0})
    assert exc.type is GraphValidationError


def test_rejects_a_designation_of_an_unknown_node():
    with pytest.raises(GraphValidationError, match="^agent 0 designates unknown node 9$") as exc:
        validate_graph(("a", "b"), 2, [0, 1], [(0, 1)], {0: 9})
    assert exc.type is GraphValidationError


class _LabelsWithoutLength:
    """Labels that iterate as an iterator does and, like one, have no
    length; the repr keeps the test id fixed."""

    def __iter__(self):
        return iter((0, 1))

    def __repr__(self):
        return "<labels without a length>"


@pytest.mark.parametrize("args, kind, message", [
    ((("a", "b"), 2, [0, 1], [(0, 1)], {0: 0.5}), GraphValidationError,
     "agent 0 designates unknown node 0.5"),
    ((("a", "b"), 2, [0, 1], [(0, 1.0)], {0: 0}), DanglingEdge,
     "edge (0, 1.0) mentions an unknown node"),
    ((("a", "b"), 2, [0, 1], [(0.0, 1)], {0: 0}), DanglingEdge,
     "edge (0.0, 1) mentions an unknown node"),
    ((("a", "b"), 2, [0, 1], [("0", 1)], {0: 0}), DanglingEdge,
     "edge ('0', 1) mentions an unknown node"),
    ((("a",), 1.0, [0], [], {0: 0}), GraphValidationError,
     "node count 1.0 is not an int"),
    ((("a", "b"), 2, [0, 1], [(0, 1)], {0.0: 0}), GraphValidationError,
     "designation names unknown agent 0.0"),
    ((("a", "b"), 2, [0, 1], [(0, 1)], {"0": 0}), GraphValidationError,
     "designation names unknown agent '0'"),
    ((("a", "b"), 2, [0, 0.5], [], {0: 0}), GraphValidationError,
     "node 1 has unknown agent label 0.5"),
    ((("a", "b"), 2, [0, 1.0], [], {0: 0}), GraphValidationError,
     "node 1 has unknown agent label 1.0"),
    ((("a", "b"), 2, [0, 1], [(0, 1)], [0]), GraphValidationError,
     "designation [0] is not a mapping"),
    ((("a", "b"), 2, _LabelsWithoutLength(), [(0, 1)], {0: 0}), GraphValidationError,
     "labels <labels without a length> have no length"),
    ((5, 1, [0], [], {}), GraphValidationError, "agents 5 are not a sequence of names"),
    ((("a",), 1, [0], [], {0: 0}, 5), GraphValidationError, "node names 5 have no length"),
])
def test_rejects_ids_that_are_not_ints(args, kind, message):
    with pytest.raises(GraphValidationError) as exc:
        validate_graph(*args, require_reachable=False)
    assert exc.type is kind
    assert str(exc.value) == message


@pytest.mark.parametrize("edge", [[5], 5, (0, 1, 2), (0,), (), iter((0, 1, 0))],
                         ids=["list of one", "int", "triple", "single", "empty", "iterator"])
def test_rejects_an_edge_that_is_not_a_pair(edge):
    with pytest.raises(GraphValidationError) as exc:
        validate_graph(("a", "b"), 2, [0, 1], [(1, 0), edge], {0: 0})
    assert exc.type is GraphValidationError
    assert str(exc.value) == f"edge {edge!r} is not a pair of node ids"


@pytest.mark.parametrize("edges", [5, None, 1.5], ids=["int", "None", "float"])
def test_rejects_edges_that_are_not_an_iterable(edges):
    with pytest.raises(GraphValidationError) as exc:
        validate_graph(("a", "b"), 2, [0, 1], edges, {0: 0})
    assert exc.type is GraphValidationError
    assert str(exc.value) == f"edges {edges!r} are not an iterable"


def test_an_error_from_reading_the_edges_passes_through():
    def edges():
        yield (0, 1)
        raise TypeError("from the edge source")

    with pytest.raises(TypeError, match="^from the edge source$"):
        validate_graph(("a", "b"), 2, [0, 1], edges(), {0: 0}, require_reachable=False)


def test_accepts_the_ints_that_name_a_node():
    # bool is an int, as RbrGraph.check_node has it.
    ints = validate_graph(("a", "b"), 2, [0, 1], [(0, 1), (1, 0)], {0: 0, 1: 1})
    bools = validate_graph(("a", "b"), True + True, [False, True],
                           [(False, True), (True, False)], {False: False, True: True})
    assert bools == ints


def test_successor_keys_keep_the_head_and_fill_missing_successors():
    # succ: 0 -> (-, 1, -), 1 -> (0, -, -), 2 -> (0, 1, -)
    g = validate_graph(ABC, 3, [0, 1, 2], [(0, 1), (1, 0), (2, 0), (2, 1)],
                       {0: 0, 2: 2})
    assert list(successor_keys(g, "xyz", "PQR", "uvw")) == [
        ("x", "u", "Q", "w"),
        ("y", "P", "v", "w"),
        ("z", "P", "Q", "w"),
    ]
    empty = validate_graph(ABC, 0, [], [], {})
    assert list(successor_keys(empty, (), (), "uvw")) == []


def test_adjacency(b1, b3):
    assert adjacency(b1, 0) == {1, 2}
    assert adjacency(b3, 2) == {0, 1}
    with pytest.raises(UnknownNode):
        adjacency(b1, 7)


@pytest.mark.parametrize("bad", [0.5, 1.0, None, "0", -1, 3])
def test_only_a_node_id_of_the_graph_is_a_node(b1, bad):
    # b1 has nodes 0, 1 and 2; 0.5 lies between them, and 1.0 equals one
    # but cannot index the graph's tuples.
    for call in (
        lambda: path_sequences(b1, bad, 1),
        lambda: belief_hierarchy_bounded(b1, bad, 1),
        lambda: adjacency(b1, bad),
        lambda: believed_rational(b1, bad),
        lambda: nodes_doxastically_equivalent(b1, bad, b1, 0),
        lambda: nodes_doxastically_equivalent(b1, 0, b1, bad),
    ):
        with pytest.raises(UnknownNode):
            call()


def test_believed_rational(b1, b2):
    assert believed_rational(b1, 0) == {1, 2}
    assert believed_rational(b2, 0) == {1}


def test_path_sequences_base_and_step(b1):
    assert path_sequences(b1, 0, 1) == {(0,)}
    assert path_sequences(b1, 0, 2) == {(0, 1), (0, 2)}
    with pytest.raises(ZeroLength):
        path_sequences(b1, 0, 0)


def test_path_sequences_no_self_alternation(b3):
    # nc's length-3 paths cannot return to c because na/nb have no c-edge.
    assert path_sequences(b3, 2, 3) == {(2, 0, 1), (2, 1, 0)}


def test_hierarchy_bounded(b1, b3, b4):
    assert belief_hierarchy_bounded(b1, 0, 0) == frozenset()
    assert belief_hierarchy_bounded(b1, 0, 2) == {(0,), (0, 1), (0, 2)}
    # The doxastic copies in b4 believe c rational, so c's depth-3
    # hierarchy loops back to c there but not in b3.
    assert (2, 0, 2) in belief_hierarchy_bounded(b4, 2, 3)
    assert (2, 0, 2) not in belief_hierarchy_bounded(b3, 2, 3)


def test_sequence_shape_invariants(corpus):
    for g in corpus:
        for n in g.nodes():
            for i in (1, 2, 3):
                for seq in path_sequences(g, n, i):
                    assert len(seq) == i
                    assert seq[0] == g.labels[n]
                    assert all(x != y for x, y in zip(seq, seq[1:]))


def test_hierarchy_monotone_in_depth(corpus):
    for g in corpus:
        for n in g.nodes():
            prev = frozenset()
            for j in range(4):
                cur = belief_hierarchy_bounded(g, n, j)
                assert prev <= cur
                prev = cur


def test_hierarchy_is_the_union_of_the_path_levels(corpus):
    for g in corpus:
        for n in g.nodes():
            levels = [path_sequences(g, n, i) for i in range(1, 6)]
            for j in range(6):
                assert belief_hierarchy_bounded(g, n, j) == frozenset().union(
                    *levels[:j])


def test_level_walk_stops_once_no_path_is_that_long():
    one_node = validate_graph(("a", "b"), 1, [0], [], {0: 0})
    assert len(list(_levels(one_node, 0))) == 1
    assert len(list(_levels(chain(5), 0))) == 5
    # Without the stop these would walk ten million empty levels.
    assert path_sequences(one_node, 0, 10**7) == frozenset()
    assert belief_hierarchy_bounded(one_node, 0, 10**7) == {(0,)}


def test_hierarchy_walks_the_levels_once(monkeypatch):
    # On the mutual two-node graph every level holds one sequence;
    # recomputing levels 1..i for every depth i took seconds here.
    mutual = validate_graph(("a", "b"), 2, [0, 1], [(0, 1), (1, 0)], {0: 0, 1: 1})
    calls = []
    monkeypatch.setattr(
        rbr.graph, "_levels", lambda g, n: calls.append(g) or _levels(g, n)
    )
    h = belief_hierarchy_bounded(mutual, 0, 800)
    assert len(h) == 800 and (0, 1) * 400 in h
    assert len(calls) == 1


def test_sequence_level_size_cap(b1, monkeypatch):
    # b1's node 0 holds 1, 2 and 4 sequences at levels 1, 2 and 3.
    monkeypatch.setattr(rbr.graph, "DEFAULT_SEQUENCE_CAP", 4)
    assert len(path_sequences(b1, 0, 3)) == 4
    monkeypatch.setattr(rbr.graph, "DEFAULT_SEQUENCE_CAP", 7)
    assert len(belief_hierarchy_bounded(b1, 0, 3)) == 7
    monkeypatch.setattr(rbr.graph, "DEFAULT_SEQUENCE_CAP", 3)
    for walk in (path_sequences, belief_hierarchy_bounded):
        with pytest.raises(SizeCap, match="more than 3 sequences at one level"):
            walk(b1, 0, 3)


def test_level_cap_counts_only_the_nodes_own_paths(monkeypatch):
    # b1's triangle beside a separate a<->b pair (nodes 3, 4).  The
    # triangle holds 3 * 2**(i - 1) sequences at level i, past 100 at
    # level 7, and node 0 alone past 100 at level 8; node 3 holds one
    # per level.
    g = validate_graph(
        ABC, 5, [0, 1, 2, 0, 1],
        [(0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1), (3, 4), (4, 3)],
        {0: 3, 1: 4, 2: 2},
    )
    assert len(belief_hierarchy_bounded(g, 3, 25)) == 25
    monkeypatch.setattr(rbr.graph, "DEFAULT_SEQUENCE_CAP", 100)
    h = belief_hierarchy_bounded(g, 3, 10)
    assert len(h) == 10 and (0, 1) * 5 in h
    assert path_sequences(g, 3, 10) == {(0, 1) * 5}
    with pytest.raises(SizeCap, match="more than 100 sequences at one level"):
        path_sequences(g, 0, 10)


def test_non_integer_path_length_is_a_type_error():
    # A cyclic graph never runs out of levels, so only the int range
    # ends the walk.
    mutual = validate_graph(("a", "b"), 2, [0, 1], [(0, 1), (1, 0)], {0: 0, 1: 1})
    for bad in (2.5, float("inf"), float("nan")):
        with pytest.raises(TypeError):
            path_sequences(mutual, 0, bad)
        with pytest.raises(TypeError):
            belief_hierarchy_bounded(mutual, 0, bad)


def test_bounded_hierarchy_size_cap(b2, monkeypatch):
    # b2's node 0 holds one sequence per level, so only the hierarchy's
    # own count passes a cap of 2, at depth 3.
    monkeypatch.setattr(rbr.graph, "DEFAULT_SEQUENCE_CAP", 2)
    assert belief_hierarchy_bounded(b2, 0, 2) == {(0,), (0, 1)}
    with pytest.raises(SizeCap, match="more than 2 sequences in the bounded hierarchy"):
        belief_hierarchy_bounded(b2, 0, 3)
