"""Rationality-and-beliefs-in-rationality (RBR) graphs.

An RBR graph is a finite labelled digraph: each node is labelled with an
agent, edges mean "believes rational", and a partial designation picks the
node standing for each real (rational) agent.  Undesignated nodes are
doxastic agents that exist only inside someone's belief.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import islice, repeat
from operator import itemgetter
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import (
    DanglingEdge,
    DesignationMismatch,
    DuplicateSuccessor,
    EmptyAgentUniverse,
    GraphValidationError,
    SelfBelief,
    SizeCap,
    UnknownNode,
    UnreachableNode,
    ZeroLength,
)

NO_NODE = -1

# Bound on the sequences one level of a node's paths holds, and on the
# sequences of one bounded hierarchy; read at each check.
DEFAULT_SEQUENCE_CAP = 10**6


@dataclass(frozen=True)
class RbrGraph:
    """Validated, immutable RBR graph.

    Agents and nodes are dense integer ids.  Edges are stored per node as a
    successor array indexed by agent label: ``succ[n][a]`` is the unique
    a-labelled successor of node ``n``, or ``NO_NODE``.  ``designated[a]``
    is the real node of agent ``a``, or ``NO_NODE`` for irrational agents.

    Construct through :func:`validate_graph`; the raw constructor performs
    no checking.
    """

    agents: tuple[str, ...]
    labels: tuple[int, ...]
    succ: tuple[tuple[int, ...], ...]
    designated: tuple[int, ...]
    node_names: tuple[str, ...] = field(default=())

    def __post_init__(self):
        if not self.node_names:
            object.__setattr__(
                self, "node_names", tuple(f"n{i}" for i in range(len(self.labels)))
            )

    @property
    def num_agents(self) -> int:
        return len(self.agents)

    @property
    def num_nodes(self) -> int:
        return len(self.labels)

    def nodes(self) -> range:
        return range(len(self.labels))

    def edges(self) -> Iterator[tuple[int, int]]:
        for n, row in enumerate(self.succ):
            for m in row:
                if m != NO_NODE:
                    yield n, m

    def designation_domain(self) -> frozenset[int]:
        return frozenset(a for a, n in enumerate(self.designated) if n != NO_NODE)

    def is_designated(self, n: int) -> bool:
        return self.designated[self.labels[n]] == n

    def check_node(self, n: int) -> None:
        if not (isinstance(n, int) and 0 <= n < len(self.labels)):
            raise UnknownNode(n)

    @cached_property
    def predecessors(self) -> tuple[tuple[int, ...], ...]:
        """Per node ``m``, the nodes that have ``m`` as a successor, in
        ascending order.

        The reverse of ``succ``, for passes that revisit only the nodes
        whose successors changed.  Built on first use and kept with the
        graph, so such passes share one copy.
        """
        out: list[list[int]] = [[] for _ in self.labels]
        for n, m in self.edges():
            out[m].append(n)
        return tuple(map(tuple, out))

    @cached_property
    def gathers(self) -> tuple[itemgetter, ...]:
        """Per agent ``a``, a getter that reads, from a sequence indexed
        by node, the value at every node's a-successor, in node order.

        Each getter ends with a ``NO_NODE`` index, so it has at least two
        indices and returns a tuple even on a one-node graph; the extra
        last element reads the sequence's last item.  Built on first use
        and kept with the graph, so every full keying pass shares them.
        A graph without nodes has none.
        """
        return tuple(itemgetter(*column, NO_NODE) for column in zip(*self.succ))


def validate_graph(
    agents: Sequence[str],
    num_nodes: int,
    labels: Sequence[int],
    edges: Iterable[tuple[int, int]],
    designation: Mapping[int, int],
    node_names: Sequence[str] | None = None,
    *,
    require_reachable: bool = True,
) -> RbrGraph:
    """Check raw graph components and build the successor representation.

    ``edges`` are ordered node pairs; ``designation`` maps agent id to node
    id.  Raises a :class:`~rbr.errors.GraphValidationError` subclass on the
    first violation found.
    """
    if not agents:
        raise EmptyAgentUniverse("agent universe is empty")
    if len(set(agents)) != len(agents) or any(not a for a in agents):
        raise EmptyAgentUniverse("agent display names must be unique and non-empty")
    num_agents = len(agents)
    if not isinstance(num_nodes, int):
        raise GraphValidationError(f"node count {num_nodes!r} is not an int")
    if len(labels) != num_nodes:
        raise GraphValidationError(f"{len(labels)} labels for {num_nodes} nodes")
    if node_names and len(node_names) != num_nodes:
        raise GraphValidationError(
            f"{len(node_names)} node names for {num_nodes} nodes"
        )
    # Two passes in C; the set test alone would let 1.0 (== 1) through.
    if not (
        all(map(isinstance, labels, repeat(int)))
        and set(labels) <= set(range(num_agents))
    ):
        for n, a in enumerate(labels):
            if not (isinstance(a, int) and 0 <= a < num_agents):
                raise GraphValidationError(f"node {n} has unknown agent label {a!r}")

    # One flat row-major table, cut into row tuples once every edge is
    # in, so that no list per node is built.
    flat = [NO_NODE] * (num_nodes * num_agents)
    n = m = 0
    try:
        for n, m in edges:
            if not (0 <= n < num_nodes and 0 <= m < num_nodes):
                raise DanglingEdge((n, m))
            a = labels[m]
            if labels[n] == a:
                raise SelfBelief(n)
            i = n * num_agents + a
            old = flat[i]
            if old != NO_NODE and old != m:
                raise DuplicateSuccessor(n, a)
            flat[i] = m
    except TypeError:
        # An id that is not an int cannot index the labels; any other
        # TypeError, such as an edge that is not a pair, passes through.
        if isinstance(n, int) and isinstance(m, int):
            raise
        raise DanglingEdge((n, m)) from None
    succ = tuple(zip(*[iter(flat)] * num_agents))

    designated = [NO_NODE] * num_agents
    for a, n in designation.items():
        if not (isinstance(a, int) and 0 <= a < num_agents):
            raise GraphValidationError(f"designation names unknown agent {a!r}")
        if not (isinstance(n, int) and 0 <= n < num_nodes):
            raise GraphValidationError(f"agent {a} designates unknown node {n!r}")
        if labels[n] != a:
            raise DesignationMismatch(a, n)
        designated[a] = n

    if require_reachable:
        seen = [False] * num_nodes
        stack = [n for n in designated if n != NO_NODE]
        for n in stack:
            seen[n] = True
        while stack:
            n = stack.pop()
            for m in succ[n]:
                if m != NO_NODE and not seen[m]:
                    seen[m] = True
                    stack.append(m)
        for n, ok in enumerate(seen):
            if not ok:
                raise UnreachableNode(n)

    names = tuple(node_names) if node_names else ()
    return RbrGraph(
        agents=tuple(agents),
        labels=tuple(labels),
        succ=succ,
        designated=tuple(designated),
        node_names=names,
    )


def successor_keys(
    g: RbrGraph,
    head: Sequence,
    values: Sequence,
    fills: Sequence,
    nodes: Sequence[int] | None = None,
) -> Iterator[tuple]:
    """Per node ``n``, the key ``(head[n], v_0, ..., v_{k-1})``, where
    ``v_a`` is ``values[g.succ[n][a]]``, or ``fills[a]`` when ``n`` has no
    a-successor.  ``fills`` must be hashable.  With ``nodes``, only those
    nodes are keyed, in that order.

    Refinement keys nodes by block and solving by scene entry, both with
    this one builder.  Each agent column of ``g.succ`` is read by one
    ``itemgetter`` call, so the per-node work runs in C: the column
    getter indexes ``values`` with ``fills[a]`` appended, which
    ``NO_NODE`` (-1) reads.  A full pass uses the graph's cached
    :attr:`RbrGraph.gathers`; a ``nodes`` subset picks its rows with one
    getter and builds one getter per column of them.  Agents with equal
    fills share one appended copy of ``values``; a copy per agent made a
    10-agent refinement pass measurably slower.

    The columns are read up front, but the keys come lazily, one at a
    time, so a caller that drops each key once it has looked it up keeps
    no tuple per node alive.
    """
    if nodes is None:
        gathers = g.gathers
    elif not nodes:
        return iter(())
    else:
        # The trailing NO_NODE index makes every getter return a tuple;
        # the head is cut to the subset, so zip drops the extra key.
        pick = itemgetter(*nodes, NO_NODE)
        head = pick(head)[:-1]
        gathers = [itemgetter(*column) for column in zip(*pick(g.succ))]
    padded = {fill: (*values, fill) for fill in set(fills)}
    columns = [gather(padded[fill]) for gather, fill in zip(gathers, fills)]
    return zip(head, *columns)


def relabel(image: Sequence, ids: Iterable[int], width: int = 0) -> tuple:
    """``image[i]`` for every id ``i`` in ``ids``, with ``NO_NODE`` kept;
    with ``width``, cut into rows of that many ids.

    One ``itemgetter`` call gathers in C from the image with ``NO_NODE``
    appended, which ``NO_NODE`` (-1) reads.  Its two trailing ``NO_NODE``
    indices make it return a tuple even for no id or one, and are cut off.
    """
    flat = itemgetter(*ids, NO_NODE, NO_NODE)((*image, NO_NODE))[:-2]
    return tuple(zip(*[iter(flat)] * width)) if width else flat


def adjacency(g: RbrGraph, n: int) -> frozenset[int]:
    """Successor nodes of ``n`` (one per believed-rational agent)."""
    g.check_node(n)
    return frozenset(m for m in g.succ[n] if m != NO_NODE)


def believed_rational(g: RbrGraph, n: int) -> frozenset[int]:
    """Agents that the agent at node ``n`` believes to be rational."""
    g.check_node(n)
    return frozenset(a for a, m in enumerate(g.succ[n]) if m != NO_NODE)


def _levels(g: RbrGraph, n: int) -> Iterator[list[tuple[tuple[int, ...], int]]]:
    """The length-i paths from node ``n``, as (label sequence, last node)
    pairs, for i = 1, 2, ... in turn; stops before the first empty level,
    as all later ones are.

    A node has at most one successor per agent, and that successor
    carries the agent's label, so a label sequence fixes its path and the
    sequences of one level are distinct without deduplication.  Raises
    :class:`SizeCap` when one level holds more than
    ``DEFAULT_SEQUENCE_CAP`` sequences.
    """
    cap = DEFAULT_SEQUENCE_CAP
    labels, succ = g.labels, g.succ
    level = [((labels[n],), n)]
    while level:
        yield level
        paths = (
            (seq + (labels[m],), m) for seq, last in level for m in succ[last] if m != NO_NODE
        )
        level = list(islice(paths, cap + 1))
        if len(level) > cap:
            raise SizeCap(f"more than {cap} sequences at one level")


def path_sequences(g: RbrGraph, n: int, i: int) -> frozenset[tuple[int, ...]]:
    """Label sequences of all length-``i`` paths starting at node ``n``,
    under the per-level budget of :func:`_levels`."""
    g.check_node(n)
    if i < 1:
        raise ZeroLength(f"path length must be positive, got {i}")
    for depth, level in zip(range(1, i + 1), _levels(g, n)):
        if depth == i:
            return frozenset(seq for seq, _ in level)
    return frozenset()


def belief_hierarchy_bounded(g: RbrGraph, n: int, j: int) -> frozenset[tuple[int, ...]]:
    """All belief sequences of length at most ``j`` starting at node
    ``n``, from one walk of :func:`_levels`; SizeCap when they number
    more than ``DEFAULT_SEQUENCE_CAP``."""
    g.check_node(n)
    out: list[tuple[tuple[int, ...], int]] = []
    for _, level in zip(range(j), _levels(g, n)):
        out += level
        if len(out) > DEFAULT_SEQUENCE_CAP:
            raise SizeCap(
                f"more than {DEFAULT_SEQUENCE_CAP} sequences in the bounded hierarchy"
            )
    return frozenset(seq for seq, _ in out)
