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

# The one work budget, in cells (payoff-table cells, opponent profiles or
# belief-sequence labels); read by check_cells at each check.
DEFAULT_CELL_CAP = 10**6


def check_cells(what: str, *factors: int) -> None:
    """Raise SizeCap when ``what``, the product of ``factors`` cells, is
    over ``DEFAULT_CELL_CAP``.  The product is built one factor at a time
    and stops past the cap (a zero factor makes it 0 wherever it stands),
    and the message formats no number past the cap."""
    cap, cells = DEFAULT_CELL_CAP, 0 if 0 in factors else 1
    for factor in factors:
        cells *= factor
        if cells > cap:
            raise SizeCap(f"{what} is over the cap of {cap} cells")


def stray_id(ids: Sequence, bound: int) -> tuple[int, object] | None:
    """The first ``(position, id)`` in ``ids`` that is not an id below
    ``bound``, or None when every one is.

    An id is an ``int`` (a ``bool`` counts) in 0..bound-1; this is the
    one test of it for nodes, agents and blocks.  When no id strays, as
    on valid input, the answer comes from passes in C: one ``isinstance``
    pass, then the least and greatest of the distinct ids.  The set alone
    would let 1.0 (== 1) through.  Only a stray is looked for in Python.
    """
    if all(map(isinstance, ids, repeat(int))):
        distinct = set(ids)
        if not distinct or 0 <= min(distinct) and max(distinct) < bound:
            return None
    return next((i, x) for i, x in enumerate(ids)
                if not (isinstance(x, int) and 0 <= x < bound))


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
        if stray_id((n,), len(self.labels)) is not None:
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
    try:
        unique = len(set(agents)) == len(agents)
    except TypeError:
        raise GraphValidationError(f"agents {agents!r} are not a sequence of names") from None
    if not unique or any(not a for a in agents):
        raise EmptyAgentUniverse("agent display names must be unique and non-empty")
    num_agents = len(agents)
    if not isinstance(num_nodes, int):
        raise GraphValidationError(f"node count {num_nodes!r} is not an int")
    try:
        count = len(labels)
    except TypeError:
        raise GraphValidationError(f"labels {labels!r} have no length") from None
    if count != num_nodes:
        raise GraphValidationError(f"{count} labels for {num_nodes} nodes")
    if node_names:
        try:
            named = len(node_names)
        except TypeError:
            raise GraphValidationError(f"node names {node_names!r} have no length") from None
        if named != num_nodes:
            raise GraphValidationError(f"{named} node names for {num_nodes} nodes")
    stray = stray_id(labels, num_agents)
    if stray is not None:
        n, a = stray
        raise GraphValidationError(f"node {n} has unknown agent label {a!r}")

    # One flat row-major table, cut into row tuples once every edge is
    # in, so that no list per node is built.
    flat = [NO_NODE] * (num_nodes * num_agents)
    try:
        edges = iter(edges)
    except TypeError:
        raise GraphValidationError(f"edges {edges!r} are not an iterable") from None
    edge = (0, 0)  # an error before the first edge passes through
    try:
        for edge in edges:
            n, m = edge
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
    except (TypeError, ValueError):
        # A non-pair fails to unpack, a non-int id to index; others pass.
        try:
            n, m = edge
        except (TypeError, ValueError):
            raise GraphValidationError(f"edge {edge!r} is not a pair of node ids") from None
        if isinstance(n, int) and isinstance(m, int):
            raise
        raise DanglingEdge((n, m)) from None
    succ = tuple(zip(*[iter(flat)] * num_agents))

    if not isinstance(designation, Mapping):
        raise GraphValidationError(f"designation {designation!r} is not a mapping")
    designated = [NO_NODE] * num_agents
    for a, n in designation.items():
        if stray_id((a,), num_agents) is not None:
            raise GraphValidationError(f"designation names unknown agent {a!r}")
        if stray_id((n,), num_nodes) is not None:
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
        if not all(seen):
            raise UnreachableNode(seen.index(False))

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
    sequences of one level are distinct without deduplication.  The
    budget counts labels, summed over the levels so far (:func:`check_cells`).
    """
    labels, succ = g.labels, g.succ
    what = f"the belief walk from node {n}"
    cells, depth, level = 0, 1, [((labels[n],), n)]
    while level:
        cells += depth * len(level)
        check_cells(what, cells)
        yield level
        depth += 1
        paths = (
            (seq + (labels[m],), m) for seq, last in level for m in succ[last] if m != NO_NODE
        )
        level = list(islice(paths, (DEFAULT_CELL_CAP - cells) // depth + 1))


def path_sequences(g: RbrGraph, n: int, i: int) -> frozenset[tuple[int, ...]]:
    """Label sequences of all length-``i`` paths starting at node ``n``,
    under the budget of :func:`_levels` (the labels of levels 1..i)."""
    g.check_node(n)
    if i < 1:
        raise ZeroLength(f"path length must be positive, got {i}")
    for depth, level in zip(range(1, i + 1), _levels(g, n)):
        if depth == i:
            return frozenset(seq for seq, _ in level)
    return frozenset()


def belief_hierarchy_bounded(g: RbrGraph, n: int, j: int) -> frozenset[tuple[int, ...]]:
    """All belief sequences of length at most ``j`` starting at node
    ``n``, from one walk of :func:`_levels` under its budget."""
    g.check_node(n)
    out: list[tuple[tuple[int, ...], int]] = []
    for _, level in zip(range(j), _levels(g, n)):
        out += level
    return frozenset(seq for seq, _ in out)
