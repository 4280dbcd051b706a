"""Partition refinement and doxastic equivalence.

Nodes start out grouped by label and are repeatedly split by the blocks
their successors fall into; the finest partition groups nodes exactly
when their full belief hierarchies coincide.  Cross-graph questions are
answered on a disjoint union of the two graphs.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from operator import ne
from typing import Collection, Iterable, Sequence

from .errors import (
    AgentUniverseMismatch,
    LabelMixingPartition,
    NotCanonical,
    PartialMapping,
)
from .graph import NO_NODE, RbrGraph, relabel, successor_keys
from .graph import validate_graph  # unused here; perfbench/tracing.py patches it


@dataclass(frozen=True)
class Partition:
    """Dense block assignment over a graph's nodes.

    Blocks are numbered 0..block_count-1 in order of their smallest
    member, so structurally equal partitions compare equal.
    """

    block_of: tuple[int, ...]
    block_count: int

    def blocks(self) -> list[list[int]]:
        out: list[list[int]] = [[] for _ in range(self.block_count)]
        for n, k in enumerate(self.block_of):
            out[k].append(n)
        return out

    def same_block(self, n: int, m: int) -> bool:
        return self.block_of[n] == self.block_of[m]


def _normalise(raw: Iterable) -> Partition:
    """Renumber arbitrary block keys densely by first occurrence."""
    seen: dict = {}
    block_of = tuple([seen.setdefault(key, len(seen)) for key in raw])
    return Partition(block_of=block_of, block_count=len(seen))


def initial_partition(g: RbrGraph) -> Partition:
    """Group nodes by label (depth-1 hierarchy equivalence)."""
    return _normalise(g.labels)


def _check_label_respecting(g: RbrGraph, p: Partition) -> None:
    """Reject a partition that does not cover ``g``'s nodes or numbers a
    block outside 0..block_count-1, or one whose blocks mix labels: every
    node against its block's first member."""
    if len(p.block_of) != g.num_nodes:
        raise PartialMapping(
            f"partition of {len(p.block_of)} nodes for a graph of {g.num_nodes}"
        )
    first = dict(zip(reversed(p.block_of), reversed(g.labels)))
    stray = first.keys() - range(p.block_count)
    if stray:
        n, k = next((n, k) for n, k in enumerate(p.block_of) if k in stray)
        raise PartialMapping(f"node {n} is in block {k}, outside 0..{p.block_count - 1}")
    mixed = list(map(ne, map(first.__getitem__, p.block_of), g.labels))
    if True in mixed:
        k = p.block_of[mixed.index(True)]
        raise LabelMixingPartition(f"block {k} mixes labels")


def refine_once(g: RbrGraph, p: Partition) -> Partition:
    """Split blocks of ``p`` by successor blocks.

    Each node's key (:func:`~rbr.graph.successor_keys`) is its own block
    followed by the block of its a-successor for every agent a, with the
    out-of-range placeholder ``block_count`` where there is none.  Two
    nodes stay together iff their keys are equal, that is, iff they share
    a block in ``p`` and their successors per agent share blocks too.
    """
    _check_label_respecting(g, p)
    return _refined(g, p)


def _refined(g: RbrGraph, p: Partition) -> Partition:
    """:func:`refine_once` without its label check: one gathered pass."""
    fills = (p.block_count,) * g.num_agents
    return _normalise(successor_keys(g, p.block_of, p.block_of, fills))


def finest_partition(g: RbrGraph) -> Partition:
    return _finest_with_rounds(g)[0]


def _finest_with_rounds(g: RbrGraph) -> tuple[Partition, list[int], int]:
    """Refine from the label partition to the fixpoint.

    Returns the finest partition, the block counts from the label
    partition to the fixpoint (one more than the rounds that split), and
    the number of nodes keyed over all rounds, the confirming one
    included.  Partition, numbering and rounds are those of iterating
    :func:`refine_once` until nothing splits.

    Round 1 is one :func:`refine_once` pass from the label partition.
    Round 2 keys every node in one gathered pass too (:func:`_refined`),
    without the label check: a partition refined from the label
    partition cannot mix labels.  If it splits nothing, as for a graph that one round makes
    stable, the refinement ends there.  Otherwise every later round is
    a worklist round (:func:`_split_round`) that keys only the nodes
    whose key can have changed, the predecessors of the nodes that
    changed block in the round before.  Round 2's moves are those of a
    worklist round that keyed every node (:func:`_worklist_start`).
    """
    n = g.num_nodes
    p = initial_partition(g)
    q = refine_once(g, p)
    counts, keyed = [p.block_count], n
    if q.block_count == p.block_count:
        return p, counts, keyed
    counts.append(q.block_count)
    r = _refined(g, q)
    keyed += n
    if r.block_count == q.block_count:
        return q, counts, keyed
    counts.append(r.block_count)
    block, members, moved = _worklist_start(q, r)
    while True:
        dirty = set(chain.from_iterable(map(g.predecessors.__getitem__, moved)))
        keyed += len(dirty)
        moved = _split_round(g.succ, block, members, dirty)
        if not moved:
            return _normalise(block[:n]), counts, keyed
        counts.append(len(members))


def _worklist_start(q: Partition, r: Partition) -> tuple:
    """The worklist state after the round that refined ``q`` to ``r``
    by keying every node: the ``block`` and ``members`` of
    :func:`_split_round`, and the nodes that moved.

    The blocks keep ``r``'s ids.  As in a :func:`_split_round` that
    keyed every node, the largest part of each block of ``q`` stays and
    every other part moves; on a tie the last part in order of first
    member stays, as the last one written per block of ``q`` when the
    parts go by size, ties in id order.
    """
    parts = r.blocks()
    by_size = sorted(range(len(parts)), key=lambda j: len(parts[j]))
    stays = set({q.block_of[parts[j][0]]: j for j in by_size}.values())
    moved = [v for j, part in enumerate(parts) if j not in stays for v in part]
    return [*r.block_of, NO_NODE], list(map(set, parts)), moved


def _split_round(
    succ: Sequence[Sequence[int]],
    block: list[int],
    members: list[set[int]],
    dirty: Collection[int],
) -> list[int]:
    """One worklist round: split blocks by the keys of the ``dirty``
    nodes and return the nodes that changed block id.

    ``block[v]`` is node v's block id and ends with ``NO_NODE``, so a
    missing successor reads -1; ``members`` is indexed by block id.
    Every key is computed before any id changes.  Nodes that are not
    dirty keep their key, so in a block they form one group, the block's
    members minus its dirty ones.  The largest group keeps the block id
    and every other group gets a fresh one, so a node changes id
    O(log n) times.
    """
    touched: dict[int, dict[tuple, list[int]]] = {}
    for v in dirty:
        key = tuple(map(block.__getitem__, succ[v]))
        touched.setdefault(block[v], {}).setdefault(key, []).append(v)
    moved: list[int] = []
    for b, groups in touched.items():
        parts = sorted(groups.values(), key=len)
        rest = len(members[b]) - sum(map(len, parts))
        if not rest and len(parts) == 1:
            continue
        if rest < len(parts[-1]):
            largest = parts.pop()
            if rest:
                parts.append(members[b].difference(largest, *parts))
        for part in parts:
            fresh = len(members)
            members.append(set(part))
            members[b].difference_update(part)
            for v in part:
                block[v] = fresh
            moved.extend(part)
    return moved


def disjoint_union(ga: RbrGraph, gb: RbrGraph) -> RbrGraph:
    """Union of two graphs over a shared agent universe.

    Designations are dropped and reachability is not enforced: the union
    exists only to compare belief hierarchies, which ignore both.  Both
    graphs are valid, so the union is built as it is, unchecked: gb's
    rows are relabelled (:func:`~rbr.graph.relabel`) up by ga's node
    count.
    """
    if ga.agents != gb.agents:
        raise AgentUniverseMismatch((ga.agents, gb.agents))
    shift = range(ga.num_nodes, ga.num_nodes + gb.num_nodes)
    return RbrGraph(
        agents=ga.agents,
        labels=ga.labels + gb.labels,
        succ=ga.succ + relabel(shift, chain.from_iterable(gb.succ), gb.num_agents),
        designated=(NO_NODE,) * ga.num_agents,
        node_names=ga.node_names + gb.node_names,
    )


def nodes_doxastically_equivalent(
    ga: RbrGraph, na: int, gb: RbrGraph, nb: int
) -> bool:
    """True iff the two nodes have identical belief hierarchies at every
    depth (and hence identical rational-solution entries in every game)."""
    ga.check_node(na)
    gb.check_node(nb)
    p = finest_partition(disjoint_union(ga, gb))
    return p.same_block(na, ga.num_nodes + nb)


def graphs_equivalent(ga: RbrGraph, gb: RbrGraph) -> bool:
    """Same designation domain and per-agent equivalent designated nodes."""
    if ga.agents != gb.agents:
        raise AgentUniverseMismatch((ga.agents, gb.agents))
    if ga.designation_domain() != gb.designation_domain():
        return False
    p = finest_partition(disjoint_union(ga, gb))
    side_b = p.block_of[ga.num_nodes :]
    return relabel(p.block_of, ga.designated) == relabel(side_b, gb.designated)


def is_canonical(g: RbrGraph) -> bool:
    """All nodes pairwise distinguishable by belief hierarchy."""
    return finest_partition(g).block_count == g.num_nodes


def check_local_isomorphism(
    ga: RbrGraph, gb: RbrGraph, alpha: Sequence[int]
) -> bool:
    """Verify that ``alpha`` maps ``ga`` onto ``gb`` preserving edge
    images, labels, and designations.  Once labels are kept, a
    successor's image fixes its slot, so rows are compared slot by slot.
    """
    if ga.agents != gb.agents:
        raise AgentUniverseMismatch((ga.agents, gb.agents))
    if len(alpha) != ga.num_nodes or any(
        not (isinstance(m, int) and 0 <= m < gb.num_nodes) for m in alpha
    ):
        raise PartialMapping("mapping must cover exactly the source node set")
    return (
        set(alpha) == set(gb.nodes())
        and relabel(gb.labels, alpha) == ga.labels
        and relabel(alpha, chain.from_iterable(ga.succ), ga.num_agents)
        == relabel(gb.succ, alpha)
        and relabel(alpha, ga.designated) == gb.designated
    )


def find_isomorphism(ga: RbrGraph, gb: RbrGraph) -> tuple[int, ...] | None:
    """Bijection pairing hierarchy-equal nodes of two canonical graphs,
    or None when the graphs are not equivalent.

    Everything is read off one finest partition of the disjoint union,
    whose restriction to each side is that side's own finest partition.
    Graphs over different agent universes raise AgentUniverseMismatch,
    before canonicity is checked.
    """
    p = finest_partition(disjoint_union(ga, gb))
    side_a, side_b = p.block_of[: ga.num_nodes], p.block_of[ga.num_nodes :]
    if len(set(side_a)) != ga.num_nodes or len(set(side_b)) != gb.num_nodes:
        raise NotCanonical("both graphs must be canonical")
    if relabel(side_a, ga.designated) != relabel(side_b, gb.designated):
        return None
    if set(side_a) != set(side_b):
        return None
    partner = {k: m for m, k in enumerate(side_b)}
    return tuple(partner[k] for k in side_a)
