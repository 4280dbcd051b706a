"""Partition refinement and doxastic equivalence.

Nodes start out grouped by label and are repeatedly split by the blocks
their successors fall into; the finest partition groups nodes exactly
when their full belief hierarchies coincide.  Cross-graph questions are
answered on a disjoint union of the two graphs.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from operator import itemgetter
from typing import Collection, Iterable, Sequence

from .errors import (
    AgentUniverseMismatch,
    LabelMixingPartition,
    NotCanonical,
    PartialMapping,
)
from .graph import NO_NODE, RbrGraph, successor_keys
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
    rep: dict[int, int] = {}
    for n, k in enumerate(p.block_of):
        if rep.setdefault(k, g.labels[n]) != g.labels[n]:
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
    block, sizes, members, moved = _worklist_start(q, r)
    while True:
        dirty = set(chain.from_iterable(map(g.predecessors.__getitem__, moved)))
        keyed += len(dirty)
        moved = _split_round(g.succ, block, sizes, members, dirty)
        if not moved:
            return _normalise(block[:n]), counts, keyed
        counts.append(len(sizes))


def _worklist_start(q: Partition, r: Partition) -> tuple:
    """The worklist state after the round that refined ``q`` to ``r``
    by keying every node: the ``block``, ``sizes`` and ``members`` of
    :func:`_split_round`, and the nodes that changed block id.

    As in a :func:`_split_round` that keyed every node, block b of ``q``
    keeps its id for the largest of its parts in ``r``, the last of
    them on a tie in order of first member, and the other parts take
    fresh ids and move: blocks in id order, parts by size, ties in
    order of first member.
    """
    parts = r.blocks()
    children: list[list[int]] = [[] for _ in range(q.block_count)]
    for j, part in enumerate(parts):
        children[q.block_of[part[0]]].append(j)
    kept, fresh = [], []
    for split in children:
        split.sort(key=lambda j: len(parts[j]))
        kept.append(split.pop())
        fresh += split
    order = kept + fresh
    new_id = [0] * len(order)
    for k, j in enumerate(order):
        new_id[j] = k
    members = [set(parts[j]) for j in order]
    moved = list(chain.from_iterable(map(parts.__getitem__, fresh)))
    block = [*map(new_id.__getitem__, r.block_of), NO_NODE]
    return block, list(map(len, members)), members, moved


def _split_round(
    succ: Sequence[Sequence[int]],
    block: list[int],
    sizes: list[int],
    members: list[set[int]],
    dirty: Collection[int],
) -> list[int]:
    """One worklist round: split blocks by the keys of the ``dirty``
    nodes and return the nodes that changed block id.

    ``block[v]`` is node v's block id and ends with ``NO_NODE``, so a
    missing successor reads -1; ``sizes`` and ``members`` are indexed by
    block id.  Every key is computed before any id changes.  Nodes that
    are not dirty keep their key, so in a block they form one group,
    whose size is the block size minus its dirty members.  The largest
    group keeps the block id and every other group gets a fresh one, so
    a node changes id O(log n) times.
    """
    touched: dict[int, dict[tuple, list[int]]] = {}
    for v in dirty:
        key = tuple(map(block.__getitem__, succ[v]))
        touched.setdefault(block[v], {}).setdefault(key, []).append(v)
    moved: list[int] = []
    for b, groups in touched.items():
        parts = sorted(groups.values(), key=len)
        rest = sizes[b] - sum(map(len, parts))
        if not rest and len(parts) == 1:
            continue
        if rest < len(parts[-1]):
            largest = parts.pop()
            if rest:
                parts.append(members[b].difference(largest, *parts))
        for part in parts:
            fresh = len(sizes)
            sizes.append(len(part))
            sizes[b] -= len(part)
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
    successors move up by ga's node count in one gather over its
    flattened rows, where ``NO_NODE`` (-1) reads the ``NO_NODE`` appended
    to the shift.  The gather's two trailing ``NO_NODE`` indices make it
    return a tuple even for a gb with no nodes or a single slot, and are
    cut off before the rows are.
    """
    if ga.agents != gb.agents:
        raise AgentUniverseMismatch((ga.agents, gb.agents))
    shift = (*range(ga.num_nodes, ga.num_nodes + gb.num_nodes), NO_NODE)
    gather = itemgetter(*chain.from_iterable(gb.succ), NO_NODE, NO_NODE)
    flat = gather(shift)[:-2]
    return RbrGraph(
        agents=ga.agents,
        labels=ga.labels + gb.labels,
        succ=ga.succ + tuple(zip(*[iter(flat)] * gb.num_agents)),
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
    return _designated_images(ga, p.block_of) == _designated_images(
        gb, p.block_of[ga.num_nodes :]
    )


def _designated_images(g: RbrGraph, image: Sequence[int]) -> list:
    """Per agent, the image (block or partner) of its designated node, or
    None without one."""
    return [None if n == NO_NODE else image[n] for n in g.designated]


def is_canonical(g: RbrGraph) -> bool:
    """All nodes pairwise distinguishable by belief hierarchy."""
    return finest_partition(g).block_count == g.num_nodes


def check_local_isomorphism(
    ga: RbrGraph, gb: RbrGraph, alpha: Sequence[int]
) -> bool:
    """Verify that ``alpha`` maps ``ga`` onto ``gb`` preserving edge
    images, labels, and designations."""
    if ga.agents != gb.agents:
        raise AgentUniverseMismatch((ga.agents, gb.agents))
    if len(alpha) != ga.num_nodes or any(
        not 0 <= m < gb.num_nodes for m in alpha
    ):
        raise PartialMapping("mapping must cover exactly the source node set")
    if set(alpha) != set(gb.nodes()):
        return False
    for n in ga.nodes():
        if ga.labels[n] != gb.labels[alpha[n]]:
            return False
        image = {alpha[m] for a, m in enumerate(ga.succ[n]) if m != NO_NODE}
        target = {m for m in gb.succ[alpha[n]] if m != NO_NODE}
        if image != target:
            return False
    return _designated_images(ga, alpha) == _designated_images(gb, gb.nodes())


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
    if _designated_images(ga, side_a) != _designated_images(gb, side_b):
        return None
    if set(side_a) != set(side_b):
        return None
    partner = {k: m for m, k in enumerate(side_b)}
    return tuple(partner[k] for k in side_a)
