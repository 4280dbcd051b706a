"""Compression of an RBR graph to its minimal equivalent canonical form.

The quotient of a graph by its finest partition merges every set of
hierarchy-equal nodes into one; the result is the unique (up to
isomorphism) smallest graph equivalent to the input.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

from .errors import NotFinest
from .graph import RbrGraph, relabel
from .graph import validate_graph  # unused here; perfbench/tracing.py patches it
from .partition import Partition, _finest_with_rounds, refine_once


@dataclass(frozen=True)
class MinimisationReport:
    output: RbrGraph
    block_map: tuple[int, ...]  # input node -> output node; a local isomorphism
    refinement_rounds: int
    # Block counts from the label partition (first) to the fixpoint (last).
    blocks_per_round: tuple[int, ...]
    nodes_keyed: int  # over all refinement rounds, the confirming one included


def quotient(g: RbrGraph, p: Partition) -> RbrGraph:
    """Collapse each block of the finest partition ``p`` into one node.

    Block k becomes node k (blocks are numbered by smallest member) and
    takes its label, name and successors from that member.  A partition
    that does not cover the node set, mixes labels, would still split in
    one more refinement pass, or is numbered otherwise, is rejected; no
    other check is made, since a valid graph's quotient by a stable
    partition is valid.  Block images of paths are paths, so a reachable
    graph has a reachable quotient, and a graph built without
    reachability, such as a disjoint union, has a quotient too.
    """
    if refine_once(g, p) != p:
        raise NotFinest("partition is not refinement-stable")
    return _quotient_graph(g, p)


def _quotient_graph(g: RbrGraph, p: Partition) -> RbrGraph:
    """:func:`quotient` without its stability check, built directly, as
    :func:`~rbr.partition.disjoint_union` is.  Block k's row is its
    first member's; the rows and the designations are relabelled
    (:func:`~rbr.graph.relabel`) to blocks.
    """
    firsts = [members[0] for members in p.blocks()]
    rows = chain.from_iterable(map(g.succ.__getitem__, firsts))
    return RbrGraph(
        agents=g.agents,
        labels=tuple([g.labels[n] for n in firsts]),
        succ=relabel(p.block_of, rows, g.num_agents),
        designated=relabel(p.block_of, g.designated),
        node_names=tuple([g.node_names[n] for n in firsts]),
    )


def minimise(g: RbrGraph) -> MinimisationReport:
    """Minimal equivalent canonical form of ``g`` with the witnessing
    block map; the refinement that found the partition already proved
    it stable, so the quotient skips the check.  Like :func:`quotient`,
    it accepts graphs built without reachability."""
    p, counts, keyed = _finest_with_rounds(g)
    return MinimisationReport(
        output=_quotient_graph(g, p),
        block_map=p.block_of,
        refinement_rounds=len(counts) - 1,
        blocks_per_round=tuple(counts),
        nodes_keyed=keyed,
    )
