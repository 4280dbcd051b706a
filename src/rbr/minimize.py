"""Compression of an RBR graph to its minimal equivalent canonical form.

The quotient of a graph by its finest partition merges every set of
hierarchy-equal nodes into one; the result is the unique (up to
isomorphism) smallest graph equivalent to the input.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NotFinest
from .graph import NO_NODE, RbrGraph, validate_graph
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
    takes its label and name from that member; every input edge maps to
    a block edge, and designations carry over.  A partition that one more
    refinement pass would still split, or one numbered otherwise, is
    rejected.  Reachability is not re-checked: block images of paths are
    paths, so the quotient of a reachable graph is reachable, and a graph
    built without it, such as a disjoint union, has a quotient too.
    """
    if refine_once(g, p) != p:
        raise NotFinest("partition is not refinement-stable")
    return _quotient_graph(g, p)


def _quotient_graph(g: RbrGraph, p: Partition) -> RbrGraph:
    """:func:`quotient` without its stability check.

    Block k's edges are those of its first member; on a stable partition
    every member's edges map to the same block edges.
    """
    firsts = [members[0] for members in p.blocks()]
    edges = [
        (k, p.block_of[m])
        for k, n in enumerate(firsts)
        for m in g.succ[n]
        if m != NO_NODE
    ]
    designation = {
        a: p.block_of[n] for a, n in enumerate(g.designated) if n != NO_NODE
    }
    return validate_graph(
        g.agents,
        p.block_count,
        [g.labels[n] for n in firsts],
        edges,
        designation,
        node_names=[g.node_names[n] for n in firsts],
        require_reachable=False,
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
