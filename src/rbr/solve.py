"""Solutions over RBR graphs and iterative rationalisation.

A solution assigns every node a nonempty subset of its agent's strategy
space.  Rationalisation replaces each node's set with the rational
response in the belief scene the graph induces; iterating from the full
solution reaches the rational solution, a fixpoint.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import AgentMissingFromGame, InvalidSolution, NonTermination
from .games import Game, ReasoningScene, rational_response
from .graph import NO_NODE, RbrGraph
from .minimize import _quotient_graph
from . import partition
from .partition import Partition

# One frozenset of strategies per node, indexed by NodeId.
Solution = tuple


def check_compatible(g: RbrGraph, game: Game) -> None:
    if g.agents != game.agents:
        raise AgentMissingFromGame(
            f"graph agents {g.agents} differ from game agents {game.agents}"
        )


def check_solution(g: RbrGraph, game: Game, s: Solution) -> None:
    if len(s) != g.num_nodes:
        raise InvalidSolution("solution does not cover the node set")
    for n, entry in enumerate(s):
        space = set(game.strategies[g.labels[n]])
        if not entry or not set(entry) <= space:
            raise InvalidSolution(f"node {n} entry empty or outside its space")


def full_solution(g: RbrGraph, game: Game) -> Solution:
    """The solution assigning every node its agent's whole strategy space."""
    check_compatible(g, game)
    return tuple(frozenset(game.strategies[g.labels[n]]) for n in g.nodes())


def belief_scene(g: RbrGraph, game: Game, s: Solution, n: int) -> ReasoningScene:
    """Scene at node ``n``: successor entries where they exist, full spaces
    for agents not believed rational."""
    g.check_node(n)
    owner = g.labels[n]
    opponents = []
    for b in range(game.num_agents):
        if b == owner:
            opponents.append(frozenset())
        else:
            m = g.succ[n][b]
            opponents.append(
                s[m] if m != NO_NODE else frozenset(game.strategies[b])
            )
    return ReasoningScene(owner=owner, opponents=tuple(opponents))


def rationalise(g: RbrGraph, game: Game, s: Solution, _memo=None) -> Solution:
    """One rationalisation round: per-node rational response in its scene.

    ``_memo`` caches responses keyed by scene; distinct nodes of the same
    agent often share a scene across rounds.
    """
    memo = _memo if _memo is not None else {}
    out = []
    for n in g.nodes():
        scene = belief_scene(g, game, s, n)
        resp = memo.get(scene)
        if resp is None:
            resp = rational_response(game, scene.owner, scene)
            memo[scene] = resp
        out.append(resp)
    return tuple(out)


def iterate(g: RbrGraph, game: Game, s: Solution, i: int) -> Solution:
    """The i-th rationalisation of ``s`` (identity for i = 0)."""
    check_solution(g, game, s)
    memo: dict = {}
    for _ in range(i):
        s = rationalise(g, game, s, memo)
    return s


def is_stable(g: RbrGraph, game: Game, s: Solution) -> bool:
    check_solution(g, game, s)
    return rationalise(g, game, s) == s


@dataclass(frozen=True)
class RationalSolutionReport:
    solution: Solution
    iterations: int
    trace: tuple | None = None  # R^0 .. R^{iterations+1} when requested


def safety_bound(g: RbrGraph, game: Game) -> int:
    """Each unstable round removes a strategy somewhere, so the fixpoint
    arrives within this many rounds."""
    return 1 + sum(len(game.strategies[g.labels[n]]) - 1 for n in g.nodes())


def rational_solution(
    g: RbrGraph, game: Game, keep_trace: bool = False, max_iterations: int | None = None
) -> RationalSolutionReport:
    """Iterate from the full solution until a certified fixpoint.

    ``iterations`` is the first i with R^{i+1} = R^i.  Exceeding the
    safety bound raises NonTermination, which indicates a bug rather
    than a legitimate input condition.

    Nodes alike to depth i of their belief hierarchies, that is, in one
    block of the label partition refined i times, share their R^i entry.
    So the round that computes R^{i+1} runs on the graph of first members
    of the blocks refined i + 1 times, one node per block, and every round
    is lifted back to ``g``.  Refinement stops at the first pass that
    splits nothing; the rounds after it run on the quotient by the finest
    partition.  A solve thus makes at most ``iterations + 1`` refinement
    passes, however many a full refinement would take.  Solution, trace
    and round count are those of ``g``.
    """
    check_compatible(g, game)
    bound = safety_bound(g, game) if max_iterations is None else max_iterations
    p = partition.initial_partition(g)
    q = _quotient_graph(g, p)
    current = full_solution(q, game)  # one entry per block of p
    trace = [_lift(current, p)] if keep_trace else None
    memo: dict = {}
    stable = False
    for i in range(bound + 1):
        if not stable:
            # Called through its module, so wrappers installed there see it.
            finer = partition.refine_once(g, p)
            stable = finer == p
            if not stable:
                current = _per_block(_lift(current, p), finer)
                p, q = finer, _quotient_graph(g, finer)
        nxt = rationalise(q, game, current, memo)
        if trace is not None:
            trace.append(_lift(nxt, p))
        if nxt == current:
            return RationalSolutionReport(
                solution=_lift(current, p),
                iterations=i,
                trace=None if trace is None else tuple(trace),
            )
        current = nxt
    raise NonTermination(f"no fixpoint within {bound} rationalisation rounds")


def _lift(s: Solution, p: Partition) -> Solution:
    """A solution with one entry per block of ``p`` read onto the nodes."""
    return tuple(map(s.__getitem__, p.block_of))


def _per_block(s: Solution, p: Partition) -> Solution:
    """One entry per block of ``p`` from a solution constant on its blocks:
    a dict meets the blocks in order of first member, their numbering."""
    return tuple(dict(zip(p.block_of, s)).values())


def doxastic_rationalisability(g: RbrGraph, game: Game) -> tuple:
    """Predicted play: rational-solution entries at designated nodes, the
    full space for agents with no designated node."""
    return _designated_entries(g, game, rational_solution(g, game).solution)


def _designated_entries(g: RbrGraph, game: Game, s: Solution) -> tuple:
    """Per agent, the entry of ``s`` at its designated node, or its full
    strategy space when it has none."""
    return tuple(
        s[n] if n != NO_NODE else frozenset(game.strategies[a])
        for a, n in enumerate(g.designated)
    )
