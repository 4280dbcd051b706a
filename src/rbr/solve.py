"""Solutions over RBR graphs and iterative rationalisation.

A solution assigns every node a nonempty subset of its agent's strategy
space.  Rationalisation replaces each node's set with the rational
response in the belief scene the graph induces; iterating from the full
solution reaches the rational solution, a fixpoint.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import chain, compress
from operator import is_not

from .errors import AgentMissingFromGame, InvalidSolution, NonTermination, ZeroLength
from .games import Game, ReasoningScene, rational_response
from .graph import NO_NODE, RbrGraph, successor_keys

# One frozenset of strategies per node, indexed by NodeId.
Solution = tuple


def check_compatible(g: RbrGraph, game: Game) -> None:
    if g.agents != game.agents:
        raise AgentMissingFromGame(
            f"graph agents {g.agents} differ from game agents {game.agents}"
        )


def check_solution(g: RbrGraph, game: Game, s: Solution) -> None:
    """The one solution check: AgentMissingFromGame unless ``g`` and
    ``game`` share their agents, InvalidSolution unless ``s`` is a
    sequence (a set's order is arbitrary) that covers ``g``'s nodes, and
    InvalidSolution naming the node on an entry that is not a nonempty
    frozenset inside its node's space (the solver hashes entries, so a
    set or a list would fail there)."""
    check_compatible(g, game)
    if not isinstance(s, Sequence):
        raise InvalidSolution(f"solution of type {type(s).__name__} is not a sequence")
    if len(s) != g.num_nodes:
        raise InvalidSolution("solution does not cover the node set")
    spaces = game.space_sets
    for n, (entry, a) in enumerate(zip(s, g.labels)):
        if not isinstance(entry, frozenset) or not entry or not entry <= spaces[a]:
            raise InvalidSolution(f"node {n} entry is not a nonempty frozenset in its space")


def full_solution(g: RbrGraph, game: Game) -> Solution:
    """The solution assigning every node its agent's whole strategy space."""
    check_compatible(g, game)
    return tuple(map(game.space_sets.__getitem__, g.labels))


def belief_scene(g: RbrGraph, game: Game, s: Solution, n: int) -> ReasoningScene:
    """Scene at node ``n``: successor entries where they exist, full spaces
    for agents not believed rational.  It is the scene of ``n``'s key,
    built as the solver builds it (:func:`_key_scene`), once ``s``
    passes :func:`check_solution`."""
    g.check_node(n)
    check_solution(g, game, s)
    return _key_scene(next(successor_keys(g, g.labels, s, game.space_sets, [n])))


class _ResponseMemo(dict):
    """Rational responses of one game by scene key.

    A node's scene is fixed by its key: its label, then per agent the
    entry of its successor, or that agent's full space where there is
    none.  A key not yet in the memo is answered on the scene it fixes
    and kept, so each key is answered once however often it is met.

    Answers are interned in ``interned``, seeded with the game's
    ``space_sets``, so within one solve equal entries are one object and
    the solver compares entries by identity.
    """

    def __init__(self, game: Game):
        super().__init__()
        self.game = game
        self.interned = {space: space for space in game.space_sets}

    def __missing__(self, key: tuple) -> frozenset:
        scene = _key_scene(key)
        answer = rational_response(self.game, scene.owner, scene)
        self[key] = answer = self.interned.setdefault(answer, answer)
        return answer


def _key_scene(key: tuple) -> ReasoningScene:
    """The scene a scene key fixes: the :func:`belief_scene` of every
    node with that key.  The owner's own slot holds its full space in
    the key (no node has a successor of its own label) and is empty in
    the scene."""
    owner, *opponents = key
    opponents[owner] = frozenset()
    return ReasoningScene(owner=owner, opponents=tuple(opponents))


def rationalise(g: RbrGraph, game: Game, s: Solution) -> Solution:
    """One rationalisation round: per-node rational response in its
    scene, each scene key answered once (:func:`iterate` for i = 1)."""
    return iterate(g, game, s, 1)


def _responses(
    g: RbrGraph,
    game: Game,
    s: Solution,
    memo: _ResponseMemo,
    nodes: list[int] | None = None,
):
    """The entries of the rationalisation of ``s`` at ``nodes`` (every
    node when None), in that order, answering keys not in ``memo``.

    The keys stream through the memo one at a time: a key met before is
    dropped at once, so no tuple per node stays alive."""
    return map(memo.__getitem__, successor_keys(g, g.labels, s, game.space_sets, nodes))


def iterate(g: RbrGraph, game: Game, s: Solution, i: int) -> Solution:
    """The i-th rationalisation of ``s`` (identity for i = 0): ``s`` is
    checked once, and one memo serves the i rounds.  A round count that
    is not an int (a bool counts) or is below 0 raises ZeroLength."""
    if not isinstance(i, int) or i < 0:
        raise ZeroLength(f"round count must be an int >= 0, got {i!r}")
    check_solution(g, game, s)
    memo = _ResponseMemo(game)
    for _ in range(i):
        s = tuple(_responses(g, game, s, memo))
    return s


def is_stable(g: RbrGraph, game: Game, s: Solution) -> bool:
    return iterate(g, game, s, 1) == tuple(s)


@dataclass(frozen=True)
class RationalSolutionReport:
    solution: Solution
    iterations: int
    trace: tuple | None = None  # R^0 .. R^{iterations+1} when requested
    # One count per round, R^1 .. R^{iterations+1}: the nodes keyed, the
    # entries that differ from the round before, and the scenes answered
    # (memo misses; a scene met in an earlier round is not answered again).
    nodes_keyed: tuple[int, ...] = ()
    entries_changed: tuple[int, ...] = ()
    scenes_answered: tuple[int, ...] = ()


def safety_bound(g: RbrGraph, game: Game) -> int:
    """Each unstable round removes a strategy somewhere, so the fixpoint
    arrives within this many rounds."""
    return 1 + sum(
        count * (len(game.strategies[a]) - 1) for a, count in Counter(g.labels).items()
    )


def rational_solution(
    g: RbrGraph, game: Game, keep_trace: bool = False
) -> RationalSolutionReport:
    """Iterate from the full solution until a certified fixpoint.

    ``iterations`` is the first i with R^{i+1} = R^i.  Exceeding
    :func:`safety_bound` raises NonTermination, which indicates a bug rather
    than a legitimate input condition.  One memo serves every round, so
    each distinct scene is answered once per solve.

    The rounds are synchronous, but a round keys only the nodes whose
    key can have changed.  In R^0 every entry is its agent's full space,
    which is also the fill where a node has no successor, so round 1
    keys the first node of each label and maps the answers over the
    labels.  After a round that changed every entry, the next is one
    full pass, which needs no predecessor lists.
    After any other round, the next keys the predecessors of the nodes
    whose entry changed; every other node keeps its key, and so its
    entry.
    """
    check_compatible(g, game)
    bound = safety_bound(g, game)
    current = full_solution(g, game)
    trace = [current] if keep_trace else None
    memo = _ResponseMemo(game)
    keyed: list[int] = []
    changes: list[int] = []
    answered: list[int] = []
    for i in range(bound + 1):
        known = len(memo)
        if not i:
            nxt, count = _first_round(g, game, current, memo)
            changed = _changed(current, nxt)
        elif len(changed) == g.num_nodes:
            nxt, count = tuple(_responses(g, game, current, memo)), g.num_nodes
            changed = _changed(current, nxt)
        else:
            dirty = set(chain.from_iterable(map(g.predecessors.__getitem__, changed)))
            nxt, changed = _dirty_round(g, game, current, memo, list(dirty))
            count = len(dirty)
        keyed.append(count)
        changes.append(len(changed))
        answered.append(len(memo) - known)
        if trace is not None:
            trace.append(nxt)
        if not changed:
            return RationalSolutionReport(
                solution=current,
                iterations=i,
                trace=None if trace is None else tuple(trace),
                nodes_keyed=tuple(keyed),
                entries_changed=tuple(changes),
                scenes_answered=tuple(answered),
            )
        current = nxt
    raise NonTermination(f"no fixpoint within {bound} rationalisation rounds")


def _first_round(g: RbrGraph, game: Game, s: Solution, memo: _ResponseMemo) -> tuple:
    """R^1 from the full solution ``s``, keying the first node of each
    label, and the number of nodes keyed."""
    present = sorted(set(g.labels))
    first = list(map(g.labels.index, present))
    row = dict(zip(present, _responses(g, game, s, memo, first)))
    return tuple(map(row.__getitem__, g.labels)), len(first)


def _dirty_round(
    g: RbrGraph, game: Game, s: Solution, memo: _ResponseMemo, dirty: list[int]
) -> tuple:
    """The rationalisation of ``s``, keying only the ``dirty`` nodes, and
    the nodes whose entry it changes."""
    nxt = list(s)
    changed = []
    for v, entry in zip(dirty, _responses(g, game, s, memo, dirty)):
        if entry is not s[v]:
            nxt[v] = entry
            changed.append(v)
    return tuple(nxt), changed


def _changed(old: Solution, new: Solution) -> list[int]:
    """The nodes whose entry differs from ``old`` to ``new``, two
    solutions of one solve, whose equal entries are one object."""
    return list(compress(range(len(new)), map(is_not, old, new)))


def doxastic_rationalisability(g: RbrGraph, game: Game) -> tuple:
    """Predicted play: rational-solution entries at designated nodes, the
    full space for agents with no designated node."""
    return _designated_entries(g, game, rational_solution(g, game).solution)


def _designated_entries(g: RbrGraph, game: Game, s: Solution) -> tuple:
    """Per agent, the entry of ``s`` at its designated node, or its full
    strategy space when it has none."""
    return tuple(
        s[n] if n != NO_NODE else game.space_sets[a]
        for a, n in enumerate(g.designated)
    )
