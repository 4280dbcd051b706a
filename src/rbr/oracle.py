"""Naive reference implementations used as ground truth in tests.

Everything here recomputes results from first principles — explicit path
enumeration and nested loops over outcomes — and deliberately shares no
logic with the optimized modules it checks.
"""

from __future__ import annotations

import itertools

from .errors import AgentUniverseMismatch, SizeCap
from .games import Game, Quit
from .graph import NO_NODE, RbrGraph

DEFAULT_DEPTH_CAP = 12


def brute_force_hierarchy(
    g: RbrGraph, n: int, depth: int, depth_cap: int = DEFAULT_DEPTH_CAP
) -> frozenset[tuple[int, ...]]:
    """Label sequences of all paths of length 1..depth from ``n``, by DFS."""
    g.check_node(n)
    if depth > depth_cap:
        raise SizeCap(f"depth {depth} exceeds the oracle cap {depth_cap}")
    found: set[tuple[int, ...]] = set()

    def walk(m: int, seq: tuple[int, ...]) -> None:
        seq = seq + (g.labels[m],)
        found.add(seq)
        if len(seq) < depth:
            for m2 in g.succ[m]:
                if m2 != NO_NODE:
                    walk(m2, seq)

    if depth >= 1:
        walk(n, ())
    return frozenset(found)


def _undominated(g: RbrGraph, game: Game, sets, n: int) -> frozenset:
    """Per-definition rational response at node ``n``, with its own
    dominance loops."""
    a = g.labels[n]
    axes = []
    for b in range(game.num_agents):
        if b == a:
            axes.append([None])
        elif g.succ[n][b] != NO_NODE:
            axes.append(sorted(sets[g.succ[n][b]], key=game.strategies[b].index))
        else:
            axes.append(list(game.strategies[b]))
    profiles = list(itertools.product(*axes))

    survivors = set()
    for s in game.strategies[a]:
        dominated = False
        for s2 in game.strategies[a]:
            if s2 == s:
                continue
            beats_everywhere = True
            for template in profiles:
                outcome = list(template)
                outcome[a] = s
                low = tuple(outcome)
                outcome[a] = s2
                if game.compare(a, low, tuple(outcome)) != -1:
                    beats_everywhere = False
                    break
            if beats_everywhere:
                dominated = True
                break
        if not dominated:
            survivors.add(s)
    return frozenset(survivors)


def brute_force_round(g: RbrGraph, game: Game, sets) -> tuple:
    """One round of literal rationalisation, node by node."""
    return tuple(_undominated(g, game, sets, n) for n in g.nodes())


def brute_force_rational_solution(g: RbrGraph, game: Game) -> tuple:
    """Fixpoint of literal rationalisation, recomputed with nested loops."""
    if g.agents != game.agents:
        raise AgentUniverseMismatch((g.agents, game.agents))
    sets = tuple(frozenset(game.strategies[g.labels[n]]) for n in g.nodes())
    while True:
        nxt = brute_force_round(g, game, sets)
        if nxt == sets:
            return sets
        sets = nxt


def sequence_game(agents: tuple[str, ...], k: int) -> Game:
    """The sequence-override game over alternating agent sequences of
    length at most ``k``, built from its definition as a compare-only game.

    Agent a's strategies are Quit(a), then the alternating sequences that
    start with a, in sorted order.  Quitting pays 0; a sequence pays 1
    when it has a tail and the tail's head agent played exactly that tail,
    and -1 otherwise.
    """
    num = len(agents)
    seqs = layer = [(a,) for a in range(num)]
    for _ in range(k - 1):
        layer = [s + (b,) for s in layer for b in range(num) if b != s[-1]]
        seqs = seqs + layer
    spaces = [(Quit(a), *sorted(s for s in seqs if s[0] == a)) for a in range(num)]

    def utility(a: int, outcome: tuple) -> int:
        s = outcome[a]
        if isinstance(s, Quit):
            return 0
        return 1 if len(s) > 1 and outcome[s[1]] == s[1:] else -1

    def compare(a: int, o: tuple, o2: tuple) -> int:
        u, u2 = utility(a, o), utility(a, o2)
        return (u > u2) - (u < u2)

    return Game(agents=tuple(agents), strategies=tuple(spaces), compare=compare)


def gk_distinguisher(
    ga: RbrGraph, na: int, gb: RbrGraph, nb: int, k_max: int
) -> int | None:
    """Smallest depth k <= k_max whose bounded hierarchies at the two
    nodes differ, certified by solving the sequence game at that depth.

    Returns None when no such depth exists, i.e. the nodes look the same
    to every bounded observer up to k_max.
    """
    if ga.agents != gb.agents:
        raise AgentUniverseMismatch((ga.agents, gb.agents))
    ga.check_node(na)
    gb.check_node(nb)
    num = len(ga.agents)
    for k in range(1, k_max + 1):
        if brute_force_hierarchy(ga, na, k) != brute_force_hierarchy(gb, nb, k):
            # Certification replays the whole game with nested loops; skip
            # it, without building the game, past 150 strategies over all
            # agents or 10**6 outcome profiles.  Each agent has Quit and
            # (num - 1)**(l - 1) sequences of each length l.
            size = 1 + sum((num - 1) ** i for i in range(k))
            if num >= 2 and num * size <= 150 and size**num <= 10**6:
                game = sequence_game(ga.agents, k)
                sa = brute_force_rational_solution(ga, game)
                sb = brute_force_rational_solution(gb, game)
                assert sa[na] != sb[nb], (
                    "hierarchy witness not visible in the game"
                )
            return k
    return None
