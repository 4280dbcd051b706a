"""Finite games with partial-order preferences, dominance, rational response.

A strategy is any hashable value; an outcome is a tuple with one strategy
per agent, indexed by agent id.  Preferences are exposed through a
comparison oracle; utility-defined games derive the oracle from exact
(rational-number) utilities.
"""

from __future__ import annotations

import itertools
import math
import operator
import string
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Hashable, Iterator, Optional, Sequence

from .errors import ForeignStrategy, SceneOwnerMismatch, SizeCap, TooFewAgents

Strategy = Hashable
Outcome = tuple

# Comparison oracle verdicts: -1 first outcome strictly worse, 1 strictly
# better, 0 equivalent, None incomparable.
Compare = Callable[[int, Outcome, Outcome], Optional[int]]

# The one work budget of this module, read at each check: the cells of one
# agent's payoff table, |S_a| * prod_{b != a} |S_b| (the number of full
# outcome profiles), for the builtin constructors and ``rational_response``;
# ``dominates`` applies it to the opponent profiles of a scene.
DEFAULT_PROFILE_CAP = 10**6


@dataclass(frozen=True)
class Game:
    """Immutable finite game over the agent universe ``agents``.

    ``compare(a, s, s2)`` is agent ``a``'s preference oracle over full
    outcome profiles.  ``utility`` is present exactly when the game is
    utility-defined; it must agree with ``compare`` and return exact
    rationals (``int`` or ``Fraction``).

    A utility may carry ``utility.respond(a, scene)``, the exact set of
    agent ``a``'s undominated strategies in a scene that has passed the
    scene check (:func:`_scene_picks`) and the cell cap;
    :func:`rational_response` then returns it and builds no class table.
    The builtin games give one in closed form.  It belongs to the
    utility, so ``dataclasses.replace(game, utility=...)`` drops it.
    """

    agents: tuple[str, ...]
    strategies: tuple[tuple[Strategy, ...], ...]
    compare: Compare
    utility: Callable[[int, Outcome], Fraction] | None = None
    # Per-agent class table, filled on first use by _payoff_classes: the
    # class of each payoff-table column and each class's int column.
    # Excluded from init, so dataclasses.replace starts an empty cache.
    _classes: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    @property
    def num_agents(self) -> int:
        return len(self.agents)


def utility_game(
    agents: Sequence[str],
    strategies: Sequence[Sequence[Strategy]],
    utility: Callable[[int, Outcome], Fraction],
) -> Game:
    """Build a game whose preference order is induced by ``utility``."""

    def compare(a: int, s: Outcome, s2: Outcome) -> int:
        ua, ub = utility(a, s), utility(a, s2)
        return (ua > ub) - (ua < ub)

    return Game(
        agents=tuple(agents),
        strategies=tuple(tuple(sp) for sp in strategies),
        compare=compare,
        utility=utility,
    )


@dataclass(frozen=True)
class ReasoningScene:
    """Per-opponent nonempty strategy subsets entertained by ``owner``.

    ``opponents[b]`` is the set believed possible for agent ``b``; the
    entry at the owner's own index is unused and empty.
    """

    owner: int
    opponents: tuple[frozenset, ...]

    def narrower_than(self, other: "ReasoningScene") -> bool:
        """Coordinatewise containment (self sub-scene of other)."""
        return self.owner == other.owner and all(
            mine <= theirs
            for b, (mine, theirs) in enumerate(zip(self.opponents, other.opponents))
            if b != self.owner
        )


def full_scene(game: Game, a: int) -> ReasoningScene:
    return make_scene(
        game, a, {b: game.strategies[b] for b in range(game.num_agents) if b != a}
    )


def make_scene(game: Game, owner: int, opponent_sets) -> ReasoningScene:
    """Freeze ``owner``'s reasoning scene, ``opponent_sets[b]`` for each
    other agent ``b``, and run the one scene check (:func:`_scene_picks`)
    on it.  A missing set, or one that is not a collection of strategies,
    raises ForeignStrategy naming its agent."""
    opponents = [frozenset()] * game.num_agents
    for b in range(game.num_agents):
        if b == owner:
            continue
        try:
            opponents[b] = frozenset(opponent_sets[b])
        except (KeyError, IndexError):
            raise ForeignStrategy(f"no opponent set for agent {b}") from None
        except TypeError:
            raise ForeignStrategy(
                f"opponent set for agent {b} is not a collection of strategies"
            ) from None
    scene = ReasoningScene(owner=owner, opponents=tuple(opponents))
    _scene_picks(game, owner, scene)
    return scene


def _scene_picks(game: Game, a: int, scene: ReasoningScene) -> list[tuple[int, list[int]]]:
    """The one scene check.  Raises SceneOwnerMismatch unless ``scene`` is
    agent ``a``'s and ``a`` is an agent of ``game``, and ForeignStrategy
    unless the scene has one slot per agent and each opponent set is
    nonempty and inside its space.  Returns, per opponent of ``a`` in
    order, its space's size and the indices of the strategies allowed."""
    if scene.owner != a:
        raise SceneOwnerMismatch(f"scene owned by {scene.owner}, not {a}")
    if a not in range(game.num_agents):
        raise SceneOwnerMismatch(f"no agent {a} among {game.num_agents} agents")
    if len(scene.opponents) != game.num_agents:
        raise ForeignStrategy(
            f"scene has {len(scene.opponents)} opponent slots for {game.num_agents} agents"
        )
    picks = []
    for b, space in enumerate(game.strategies):
        if b == a:
            continue
        allowed = scene.opponents[b]
        picked = [i for i, s in enumerate(space) if s in allowed]
        if not picked or len(picked) != len(allowed):
            raise ForeignStrategy(
                f"opponent set for agent {b} is empty or leaves its space"
            )
        picks.append((len(space), picked))
    return picks


def dominates(
    game: Game,
    a: int,
    scene: ReasoningScene,
    s: Strategy,
    s_prime: Strategy,
) -> bool:
    """True iff ``s_prime`` strictly beats ``s`` on every opponent profile.

    Equivalence and incomparability on any profile both defeat dominance.
    Raises as the scene check (:func:`_scene_picks`) does, ForeignStrategy
    when ``s`` or ``s_prime`` is not ``a``'s, and SizeCap beyond
    ``DEFAULT_PROFILE_CAP`` opponent profiles.
    """
    picks = _scene_picks(game, a, scene)
    space = game.strategies[a]
    if s not in space or s_prime not in space:
        raise ForeignStrategy((s, s_prime))
    size = math.prod(len(picked) for _, picked in picks)
    if size > DEFAULT_PROFILE_CAP:
        raise SizeCap(
            f"opponent-profile product has {size} entries (cap {DEFAULT_PROFILE_CAP})"
        )
    others = game.strategies[:a] + game.strategies[a + 1:]
    axes = [[sp[i] for i in picked] for sp, (_, picked) in zip(others, picks)]
    return all(
        game.compare(a, p[:a] + (s,) + p[a:], p[:a] + (s_prime,) + p[a:]) == -1
        for p in itertools.product(*axes)
    )


def _check_cells(what: str, cells: int) -> None:
    """Raise SizeCap when ``what``, a payoff table of ``cells`` cells, is
    over ``DEFAULT_PROFILE_CAP``."""
    if cells > DEFAULT_PROFILE_CAP:
        raise SizeCap(f"{what} has {cells} cells (cap {DEFAULT_PROFILE_CAP})")


def _payoff_classes(game: Game, a: int) -> tuple[list[int], list[tuple[int, ...]]]:
    """Agent ``a``'s integer payoff table quotiented by equal columns,
    cached on ``game._classes``: the class of each column and each
    class's column, one payoff per own strategy, classes numbered by
    first appearance.

    The table is filled one ``utility`` call per cell.  Column ``j`` is
    the opponent profile whose mixed-radix digits (opponents in
    declaration order, last one fastest) are its strategy indices, and
    every utility is scaled by the agent's common denominator, which
    keeps the order exact.  Opponent profiles with equal columns pay
    every strategy of ``a`` alike, so no dominance test can tell them
    apart.
    """
    table = game._classes.get(a)
    if table is None:
        axes = list(game.strategies)
        utilities = []
        for s in game.strategies[a]:
            axes[a] = (s,)
            utilities.append([game.utility(a, o) for o in itertools.product(*axes)])
        den = math.lcm(*(u.denominator for row in utilities for u in row))
        rows = [[u.numerator * (den // u.denominator) for u in row] for row in utilities]
        index: dict = {}
        classes = [index.setdefault(c, len(index)) for c in zip(*rows)]
        table = game._classes[a] = (classes, list(index))
    return table


def _scene_classes(game: Game, a: int, picks: list) -> set[int]:
    """Column classes of the opponent profiles ``picks`` (agent ``a``'s
    scene, read by :func:`_scene_picks`) allows: their column indices in
    mixed radix, last opponent fastest, mapped through the class list."""
    if not game.strategies[a]:
        return set()
    columns = [0]
    for radix, picked in picks:
        columns = [c * radix + i for c in columns for i in picked]
    return set(map(_payoff_classes(game, a)[0].__getitem__, columns))


def rational_response(game: Game, a: int, scene: ReasoningScene) -> frozenset:
    """Undominated strategies of ``a`` in ``scene``; never empty when
    ``a``'s space is not.

    Raises as the scene check (:func:`_scene_picks`) does.  Utility games
    have at most ``DEFAULT_PROFILE_CAP`` payoff-table cells (else
    SizeCap).  A utility with ``respond`` answers the checked scene
    itself; any other is solved on the agent's integer payoff table
    quotiented by equal columns: the vectors compared hold one entry per
    column class the scene hits.  Compare-only games use pairwise :func:`dominates` checks.
    """
    picks = _scene_picks(game, a, scene)
    space = game.strategies[a]
    if game.utility is None:
        survivors = []
        for s in space:
            if not any(
                s2 is not s and dominates(game, a, scene, s, s2) for s2 in space
            ):
                survivors.append(s)
        return frozenset(survivors)
    cells = math.prod(len(sp) for sp in game.strategies)
    _check_cells(f"payoff table of agent {a}", cells)
    respond = getattr(game.utility, "respond", None)
    if respond is not None:
        return respond(a, scene)
    hit = _scene_classes(game, a, picks)
    vectors = list(zip(*map(_payoff_classes(game, a)[1].__getitem__, hit)))
    sums = list(map(sum, vectors))
    # A strict dominator has a larger sum over classes, and a dominated
    # strategy always has an undominated dominator, so checking each vector
    # against the undominated ones already kept, in order of decreasing
    # sum, is exact.  The check nests map calls, so no Python frame runs
    # per comparison.
    kept: list[tuple[int, ...]] = []
    survivors = []
    for i in sorted(range(len(space)), key=sums.__getitem__, reverse=True):
        v = vectors[i]
        if not any(map(all, map(map, itertools.repeat(operator.gt), kept,
                                  itertools.repeat(v)))):
            kept.append(v)
            survivors.append(space[i])
    return frozenset(survivors)


def _agent_names(count: int) -> tuple[str, ...]:
    letters = string.ascii_lowercase
    return tuple(
        letters[i] if i < len(letters) else f"ag{i}" for i in range(count)
    )


def make_guess_average_game(
    agent_count: int, max_int: int, agents: Sequence[str] | None = None
) -> Game:
    """Guess-two-thirds-of-the-others'-average over integers 1..max_int.

    Utility is the negated exact distance to the target, so preferences
    decide ties such as 5 vs 6 against a target of 17/3 correctly.
    """
    if agent_count < 2:
        raise TooFewAgents("guess-average needs at least two agents")
    if max_int < 1:
        raise TooFewAgents("strategy space must be nonempty")
    if agents is None:
        agents = _agent_names(agent_count)
    elif len(agents) != agent_count:
        raise TooFewAgents(
            f"guess-average for {agent_count} agents got {len(agents)} agent names"
        )
    _check_cells(f"guess23:{agent_count}:{max_int} payoff table", max_int**agent_count)
    space = tuple(range(1, max_int + 1))

    def utility(a: int, outcome: Outcome) -> Fraction:
        others = sum(outcome) - outcome[a]
        target = Fraction(2 * others, 3 * (agent_count - 1))
        return -abs(target - outcome[a])

    def respond(a: int, scene: ReasoningScene) -> frozenset:
        # Scaled by s, own guess x pays -|2t - s·x| against opponents' sum
        # t, so x + 1 beats x on every allowed t iff 4·tmin > s(2x + 1),
        # and x - 1 iff 4·tmax < s(2x - 1); a farther guess beats x only
        # where its nearer neighbour does.  A tie at a midpoint defeats
        # dominance, hence the strict comparisons.
        s = 3 * (agent_count - 1)
        opponents = scene.opponents[:a] + scene.opponents[a + 1:]
        tmin4, tmax4 = 4 * sum(map(min, opponents)), 4 * sum(map(max, opponents))
        return frozenset(
            x for x in space
            if not (x < max_int and tmin4 > s * (2 * x + 1)
                    or x > 1 and tmax4 < s * (2 * x - 1))
        )

    utility.respond = respond
    return utility_game(agents, [space] * agent_count, utility)


@dataclass(frozen=True)
class Quit:
    """The stay-out strategy of one agent in the sequence-override game."""

    agent: int


def alternating_sequences(num_agents: int, a: int, k: int) -> frozenset[tuple[int, ...]]:
    """Nonempty alternating agent sequences of length <= k starting with ``a``."""
    out: list[tuple[int, ...]] = []
    layer = [(a,)] if k > 0 else []
    while layer:
        out.extend(layer)
        if len(layer[0]) == k:
            break
        layer = [s + (b,) for s in layer for b in range(num_agents) if b != s[-1]]
    return frozenset(out)


def _sequence_space_sizes(num_agents: int) -> Iterator[int]:
    """Strategies per agent in the sequence game for k = 1, 2, ...: Quit
    plus (num_agents - 1)**(l - 1) alternating sequences of each length
    l <= k."""
    size, layer = 1, 1
    while True:
        size += layer
        yield size
        layer *= num_agents - 1


def make_sequence_game(agents: Sequence[str], k: int) -> Game:
    """Override game over alternating agent sequences of length <= k.

    An agent either quits (utility 0) or plays a sequence starting with
    herself; the sequence wins (1) when its tail is exactly what the
    tail's head agent played, and loses (-1) otherwise.
    """
    if len(agents) < 2:
        raise TooFewAgents("the sequence game needs at least two agents")
    if k < 1:
        raise TooFewAgents("sequence length bound must be positive")
    num = len(agents)
    # The table grows with the length bound, so checking each bound up to
    # k stops at the first one over the cap, before any space is built.
    for length, size in zip(range(1, k + 1), _sequence_space_sizes(num)):
        _check_cells(
            f"gk:{k} payoff table over sequences up to length {length}", size**num
        )
    spaces = []
    for a in range(num):
        seqs = sorted(alternating_sequences(num, a, k))
        spaces.append((Quit(a),) + tuple(seqs))

    def utility(a: int, outcome: Outcome) -> int:
        s = outcome[a]
        if isinstance(s, Quit):
            return 0
        tail = s[1:]
        if tail and outcome[tail[0]] == tail:
            return 1
        return -1

    # Per agent, its sequences of length >= 2 by their tails.
    by_tail = [{s[1:]: s for s in space[1:] if len(s) > 1} for space in spaces]

    def respond(a: int, scene: ReasoningScene) -> frozenset:
        # A sequence pays 1 where its tail is played and -1 elsewhere, so
        # Quit (0 everywhere) dominates it exactly when the scene rules
        # its tail out, and nothing beats its 1s otherwise.  Quit falls to
        # a survivor whose tail's head can play nothing else.
        opponents = scene.opponents
        survivors = [s for t, s in by_tail[a].items() if t in opponents[t[0]]]
        if not any(len(opponents[s[1]]) == 1 for s in survivors):
            survivors.append(spaces[a][0])
        return frozenset(survivors)

    utility.respond = respond
    return utility_game(tuple(agents), spaces, utility)


def make_binary_game(agents: Sequence[str]) -> Game:
    """Two strategies per agent; each agent simply prefers playing 1."""
    if not agents:
        raise TooFewAgents("need at least one agent")

    def utility(a: int, outcome: Outcome) -> int:
        return outcome[a]

    def respond(a: int, scene: ReasoningScene) -> frozenset:
        return frozenset({1})

    utility.respond = respond
    return utility_game(tuple(agents), [(0, 1)] * len(agents), utility)


def strategy_label(game: Game, s: Strategy) -> str:
    """Human-readable token for a strategy, used by the CLI and tests."""
    if isinstance(s, Quit):
        return f"quit({game.agents[s.agent]})"
    if isinstance(s, tuple):
        return ".".join(game.agents[a] for a in s)
    return str(s)
