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

# Bound on the cells of one agent's payoff table, |S_a| * prod_{b != a} |S_b|
# (the number of full outcome profiles); ``dominates`` applies it to the
# opponent profiles of a scene.
DEFAULT_PROFILE_CAP = 10**6


@dataclass(frozen=True)
class Game:
    """Immutable finite game over the agent universe ``agents``.

    ``compare(a, s, s2)`` is agent ``a``'s preference oracle over full
    outcome profiles.  ``utility`` is present exactly when the game is
    utility-defined; it must agree with ``compare`` and return exact
    rationals (``int`` or ``Fraction``).

    A utility may carry agent ``a``'s class table in closed form as
    ``utility.classes(a)``: what :func:`_payoff_classes` would find by
    deduping the columns of the payoff table, scaled by one positive
    constant per agent.  The table is then built without calling
    ``utility``; other utilities fill it one call per cell.  The classes
    belong to the utility, so ``dataclasses.replace(game, utility=...)``
    drops them with it.
    """

    agents: tuple[str, ...]
    strategies: tuple[tuple[Strategy, ...], ...]
    compare: Compare
    utility: Callable[[int, Outcome], Fraction] | None = None
    # Per-agent class table, filled on first use by _payoff_classes: the
    # class of each payoff-table column, each class's int column, and the
    # column classes in runs over the last opponent's strategies.
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
    """Validate and freeze a reasoning scene for ``owner``."""
    opponents = []
    for b in range(game.num_agents):
        if b == owner:
            opponents.append(frozenset())
            continue
        try:
            entries = frozenset(opponent_sets[b])
        except (KeyError, IndexError):
            raise ForeignStrategy(f"no opponent set for agent {b}") from None
        if not entries:
            raise ForeignStrategy(f"empty opponent set for agent {b}")
        if not entries <= set(game.strategies[b]):
            raise ForeignStrategy(f"opponent set for agent {b} leaves its space")
        opponents.append(entries)
    return ReasoningScene(owner=owner, opponents=tuple(opponents))


def _scene_profiles(game: Game, scene: ReasoningScene, cap: int):
    """Iterate opponent profiles as full outcome templates (owner slot None).

    Keeps each opponent's strategies in declaration order so enumeration is
    deterministic.
    """
    axes = []
    size = 1
    for b in range(game.num_agents):
        if b == scene.owner:
            axes.append((None,))
        else:
            picked = [s for s in game.strategies[b] if s in scene.opponents[b]]
            axes.append(tuple(picked))
            size *= len(picked)
    if size > cap:
        raise SizeCap(f"opponent-profile product has {size} entries (cap {cap})")
    return itertools.product(*axes)


def dominates(
    game: Game,
    a: int,
    scene: ReasoningScene,
    s: Strategy,
    s_prime: Strategy,
    cap: int = DEFAULT_PROFILE_CAP,
) -> bool:
    """True iff ``s_prime`` strictly beats ``s`` on every opponent profile.

    Equivalence and incomparability on any profile both defeat dominance.
    """
    if scene.owner != a:
        raise SceneOwnerMismatch(f"scene owned by {scene.owner}, not {a}")
    space = game.strategies[a]
    if s not in space or s_prime not in space:
        raise ForeignStrategy((s, s_prime))
    for template in _scene_profiles(game, scene, cap):
        outcome = list(template)
        outcome[a] = s
        low = tuple(outcome)
        outcome[a] = s_prime
        high = tuple(outcome)
        if game.compare(a, low, high) != -1:
            return False
    return True


def _check_cells(what: str, cells: int, cap: int) -> None:
    """Raise SizeCap when ``what``, a payoff table of ``cells`` cells, is
    over ``cap``."""
    if cells > cap:
        raise SizeCap(f"{what} has {cells} cells (cap {cap})")


def _payoff_rows(game: Game, a: int) -> list[list[int]]:
    """Agent ``a``'s utilities as ints, one row per own strategy, one
    ``utility`` call per cell.

    Column ``j`` of a row is the opponent profile whose mixed-radix digits
    (opponents in declaration order, last one fastest) are its strategy
    indices.  Every utility is scaled by the agent's common denominator,
    which keeps the order exact.
    """
    axes = list(game.strategies)
    utilities = []
    for s in game.strategies[a]:
        axes[a] = (s,)
        utilities.append([game.utility(a, o) for o in itertools.product(*axes)])
    den = math.lcm(*(u.denominator for row in utilities for u in row))
    return [[u.numerator * (den // u.denominator) for u in row] for row in utilities]


def _payoff_classes(game: Game, a: int) -> tuple[list[int], list[tuple[int, ...]], list]:
    """Agent ``a``'s payoff table quotiented by equal columns, cached on
    ``game._classes``: the class of each column of :func:`_payoff_rows`,
    each class's column, one payoff per own strategy, and the classes cut
    into runs, one per profile of the opponents before the last.
    Opponent profiles with equal columns pay every strategy of ``a``
    alike, so no dominance test can tell them apart.  The table is
    ``utility.classes(a)`` where the utility has it, else the columns of
    :func:`_payoff_rows` numbered by first appearance."""
    table = game._classes.get(a)
    if table is None:
        if hasattr(game.utility, "classes"):
            classes, class_columns = game.utility.classes(a)
        else:
            index: dict = {}
            classes = [index.setdefault(c, len(index)) for c in zip(*_payoff_rows(game, a))]
            class_columns = list(index)
        others = [len(sp) for b, sp in enumerate(game.strategies) if b != a]
        runs = list(zip(*[iter(classes)] * (others[-1] if others else 1)))
        table = game._classes[a] = (classes, class_columns, runs)
    return table


def _scene_classes(game: Game, scene: ReasoningScene) -> set[int]:
    """Column classes of the opponent profiles ``scene`` allows.

    The leading opponents' picks index the runs of the agent's class
    list, and one ``itemgetter`` reads the last opponent's picks out of
    each run, so no Python code runs per column.
    """
    picks = []
    for b, space in enumerate(game.strategies):
        if b == scene.owner:
            continue
        allowed = scene.opponents[b]
        picked = [i for i, s in enumerate(space) if s in allowed]
        if not picked or len(picked) != len(allowed):
            raise ForeignStrategy(
                f"opponent set for agent {b} is empty or leaves its space"
            )
        picks.append((len(space), picked))
    if not game.strategies[scene.owner]:
        return set()
    runs = _payoff_classes(game, scene.owner)[2]
    # A game without opponents reads its one column as a run of one.
    last = picks.pop()[1] if picks else [0]
    leading = [0]
    for radix, picked in picks:
        leading = [c * radix + i for c in leading for i in picked]
    # One pick is read as a slice, so that every run gives a tuple.
    if len(last) == 1:
        last = [slice(last[0], last[0] + 1)]
    read = operator.itemgetter(*last)
    return set(itertools.chain.from_iterable(map(read, map(runs.__getitem__, leading))))


def rational_response(
    game: Game, a: int, scene: ReasoningScene, cap: int = DEFAULT_PROFILE_CAP
) -> frozenset:
    """Undominated strategies of ``a`` in ``scene``; never empty.

    Utility games are solved on the agent's integer payoff table (at most
    ``cap`` cells, else SizeCap) quotiented by equal columns: the vectors
    compared hold one entry per column class the scene hits.  Compare-only
    games use pairwise :func:`dominates` checks.
    """
    if scene.owner != a:
        raise SceneOwnerMismatch(f"scene owned by {scene.owner}, not {a}")
    space = game.strategies[a]
    if game.utility is None:
        survivors = []
        for s in space:
            if not any(
                s2 is not s and dominates(game, a, scene, s, s2, cap) for s2 in space
            ):
                survivors.append(s)
        return frozenset(survivors)
    cells = math.prod(len(sp) for sp in game.strategies)
    _check_cells(f"payoff table of agent {a}", cells, cap)
    hit = _scene_classes(game, scene)
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
        raise TooFewAgents("agent name list does not match the agent count")
    _check_cells(
        f"guess23:{agent_count}:{max_int} payoff table",
        max_int**agent_count,
        DEFAULT_PROFILE_CAP,
    )
    space = tuple(range(1, max_int + 1))

    def utility(a: int, outcome: Outcome) -> Fraction:
        others = sum(outcome) - outcome[a]
        target = Fraction(2 * others, 3 * (agent_count - 1))
        return -abs(target - outcome[a])

    def classes(a: int) -> tuple[list[int], list[tuple[int, ...]]]:
        # Scaled by 3(agent_count - 1), a payoff is the int
        # -|2·others - scale·own|: a function of the own strategy and the
        # opponents' sum, so a column's class is that sum less its least.
        scale, low = 3 * (agent_count - 1), agent_count - 1
        sums = [0]
        for _ in range(low):
            sums = [t + i for t in sums for i in range(max_int)]
        columns = [
            tuple(-abs(2 * others - scale * own) for own in space)
            for others in range(low, low * max_int + 1)
        ]
        return sums, columns

    utility.classes = classes
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
            f"gk:{k} payoff table over sequences up to length {length}",
            size**num,
            DEFAULT_PROFILE_CAP,
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

    def classes(a: int) -> tuple[list[int], list[tuple[int, ...]]]:
        # Opponent b's digit matters only where b plays a tail of one of
        # a's sequences, a sequence of length <= k - 1 starting with b;
        # its other strategies share the digit after the tails'.  A class
        # is a mixed-radix number over these digits, and a sequence with
        # a tail has +1 on the run of classes where b plays that tail.
        opponents = [b for b in range(num) if b != a]
        tails = {b: sorted(alternating_sequences(num, b, k - 1)) for b in opponents}
        # Sequences start with their owner, so one map serves all opponents.
        digit = {t: i for b in opponents for i, t in enumerate(tails[b])}
        strides = {}
        width = 1
        for b in reversed(opponents):
            strides[b] = width
            width *= len(tails[b]) + 1
        sums = [0]
        for b in opponents:
            other = len(tails[b])
            values = [digit.get(t, other) * strides[b] for t in spaces[b]]
            sums = [c + v for c in sums for v in values]
        rows = []
        for s in spaces[a]:
            if isinstance(s, Quit):
                rows.append([0] * width)
            elif len(s) == 1:
                rows.append([-1] * width)
            else:
                b = s[1]
                size, stride = len(tails[b]) + 1, strides[b]
                j = digit[s[1:]]
                block = [-1] * (j * stride) + [1] * stride
                block += [-1] * ((size - j - 1) * stride)
                rows.append(block * (width // (size * stride)))
        return sums, list(zip(*rows))

    utility.classes = classes
    return utility_game(tuple(agents), spaces, utility)


def make_binary_game(agents: Sequence[str]) -> Game:
    """Two strategies per agent; each agent simply prefers playing 1."""
    if not agents:
        raise TooFewAgents("need at least one agent")

    def utility(a: int, outcome: Outcome) -> int:
        return outcome[a]

    def classes(a: int) -> tuple[list[int], list[tuple[int, ...]]]:
        return [0] * 2 ** (len(agents) - 1), [(0, 1)]

    utility.classes = classes
    return utility_game(tuple(agents), [(0, 1)] * len(agents), utility)


def strategy_label(game: Game, s: Strategy) -> str:
    """Human-readable token for a strategy, used by the CLI and tests."""
    if isinstance(s, Quit):
        return f"quit({game.agents[s.agent]})"
    if isinstance(s, tuple):
        return ".".join(game.agents[a] for a in s)
    return str(s)
