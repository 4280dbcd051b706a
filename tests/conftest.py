"""Shared fixtures: the five reference graphs and a small random corpus."""

from __future__ import annotations

import random

import pytest

from rbr import (
    NO_NODE,
    RbrGraph,
    full_solution,
    initial_partition,
    rationalise,
    refine_once,
    validate_graph,
)


ACCEPTANCE_VERDICTS: list[str] = []


def pytest_terminal_summary(terminalreporter):
    """Echo the acceptance verdicts where output capture cannot eat them."""
    if ACCEPTANCE_VERDICTS:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_VERDICTS:
            terminalreporter.write_line(line)


def build(agents, nodes, edges, designation) -> RbrGraph:
    """Readable graph construction from names instead of ids."""
    names = [n for n, _ in nodes]
    idx = {n: i for i, n in enumerate(names)}
    labels = [agents.index(a) for _, a in nodes]
    edge_ids = [(idx[x], idx[y]) for x, y in edges]
    desig = {agents.index(a): idx[n] for a, n in designation.items()}
    return validate_graph(agents, len(nodes), labels, edge_ids, desig, node_names=names)


ABC = ("a", "b", "c")


@pytest.fixture(scope="session")
def b1() -> RbrGraph:
    """Three designated agents, common belief in rationality (complete)."""
    return build(
        ABC,
        [("na", "a"), ("nb", "b"), ("nc", "c")],
        [("na", "nb"), ("na", "nc"), ("nb", "na"),
         ("nb", "nc"), ("nc", "na"), ("nc", "nb")],
        {"a": "na", "b": "nb", "c": "nc"},
    )


@pytest.fixture(scope="session")
def b2() -> RbrGraph:
    """Two-agent mutual belief; c undesignated (irrational)."""
    return build(
        ABC,
        [("na", "a"), ("nb", "b")],
        [("na", "nb"), ("nb", "na")],
        {"a": "na", "b": "nb"},
    )


@pytest.fixture(scope="session")
def b3() -> RbrGraph:
    """Like b2 but c is rational and believes in a and b."""
    return build(
        ABC,
        [("na", "a"), ("nb", "b"), ("nc", "c")],
        [("na", "nb"), ("nb", "na"), ("nc", "na"), ("nc", "nb")],
        {"a": "na", "b": "nb", "c": "nc"},
    )


@pytest.fixture(scope="session")
def b4() -> RbrGraph:
    """c believes in doxastic copies of a and b that believe in c."""
    return build(
        ABC,
        [("na", "a"), ("nb", "b"), ("nc", "c"), ("da", "a"), ("db", "b")],
        [("na", "nb"), ("nb", "na"), ("nc", "da"), ("nc", "db"),
         ("da", "db"), ("db", "da"), ("da", "nc"), ("db", "nc")],
        {"a": "na", "b": "nb", "c": "nc"},
    )


@pytest.fixture(scope="session")
def b5() -> RbrGraph:
    """Redundant 7-node presentation of b3 (three hierarchy-equal a/b pairs)."""
    return build(
        ABC,
        [("a1", "a"), ("b1", "b"), ("a2", "a"), ("b2", "b"),
         ("a3", "a"), ("b3", "b"), ("c", "c")],
        [("a1", "b1"), ("b1", "a1"), ("a2", "b2"), ("b2", "a2"),
         ("a3", "b3"), ("b3", "a3"), ("c", "a3"), ("c", "b3")],
        {"a": "a1", "b": "b2", "c": "c"},
    )


def random_graph(rng: random.Random, max_nodes: int = 6, num_agents: int | None = None) -> RbrGraph:
    """One random valid graph: random labels/edges, random designation,
    restricted to the reachable part."""
    num_agents = num_agents or rng.choice([2, 3])
    agents = ABC[:num_agents]
    # Bias towards the larger sizes; the trim below shrinks graphs anyway.
    n = max(rng.randint(1, max_nodes), rng.randint(1, max_nodes))
    labels = [rng.randrange(num_agents) for _ in range(n)]
    edges = []
    for src in range(n):
        for a in range(num_agents):
            if a == labels[src]:
                continue
            targets = [m for m in range(n) if labels[m] == a]
            if targets and rng.random() < 0.75:
                edges.append((src, rng.choice(targets)))
    designation = {}
    for a in range(num_agents):
        candidates = [m for m in range(n) if labels[m] == a]
        if candidates and rng.random() < 0.9:
            designation[a] = rng.choice(candidates)
    if not designation:
        designation = {labels[0]: 0}

    # Keep only nodes reachable from the designated ones.
    reach = set(designation.values())
    frontier = list(reach)
    while frontier:
        src = frontier.pop()
        for s, t in edges:
            if s == src and t not in reach:
                reach.add(t)
                frontier.append(t)
    keep = sorted(reach)
    remap = {old: new for new, old in enumerate(keep)}
    return validate_graph(
        agents,
        len(keep),
        [labels[m] for m in keep],
        [(remap[s], remap[t]) for s, t in edges if s in reach and t in reach],
        {a: remap[m] for a, m in designation.items()},
    )


def blow_up(rng: random.Random, core: RbrGraph, copies: int) -> tuple[RbrGraph, list[int]]:
    """``copies`` copies of every core node, each edge to a random copy of
    its core target, and the copy -> core-node map.

    Every copy has its core node's belief hierarchy.  Copy 0 of each
    designated node is designated; other copies may be unreachable, so
    reachability is not enforced.
    """
    image = [v for v in core.nodes() for _ in range(copies)]
    edges = [
        (n, core.succ[v][a] * copies + rng.randrange(copies))
        for n, v in enumerate(image)
        for a in range(core.num_agents)
        if core.succ[v][a] != NO_NODE
    ]
    g = validate_graph(
        core.agents,
        len(image),
        [core.labels[v] for v in image],
        edges,
        {a: v * copies for a, v in enumerate(core.designated) if v != NO_NODE},
        require_reachable=False,
    )
    return g, image


def chain(length: int) -> RbrGraph:
    """Alternating two-agent path: every node has its own hierarchy, and
    refinement takes ``length - 2`` splitting rounds (from two nodes on)."""
    labels = [i % 2 for i in range(length)]
    edges = [(i, i + 1) for i in range(length - 1)]
    designation = {0: 0, 1: 1} if length > 1 else {0: 0}
    return validate_graph(("a", "b"), length, labels, edges, designation)


def cyclic_word(word, designated: int = 0) -> RbrGraph:
    """The cycle of a binary word of even length n over 4 agents: node i
    is labelled 2 * (i % 2) + word[i], and its only successor is node
    i + 1 mod n.  These are the hard inputs of Hopcroft-style
    refinement."""
    n = len(word)
    labels = [2 * (i % 2) + w for i, w in enumerate(word)]
    edges = [(i, (i + 1) % n) for i in range(n)]
    return validate_graph(("a", "b", "c", "d"), n, labels, edges,
                          {labels[designated]: designated})


def iterated_refinement(g: RbrGraph):
    """The fixpoint of iterating ``refine_once`` from the label partition,
    and the block count after each splitting round (the label partition
    first)."""
    p = initial_partition(g)
    counts = [p.block_count]
    while (q := refine_once(g, p)) != p:
        p = q
        counts.append(p.block_count)
    return p, counts


def iterated_rationalise(g: RbrGraph, game) -> tuple:
    """R^0, R^1, ... from the full solution, each round a full
    ``rationalise`` of the one before, up to the first repeat."""
    trace = [full_solution(g, game)]
    while len(trace) < 2 or trace[-1] != trace[-2]:
        trace.append(rationalise(g, game, trace[-1]))
    return tuple(trace)


@pytest.fixture(scope="session")
def corpus() -> list[RbrGraph]:
    """Deterministic collection of small valid graphs, 2-3 agents."""
    rng = random.Random(20260823)
    graphs = [random_graph(rng) for _ in range(40)]
    # Make sure the degenerate shapes are always present.
    graphs.append(validate_graph(("a",), 1, [0], [], {0: 0}))
    graphs.append(validate_graph(("a", "b"), 1, [0], [], {0: 0}))
    return graphs


@pytest.fixture(scope="session")
def corpus3(corpus) -> list[RbrGraph]:
    """The three-agent slice of the corpus (shared universe with b1-b5)."""
    return [g for g in corpus if g.agents == ABC]
