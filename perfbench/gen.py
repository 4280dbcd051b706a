"""Seeded input generators and an independent reference refiner.

Everything here is plain Python with no import from ``rbr``: the graphs
and games are written as text files that the timed program reads, and the
expected answers derived from them must not depend on the code being
timed.

A graph is a ``Graph`` of dense node ids; ``succ[v][a]`` is the
a-labelled successor of ``v`` or -1, mirroring the ``rbr`` file format's
rule of at most one successor per agent.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction


@dataclass
class Graph:
    agents: tuple[str, ...]
    names: list[str]
    labels: list[int]
    succ: list[list[int]]
    designated: dict[int, int]  # agent id -> node id

    @property
    def num_nodes(self) -> int:
        return len(self.labels)

    def nodes(self) -> range:
        return range(len(self.labels))

    def label_counts(self) -> list[int]:
        counts = [0] * len(self.agents)
        for a in self.labels:
            counts[a] += 1
        return counts


def graph_text(g: Graph, rng: random.Random | None = None) -> str:
    """The ``rbr`` graph document for ``g``; ``rng`` shuffles the order of
    node and edge lines (the graph itself is unchanged)."""
    order = list(range(g.num_nodes))
    edges = [(v, w) for v in order for w in g.succ[v] if w >= 0]
    if rng is not None:
        rng.shuffle(order)
        rng.shuffle(edges)
    out = ["agents " + " ".join(g.agents)]
    out += [f"node {g.names[v]} {g.agents[g.labels[v]]}" for v in order]
    out += [f"edge {g.names[v]} {g.names[w]}" for v, w in edges]
    out += [f"real {g.agents[a]} {g.names[v]}" for a, v in sorted(g.designated.items())]
    return "\n".join(out) + "\n"


def parse_graph_text(text: str) -> Graph:
    """Read back a graph document written by ``rbr minimize --out``."""
    agents: tuple[str, ...] = ()
    names: list[str] = []
    labels: list[int] = []
    ids: dict[str, int] = {}
    edges: list[tuple[str, str]] = []
    designated: dict[int, int] = {}
    for line in text.splitlines():
        tok = line.split("#", 1)[0].split()
        if not tok:
            continue
        if tok[0] == "agents":
            agents = tuple(tok[1:])
        elif tok[0] == "node":
            ids[tok[1]] = len(names)
            names.append(tok[1])
            labels.append(agents.index(tok[2]))
        elif tok[0] == "edge":
            edges.append((tok[1], tok[2]))
        elif tok[0] == "real":
            designated[agents.index(tok[1])] = ids[tok[2]]
        else:
            raise ValueError(f"unexpected line {line!r}")
    succ = [[-1] * len(agents) for _ in names]
    for x, y in edges:
        v, w = ids[x], ids[y]
        if succ[v][labels[w]] not in (-1, w):
            raise ValueError(f"node {x} has two {agents[labels[w]]}-successors")
        succ[v][labels[w]] = w
    return Graph(agents, names, labels, succ, designated)


# -- independent reference refinement -------------------------------------


def hierarchy_classes(labels: list[int], succ: list[list[int]]) -> list[int]:
    """Moore-style refinement to the coarsest stable partition: two nodes
    share a class iff their belief hierarchies coincide."""
    cls = list(labels)
    count = len(set(cls))
    while True:
        sig: dict = {}
        new = [
            sig.setdefault(
                (cls[v], tuple(cls[m] if m >= 0 else -1 for m in succ[v])), len(sig)
            )
            for v in range(len(labels))
        ]
        if len(sig) == count:
            return new
        cls, count = new, len(sig)


def equivalent_per_agent(ga: Graph, gb: Graph) -> dict[int, bool] | None:
    """Per designated agent, whether the two designated nodes have equal
    hierarchies; None when the designation domains differ."""
    if set(ga.designated) != set(gb.designated):
        return None
    off = ga.num_nodes
    succ = ga.succ + [[m + off if m >= 0 else -1 for m in row] for row in gb.succ]
    cls = hierarchy_classes(ga.labels + gb.labels, succ)
    return {
        a: cls[ga.designated[a]] == cls[off + gb.designated[a]]
        for a in sorted(ga.designated)
    }


# -- generators -----------------------------------------------------------


def chain(n: int, name: str) -> Graph:
    """Alternating two-agent chain c0 -> c1 -> ... -> c(n-1).

    Node i is at distance n-1-i from the end, so all nodes are pairwise
    distinguishable (the chain is its own minimal form) and refinement
    needs about n rounds to separate them.
    """
    return Graph(
        agents=("a", "b"),
        names=[f"{name}_{i}" for i in range(n)],
        labels=[i % 2 for i in range(n)],
        succ=[[-1, i + 1] if i % 2 == 0 else [i + 1, -1] for i in range(n - 1)]
        + [[-1, -1]],
        designated={0: 0, 1: 1} if n > 1 else {0: 0},
    )


def random_core(
    rng: random.Random, size: int, agents: tuple[str, ...], density: float
) -> Graph:
    """Random canonical graph of ``size`` nodes over ``agents``.

    Nodes lie on a backbone cycle v0 -> v1 -> ... -> v(size-1) -> v0, so
    every node is reachable from v0; further edges are added with
    probability ``density`` per (node, other agent).  Drafts that are not
    canonical (two nodes with equal hierarchies) are redrawn.
    """
    num = len(agents)
    while True:
        labels = [0]
        for i in range(1, size):
            banned = {labels[-1]} | ({labels[0]} if i == size - 1 else set())
            labels.append(rng.choice([a for a in range(num) if a not in banned]))
        if len(set(labels)) < num:
            continue
        succ = [[-1] * num for _ in range(size)]
        for v in range(size):
            w = (v + 1) % size
            succ[v][labels[w]] = w
        by_label = {a: [v for v in range(size) if labels[v] == a] for a in range(num)}
        for v in range(size):
            for a in range(num):
                if a != labels[v] and succ[v][a] < 0 and rng.random() < density:
                    succ[v][a] = rng.choice(by_label[a])
        if len(set(hierarchy_classes(labels, succ))) != size:
            continue
        designated = {0: 0}
        for a in range(num):
            designated.setdefault(a, rng.choice(by_label[a]))
        names = [f"v{v}" for v in range(size)]
        return Graph(tuple(agents), names, labels, succ, designated)


def mutate(rng: random.Random, core: Graph) -> Graph:
    """Copy of ``core`` with one non-backbone edge retargeted (the result
    may or may not stay equivalent; callers decide with the refiner)."""
    size = core.num_nodes
    succ = [list(row) for row in core.succ]
    while True:
        v = rng.randrange(size)
        a = rng.randrange(len(core.agents))
        w = succ[v][a]
        if w < 0 or w == (v + 1) % size:
            continue
        others = [u for u in range(size) if core.labels[u] == a and u != w]
        if others:
            succ[v][a] = rng.choice(others)
            return Graph(core.agents, [f"m{v}" for v in range(size)],
                         list(core.labels), succ, dict(core.designated))


def blow_up(rng: random.Random, core: Graph, copies: int) -> tuple[Graph, list[int]]:
    """Replace every core node by ``copies`` copies; returns the graph and
    the copy -> core-node map.

    Copy j of v follows the backbone to copy j of v+1, and the last
    backbone edge to copy j+1 of v0, so one cycle runs through every copy
    and all of them are reachable from the designated copy of v0.  Other
    edges go to random copies of the core successor.  The copy map is a
    local isomorphism onto the core, so the minimal form of the blow-up is
    the core itself and every copy has its core node's hierarchy.
    """
    size = core.num_nodes
    node = lambda v, j: v * copies + j  # noqa: E731
    labels, succ, names, image = [], [], [], []
    for v in range(size):
        for j in range(copies):
            labels.append(core.labels[v])
            names.append(f"v{v}_{j}")
            image.append(v)
            row = []
            for w in core.succ[v]:
                if w < 0:
                    row.append(-1)
                elif w == v + 1:
                    row.append(node(w, j))
                elif v == size - 1 and w == 0:
                    row.append(node(w, (j + 1) % copies))
                else:
                    row.append(node(w, rng.randrange(copies)))
            succ.append(row)
    designated = {a: node(v, 0) for a, v in core.designated.items()}
    return Graph(core.agents, names, labels, succ, designated), image


def small_graph(rng: random.Random, agents: tuple[str, ...], min_nodes: int,
                max_nodes: int) -> Graph:
    """Random graph of ``min_nodes``..``max_nodes`` nodes, all reachable
    from the designated ones, with at least two agents designated."""
    num = len(agents)
    while True:
        n = rng.randint(min_nodes, max_nodes)
        labels = [rng.randrange(num) for _ in range(n)]
        succ = [[-1] * num for _ in range(n)]
        for v in range(n):
            for a in range(num):
                targets = [w for w in range(n) if labels[w] == a and a != labels[v]]
                if targets and rng.random() < 0.75:
                    succ[v][a] = rng.choice(targets)
        designated = {}
        for a in range(num):
            owners = [w for w in range(n) if labels[w] == a]
            if owners and rng.random() < 0.85:
                designated[a] = rng.choice(owners)
        seen = set(designated.values())
        stack = list(seen)
        while stack:
            for w in succ[stack.pop()]:
                if w >= 0 and w not in seen:
                    seen.add(w)
                    stack.append(w)
        if len(designated) >= 2 and len(seen) == n:
            return Graph(tuple(agents), [f"n{v}" for v in range(n)], labels, succ,
                         designated)


def guess23_table_text(rng: random.Random, agents: tuple[str, ...], top: int) -> str:
    """Guess-2/3-of-the-others'-average over 1..``top`` as a normal-form
    table; utility lines are written in a seeded random order."""
    k = len(agents)
    lines = []
    for a in range(k):
        for outcome in itertools.product(range(1, top + 1), repeat=k):
            others = sum(outcome) - outcome[a]
            value = -abs(Fraction(2 * others, 3 * (k - 1)) - outcome[a])
            lines.append(
                f"utility {agents[a]} {' '.join(map(str, outcome))} {value}"
            )
    rng.shuffle(lines)
    head = ["game normal-form", "agents " + " ".join(agents)]
    head += [
        f"strategies {x}: " + " ".join(str(s) for s in range(1, top + 1))
        for x in agents
    ]
    return "\n".join(head + lines) + "\n"
