"""The three workloads: seeded inputs, request lists and expected answers.

``build(name, seed, workdir)`` writes every input file under ``workdir``
and returns the fixed request list of the workload.  Each request is one
``rbr`` command line with the exit code and output it must produce.
Expected answers come from construction (chains, blow-ups), closed forms
(guess-2/3 on the complete graph, the sequence game), the independent
refiner in ``gen`` or ``rbr.oracle``; never from the code being timed.

Sizes and the random cores of ``refine`` and ``solve-wide`` are fixed per
workload; the seed picks the corpus graphs, the blow-up wiring, partner
graphs, line orders and request order, so any seed gives the same mix of
work.
"""

from __future__ import annotations

import itertools
import random
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from rbr.games import Game
from rbr.graph import NO_NODE, RbrGraph
from rbr.oracle import brute_force_hierarchy, brute_force_rational_solution

import gen

# A check returns None when the output is right, else the reason.
Check = Callable[[str], "str | None"]


@dataclass
class Request:
    argv: list[str]
    exit_code: int
    check: Check


ABC = ("a", "b", "c")

# The reference graphs b1-b5 (the published guess-2/3 table is on these).
REFERENCE = {
    "b1": (["a", "b", "c"], [(0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1)],
           {0: 0, 1: 1, 2: 2}),
    "b2": (["a", "b"], [(0, 1), (1, 0)], {0: 0, 1: 1}),
    "b3": (["a", "b", "c"], [(0, 1), (1, 0), (2, 0), (2, 1)], {0: 0, 1: 1, 2: 2}),
    "b4": (["a", "b", "c", "a", "b"],
           [(0, 1), (1, 0), (2, 3), (2, 4), (3, 4), (4, 3), (3, 2), (4, 2)],
           {0: 0, 1: 1, 2: 2}),
    "b5": (["a", "b", "a", "b", "a", "b", "c"],
           [(0, 1), (1, 0), (2, 3), (3, 2), (4, 5), (5, 4), (6, 4), (6, 5)],
           {0: 0, 1: 3, 2: 6}),
}

# dominance: (graph, game) pairs; "table12" is guess23:3:12 as a file.
# The mix puts many requests of similar cost around the median and around
# the 90th percentile, so that neither jumps between two distant request
# costs: b4 with guess23:3:10, which costs what b4 with the table file
# costs, is issued three times, so that the median falls inside the
# samples of these four requests.  27 requests make four whole passes
# the 100 samples a run needs.
CORPUS = 4
DOMINANCE = (
    [(b, "guess23:3:10") for b in REFERENCE] + [("b4", "guess23:3:10")] * 2
    + [("b1", "guess23:3:12"), ("b3", "guess23:3:12"), ("b1", "guess23:3:14"),
       ("b2", "guess23:3:14"), ("b5", "guess23:3:14"), ("b1", "guess23:3:16")]
    + [(b, "gk:5") for b in ("b1", "b2", "b4", "b5")]
    + [("b1", "table12"), ("b4", "table12")]
    + [(f"corpus{i}", spec) for i in range(CORPUS) for spec in ("guess23:3:8", "gk:4")]
)
TABLE_TOP = 12

# refine: chain lengths for `minimize`, chain pairs for `equiv`, and
# 10-agent blow-ups as (core size, copies per core node).
CHAIN_MINIMIZE = (220, 300, 380)
CHAIN_EQUIV = (220, 260)
REFINE_AGENTS = tuple(f"ag{i}" for i in range(10))
REFINE_BLOWUPS = ((20, 175), (30, 210), (40, 245))

# solve-wide: 3-agent blow-ups (core size, copies), each drawn from
# WIDE_CORES different cores, and requests (blow-up index, game, --trace)
# on every draw, so that many requests of similar cost lie around the
# median and the 90th percentile.
WIDE_BLOWUPS = ((10, 100), (20, 100), (20, 200), (25, 320), (30, 500))
WIDE_CORES = 3
WIDE_GAMES = ("binary", "gk:2", "gk:3", "guess23:3:6")
WIDE_REQUESTS = (
    [(0, "gk:3", True), (0, "guess23:3:6", True)]
    + [(1, g, True) for g in WIDE_GAMES]
    + [(2, "binary", True), (2, "gk:2", True), (2, "gk:3", False),
       (2, "guess23:3:6", False)]
    + [(3, g, False) for g in WIDE_GAMES]
    + [(4, g, False) for g in WIDE_GAMES]
)

WORKLOADS = ("dominance", "refine", "solve-wide")


def _rng(seed: int, label: str) -> random.Random:
    return random.Random(f"{seed}/{label}")


def _cores() -> random.Random:
    """The generator of the random cores of ``refine`` and ``solve-wide``.
    It ignores the run's seed: a request's cost depends mostly on its
    core, so a fixed set of cores keeps the cost of a run the same from
    seed to seed.  The seed still draws the blow-up wiring, the partner
    graphs, node names, line order and request order."""
    return random.Random("cores")


def _write(path: Path, text: str) -> str:
    path.write_text(text, encoding="utf-8")
    return str(path)


# -- expected solutions ---------------------------------------------------


def _rbr_graph(g: gen.Graph) -> RbrGraph:
    """The raw container the oracle walks (no validation involved)."""
    return RbrGraph(
        agents=g.agents,
        labels=tuple(g.labels),
        succ=tuple(tuple(m if m >= 0 else NO_NODE for m in row) for row in g.succ),
        designated=tuple(g.designated.get(a, NO_NODE) for a in range(len(g.agents))),
    )


def _guess23_game(agents: tuple[str, ...], top: int) -> Game:
    """Guess-2/3 with its own integer comparison, for the oracle: agent a's
    distance to the target, scaled by 3(k-1), is |2*others - 3(k-1)*s_a|."""
    scale = 3 * (len(agents) - 1)

    def compare(a, s, s2):
        d1 = abs(2 * (sum(s) - s[a]) - scale * s[a])
        d2 = abs(2 * (sum(s2) - s2[a]) - scale * s2[a])
        return (d1 < d2) - (d1 > d2)

    space = tuple(range(1, top + 1))
    return Game(agents=agents, strategies=(space,) * len(agents), compare=compare)


def _alternating(num: int, a: int, k: int) -> list[tuple[int, ...]]:
    """Agent sequences of length 1..k starting with a, no agent twice in a row."""
    out, level = [], [(a,)]
    for _ in range(k):
        out += level
        level = [s + (b,) for s in level for b in range(num) if b != s[-1]]
    return out


def _seq_token(agents, seq) -> str:
    return ".".join(agents[x] for x in seq)


def full_space(agents: tuple[str, ...], a: int, spec: str) -> frozenset[str]:
    """All strategy tokens of agent ``a`` in the builtin game ``spec``."""
    if spec == "binary":
        return frozenset({"0", "1"})
    if spec.startswith("gk:"):
        seqs = _alternating(len(agents), a, int(spec[3:]))
        return frozenset({f"quit({agents[a]})"} | {_seq_token(agents, s) for s in seqs})
    return frozenset(str(s) for s in range(1, int(spec.split(":")[2]) + 1))


def node_solutions(g: gen.Graph, spec: str) -> list[frozenset[str]]:
    """Rational-solution entry of every node of ``g`` as strategy tokens."""
    if spec == "binary":
        # Playing 1 strictly dominates 0 in every scene.
        return [frozenset({"1"})] * g.num_nodes
    if spec.startswith("gk:"):
        # Closed form: full space minus the depth-k bounded hierarchy.
        k = int(spec[3:])
        rg = _rbr_graph(g)
        return [
            full_space(g.agents, g.labels[v], spec)
            - {_seq_token(g.agents, s) for s in brute_force_hierarchy(rg, v, k)}
            for v in g.nodes()
        ]
    top = int(spec.split(":")[2])
    if all(w >= 0 for v in g.nodes() for a, w in enumerate(g.succ[v])
           if a != g.labels[v]):
        # Every node believes every other agent rational, so each round is
        # one step of plain iterated elimination, which leaves {1}.
        return [frozenset({"1"})] * g.num_nodes
    sol = brute_force_rational_solution(_rbr_graph(g), _guess23_game(g.agents, top))
    return [frozenset(map(str, entry)) for entry in sol]


def designated_answer(g: gen.Graph, spec: str, per_node=None) -> dict[str, frozenset]:
    """Predicted play per agent: the designated node's entry, or the full
    space for agents without a designated node."""
    if per_node is None:
        per_node = node_solutions(g, spec)
    return {
        name: per_node[g.designated[a]] if a in g.designated
        else full_space(g.agents, a, spec)
        for a, name in enumerate(g.agents)
    }


# -- output checks --------------------------------------------------------


def _set_tokens(cell: str) -> frozenset[str] | None:
    if not (cell.startswith("{") and cell.endswith("}")):
        return None
    return frozenset(t for t in cell[1:-1].split(",") if t)


def check_solve(expected: dict[str, frozenset], rows=None) -> Check:
    """Agent lines must match ``expected``; with ``rows`` (node name ->
    expected entry) the --trace table must list every node once and end
    each row with the node's fixpoint entry."""

    def check(out: str) -> str | None:
        lines = out.splitlines()
        if len(lines) < len(expected):
            return "missing agent lines"
        tail = lines[len(lines) - len(expected):]
        for (name, want), line in zip(expected.items(), tail):
            head, _, cell = line.partition(": ")
            if head != f"agent {name}" or _set_tokens(cell) != want:
                return f"agent {name}: got {line!r}"
        if rows is None:
            return None if len(lines) == len(expected) else "unexpected extra output"
        table = lines[: len(lines) - len(expected)]
        if len(table) != len(rows) + 1:
            return f"trace table has {len(table) - 1} rows, want {len(rows)}"
        width = len(table[0].split())
        for line in table[1:]:
            cells = line.split()
            if len(cells) != width or rows.get(cells[0]) != _set_tokens(cells[-1]):
                return f"trace row {line[:60]!r}"
        return None

    return check


_MIN_LINE = re.compile(r"(\d+) -> (\d+) nodes \(\d+ refinement rounds\)")


def check_minimize(n_in: int, out_path: Path, verify: Callable[[gen.Graph], str | None]) -> Check:
    def check(out: str) -> str | None:
        m = _MIN_LINE.fullmatch(out.strip())
        if not m or int(m.group(1)) != n_in:
            return f"summary {out.strip()!r}"
        # Removed once read, so every request must write it afresh.
        written = gen.parse_graph_text(out_path.read_text(encoding="utf-8"))
        out_path.unlink()
        if int(m.group(2)) != written.num_nodes:
            return "summary disagrees with the written graph"
        return verify(written)

    return check


def is_chain(n: int) -> Callable[[gen.Graph], str | None]:
    """The written graph must be the n-node alternating chain."""

    def verify(g: gen.Graph) -> str | None:
        if g.num_nodes != n or set(g.designated) != {0, 1}:
            return f"{g.num_nodes} nodes, want chain of {n}"
        v, steps = g.designated[0], 0
        if g.succ[v][1] != g.designated[1]:
            return "real b is not the successor of real a"
        while True:
            nxt = [w for w in g.succ[v] if w >= 0]
            if not nxt:
                break
            if len(nxt) != 1 or g.labels[nxt[0]] == g.labels[v]:
                return "not an alternating chain"
            v, steps = nxt[0], steps + 1
        return None if steps == n - 1 else f"chain walk covers {steps + 1} of {n} nodes"

    return verify


def is_core(core: gen.Graph) -> Callable[[gen.Graph], str | None]:
    """The written graph must be canonical, as large as the core, and
    equivalent to it."""

    def verify(g: gen.Graph) -> str | None:
        if g.num_nodes != core.num_nodes or g.label_counts() != core.label_counts():
            return f"{g.num_nodes} nodes, want the {core.num_nodes}-node core"
        if len(set(gen.hierarchy_classes(g.labels, g.succ))) != g.num_nodes:
            return "written graph is not canonical"
        same = gen.equivalent_per_agent(g, core)
        return None if same and all(same.values()) else "not equivalent to the core"

    return verify


def check_equiv(agents: tuple[str, ...], same: dict[int, bool]) -> Check:
    want = [f"agent {agents[a]}: hierarchies {'same' if s else 'differ'}"
            for a, s in same.items()]
    want.append("equivalent" if all(same.values()) else "not equivalent")

    def check(out: str) -> str | None:
        got = out.splitlines()
        return None if got == want else f"got {got[-1:]!r}, want {want[-1]!r}"

    return check


# -- workloads ------------------------------------------------------------


def _reference(name: str) -> gen.Graph:
    labels, edges, designated = REFERENCE[name]
    ids = [ABC.index(x) for x in labels]
    succ = [[-1] * 3 for _ in ids]
    for v, w in edges:
        succ[v][ids[w]] = w
    return gen.Graph(ABC, [f"n{v}" for v in range(len(ids))], ids, succ, dict(designated))


def _dominance(seed: int, work: Path) -> list[Request]:
    rng = _rng(seed, "dominance")
    graphs = {name: _reference(name) for name in REFERENCE}
    for i in range(CORPUS):
        graphs[f"corpus{i}"] = gen.small_graph(rng, ABC, 5, 7)
    paths = {name: _write(work / f"{name}.rbr", gen.graph_text(g, rng))
             for name, g in graphs.items()}
    table = _write(work / "guess23-12.game", gen.guess23_table_text(rng, ABC, TABLE_TOP))
    answers: dict = {}
    requests = []
    for name, spec in DOMINANCE:
        builtin = f"guess23:3:{TABLE_TOP}" if spec == "table12" else spec
        key = (name, builtin)
        if key not in answers:
            answers[key] = designated_answer(graphs[name], builtin)
        argv = ["solve", paths[name], table if spec == "table12" else spec]
        requests.append(Request(argv, 0, check_solve(answers[key])))
    rng.shuffle(requests)
    return requests


def _refine(seed: int, work: Path) -> list[Request]:
    rng, cores = _rng(seed, "refine"), _cores()
    requests = []
    for n in CHAIN_MINIMIZE:
        path = _write(work / f"chain{n}.rbr", gen.graph_text(gen.chain(n, "c"), rng))
        out = work / f"chain{n}.min.rbr"
        requests.append(Request(["minimize", path, "--out", str(out)], 0,
                                check_minimize(n, out, is_chain(n))))
    for n in CHAIN_EQUIV:
        pa = _write(work / f"chain{n}a.rbr", gen.graph_text(gen.chain(n, "p"), rng))
        pb = _write(work / f"chain{n + 2}b.rbr", gen.graph_text(gen.chain(n + 2, "q"), rng))
        # Designated nodes sit at different distances from the chain ends.
        requests.append(Request(["equiv", pa, pb], 1,
                                check_equiv(("a", "b"), {0: False, 1: False})))
    for i, (size, copies) in enumerate(REFINE_BLOWUPS):
        core = gen.random_core(cores, size, REFINE_AGENTS, 0.35)
        big, _ = gen.blow_up(rng, core, copies)
        big_path = _write(work / f"blowup{i}.rbr", gen.graph_text(big, rng))
        out = work / f"blowup{i}.min.rbr"
        requests.append(Request(["minimize", big_path, "--out", str(out)], 0,
                                check_minimize(big.num_nodes, out, is_core(core))))
        # `equiv` partners: the core with one edge moved, a second blow-up
        # of the core, and the core itself.  The blow-up has its core's
        # hierarchies, so the verdict is decided on the small cores.
        if i == 0:
            partner_core = partner = gen.mutate(rng, core)
        elif i == 1:
            partner_core, partner = core, gen.blow_up(rng, core, copies * 4 // 5)[0]
        else:
            partner_core = partner = core
        same = gen.equivalent_per_agent(core, partner_core)
        partner_path = _write(work / f"partner{i}.rbr", gen.graph_text(partner, rng))
        requests.append(Request(["equiv", big_path, partner_path],
                                0 if all(same.values()) else 1,
                                check_equiv(REFINE_AGENTS, same)))
    rng.shuffle(requests)
    return requests


def _solve_wide(seed: int, work: Path) -> list[Request]:
    rng, cores = _rng(seed, "solve-wide"), _cores()
    graphs = {}
    for r in range(WIDE_CORES):
        for i, (size, copies) in enumerate(WIDE_BLOWUPS):
            core = gen.random_core(cores, size, ABC, 0.5)
            big, image = gen.blow_up(rng, core, copies)
            path = _write(work / f"wide{i}-{r}.rbr", gen.graph_text(big, rng))
            graphs[i, r] = (core, big, image, path)
    requests = []
    for (i, spec, trace), r in itertools.product(WIDE_REQUESTS, range(WIDE_CORES)):
        core, big, image, path = graphs[i, r]
        # Copies share their core node's hierarchy, hence its entry.
        per_core = node_solutions(core, spec)
        rows = {big.names[v]: per_core[image[v]] for v in big.nodes()} if trace else None
        argv = ["solve", path, spec] + (["--trace"] if trace else [])
        requests.append(Request(argv, 0, check_solve(designated_answer(core, spec, per_core), rows)))
    rng.shuffle(requests)
    return requests


def build(name: str, seed: int, work: Path) -> list[Request]:
    """Write the inputs of workload ``name`` for ``seed`` under ``work``
    and return its request list."""
    work.mkdir(parents=True, exist_ok=True)
    return {"dominance": _dominance, "refine": _refine, "solve-wide": _solve_wide}[name](seed, work)


def warmup(work: Path) -> list[Request]:
    """One small request per subcommand, so lazy imports and first-call
    costs land in set-up rather than in the timed loop."""
    work.mkdir(parents=True, exist_ok=True)
    b3, b5 = _reference("b3"), _reference("b5")
    p3 = _write(work / "warm-b3.rbr", gen.graph_text(b3))
    p5 = _write(work / "warm-b5.rbr", gen.graph_text(b5))
    out = work / "warm-b5.min.rbr"
    return [
        Request(["solve", p3, "gk:2"], 0, check_solve(designated_answer(b3, "gk:2"))),
        Request(["minimize", p5, "--out", str(out)], 0,
                check_minimize(7, out, is_core(b3))),
        Request(["equiv", p3, p5], 0, check_equiv(ABC, {0: True, 1: True, 2: True})),
    ]
