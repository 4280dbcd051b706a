"""Line-oriented text formats for graphs and utility games, plus DOT export.

Graph documents declare the agent universe, then nodes, edges, and the
`real` (designated) node of each rational agent.  Game documents declare
strategy tokens per agent and one exact-rational utility entry per agent
and outcome.  Parsing is purely syntactic; structural rules are enforced
separately by validation.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    DuplicateDeclaration,
    DuplicateStrategy,
    GraphSyntaxError,
    MissingUtilityEntry,
    UnknownIdentifier,
)
from .games import Game, utility_game
from .graph import NO_NODE, RbrGraph, validate_graph


@dataclass(frozen=True)
class RawGraph:
    """Parsed but unvalidated graph components."""

    agents: tuple[str, ...]
    node_names: tuple[str, ...]
    labels: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]
    designation: dict[int, int]

    def validate(self) -> RbrGraph:
        return validate_graph(
            self.agents,
            len(self.node_names),
            self.labels,
            self.edges,
            self.designation,
            node_names=self.node_names,
        )


def _lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line.split()


def parse_rbr(text: str) -> RawGraph:
    """Parse a graph document into raw components.

    Directives: ``agents`` (once, first), ``node <id> <agent>``,
    ``edge <from> <to>``, ``real <agent> <node>``.  Names must be
    declared before use.  A document in the layout that
    :func:`serialize_rbr` writes is read in bulk; any other document, and
    every error, goes through the line parser.
    """
    raw = _parse_layout(text)
    return raw if raw is not None else _parse_lines(text)


# Characters of body text per bulk slice: large enough that the per-slice
# calls cost nothing, small enough that a slice's token list stays small
# beside the graph (a whole-document split doubled the parse's peak memory).
_CHUNK = 1 << 16


def _parse_layout(text: str) -> RawGraph | None:
    """The document's components if it is in :func:`serialize_rbr`'s
    layout, else None.

    The layout is one ``agents`` line, then all ``node`` lines, then all
    ``edge`` lines, then all ``real`` lines, with one space between
    tokens, ``"\\n"`` after every line and no ``#``.  The body is read in
    slices cut at line ends, each split once into its kind, first and
    second columns.  A slice counts only if its columns, joined back with
    spaces and line ends, give it exactly: then its lines are the lines
    the line parser would see.  A document the line parser would reject
    (a repeated or unknown name, say) returns None too, so that parser
    reports the error with its message and line.
    """
    start = text.find("\n") + 1
    names = text[:start].split()
    if (
        "#" in text
        or names[:1] != ["agents"]
        or len(names) < 2
        or " ".join(names) + "\n" != text[:start]
    ):
        return None
    agents = tuple(names[1:])
    agent_id = {name: a for a, name in enumerate(agents)}
    if len(agent_id) != len(agents):
        return None
    node_id: dict[str, int] = {}
    labels: list[int] = []
    edges: list[tuple[int, int]] = []
    designation: dict[int, int] = {}

    while start < len(text):
        end = text.find("\n", start + _CHUNK - 1) + 1 or len(text)
        chunk = text[start:end]
        start = end
        tokens = chunk.split()
        kinds, firsts, seconds = tokens[0::3], tokens[1::3], tokens[2::3]
        if "\n".join(map(" ".join, zip(kinds, firsts, seconds))) + "\n" != chunk:
            return None
        # Node lines run up to `mid`, edge lines up to `tail`, real lines
        # to the end: within the slice, and across slices too.
        mid = kinds.count("node")
        tail = mid + kinds.count("edge")
        layout = ["node"] * mid + ["edge"] * (tail - mid)
        if kinds != layout + ["real"] * (len(kinds) - tail):
            return None
        if mid and (edges or designation) or tail > mid and designation:
            return None
        before = len(designation)
        try:
            node_id.update(zip(firsts[:mid], range(len(labels), len(labels) + mid)))
            labels.extend(map(agent_id.__getitem__, seconds[:mid]))
            edges.extend(zip(map(node_id.__getitem__, firsts[mid:tail]),
                             map(node_id.__getitem__, seconds[mid:tail])))
            designation.update(zip(map(agent_id.__getitem__, firsts[tail:]),
                                   map(node_id.__getitem__, seconds[tail:])))
        except KeyError:
            return None
        if len(node_id) != len(labels) or len(designation) - before != len(kinds) - tail:
            return None

    return RawGraph(
        agents=agents,
        node_names=tuple(node_id),
        labels=tuple(labels),
        edges=tuple(edges),
        designation=designation,
    )


def _parse_lines(text: str) -> RawGraph:
    """:func:`parse_rbr` for any document, one line at a time."""
    agents: tuple[str, ...] | None = None
    agent_id: dict[str, int] = {}
    node_id: dict[str, int] = {}
    labels: list[int] = []
    edges: list[tuple[int, int]] = []
    designation: dict[int, int] = {}

    for lineno, tokens in _lines(text):
        kind, args = tokens[0], tokens[1:]
        if kind == "agents":
            if agents is not None:
                raise DuplicateDeclaration(lineno, "second agents line")
            if not args:
                raise GraphSyntaxError(lineno, "agents line needs at least one name")
            agents = tuple(args)
            for i, name in enumerate(args):
                if name in agent_id:
                    raise DuplicateDeclaration(lineno, f"agent {name} repeated")
                agent_id[name] = i
            continue
        if agents is None:
            raise GraphSyntaxError(lineno, "agents line must come first")
        if kind == "node":
            if len(args) != 2:
                raise GraphSyntaxError(lineno, "expected: node <id> <agent>")
            name, agent = args
            if name in node_id:
                raise DuplicateDeclaration(lineno, f"node {name} redeclared")
            if agent not in agent_id:
                raise UnknownIdentifier(lineno, f"unknown agent {agent}")
            node_id[name] = len(labels)
            labels.append(agent_id[agent])
        elif kind == "edge":
            if len(args) != 2:
                raise GraphSyntaxError(lineno, "expected: edge <from> <to>")
            for name in args:
                if name not in node_id:
                    raise UnknownIdentifier(lineno, f"unknown node {name}")
            edges.append((node_id[args[0]], node_id[args[1]]))
        elif kind == "real":
            if len(args) != 2:
                raise GraphSyntaxError(lineno, "expected: real <agent> <node>")
            agent, name = args
            if agent not in agent_id:
                raise UnknownIdentifier(lineno, f"unknown agent {agent}")
            if name not in node_id:
                raise UnknownIdentifier(lineno, f"unknown node {name}")
            if agent_id[agent] in designation:
                raise DuplicateDeclaration(lineno, f"agent {agent} designated twice")
            designation[agent_id[agent]] = node_id[name]
        else:
            raise GraphSyntaxError(lineno, f"unknown directive {kind}")

    if agents is None:
        raise GraphSyntaxError(1, "missing agents line")
    return RawGraph(
        agents=agents,
        node_names=tuple(node_id),  # node_id gave out ids in insertion order
        labels=tuple(labels),
        edges=tuple(edges),
        designation=designation,
    )


def read_graph(text: str) -> RbrGraph:
    """Parse and validate in one step."""
    return parse_rbr(text).validate()


def serialize_rbr(g: RbrGraph) -> str:
    """Canonical text form: agents, nodes by id, edges by (source,
    target label), designations in agent order."""
    out = ["agents " + " ".join(g.agents)]
    for n in g.nodes():
        out.append(f"node {g.node_names[n]} {g.agents[g.labels[n]]}")
    for n in g.nodes():
        for a in range(g.num_agents):
            m = g.succ[n][a]
            if m != NO_NODE:
                out.append(f"edge {g.node_names[n]} {g.node_names[m]}")
    for a in range(g.num_agents):
        if g.designated[a] != NO_NODE:
            out.append(f"real {g.agents[a]} {g.node_names[g.designated[a]]}")
    return "\n".join(out) + "\n"


def _dot_quoted(text: str) -> str:
    """``text`` as a double-quoted DOT string, so any name is a valid ID."""
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def export_dot(g: RbrGraph) -> str:
    """DOT rendering: designated nodes solid, doxastic nodes dashed,
    node text is the agent name.  Node IDs and labels are always quoted."""
    ids = [_dot_quoted(name) for name in g.node_names]
    out = ["digraph rbr {"]
    for n in g.nodes():
        style = "solid" if g.is_designated(n) else "dashed"
        label = _dot_quoted(g.agents[g.labels[n]])
        out.append(f"  {ids[n]} [label={label}, style={style}];")
    for n, m in g.edges():
        out.append(f"  {ids[n]} -> {ids[m]};")
    out.append("}")
    return "\n".join(out) + "\n"


# A sign, digits, then optionally /digits (not all zero) or .digits.
# Fraction(str) also takes exponents, and 1e10000000 costs seconds and
# gigabytes to build.
_RATIONAL = re.compile(r"[+-]?[0-9]+(?:/0*[1-9][0-9]*|\.[0-9]+)?")


def parse_game(text: str) -> Game:
    """Parse a normal-form utility game document.

    Requires a ``game normal-form`` header, an ``agents`` line, one
    ``strategies <agent>: <token>+`` line per agent, and a complete
    ``utility <agent> <token-per-agent> <rational>`` table.
    """
    lines = list(_lines(text))
    if not lines or lines[0][1] != ["game", "normal-form"]:
        lineno = lines[0][0] if lines else 1
        raise GraphSyntaxError(lineno, "expected header: game normal-form")

    agents: tuple[str, ...] | None = None
    agent_id: dict[str, int] = {}
    spaces: dict[int, tuple[str, ...]] = {}
    table: dict[tuple[int, tuple[str, ...]], Fraction] = {}
    line_of: dict[tuple[int, tuple[str, ...]], int] = {}  # table key -> its line
    # Utility texts repeat across a table, so each distinct one is checked
    # and converted once.
    rationals: dict[str, Fraction] = {}

    for lineno, tokens in lines[1:]:
        kind, args = tokens[0], tokens[1:]
        if kind == "agents":
            if agents is not None:
                raise DuplicateDeclaration(lineno, "second agents line")
            if not args:
                raise GraphSyntaxError(lineno, "agents line needs at least one name")
            agents = tuple(args)
            agent_id = {name: i for i, name in enumerate(args)}
            if len(agent_id) != len(args):
                raise DuplicateDeclaration(lineno, "repeated agent name")
            continue
        if agents is None:
            raise GraphSyntaxError(lineno, "agents line must come first")
        if kind == "strategies":
            if len(args) < 2 or not args[0].endswith(":"):
                raise GraphSyntaxError(
                    lineno, "expected: strategies <agent>: <token>+"
                )
            name = args[0][:-1]
            if name not in agent_id:
                raise UnknownIdentifier(lineno, f"unknown agent {name}")
            a = agent_id[name]
            if a in spaces:
                raise DuplicateDeclaration(lineno, f"strategies for {name} repeated")
            toks = tuple(args[1:])
            if len(set(toks)) != len(toks):
                raise DuplicateStrategy(lineno, f"repeated strategy token for {name}")
            spaces[a] = toks
        elif kind == "utility":
            if len(args) != len(agents) + 2:
                raise GraphSyntaxError(
                    lineno, "expected: utility <agent> <token-per-agent> <rational>"
                )
            name, profile, value = args[0], tuple(args[1 : 1 + len(agents)]), args[-1]
            if name not in agent_id:
                raise UnknownIdentifier(lineno, f"unknown agent {name}")
            val = rationals.get(value)
            if val is None:
                if not _RATIONAL.fullmatch(value):
                    raise GraphSyntaxError(lineno, f"bad rational {value}")
                val = rationals[value] = Fraction(value)
            key = (agent_id[name], profile)
            if key in table:
                raise DuplicateDeclaration(lineno, "utility entry repeated")
            table[key] = val
            line_of[key] = lineno
        else:
            raise GraphSyntaxError(lineno, f"unknown directive {kind}")

    if agents is None:
        raise GraphSyntaxError(1, "missing agents line")
    for name, a in agent_id.items():
        if a not in spaces:
            raise MissingUtilityEntry(1, f"no strategies declared for {name}")

    for a, name in enumerate(agents):
        for profile in itertools.product(*(spaces[b] for b in range(len(agents)))):
            if (a, profile) not in table:
                raise MissingUtilityEntry(
                    1, f"no utility for {name} at outcome {' '.join(profile)}"
                )
    for (_, profile), lineno in line_of.items():
        for b, tok in enumerate(profile):
            if tok not in spaces[b]:
                raise UnknownIdentifier(lineno, f"unknown strategy token {tok}")

    def utility(a: int, outcome) -> Fraction:
        return table[(a, tuple(outcome))]

    return utility_game(agents, [spaces[a] for a in range(len(agents))], utility)
