"""Line-oriented text formats for graphs and utility games, plus DOT export.

Graph documents declare the agent universe, then nodes, edges, and the
`real` (designated) node of each rational agent.  Game documents declare
strategy tokens per agent and one exact-rational utility entry per agent
and outcome.  Parsing is purely syntactic; structural rules are enforced
separately by validation.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from .errors import (
    DuplicateDeclaration,
    DuplicateStrategy,
    GraphSyntaxError,
    GraphValidationError,
    MissingUtilityEntry,
    UnknownIdentifier,
)
from .games import Game, utility_game
from .graph import NO_NODE, RbrGraph, stray_id, validate_graph


@dataclass(frozen=True)
class RawGraph:
    """Parsed but unvalidated graph components."""

    agents: tuple[str, ...]
    node_names: tuple[str, ...]
    labels: tuple[int, ...]
    # Edge i runs from sources[i] to targets[i]: two int columns, not one
    # tuple per edge.
    sources: tuple[int, ...]
    targets: tuple[int, ...]
    designation: dict[int, int]

    def validate(self) -> RbrGraph:
        return validate_graph(
            self.agents,
            len(self.node_names),
            self.labels,
            zip(self.sources, self.targets),
            self.designation,
            node_names=self.node_names,
        )


def _lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line.split()


def _agents_line(lines: Iterator) -> tuple[tuple[str, ...], dict[str, int]]:
    """The agents, and their ids, that the next of ``lines`` (pairs from
    :func:`_lines`) declares: the ``agents`` line rule of both line
    parsers.  The line must be there, come first and name at least one
    agent, none twice; a second one is an error where the parser meets
    it."""
    lineno, tokens = next(lines, (1, None))
    if tokens is None:
        raise GraphSyntaxError(1, "missing agents line")
    if tokens[0] != "agents":
        raise GraphSyntaxError(lineno, "agents line must come first")
    if len(tokens) == 1:
        raise GraphSyntaxError(lineno, "agents line needs at least one name")
    agent_id: dict[str, int] = {}
    for name in tokens[1:]:
        if name in agent_id:
            raise DuplicateDeclaration(lineno, f"agent {name} repeated")
        agent_id[name] = len(agent_id)
    return tuple(agent_id), agent_id


def _known(lineno: int, ids: dict[str, int], kind: str, name: str) -> int:
    """The id of ``name``, which must be a declared ``kind`` (agent or
    node) name: one lookup rule for both line parsers."""
    if name not in ids:
        raise UnknownIdentifier(lineno, f"unknown {kind} {name}")
    return ids[name]


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
    sources: list[int] = []
    targets: list[int] = []
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
        if mid and (sources or designation) or tail > mid and designation:
            return None
        before = len(designation)
        try:
            node_id.update(zip(firsts[:mid], range(len(labels), len(labels) + mid)))
            labels.extend(map(agent_id.__getitem__, seconds[:mid]))
            sources.extend(map(node_id.__getitem__, firsts[mid:tail]))
            targets.extend(map(node_id.__getitem__, seconds[mid:tail]))
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
        sources=tuple(sources),
        targets=tuple(targets),
        designation=designation,
    )


def _parse_lines(text: str) -> RawGraph:
    """:func:`parse_rbr` for any document, one line at a time."""
    lines = _lines(text)
    agents, agent_id = _agents_line(lines)
    node_id: dict[str, int] = {}
    labels: list[int] = []
    sources: list[int] = []
    targets: list[int] = []
    designation: dict[int, int] = {}

    for lineno, tokens in lines:
        kind, args = tokens[0], tokens[1:]
        if kind == "agents":
            raise DuplicateDeclaration(lineno, "second agents line")
        if kind == "node":
            if len(args) != 2:
                raise GraphSyntaxError(lineno, "expected: node <id> <agent>")
            name, agent = args
            if name in node_id:
                raise DuplicateDeclaration(lineno, f"node {name} redeclared")
            labels.append(_known(lineno, agent_id, "agent", agent))
            node_id[name] = len(node_id)
        elif kind == "edge":
            if len(args) != 2:
                raise GraphSyntaxError(lineno, "expected: edge <from> <to>")
            sources.append(_known(lineno, node_id, "node", args[0]))
            targets.append(_known(lineno, node_id, "node", args[1]))
        elif kind == "real":
            if len(args) != 2:
                raise GraphSyntaxError(lineno, "expected: real <agent> <node>")
            agent, name = args
            a = _known(lineno, agent_id, "agent", agent)
            n = _known(lineno, node_id, "node", name)
            if a in designation:
                raise DuplicateDeclaration(lineno, f"agent {agent} designated twice")
            designation[a] = n
        else:
            raise GraphSyntaxError(lineno, f"unknown directive {kind}")

    return RawGraph(
        agents=agents,
        node_names=tuple(node_id),  # node_id gave out ids in insertion order
        labels=tuple(labels),
        sources=tuple(sources),
        targets=tuple(targets),
        designation=designation,
    )


def read_graph(text: str) -> RbrGraph:
    """Parse and validate in one step."""
    return parse_rbr(text).validate()


def _check_writable(kind: str, names) -> None:
    """Raise GraphValidationError naming the first of ``names`` that a
    graph document cannot carry: a non-``str``, an empty name, one with
    whitespace or ``#``, or a repeat."""
    seen = set()
    for name in names:
        if not isinstance(name, str):
            problem = "not a string"
        elif not name:
            problem = "empty"
        elif "#" in name or any(map(str.isspace, name)):
            problem = "contains whitespace or '#'"
        elif name in seen:
            problem = "repeated"
        else:
            seen.add(name)
            continue
        raise GraphValidationError(f"cannot write {kind} name {name!r}: {problem}")


def serialize_rbr(g: RbrGraph) -> str:
    """Canonical text form: agents, nodes by id, edges by (source,
    target label), designations in agent order.  Raises
    GraphValidationError for an agent or node name the format cannot
    carry (see :func:`_check_writable`)."""
    _check_writable("agent", g.agents)
    _check_writable("node", g.node_names)
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


def _utility_value(lineno: int, text: str) -> Fraction:
    """The exact rational a utility text spells, for both game readers;
    a GraphSyntaxError at ``lineno`` unless it spells one."""
    if not _RATIONAL.fullmatch(text):
        raise GraphSyntaxError(lineno, f"bad rational {text}")
    try:
        return Fraction(text)
    except ValueError:  # more digits than int() converts
        raise GraphSyntaxError(
            lineno, f"rational of {len(text)} characters has too many digits"
        ) from None


def parse_game(text: str) -> Game:
    """Parse a normal-form utility game document.

    Requires a ``game normal-form`` header, an ``agents`` line, one
    ``strategies <agent>: <token>+`` line per agent, and a complete
    ``utility <agent> <token-per-agent> <rational>`` table.  A document in
    the layout :func:`_parse_game_layout` describes is read in bulk; any
    other document, and every error, goes through the line parser.
    """
    game = _parse_game_layout(text)
    return game if game is not None else _parse_game_lines(text)


def _parse_game_layout(text: str) -> Game | None:
    """The document's game if it is in the plain table layout, else None.

    The layout is the header, the ``agents`` line and one ``strategies``
    line per agent in agent order, then only ``utility`` lines in any
    order, with one space between tokens, ``"\n"`` after every line and
    no ``#``.  Each utility line is cut once at its last space into a key
    and a value.  The document is in the layout only if the keys are
    exactly the texts ``utility <agent> <token-per-agent>`` of every
    agent and profile, each once, and every value is a utility text;
    the values read in that order are the flat table's.  Each distinct
    utility text is checked and converted once.  Any other document,
    one that repeats an agent name or a strategy token included, returns
    None, so the line parser reads it or reports its error with its
    message and line.
    """
    if "#" in text:
        return None
    head = text.split("\n", 2)
    if len(head) < 3 or head[0] != "game normal-form":
        return None
    names = head[1].split()
    agents = tuple(names[1:])
    if names[:1] != ["agents"] or not agents or " ".join(names) != head[1]:
        return None
    if len(set(agents)) != len(agents):
        return None
    k = len(agents)
    lines = head[2].split("\n", k)
    if len(lines) <= k:
        return None
    spaces = []
    for name, line in zip(agents, lines):
        words = line.split()
        if words[:2] != ["strategies", name + ":"] or len(words) < 3:
            return None
        space = tuple(words[2:])
        if " ".join(words) != line or len(set(space)) != len(space):
            return None
        spaces.append(space)

    body = lines[k].split("\n")
    if body.pop() != "" or len(body) != k * math.prod(map(len, spaces)):
        return None
    # As many lines as expected keys, each expected key on one of them:
    # then each line holds a different key.  A line with no space fails
    # the dict's pair check.
    expected = map(" ".join, itertools.product(("utility",), agents, *spaces))
    try:
        table = dict(map(str.rsplit, body, itertools.repeat(" "), itertools.repeat(1)))
        texts = list(map(table.__getitem__, expected))
        rationals = {value: _utility_value(0, value) for value in set(texts)}
    except (ValueError, KeyError, GraphSyntaxError):
        return None
    return _table_game(agents, spaces, texts, rationals)


def _table_game(agents, spaces, texts: list[str], rationals: dict[str, Fraction]) -> Game:
    """The utility game whose agent ``a`` gets ``rationals[texts[a·P + p]]``
    at the profile of mixed-radix index ``p`` (last agent fastest) among P.

    The game keeps one int table, ``flat``: every utility times ``den``,
    the lcm of the denominators.  Its ``utility.rows(a)`` cuts agent
    ``a``'s int rows from ``flat``."""
    den = math.lcm(*(v.denominator for v in rationals.values()))
    ints = {text: v.numerator * (den // v.denominator) for text, v in rationals.items()}
    flat = list(map(ints.__getitem__, texts))
    positions = [{token: i for i, token in enumerate(space)} for space in spaces]
    profiles = math.prod(map(len, spaces))

    def utility(a: int, outcome) -> Fraction:
        if stray_id((a,), len(spaces)) is not None or len(outcome) != len(spaces):
            raise KeyError((a, outcome))
        i = a
        for pos, token in zip(positions, outcome):
            i = i * len(pos) + pos[token]
        return Fraction(flat[i], den)

    def rows(a: int) -> list[list[int]]:
        # Row i is run i of each group of |S_a| runs of `after` entries.
        after, n = math.prod(map(len, spaces[a + 1:])), len(spaces[a])
        runs = list(zip(*[iter(flat[a * profiles:(a + 1) * profiles])] * after))
        return [list(itertools.chain(*runs[i::n])) for i in range(n)]

    utility.rows = rows
    return utility_game(agents, spaces, utility)


def _parse_game_lines(text: str) -> Game:
    """:func:`parse_game` for any document, one line at a time."""
    lines = _lines(text)
    lineno, tokens = next(lines, (1, None))
    if tokens != ["game", "normal-form"]:
        raise GraphSyntaxError(lineno, "expected header: game normal-form")
    agents, agent_id = _agents_line(lines)
    spaces: dict[int, tuple[str, ...]] = {}
    table: dict[tuple[int, tuple[str, ...]], str] = {}  # utility texts
    line_of: dict[tuple[int, tuple[str, ...]], int] = {}  # table key -> its line
    # Utility texts repeat across a table, so each distinct one is checked
    # and converted once.
    rationals: dict[str, Fraction] = {}

    for lineno, tokens in lines:
        kind, args = tokens[0], tokens[1:]
        if kind == "agents":
            raise DuplicateDeclaration(lineno, "second agents line")
        if kind == "strategies":
            if len(args) < 2 or not args[0].endswith(":"):
                raise GraphSyntaxError(
                    lineno, "expected: strategies <agent>: <token>+"
                )
            name = args[0][:-1]
            a = _known(lineno, agent_id, "agent", name)
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
            profile, value = tuple(args[1 : 1 + len(agents)]), args[-1]
            key = (_known(lineno, agent_id, "agent", args[0]), profile)
            if value not in rationals:
                rationals[value] = _utility_value(lineno, value)
            if key in table:
                raise DuplicateDeclaration(lineno, "utility entry repeated")
            table[key] = value
            line_of[key] = lineno
        else:
            raise GraphSyntaxError(lineno, f"unknown directive {kind}")

    for name, a in agent_id.items():
        if a not in spaces:
            raise MissingUtilityEntry(1, f"no strategies declared for {name}")

    ordered = [spaces[b] for b in range(len(agents))]
    texts = []  # in the flat table's order
    for a, name in enumerate(agents):
        for profile in itertools.product(*ordered):
            if (a, profile) not in table:
                raise MissingUtilityEntry(
                    1, f"no utility for {name} at outcome {' '.join(profile)}"
                )
            texts.append(table[a, profile])
    for (_, profile), lineno in line_of.items():
        for b, tok in enumerate(profile):
            if tok not in spaces[b]:
                raise UnknownIdentifier(lineno, f"unknown strategy token {tok}")

    return _table_game(agents, ordered, texts, rationals)
