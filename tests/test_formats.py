import dataclasses
import itertools
import re
from fractions import Fraction
from unittest import mock

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from rbr import (
    NO_NODE,
    export_dot,
    full_scene,
    make_scene,
    parse_game,
    parse_rbr,
    rational_response,
    read_graph,
    serialize_rbr,
    validate_graph,
)
from rbr.errors import (
    DuplicateDeclaration,
    DuplicateStrategy,
    FormatError,
    GraphSyntaxError,
    GraphValidationError,
    MissingUtilityEntry,
    SelfBelief,
    UnknownIdentifier,
)
from rbr import formats
from rbr.games import _payoff_classes
from .conftest import chain
from .test_properties import _merged_table_game, graphs

B1_DOC = """\
# complete three-agent graph
agents a b c
node na a
node nb b
node nc c
edge na nb
edge na nc
edge nb na
edge nb nc
edge nc na
edge nc nb
real a na
real b nb
real c nc
"""

B3_DOC = """\
agents a b c
node na a
node nb b
node nc c
edge na nb
edge nb na
edge nc na
edge nc nb
real a na
real b nb
real c nc
"""


def test_parse_b1(b1):
    g = read_graph(B1_DOC)
    assert g.labels == b1.labels
    assert sorted(g.edges()) == sorted(b1.edges())
    assert g.designated == b1.designated


def test_missing_agents_line():
    with pytest.raises(GraphSyntaxError):
        parse_rbr("node na a\n")


def test_parse_validate_separation():
    doc = "agents a b\nnode n1 a\nedge n1 n1\nreal a n1\n"
    raw = parse_rbr(doc)  # parses fine
    with pytest.raises(SelfBelief):
        raw.validate()


def test_parse_errors_carry_line_numbers():
    doc = "agents a b\nnode na a\nnode na a\n"
    with pytest.raises(DuplicateDeclaration) as err:
        parse_rbr(doc)
    assert err.value.line == 3
    with pytest.raises(UnknownIdentifier) as err:
        parse_rbr("agents a\nnode na a\nedge na nb\n")
    assert err.value.line == 3


def test_serialize_round_trip(b2, b4, b5):
    for g in (b2, b4, b5):
        again = read_graph(serialize_rbr(g))
        assert again.labels == g.labels
        assert again.succ == g.succ
        assert again.designated == g.designated


def test_serialize_edge_order():
    text = serialize_rbr(read_graph(B3_DOC))
    edge_lines = [l for l in text.splitlines() if l.startswith("edge")]
    assert edge_lines == ["edge na nb", "edge nb na", "edge nc na", "edge nc nb"]


def test_export_dot(b1, b4):
    dot = export_dot(b4)
    assert dot.count("style=dashed") == 2
    assert dot.count("style=solid") == 3
    b1_dot = export_dot(b1)
    assert b1_dot.count("->") == 6
    single = export_dot(read_graph("agents a\nnode n a\nreal a n\n"))
    assert single.count("style=solid") == 1 and "->" not in single


def test_export_dot_quotes_ids_and_labels():
    g = read_graph('agents a b\\c\nnode n-1 a\nnode 2x b\\c\nnode a"b a\n'
                   'edge n-1 2x\nedge 2x a"b\nreal a n-1\n')
    assert export_dot(g) == (
        'digraph rbr {\n'
        '  "n-1" [label="a", style=solid];\n'
        '  "2x" [label="b\\\\c", style=dashed];\n'
        '  "a\\"b" [label="a", style=dashed];\n'
        '  "n-1" -> "2x";\n'
        '  "2x" -> "a\\"b";\n'
        '}\n'
    )


GAME_DOC = """\
game normal-form
agents a b
strategies a: x y
strategies b: x y
utility a x x 1
utility a x y 1/2
utility a y x 0
utility a y y -1/2
utility b x x 0
utility b x y 1
utility b y x 0
utility b y y 1
"""


def test_parse_game():
    game = parse_game(GAME_DOC)
    assert game.strategies == (("x", "y"), ("x", "y"))
    assert rational_response(game, 0, full_scene(game, 0)) == {"x"}
    assert rational_response(game, 1, full_scene(game, 1)) == {"y"}


def test_parse_game_missing_entry():
    doc = "\n".join(GAME_DOC.splitlines()[:-1]) + "\n"
    with pytest.raises(MissingUtilityEntry):
        parse_game(doc)


def test_parse_game_duplicate_strategy_token():
    doc = GAME_DOC.replace("strategies a: x y", "strategies a: x x")
    with pytest.raises(DuplicateStrategy):
        parse_game(doc)


@pytest.mark.parametrize("old, new, error, message", [
    ("agents a b", "agents a a", DuplicateDeclaration, "line 2: agent a repeated"),
    ("strategies b: x y", "strategies b: x x", DuplicateStrategy,
     "line 4: repeated strategy token for b"),
])
def test_table_reader_leaves_repeated_names_to_the_line_parser(old, new, error, message):
    """A repeated agent name or strategy token repeats expected keys; the
    table reader returns None and the line parser reports it on its line."""
    doc = GAME_DOC.replace(old, new)
    assert formats._parse_game_layout(doc) is None
    with pytest.raises(error, match=f"^{message}$"):
        parse_game(doc)


def test_table_reader_leaves_a_double_space_to_the_line_parser():
    doc = GAME_DOC.replace("utility a x y 1/2", "utility a x y  1/2")
    assert formats._parse_game_layout(doc) is None
    assert _game_outcome(parse_game, doc) == _game_outcome(parse_game, GAME_DOC)


def test_parse_game_reports_the_line_of_an_unknown_strategy_token():
    lines = GAME_DOC.splitlines(keepends=True)
    doc = "".join(lines[:6] + ["utility b x z 1\n"] + lines[6:])
    with pytest.raises(UnknownIdentifier, match="^line 7: unknown strategy token z$") as info:
        parse_game(doc)
    assert info.value.line == 7


def test_parse_game_needs_header():
    with pytest.raises(GraphSyntaxError):
        parse_game("agents a b\n")


def test_binary_game_in_dsl_matches_builtin():
    doc = """\
game normal-form
agents a b
strategies a: 0 1
strategies b: 0 1
utility a 0 0 0
utility a 0 1 0
utility a 1 0 1
utility a 1 1 1
utility b 0 0 0
utility b 1 0 0
utility b 0 1 1
utility b 1 1 1
"""
    game = parse_game(doc)
    for a in range(2):
        assert rational_response(game, a, full_scene(game, a)) == {"1"}


def test_serialize_corpus_round_trip(corpus):
    for g in corpus:
        assert read_graph(serialize_rbr(g)).succ == g.succ


@given(graphs())
@settings(max_examples=60, deadline=None)
def test_serialize_read_round_trip(g):
    text = serialize_rbr(g)
    assert serialize_rbr(read_graph(text)) == text


def _renamed(g, agents, node_names):
    return validate_graph(agents, g.num_nodes, g.labels, g.edges(),
                          {a: n for a, n in enumerate(g.designated) if n != NO_NODE},
                          node_names=node_names)


@pytest.mark.parametrize("agents, node_names, message", [
    (("a", "b"), ["x", "x"], "cannot write node name 'x': repeated"),
    (("a", "b"), ["x y", "z"], "cannot write node name 'x y': contains whitespace or '#'"),
    (("a", "b"), ["x", "#z"], "cannot write node name '#z': contains whitespace or '#'"),
    (("a", "b"), ["", "z"], "cannot write node name '': empty"),
    (("a", "b"), [1, 2], "cannot write node name 1: not a string"),
    (("a b", "c"), ["x", "z"], "cannot write agent name 'a b': contains whitespace or '#'"),
    (("a", 1), ["x", "z"], "cannot write agent name 1: not a string"),
])
def test_serialize_rejects_names_a_document_cannot_carry(agents, node_names, message):
    g = _renamed(chain(2), agents, node_names)
    with pytest.raises(GraphValidationError) as exc:
        serialize_rbr(g)
    assert exc.type is GraphValidationError
    assert str(exc.value) == message


# Names that a document carries, and names from characters that the line
# format splits on or cuts at, and ints.
WRITABLE_NAMES = st.text(st.sampled_from("ab_1é"), min_size=1, max_size=3)
NAMES = st.one_of(st.text(st.sampled_from("ab#é \t\n\x1c\u2028"), max_size=3),
                  st.integers(0, 2))


@given(graphs(), st.booleans(), st.data())
@settings(max_examples=200, deadline=None)
def test_serialize_writes_only_names_that_read_back(g, writable, data):
    names = WRITABLE_NAMES if writable else NAMES
    agents = data.draw(st.lists(names, min_size=g.num_agents, max_size=g.num_agents,
                                unique=True).filter(all))
    node_names = data.draw(st.lists(names, min_size=g.num_nodes, max_size=g.num_nodes,
                                    unique=writable))
    h = _renamed(g, agents, node_names)
    try:
        text = serialize_rbr(h)
    except GraphValidationError:
        assert not writable
        return
    back = read_graph(text)
    assert (back.agents, back.labels, back.succ, back.designated, back.node_names) == (
        h.agents, h.labels, h.succ, h.designated, h.node_names)


def test_serialized_graphs_take_the_layout_reader(corpus, b1, b2, b3, b4, b5):
    """The writer's layout and the bulk reader's stay in step."""
    for g in [*corpus, b1, b2, b3, b4, b5]:
        text = serialize_rbr(g)
        raw = formats._parse_layout(text)
        assert raw is not None and raw == formats._parse_lines(text)


LAYOUT_MUTATIONS = ["none", "swap kinds", "real before edge", "doubled space",
                    "tab", "crlf", "no final newline", "name with #",
                    "node named node", "node named edge", "duplicate line",
                    "unknown agent", "unknown node", "unknown directive"]


def _mutated(text: str, mutation: str, pick: int, lo: int) -> tuple[str, bool]:
    """``text`` with ``mutation`` at the line ``pick`` chooses among the
    lines from ``lo`` on that it applies to, and whether the result left
    the layout that ``serialize_rbr`` writes."""
    lines = text.split("\n")[:-1]
    kinds = [line.split(" ")[0] for line in lines]

    def line_of(*wanted):
        options = [i for i in range(lo, len(lines)) if kinds[i] in wanted]
        return options[pick % len(options)] if options else None

    def text_of(lines):
        return "\n".join(lines) + "\n"

    if mutation == "no final newline":
        return text[:-1], True
    if mutation == "real before edge":
        order = {"edge": 2, "real": 1}
        moved = sorted(range(len(lines)), key=lambda i: order.get(kinds[i], 0))
        return text_of(lines[i] for i in moved), "edge" in kinds and "real" in kinds
    i = line_of("agents", "node", "edge", "real")
    if mutation in ("doubled space", "tab", "crlf"):
        if mutation == "crlf":
            lines[i] += "\r"
        else:
            lines[i] = lines[i].replace(" ", "  " if mutation == "doubled space" else "\t", 1)
        return text_of(lines), True
    if mutation == "swap kinds":
        i = line_of("node", "edge")
        j = next((j for j in range(i + 1, len(lines)) if kinds[j] != kinds[i]), None)
        if j is None:
            return text, False
        lines[i], lines[j] = lines[j], lines[i]
        return text_of(lines), True
    if mutation == "duplicate line":
        # A repeated edge is allowed, a repeated node or real line is not.
        i = line_of("node", "edge", "real")
        lines.insert(i, lines[i])
        return text_of(lines), kinds[i] != "edge"
    if mutation == "unknown directive":
        lines[i] = lines[i].replace(kinds[i], kinds[i].upper(), 1)
        return text_of(lines), True
    wanted = {"unknown agent": ("node", "real"), "unknown node": ("edge", "real")}
    i = line_of(*wanted.get(mutation, ("node",)))
    if i is None:
        return text, False
    tokens = lines[i].split(" ")
    if mutation in ("unknown agent", "unknown node"):
        tokens[1 if (mutation, kinds[i]) == ("unknown agent", "real") else 2] = "zz"
        lines[i] = " ".join(tokens)
        return text_of(lines), True
    # Rename node tokens[1] on every line; node names never equal agent
    # names or directive words in these documents.
    old, new = tokens[1], {"name with #": "x#y", "node named node": "node",
                           "node named edge": "edge"}.get(mutation, tokens[1])
    lines[1:] = [
        " ".join([kind, *(new if t == old else t for t in rest)])
        for kind, *rest in (line.split(" ") for line in lines[1:])
    ]
    return text_of(lines), "#" in new


def _outcome(parse, text):
    """What ``parse`` makes of ``text``: a RawGraph, or its error's class,
    message and line."""
    try:
        return parse(text)
    except FormatError as exc:
        return type(exc), str(exc), exc.line


def _check_layout_reader(text: str, mutation: str, pick: int, lo: int) -> None:
    text, irregular = _mutated(text, mutation, pick, lo)
    assert (formats._parse_layout(text) is None) == irregular
    assert _outcome(parse_rbr, text) == _outcome(formats._parse_lines, text)


@given(graphs(), st.sampled_from(LAYOUT_MUTATIONS), st.integers(0, 40),
       st.sampled_from([1, 20, formats._CHUNK]))
@settings(max_examples=300, deadline=None)
def test_layout_reader_matches_the_line_parser(g, mutation, pick, chunk):
    """With the bulk path on or off, a document gives an equal RawGraph
    or the same error, message and line.  Small slices (one line each at
    size 1) put the layout's rules across slice boundaries."""
    with mock.patch.object(formats, "_CHUNK", chunk):
        _check_layout_reader(serialize_rbr(g), mutation, pick, 0)


LONG_DOCUMENT = serialize_rbr(chain(6000))


@given(st.sampled_from(LAYOUT_MUTATIONS), st.integers(0, 10**4))
@settings(max_examples=40, deadline=None)
def test_layout_reader_matches_the_line_parser_past_the_first_slice(mutation, pick):
    text = LONG_DOCUMENT
    boundary = text.find("\n", text.find("\n") + formats._CHUNK) + 1
    assert 0 < boundary < text.find("\nedge ")
    _check_layout_reader(text, mutation, pick, text.count("\n", 0, boundary))


# Lines are a directive word and arguments drawn from names, rationals
# and the tokens most likely to trip a parser: comments, zero
# denominators and float spellings.
DIRECTIVES = ["agents", "node", "edge", "real", "game", "strategies", "utility", "#"]
ARGUMENTS = ["a", "b", "c", "a:", "b:", "x", "y", "normal-form", "0", "1", "-2",
             "3/4", "#", "1/0", "nan", "1e3"]
GRAPH_HEAD = "agents a b\nnode x a\nnode y b\n"
GAME_HEAD = "game normal-form\nagents a b\nstrategies a: x y\nstrategies b: x\n"


@st.composite
def token_documents(draw, heads):
    """A random document of token lines, often after a valid head so the
    parser gets past its first checks."""
    line = st.tuples(st.sampled_from(DIRECTIVES),
                     st.lists(st.sampled_from(ARGUMENTS), max_size=4))
    lines = draw(st.lists(line, max_size=5))
    return draw(st.sampled_from(heads)) + "".join(
        f"{word} {' '.join(args)}\n" for word, args in lines
    )


@given(token_documents(["", GRAPH_HEAD]))
@settings(max_examples=200, deadline=None)
def test_read_graph_fuzz(text):
    """Bad graph text fails only as a format or validation error."""
    try:
        read_graph(text)
    except (FormatError, GraphValidationError):
        pass


@given(token_documents(["", "game normal-form\n", GAME_HEAD]))
@settings(max_examples=200, deadline=None)
def test_parse_game_fuzz(text):
    """Bad game text fails only as a format or validation error."""
    try:
        parse_game(text)
    except (FormatError, GraphValidationError):
        pass


@pytest.mark.parametrize("value", ["1e100000", "1E5", "1_000", ".5", "1.", "1/0", "nan"])
def test_parse_game_rejects_utilities_outside_the_grammar(value):
    with pytest.raises(GraphSyntaxError, match=f"bad rational {re.escape(value)}$"):
        parse_game(GAME_HEAD + f"utility a x x {value}\n")


@pytest.mark.parametrize("value", ["9" * 5000, "1/" + "7" * 5000, "-0." + "5" * 5000],
                         ids=["numerator", "denominator", "decimal"])
def test_parse_game_reports_a_utility_with_too_many_digits(value):
    """A utility past int()'s digit limit is a syntax error on its line,
    which gives the token's length rather than the token."""
    with pytest.raises(
        GraphSyntaxError,
        match=f"^line 5: rational of {len(value)} characters has too many digits$",
    ):
        parse_game(GAME_HEAD + f"utility a x x {value}\n")


def test_parse_game_reads_each_utility_text_alike():
    """A repeated utility text reads the value of its first line, and a
    bad one fails on its first line."""
    text = GAME_HEAD + "utility a x x 1/2\nutility a y x 1/2\n"
    text += "utility b x x 2/4\nutility b y x 1/2\n"
    game = parse_game(text)
    assert {game.utility(a, (x, "x")) for a in (0, 1) for x in "xy"} == {
        Fraction(1, 2)}
    bad = GAME_HEAD + "utility a x x 1/2\nutility a y x 1e5\nutility b x x 1e5\n"
    with pytest.raises(GraphSyntaxError, match="^line 6: bad rational 1e5$"):
        parse_game(bad)


def test_parse_game_reads_signed_fractions_and_decimals():
    text = GAME_HEAD + "utility a x x -1/010\nutility a y x +1.5\n"
    text += "utility b x x 0\nutility b y x 2\n"
    game = parse_game(text)
    assert [game.utility(0, o) for o in (("x", "x"), ("y", "x"))] == [
        Fraction(-1, 10), Fraction(3, 2)]


@st.composite
def layout_game_documents(draw, value=None):
    """A game document in the plain table layout: one to three agents with
    one to four strategy tokens each, int, fraction and decimal
    utilities (or ``value``'s texts), and the utility lines in a drawn
    order."""
    agents = ["a", "b", "c"][:draw(st.integers(1, 3))]
    spaces = [[f"s{i}" for i in range(draw(st.integers(1, 4)))] for _ in agents]
    if value is None:
        value = st.one_of(
            st.integers(-9, 9).map(str),
            st.tuples(st.integers(-9, 9), st.integers(1, 12)).map("{0[0]}/{0[1]}".format),
            st.tuples(st.integers(-9, 9), st.integers(0, 99)).map("{0[0]}.{0[1]}".format),
        )
    head = ["game normal-form", "agents " + " ".join(agents)]
    head += [f"strategies {name}: {' '.join(sp)}" for name, sp in zip(agents, spaces)]
    table = [f"utility {name} {' '.join(profile)} {draw(value)}"
             for name in agents for profile in itertools.product(*spaces)]
    return "\n".join(head + draw(st.permutations(table))) + "\n"


def _game_outcome(parse, text):
    """What ``parse`` makes of a game document: the agents, spaces, every
    utility and every agent's int rows, or its error's class, message and
    line."""
    try:
        game = parse(text)
    except FormatError as exc:
        return type(exc), str(exc), exc.line
    profiles = list(itertools.product(*game.strategies))
    return game.agents, game.strategies, [
        game.utility(a, o) for a in range(game.num_agents) for o in profiles], [
        game.utility.rows(a) for a in range(game.num_agents)]


@given(layout_game_documents())
@settings(max_examples=100, deadline=None)
def test_game_layout_reader_matches_the_line_parser(text):
    assert formats._parse_game_layout(text) is not None
    assert _game_outcome(formats._parse_game_layout, text) == _game_outcome(
        formats._parse_game_lines, text)


# Few values, some equal under different texts, so that payoffs tie.
TIED_VALUES = st.sampled_from(["0", "1", "-1", "1/2", "2/4", "0.5"])


@given(st.one_of(layout_game_documents(), layout_game_documents(TIED_VALUES)), st.data())
@settings(max_examples=150, deadline=None)
def test_table_rows_answer_as_the_per_cell_table_and_pairwise_checks(text, data):
    """A table game's class table, read from its int rows, has the
    per-cell table's classes and its columns up to one positive scale, and
    its responses are the per-cell and the pairwise ``dominates`` ones."""
    game = parse_game(text)
    for line in text.splitlines()[2 + game.num_agents:]:
        _, name, *profile, value = line.split(" ")
        assert game.utility(game.agents.index(name), tuple(profile)) == Fraction(value)
    per_cell = dataclasses.replace(game, utility=lambda a, o: game.utility(a, o))
    pairwise = dataclasses.replace(game, utility=None)
    for a in range(game.num_agents):
        classes, columns = _payoff_classes(game, a)
        cell_classes, cell_columns = _payoff_classes(per_cell, a)
        assert classes == cell_classes
        cells = [(x, y) for column, cell_column in zip(columns, cell_columns)
                 for x, y in zip(column, cell_column)]
        assert all(x == 0 for x, y in cells if y == 0)
        scales = {Fraction(x, y) for x, y in cells if y}
        assert len(scales) <= 1 and all(scale > 0 for scale in scales)
        scene = make_scene(game, a, {
            b: data.draw(st.sets(st.sampled_from(space), min_size=1))
            for b, space in enumerate(game.strategies) if b != a
        })
        response = rational_response(game, a, scene)
        assert response == rational_response(per_cell, a, scene)
        assert response == rational_response(pairwise, a, scene)


def test_table_game_classes_come_from_its_rows():
    """A table game's class tables are cut from its int rows, with no
    ``utility`` call per cell."""
    game = _merged_table_game()
    calls = []

    def counted(a, outcome):
        calls.append((a, outcome))
        return game.utility(a, outcome)

    counted.rows = game.utility.rows
    counting = dataclasses.replace(game, utility=counted)
    assert [_payoff_classes(counting, a) for a in range(3)] == [
        _payoff_classes(game, a) for a in range(3)]
    assert [len(_payoff_classes(game, a)[1]) for a in range(3)] == [2, 2, 2]
    assert calls == []


GAME_MUTATIONS = ["drop line", "double line", "move line", "copy over line",
                  "unknown token", "unknown agent", "bad rational", "long rational",
                  "repeated agent", "repeated token", "token with #", "doubled space",
                  "tab", "crlf", "comment", "no final newline"]


def _mutated_game(text: str, mutation: str, pick: int, to: int) -> str:
    """``text`` with ``mutation`` at line ``pick`` (modulo the lines it
    applies to); a moved line goes to position ``to``, and utility line
    ``to`` is copied over utility line ``pick``."""
    if mutation == "no final newline":
        return text[:-1]
    if mutation == "token with #":
        return re.sub(r"\bs0\b", "s0#", text)
    names = text.split("\n")[1].split(" ")[1:]
    if mutation == "repeated agent" and len(names) > 1:
        # The last agent takes the first one's name on every line.
        return re.sub(rf"\b{names[-1]}\b", names[0], text)
    lines = text.split("\n")[:-1]
    utility = [i for i, line in enumerate(lines) if line.startswith("utility ")]
    i = pick % len(lines)
    if mutation in ("repeated agent", "repeated token"):
        # A lone agent name or strategy token gets a copy after it;
        # otherwise the line's last token becomes a copy of its first.
        first = 1 if mutation == "repeated agent" else 2
        i = 1 if mutation == "repeated agent" else 2 + pick % (utility[0] - 2)
        tokens = lines[i].split(" ")
        tokens[max(first + 1, len(tokens) - 1):] = [tokens[first]]
        lines[i] = " ".join(tokens)
    elif mutation in ("unknown token", "unknown agent", "bad rational", "long rational"):
        i = utility[pick % len(utility)]
        tokens = lines[i].split(" ")
        where = {"unknown token": -2, "unknown agent": 1}.get(mutation, -1)
        tokens[where] = {"bad rational": "1e5", "long rational": "9" * 5000}.get(
            mutation, "zz")
        lines[i] = " ".join(tokens)
    elif mutation == "drop line":
        del lines[i]
    elif mutation == "double line":
        lines.insert(i, lines[i])
    elif mutation == "move line":
        lines.insert(to % len(lines), lines.pop(i))
    elif mutation == "copy over line":
        # One entry repeated and one missing: the count still matches.
        lines[utility[pick % len(utility)]] = lines[utility[to % len(utility)]]
    elif mutation == "comment":
        lines[i] += " # note"
    elif mutation == "crlf":
        lines[i] += "\r"
    else:
        lines[i] = lines[i].replace(" ", "  " if mutation == "doubled space" else "\t", 1)
    return "\n".join(lines) + "\n"


@given(layout_game_documents(), st.sampled_from(GAME_MUTATIONS), st.integers(0, 60),
       st.integers(0, 60))
@settings(max_examples=300, deadline=None)
def test_mutated_game_documents_read_as_the_line_parser_does(text, mutation, pick, to):
    """With the bulk path on or off, a document gives an equal game or the
    same error, message and line; the bulk path never accepts a document
    the line parser rejects, nor one with a comment or other whitespace."""
    text = _mutated_game(text, mutation, pick, to)
    expected = _game_outcome(formats._parse_game_lines, text)
    assert _game_outcome(parse_game, text) == expected
    if isinstance(expected[0], type) or mutation in (
            "doubled space", "tab", "crlf", "comment", "no final newline"):
        assert formats._parse_game_layout(text) is None
