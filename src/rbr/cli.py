"""Command-line interface.

Subcommands: validate, minimize, equiv, solve, export-dot.  Exit codes:
0 success (or "equivalent"), 1 negative verdict or invalid input,
2 usage or I/O error, 3 internal invariant violation.
"""

from __future__ import annotations

import argparse
import functools
import re
import sys

from .errors import NonTermination, RbrError
from .formats import export_dot, parse_game, read_graph, serialize_rbr
from .games import Game, make_binary_game, make_guess_average_game, make_sequence_game
from .games import strategy_label
from .graph import RbrGraph
from .minimize import minimise
from .partition import finest_partition, disjoint_union
from .solve import _designated_entries, rational_solution
from .solve import doxastic_rationalisability  # unused here; perfbench/tracing.py patches it
from . import __version__


def _read_text(path: str) -> str:
    """The file at ``path`` as text, without a leading byte-order mark;
    UnicodeError names the path when it is not UTF-8."""
    with open(path, encoding="utf-8-sig") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise UnicodeError(f"{path}: not UTF-8: {exc}") from None


def _load_graph(path: str) -> RbrGraph:
    return read_graph(_read_text(path))


_INTEGER = re.compile(r"-?[0-9]+")


def _integer(text: str) -> int | None:
    """``text`` as an int when it is an optional ``-`` and ASCII digits,
    else None (``int`` alone would also take spaces, ``+``, ``_`` and
    non-ASCII digits)."""
    if _INTEGER.fullmatch(text):
        try:
            return int(text)
        except ValueError:  # more digits than int() converts
            pass
    return None


def _spec_numbers(spec: str, arity: int) -> list[int]:
    """The ``arity`` integer fields after the name of a builtin game spec."""
    numbers = list(map(_integer, spec.split(":")[1:]))
    if len(numbers) == arity and None not in numbers:
        return numbers
    raise RbrError(
        f"malformed game spec {spec!r}; expected guess23:<agents>:<max> or gk:<k>"
    )


def _resolve_game(spec: str, g: RbrGraph) -> Game:
    """A builtin game spec string, or a path to a game document; the
    library checks the game's agents against the graph's."""
    if spec == "binary":
        return make_binary_game(g.agents)
    if spec.startswith("gk:"):
        (k,) = _spec_numbers(spec, 1)
        return make_sequence_game(g.agents, k)
    if spec.startswith("guess23:"):
        count, max_int = _spec_numbers(spec, 2)
        return make_guess_average_game(count, max_int, agents=g.agents)
    return parse_game(_read_text(spec))


def _set_texts(game: Game):
    """A formatter of (agent, entry) pairs, each formatted once: the
    entry's strategy labels in the order of the agent's space, read off
    one position dict per agent."""
    positions = [
        {s: i for i, s in enumerate(dict.fromkeys(space))} for space in game.strategies
    ]

    @functools.cache
    def set_text(a: int, entry: frozenset) -> str:
        ordered = sorted(entry, key=positions[a].__getitem__)
        return "{" + ",".join(strategy_label(game, s) for s in ordered) + "}"

    return set_text


def cmd_validate(args) -> int:
    try:
        g = _load_graph(args.graph)
    except RbrError as exc:
        print(f"invalid: {exc}", file=sys.stderr)
        return 1
    print(f"valid: {g.num_nodes} nodes, {g.num_agents} agents")
    return 0


def cmd_minimize(args) -> int:
    g = _load_graph(args.graph)
    report = minimise(g)
    text = serialize_rbr(report.output)
    summary = (f"{g.num_nodes} -> {report.output.num_nodes} nodes "
               f"({report.refinement_rounds} refinement rounds)")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(summary)
    else:
        # The document goes to stdout, so the summary is a comment in it.
        sys.stdout.write(f"# {summary}\n{text}")
    return 0


def cmd_equiv(args) -> int:
    ga = _load_graph(args.graph_a)
    gb = _load_graph(args.graph_b)
    if ga.agents != gb.agents:
        print("not equivalent: agent universes differ")
        return 1
    da, db = ga.designation_domain(), gb.designation_domain()
    if da != db:
        print("not equivalent: designation domains differ")
        return 1
    p = finest_partition(disjoint_union(ga, gb))
    verdict = 0
    for a in sorted(da):
        same = p.same_block(ga.designated[a], ga.num_nodes + gb.designated[a])
        state = "same" if same else "differ"
        print(f"agent {ga.agents[a]}: hierarchies {state}")
        if not same:
            verdict = 1
    print("equivalent" if verdict == 0 else "not equivalent")
    return verdict


def cmd_solve(args) -> int:
    g = _load_graph(args.graph)
    game = _resolve_game(args.game, g)
    report = rational_solution(g, game, keep_trace=args.trace)
    # Nodes share entries, so each distinct (agent, entry) is formatted once.
    set_text = _set_texts(game)
    if args.trace:
        _print_trace(g, report.trace[1:], set_text)
    for a, entry in enumerate(_designated_entries(g, game, report.solution)):
        print(f"agent {g.agents[a]}: {set_text(a, entry)}")
    return 0


def _print_trace(g: RbrGraph, rounds: tuple, set_text) -> None:
    """One line per node: its name, then its entry in each round.

    Copies of one belief type have one row, so each distinct (label,
    entries) row is formatted once, and the column widths are read off
    the distinct rows.  The rows are zipped twice, once to collect the
    distinct ones and once to print, so no row per node is kept.
    """
    cells = {
        row: [set_text(row[0], e) for e in row[1:]]
        for row in dict.fromkeys(zip(g.labels, *rounds))
    }
    widths = [
        max((len(c[i]) for c in cells.values()), default=0)
        for i in range(len(rounds))
    ]
    text = {
        row: " ".join(f"{c:>{w}}" for c, w in zip(cs, widths))
        for row, cs in cells.items()
    }
    name_w = max(map(len, g.node_names), default=0)
    header = " ".join(f"{i + 1:>{w}}" for i, w in enumerate(widths))
    lines = [f"{'node':<{name_w}} {header}"]
    lines += [
        f"{name:<{name_w}} {text[row]}"
        for name, row in zip(g.node_names, zip(g.labels, *rounds))
    ]
    print("\n".join(lines))


def cmd_export_dot(args) -> int:
    sys.stdout.write(export_dot(_load_graph(args.graph)))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rbr",
        description="RBR graphs: validation, minimisation, equivalence, "
        "and doxastic rationalisability.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a graph document")
    p.add_argument("graph")
    p.set_defaults(run=cmd_validate)

    p = sub.add_parser("minimize", help="compress to minimal canonical form")
    p.add_argument("graph")
    p.add_argument("--out", help="write the minimised graph to this path")
    p.set_defaults(run=cmd_minimize)

    p = sub.add_parser("equiv", help="decide equivalence of two graphs")
    p.add_argument("graph_a")
    p.add_argument("graph_b")
    p.set_defaults(run=cmd_equiv)

    p = sub.add_parser("solve", help="doxastic rationalisability of a game")
    p.add_argument("graph")
    p.add_argument(
        "game",
        help="game document path, or builtin spec: "
        "guess23:<agents>:<max> | gk:<k> | binary",
    )
    p.add_argument("--trace", action="store_true", help="print per-round sets")
    p.set_defaults(run=cmd_solve)

    p = sub.add_parser("export-dot", help="write DOT to standard output")
    p.add_argument("graph")
    p.set_defaults(run=cmd_export_dot)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except (OSError, UnicodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NonTermination, AssertionError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    except RbrError as exc:
        # Bad input to any command other than validate (which reports
        # invalid graphs as its own negative verdict).
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
