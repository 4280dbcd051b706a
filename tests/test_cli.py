import codecs
import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import rbr
from rbr import (
    NO_NODE,
    make_binary_game,
    make_guess_average_game,
    make_sequence_game,
    read_graph,
    serialize_rbr,
    validate_graph,
)
from rbr import formats
from rbr.cli import main
from rbr.games import strategy_label
from .conftest import ABC, blow_up, iterated_rationalise, random_graph


@pytest.fixture()
def paths(tmp_path, b1, b2, b3, b4, b5):
    out = {}
    for name, g in [("b1", b1), ("b2", b2), ("b3", b3), ("b4", b4), ("b5", b5)]:
        p = tmp_path / f"{name}.rbr"
        p.write_text(serialize_rbr(g))
        out[name] = str(p)
    return out


def test_validate_ok(paths, capsys):
    assert main(["validate", paths["b1"]]) == 0
    assert "3 nodes" in capsys.readouterr().out


def test_validate_rejects_self_loop(tmp_path, capsys):
    p = tmp_path / "bad.rbr"
    p.write_text("agents a b\nnode n1 a\nnode n2 a\nedge n1 n2\nreal a n1\n")
    assert main(["validate", str(p)]) == 1
    assert "invalid" in capsys.readouterr().err


def test_missing_file_is_usage_error(capsys):
    assert main(["validate", "/no/such/file.rbr"]) == 2


def test_minimize(paths, tmp_path, capsys):
    out = tmp_path / "min.rbr"
    assert main(["minimize", paths["b5"], "--out", str(out)]) == 0
    assert "7 -> 3 nodes" in capsys.readouterr().out
    assert main(["equiv", str(out), paths["b3"]]) == 0
    # The written file is in the layout that graph files are read fastest in.
    assert formats._parse_layout(out.read_text()) is not None


def test_minimize_identity(paths, capsys):
    assert main(["minimize", paths["b3"]]) == 0
    assert "3 -> 3 nodes" in capsys.readouterr().out


def test_minimize_stdout_is_a_graph_document(paths, capsys, b3):
    assert main(["minimize", paths["b5"]]) == 0
    out = capsys.readouterr().out
    assert out.startswith("# 7 -> 3 nodes")
    assert rbr.graphs_equivalent(rbr.read_graph(out), b3)


def test_equiv_verdicts(paths, capsys):
    assert main(["equiv", paths["b5"], paths["b3"]]) == 0
    assert "equivalent" in capsys.readouterr().out

    assert main(["equiv", paths["b1"], paths["b2"]]) == 1
    assert "designation domains differ" in capsys.readouterr().out

    assert main(["equiv", paths["b3"], paths["b4"]]) == 1
    assert "agent c: hierarchies differ" in capsys.readouterr().out


def test_solve_b1(paths, capsys):
    assert main(["solve", paths["b1"], "guess23:3:10"]) == 0
    out = capsys.readouterr().out
    assert "agent a: {1}" in out and "agent c: {1}" in out


def test_solve_b1_on_a_ten_thousand_column_table(paths, capsys):
    """guess23:3:100 gives each agent a 100 x 10,000 payoff table, which
    no benchmark request reaches; common belief in rationality leaves 1."""
    assert main(["solve", paths["b1"], "guess23:3:100"]) == 0
    out = capsys.readouterr().out
    assert all(f"agent {a}: {{1}}" in out for a in "abc")


def test_solve_two_agents_on_a_million_cell_table(tmp_path, capsys):
    """guess23:2:1000 is at the profile cap; its closed-form responses
    answer at once where the class-table kernel took tens of seconds."""
    p = tmp_path / "mutual.rbr"
    p.write_text("agents a b\nnode na a\nnode nb b\nedge na nb\nedge nb na\n"
                 "real a na\nreal b nb\n")
    assert main(["solve", str(p), "guess23:2:1000"]) == 0
    assert capsys.readouterr().out == "agent a: {1}\nagent b: {1}\n"


def test_solve_b2(paths, capsys):
    assert main(["solve", paths["b2"], "guess23:3:10"]) == 0
    out = capsys.readouterr().out
    assert "agent a: {1,2,3,4,5}" in out
    assert "agent c: {1,2,3,4,5,6,7,8,9,10}" in out


def test_solve_trace_matches_published_rounds(paths, capsys):
    assert main(["solve", paths["b3"], "guess23:3:10", "--trace"]) == 0
    out = capsys.readouterr().out
    nc_line = next(l for l in out.splitlines() if l.startswith("nc"))
    cells = [c for c in nc_line.split() if c.startswith("{")]
    assert cells == [
        "{1,2,3,4,5,6,7}",
        "{1,2,3,4,5}",
        "{1,2,3,4}",
        "{1,2,3}",
        "{1,2,3}",
    ]


def test_solve_builtin_gk_and_binary(paths, capsys):
    assert main(["solve", paths["b2"], "binary"]) == 0
    assert "agent a: {1}" in capsys.readouterr().out
    assert main(["solve", paths["b2"], "gk:2"]) == 0
    out = capsys.readouterr().out
    assert "agent c:" in out


def test_solve_game_file(paths, tmp_path, capsys):
    doc = """\
game normal-form
agents a b c
strategies a: 0 1
strategies b: 0 1
strategies c: 0 1
"""
    lines = []
    for agent in "abc":
        for x in "01":
            for y in "01":
                for z in "01":
                    own = {"a": x, "b": y, "c": z}[agent]
                    lines.append(f"utility {agent} {x} {y} {z} {own}")
    p = tmp_path / "bin.game"
    p.write_text(doc + "\n".join(lines) + "\n")
    assert main(["solve", paths["b1"], str(p)]) == 0
    assert "agent b: {1}" in capsys.readouterr().out


def test_solve_reads_a_table_file_as_its_commented_copy(paths, tmp_path, capsys):
    """The table layout is read in bulk and a commented copy line by line;
    both give the same solve.  The table file is solved on its class
    table and the builtin guess23:3:6 by closed-form responses, and their
    traced solves print the same on b1 and b3."""
    game = make_guess_average_game(3, 6)
    lines = [f"utility {game.agents[a]} {' '.join(map(str, o))} {game.utility(a, o)}"
             for a in range(3) for o in itertools.product(*game.strategies)]
    random.Random(0).shuffle(lines)
    head = ["game normal-form", "agents a b c"]
    head += [f"strategies {name}: 1 2 3 4 5 6" for name in "abc"]
    layout = "\n".join(head + lines) + "\n"
    commented = "# guess 2/3 of the others' average\n" + layout.replace(
        "\nagents a b c\n", "\nagents a b c  # three players\n")
    for name, text in [("layout", layout), ("commented", commented)]:
        (tmp_path / f"{name}.game").write_text(text)
    assert formats._parse_game_layout(layout) is not None
    assert formats._parse_game_layout(commented) is None
    traced = {}
    for graph in ("b1", "b3"):
        outputs = []
        for spec in ("layout.game", "commented.game", "guess23:3:6"):
            spec = str(tmp_path / spec) if spec.endswith(".game") else spec
            assert main(["solve", paths[graph], spec, "--trace"]) == 0
            outputs.append(capsys.readouterr())
        assert outputs[0] == outputs[1] == outputs[2]
        traced[graph] = outputs[0].out
    assert "agent a: {1}" in traced["b1"]


def test_solve_reports_a_utility_with_too_many_digits(paths, tmp_path, capsys):
    doc = "game normal-form\nagents a b c\n"
    doc += "".join(f"strategies {agent}: 0\n" for agent in "abc")
    doc += "utility a 0 0 0 " + "9" * 5000 + "\nutility b 0 0 0 1\nutility c 0 0 0 1\n"
    p = tmp_path / "big.game"
    p.write_text(doc)
    assert main(["solve", paths["b1"], str(p)]) == 2
    err = capsys.readouterr().err
    assert err == "error: line 6: rational of 5000 characters has too many digits\n"


def test_export_dot(paths, capsys):
    assert main(["export-dot", paths["b4"]]) == 0
    assert capsys.readouterr().out.count("style=dashed") == 2
    assert main(["export-dot", "/no/such.rbr"]) == 2


def test_bad_game_spec_is_usage_error(paths, capsys):
    assert main(["solve", paths["b1"], "guess23:2:10"]) == 2
    for spec in ["gk:x", "gk:", "gk:2:3", "guess23:3", "guess23:3:x", "guess23:a:10",
                 "guess23:3: 4", "gk:1_0", "guess23:3:+4", "gk:\uff12", "gk:2\n",
                 "gk:" + "1" * 5000]:
        assert main(["solve", paths["b1"], spec]) == 2
        assert "malformed game spec" in capsys.readouterr().err


def test_game_of_other_agents_is_usage_error(paths, tmp_path, capsys):
    """The library names both sides of an agent mismatch: the guess23
    constructor both counts, the solver both agent tuples."""
    assert main(["solve", paths["b1"], "guess23:2:10"]) == 2
    assert capsys.readouterr().err == "error: guess-average for 2 agents got 3 agent names\n"
    p = tmp_path / "two.game"
    p.write_text("game normal-form\nagents a b\nstrategies a: 0\nstrategies b: 0\n"
                 "utility a 0 0 0\nutility b 0 0 0\n")
    assert main(["solve", paths["b1"], str(p)]) == 2
    assert capsys.readouterr().err == (
        "error: graph agents ('a', 'b', 'c') differ from game agents ('a', 'b')\n")


def test_non_positive_sequence_spec_is_usage_error(paths, capsys):
    for spec in ["gk:0", "gk:-1"]:
        assert main(["solve", paths["b1"], spec]) == 2
        assert capsys.readouterr().err == "error: sequence length bound must be positive\n"


def test_solve_past_the_safety_bound_is_an_internal_error(paths, capsys, monkeypatch):
    monkeypatch.setattr("rbr.solve.safety_bound", lambda g, game: 0)
    argv = ["solve", paths["b1"], "guess23:3:10"]
    for extra in ([], ["--trace"]):
        assert main(argv + extra) == 3
        assert "no fixpoint within 0" in capsys.readouterr().err


def test_negative_max_iterations_is_usage_error(paths, capsys):
    """The iteration bound is ``safety_bound``, not an option: ``--max-iterations``
    with any count, negative or not, is an unrecognized argument."""
    for text in ["-1", "0"]:
        with pytest.raises(SystemExit) as exc:
            main(["solve", paths["b1"], "binary", "--max-iterations", text])
        assert exc.value.code == 2
        assert f"unrecognized arguments: --max-iterations {text}" in capsys.readouterr().err


def test_max_iterations_takes_only_ascii_integers(paths, capsys):
    """No spelling of a count is taken by the removed ``--max-iterations``:
    the ones that were once rejected as malformed are still usage errors.
    Game specs keep the ASCII-integer rule (see the malformed-spec test)."""
    for text in ["1_0", "+4", "\uff10", " 4"]:
        with pytest.raises(SystemExit) as exc:
            main(["solve", paths["b1"], "binary", "--max-iterations", text])
        assert exc.value.code == 2
        assert f"unrecognized arguments: --max-iterations {text}" in capsys.readouterr().err


def test_equiv_of_different_agent_universes_is_a_stdout_verdict(paths, tmp_path, capsys):
    two = tmp_path / "two.rbr"
    two.write_text("agents a b\nnode n1 a\nreal a n1\n")
    assert main(["equiv", str(two), paths["b1"]]) == 1
    out, err = capsys.readouterr()
    assert (out, err) == ("not equivalent: agent universes differ\n", "")


def test_non_utf8_input_is_usage_error(paths, tmp_path, capsys):
    bad = tmp_path / "latin1.txt"
    bad.write_bytes("agents a b\nnode n\xe9 a\n".encode("latin-1"))
    for argv in (
        ["validate", str(bad)],
        ["minimize", str(bad)],
        ["solve", str(bad), "binary"],
        ["solve", paths["b1"], str(bad)],
    ):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: {bad}: not UTF-8: 'utf-8' codec can't decode byte 0xe9 "
            "in position 17: invalid continuation byte\n"
        )


def test_byte_order_mark_is_skipped(paths, tmp_path, capsys):
    game = tmp_path / "one.game"
    game.write_text("game normal-form\nagents a b c\n"
                    + "".join(f"strategies {a}: x\n" for a in "abc")
                    + "".join(f"utility {a} x x x 0\n" for a in "abc"))

    def with_bom(arg):
        if not Path(arg).exists():
            return arg
        out = tmp_path / f"bom-{Path(arg).name}"
        out.write_bytes(codecs.BOM_UTF8 + Path(arg).read_bytes())
        return str(out)

    for argv in (
        ["validate", paths["b1"]],
        ["minimize", paths["b1"]],
        ["solve", paths["b1"], "binary"],
        ["solve", paths["b1"], str(game)],
    ):
        assert main(argv) == 0
        expect = capsys.readouterr()
        assert main([argv[0], *map(with_bom, argv[1:])]) == 0
        assert capsys.readouterr() == expect


def test_minimize_to_unwritable_path_prints_no_summary(paths, capsys):
    assert main(["minimize", paths["b1"], "--out", "/no/such/dir/min.rbr"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_python_dash_m_runs_the_cli(paths):
    src = str(Path(rbr.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-m", "rbr", "validate", paths["b1"]],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert (done.returncode, done.stdout) == (0, "valid: 3 nodes, 3 agents\n")


def test_package_imports_only_the_standard_library():
    """Importing rbr, its CLI and its oracle loads no module outside the
    standard library; modules loaded before rbr (site hooks) are left out."""
    src = str(Path(rbr.__file__).resolve().parents[1])
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import rbr, rbr.cli, rbr.oracle\n"
        "new = {m.partition('.')[0] for m in set(sys.modules) - before}\n"
        "print(sorted(new - {'rbr'} - sys.stdlib_module_names))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")


def test_readme_library_example_runs():
    """README's ```python``` block runs as written and prints its
    per-agent sets, then the equivalence verdict."""
    root = Path(__file__).resolve().parents[1]
    readme = (root / "README.md").read_text(encoding="utf-8")
    code = readme.split("```python\n", 1)[1].split("```", 1)[0]
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(root / "src")},
    )
    expected = (
        "(frozenset({1, 2, 3, 4, 5}), frozenset({1, 2, 3, 4, 5}), "
        "frozenset({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}))\nTrue\n"
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, expected, "")


def test_solve_trace_runs_one_fixpoint(paths, capsys, monkeypatch):
    import rbr.solve

    calls = []
    original = rbr.solve.rationalise

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(rbr.solve, "rationalise", counted)
    assert main(["solve", paths["b1"], "guess23:3:10"]) == 0
    plain = len(calls)
    plain_out = capsys.readouterr().out
    assert main(["solve", paths["b1"], "guess23:3:10", "--trace"]) == 0
    assert len(calls) - plain == plain > 0
    assert capsys.readouterr().out.endswith(plain_out)


def test_oversized_sequence_spec_is_rejected_unbuilt(paths, capsys, monkeypatch):
    def no_sequences(*args):
        raise AssertionError("sequence spaces built before the size check")

    monkeypatch.setattr("rbr.games.alternating_sequences", no_sequences)
    assert main(["solve", paths["b1"], "gk:30"]) == 2
    assert f"gk:30 payoff table over sequences up to length 7 has {2**21} cells" in (
        capsys.readouterr().err
    )


def test_oversized_game_hits_size_cap(paths, capsys):
    # 101 strategies against 101 x 101 opponent profiles: 1030301 table
    # cells, over the default cap of 10**6.
    assert main(["solve", paths["b1"], "guess23:3:101"]) == 2
    err = capsys.readouterr().err
    assert "1030301 cells" in err and "cap 1000000" in err


def test_solve_trace_on_a_graph_without_nodes(tmp_path, capsys):
    path = tmp_path / "empty.rbr"
    path.write_text("agents a b\n")
    path = str(path)
    assert main(["validate", path]) == 0
    capsys.readouterr()
    assert main(["solve", path, "binary", "--trace"]) == 0
    assert capsys.readouterr().out == "node 1\nagent a: {0,1}\nagent b: {0,1}\n"


def _reference_table(g, game) -> str:
    """The ``solve --trace`` table, formatted node by node and cell by
    cell from rounds of the full ``rationalise``."""
    trace = iterated_rationalise(g, game)
    cells = [
        ["{" + ",".join(strategy_label(game, x)
                        for x in game.strategies[g.labels[n]] if x in s[n]) + "}"
         for s in trace[1:]]
        for n in g.nodes()
    ]
    widths = [max((len(row[i]) for row in cells), default=0)
              for i in range(len(trace) - 1)]
    name_w = max(map(len, g.node_names), default=0)
    lines = [f"{'node':<{name_w}} "
             + " ".join(f"{i + 1:>{w}}" for i, w in enumerate(widths))]
    for n in g.nodes():
        lines.append(f"{g.node_names[n]:<{name_w}} "
                     + " ".join(f"{c:>{w}}" for c, w in zip(cells[n], widths)))
    return "".join(line + "\n" for line in lines)


def _reachable_part(g):
    """The nodes reachable from the designated ones, in id order."""
    keep = {n for n in g.designated if n != NO_NODE}
    stack = list(keep)
    while stack:
        for m in g.succ[stack.pop()]:
            if m != NO_NODE and m not in keep:
                keep.add(m)
                stack.append(m)
    new = {n: i for i, n in enumerate(sorted(keep))}
    return validate_graph(
        g.agents, len(new), [g.labels[n] for n in new],
        [(new[n], new[m]) for n, m in g.edges() if n in new],
        {a: new[n] for a, n in enumerate(g.designated) if n != NO_NODE})


def test_solve_trace_prints_every_node_row(tmp_path, capsys):
    """The trace table equals one formatted node by node, on random
    graphs and on a blow-up, whose copies share their rows."""
    rng = random.Random(11)
    graphs = [random_graph(rng, max_nodes=12) for _ in range(20)]
    core = max((g for g in graphs if g.agents == ABC),
               key=lambda g: len(list(g.edges())))
    graphs.append(_reachable_part(blow_up(rng, core, 40)[0]))
    assert graphs[-1].num_nodes > 100
    for i, g in enumerate(graphs):
        path = tmp_path / f"g{i}.rbr"
        path.write_text(serialize_rbr(g))
        g = read_graph(path.read_text())
        games = {
            "binary": make_binary_game(g.agents),
            "gk:2": make_sequence_game(g.agents, 2),
            f"guess23:{g.num_agents}:6": make_guess_average_game(
                g.num_agents, 6, agents=g.agents),
        }
        for spec, game in games.items():
            assert main(["solve", str(path), spec]) == 0
            plain = capsys.readouterr().out
            assert main(["solve", str(path), spec, "--trace"]) == 0
            assert capsys.readouterr().out == _reference_table(g, game) + plain

