"""The benchmark's per-layer tracer still finds every function it wraps.

``perfbench/tracing.py`` patches ``rbr`` functions by module and name, so a
rename or a dropped import under ``src/`` breaks ``perfbench/run.py --trace 1``
without any other test noticing.
"""

import importlib
import importlib.util
from pathlib import Path

import rbr.cli
import rbr.solve
from rbr import make_guess_average_game, serialize_rbr

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
MODULES = ["rbr.cli", "rbr.formats", "rbr.games", "rbr.graph", "rbr.minimize",
           "rbr.partition", "rbr.solve"]


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _attributes():
    return {
        (name, attr): value
        for name in MODULES
        for attr, value in vars(importlib.import_module(name)).items()
    }


def test_tracer_installs_and_restores(tmp_path, b3, b5):
    tracing = _load_tracing()
    before = _attributes()
    tracer = tracing.Tracer()
    try:
        tracer.install()
        during = _attributes()
        patched = {key for key, value in before.items() if during[key] is not value}
        assert {(module, attr) for module, attr, _ in tracing.SPANS} <= patched
        assert {("rbr.solve", "belief_scene"), ("rbr.games", "dominates")} <= patched
        # Requests through the patched entry point run and are recorded.
        b3_path, b5_path = str(tmp_path / "b3.rbr"), str(tmp_path / "b5.rbr")
        (tmp_path / "b3.rbr").write_text(serialize_rbr(b3))
        (tmp_path / "b5.rbr").write_text(serialize_rbr(b5))
        assert rbr.cli.main(["minimize", b5_path]) == 0
        assert rbr.cli.main(["equiv", b5_path, b3_path]) == 0
        assert rbr.cli.main(["solve", b3_path, "guess23:3:10", "--trace"]) == 0
        spans = {rec[0] for rec in tracer.spans}
        assert {"cli.main", "partition.refine_once", "minimize.minimise",
                "solve.rational_solution", "games.rational_response"} <= spans
    finally:
        tracer.uninstall()
    after = _attributes()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())


def test_traced_solve_records_one_response_span_per_scene_answered(b3, b5):
    """The solver's memo calls ``rbr.solve.rational_response`` as bound at
    call time, so the tracer's wrapper sees every scene a solve answers."""
    tracing = _load_tracing()
    for g in (b3, b5):
        game = make_guess_average_game(3, 10, agents=g.agents)
        tracer = tracing.Tracer()
        try:
            tracer.install()
            report = rbr.solve.rational_solution(g, game)
        finally:
            tracer.uninstall()
        spans = [rec[0] for rec in tracer.spans]
        assert spans.count("games.rational_response") == sum(report.scenes_answered) > 0
