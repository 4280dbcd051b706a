"""Per-layer tracing of ``rbr`` from outside the program.

``Tracer.install()`` replaces public functions of each layer, as bound in
the module that calls them, with wrappers that record spans (name, start,
end, parent span, request id) or count calls; ``uninstall()`` puts the
originals back.  Nothing under ``src/`` is edited.  Layers are the
``rbr`` module names; ``rbr.oracle`` is never traced.

A span's self time is its duration minus the time its child spans cover,
so the self times of all spans of a request add up to the request's time
in ``rbr.cli.main``.
"""

from __future__ import annotations

import dataclasses
import importlib
from collections import Counter
from pathlib import Path
from time import perf_counter

# (module, attribute, span name); the span name's prefix is its layer.
SPANS = [
    ("rbr.cli", "main", "cli.main"),
    ("rbr.cli", "read_graph", "formats.read_graph"),
    ("rbr.cli", "parse_game", "formats.parse_game"),
    ("rbr.cli", "serialize_rbr", "formats.serialize"),
    ("rbr.formats", "validate_graph", "graph.validate"),
    ("rbr.partition", "validate_graph", "graph.validate"),
    ("rbr.minimize", "validate_graph", "graph.validate"),
    ("rbr.partition", "refine_once", "partition.refine_once"),
    ("rbr.minimize", "refine_once", "partition.refine_once"),
    ("rbr.cli", "finest_partition", "partition.finest"),
    ("rbr.minimize", "_finest_with_rounds", "partition.finest"),
    ("rbr.cli", "disjoint_union", "partition.disjoint_union"),
    ("rbr.cli", "minimise", "minimize.minimise"),
    ("rbr.minimize", "quotient", "minimize.quotient"),
    ("rbr.cli", "rational_solution", "solve.rational_solution"),
    ("rbr.solve", "rational_solution", "solve.rational_solution"),
    ("rbr.cli", "doxastic_rationalisability", "solve.doxastic_rationalisability"),
    ("rbr.solve", "rationalise", "solve.rationalise"),
    ("rbr.solve", "rational_response", "games.rational_response"),
    ("rbr.cli", "make_guess_average_game", "games.make_game"),
    ("rbr.cli", "make_sequence_game", "games.make_game"),
    ("rbr.cli", "make_binary_game", "games.make_game"),
]

LAYERS = ("formats", "graph", "partition", "minimize", "games", "solve", "cli")

# name -> unit, in the order the benchmark reports them.
METRICS = {
    "formats.parse_s": "s",
    "formats.serialize_s": "s",
    "formats.bytes_in": "bytes",
    "graph.validate_s": "s",
    "graph.validate_nodes": "count",
    "partition.refine_calls": "count",
    "partition.refine_node_visits": "count",
    "partition.refine_s": "s",
    "partition.finest_calls": "count",
    "partition.self_s": "s",
    "minimize.quotient_s": "s",
    "minimize.self_s": "s",
    "minimize.nodes_in": "count",
    "minimize.nodes_out": "count",
    "minimize.compression_ratio": "ratio",
    "solve.rounds": "count",
    "solve.scenes_built": "count",
    "solve.response_ratio": "ratio",
    "solve.self_s": "s",
    "games.response_calls": "count",
    "games.response_s": "s",
    "games.self_s": "s",
    "games.dominates_calls": "count",
    "games.dominated_ratio": "ratio",
    "games.compare_calls": "count",
    "games.utility_calls": "count",
    "cli.self_s": "s",
    "cli.request_s": "s",
    "trace.overhead_frac": "ratio",
}


class Tracer:
    """Spans and counters for one traced run, kept in memory."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, request]
        self.counts: Counter = Counter()
        self.request = -1
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- wrappers ---------------------------------------------------------

    def _spanned(self, name: str, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        hook = self._hooks().get(name)

        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.request]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if hook is not None:
                result = hook(counts, args, result)
            return result

        return wrapper

    def _counted(self, key: str, fn, true_key: str | None = None):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            result = fn(*args, **kwargs)
            if true_key is not None and result:
                counts[true_key] += 1
            return result

        return wrapper

    def _counted_game(self, game):
        """The game with its ``compare`` and ``utility`` fields counted."""
        utility = game.utility
        return dataclasses.replace(
            game,
            compare=self._counted("games.compare_calls", game.compare),
            utility=None if utility is None else self._counted("games.utility_calls", utility),
        )

    def _hooks(self):
        def bytes_in(counts, args, result):
            counts["formats.bytes_in"] += len(args[0])
            return result

        def game(counts, args, result):
            return self._counted_game(result)

        def parsed_game(counts, args, result):
            return game(counts, args, bytes_in(counts, args, result))

        def validated(counts, args, result):
            counts["graph.validate_nodes"] += args[1]
            return result

        def refined(counts, args, result):
            counts["partition.refine_node_visits"] += args[0].num_nodes
            return result

        def minimised(counts, args, result):
            counts["minimize.nodes_in"] += args[0].num_nodes
            counts["minimize.nodes_out"] += result.output.num_nodes
            return result

        return {
            "formats.read_graph": bytes_in,
            "formats.parse_game": parsed_game,
            "graph.validate": validated,
            "partition.refine_once": refined,
            "minimize.minimise": minimised,
            "games.make_game": game,
        }

    # -- install / uninstall ----------------------------------------------

    def _patch(self, module: str, attr: str, wrapper_of) -> None:
        mod = importlib.import_module(module)
        original = getattr(mod, attr)
        self._saved.append((mod, attr, original))
        setattr(mod, attr, wrapper_of(original))

    def install(self) -> None:
        for module, attr, name in SPANS:
            self._patch(module, attr, lambda fn, name=name: self._spanned(name, fn))
        self._patch("rbr.solve", "belief_scene",
                    lambda fn: self._counted("solve.scenes_built", fn))
        self._patch("rbr.games", "dominates",
                    lambda fn: self._counted("games.dominates_calls", fn,
                                             "games.dominates_true"))

    def uninstall(self) -> None:
        while self._saved:
            mod, attr, original = self._saved.pop()
            setattr(mod, attr, original)

    # -- results ----------------------------------------------------------

    def self_times(self) -> Counter:
        """Total self time per span name."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: Counter = Counter()
        for (name, start, end, _, _), child in zip(self.spans, covered):
            out[name] += end - start - child
        return out

    def metrics(self, cycles: int, traced_s: float, untraced_s: float,
                scale: float) -> dict[str, float]:
        """Per-layer metrics per pass over the request list; span times are
        multiplied by ``scale`` (reference seconds per wall second)."""
        st, c = self.self_times(), self.counts
        calls = Counter(rec[0] for rec in self.spans)
        layer = self.layer_times()

        def ratio(num, den):
            return num / den if den else 0.0

        totals = {
            "formats.parse_s": st["formats.read_graph"] + st["formats.parse_game"],
            "formats.serialize_s": st["formats.serialize"],
            "formats.bytes_in": c["formats.bytes_in"],
            "graph.validate_s": st["graph.validate"],
            "graph.validate_nodes": c["graph.validate_nodes"],
            "partition.refine_calls": calls["partition.refine_once"],
            "partition.refine_node_visits": c["partition.refine_node_visits"],
            "partition.refine_s": st["partition.refine_once"],
            "partition.finest_calls": calls["partition.finest"],
            "partition.self_s": layer["partition"],
            "minimize.quotient_s": st["minimize.quotient"],
            "minimize.self_s": layer["minimize"],
            "minimize.nodes_in": c["minimize.nodes_in"],
            "minimize.nodes_out": c["minimize.nodes_out"],
            "solve.rounds": calls["solve.rationalise"],
            "solve.scenes_built": c["solve.scenes_built"],
            "solve.self_s": layer["solve"],
            "games.response_calls": calls["games.rational_response"],
            "games.response_s": st["games.rational_response"],
            "games.self_s": layer["games"],
            "games.dominates_calls": c["games.dominates_calls"],
            "games.compare_calls": c["games.compare_calls"],
            "games.utility_calls": c["games.utility_calls"],
            "cli.self_s": layer["cli"],
            "cli.request_s": sum(e - s for n, s, e, _, _ in self.spans if n == "cli.main"),
        }
        out = {k: v * (scale if METRICS[k] == "s" else 1) / cycles
               for k, v in totals.items()}
        out["minimize.compression_ratio"] = ratio(c["minimize.nodes_out"], c["minimize.nodes_in"])
        out["solve.response_ratio"] = ratio(calls["games.rational_response"],
                                            c["solve.scenes_built"])
        out["games.dominated_ratio"] = ratio(c["games.dominates_true"],
                                             c["games.dominates_calls"])
        out["trace.overhead_frac"] = ratio(traced_s, untraced_s) - 1.0
        return {k: out[k] for k in METRICS}

    def layer_times(self) -> Counter:
        """Self time per layer (the span name's prefix)."""
        out: Counter = Counter()
        for name, t in self.self_times().items():
            out[name.split(".")[0]] += t
        return out

    def layer_shares(self) -> dict[str, float]:
        """Each layer's share of the traced request time."""
        layer = self.layer_times()
        total = sum(layer.values())
        return {name: layer[name] / total for name in LAYERS} if total else {}

    def write(self, path: Path) -> None:
        """All spans as CSV: request, span, parent, name, start, end."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            fh.write("request,span,parent,name,start,end\n")
            for i, (name, start, end, parent, req) in enumerate(self.spans):
                fh.write(f"{req},{i},{parent},{name},{start!r},{end!r}\n")
