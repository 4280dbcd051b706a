"""Run the benchmark over ten seeds and summarise the spread.

Usage, from the root of a checkout:

    python3 perfbench/collect.py [--out FILE] [--against FILE]

Runs ``BENCHMARK.json``'s command once per seed 1-10 and workload with
tracing off, interleaving workloads so that slow spells of the machine
spread over all of them, then one traced run per workload.  For every
end-to-end metric it prints the median and the spread (interquartile
range as a share of the median) next to the metric's bound, both for the
reported figures and for the same figures in plain wall-clock time.
``--against`` names the ``--out`` file of an earlier set of runs and
prints how far each median moved from it, in the worse direction, next
to the bound.  ``--out`` writes the summary and the machine it ran on
as JSON.  Exits 0 when every spread is below a third of its bound and
no median moved by more than its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(1, 11)


def run_once(spec, workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    """The result line and, with tracing off, the wall-clock line."""
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{' '.join(cmd)} reported wrong answers:\n{proc.stderr}")
    wall = [json.loads(x.split(" ", 1)[1]) for x in lines if x.startswith("wall-clock ")]
    return result, wall[0] if wall else {}


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def summarise(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": values}


def worse_by(before: float, after: float, better: str) -> float:
    """How far ``after`` is worse than ``before``, as a share of ``before``."""
    return (after - before) / before * (1 if better == "lower" else -1)


def layer_shares(per_layer: dict) -> dict[str, float]:
    """Each layer's self time as a share of the traced request time."""
    m = {k: v["median"] for k, v in per_layer.items()}
    self_s = {
        "formats": m["formats.parse_s"] + m["formats.serialize_s"],
        "graph": m["graph.validate_s"],
        "partition": m["partition.self_s"],
        "minimize": m["minimize.self_s"],
        "games": m["games.self_s"],
        "solve": m["solve.self_s"],
        "cli": m["cli.self_s"],
    }
    return {k: v / m["cli.request_s"] for k, v in self_s.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path)
    parser.add_argument("--against", type=Path)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    earlier = json.loads(args.against.read_text(encoding="utf-8")) if args.against else None
    workloads = [w["name"] for w in spec["workloads"]]
    plain = {w: [] for w in workloads}
    for seed in SEEDS:
        for w in workloads:
            plain[w].append(run_once(spec, w, seed, 0))
            result, wall = plain[w][-1]
            print(f"{w} seed {seed}: " + ", ".join(
                f"{k} {v['value']:.4g}" for k, v in result["metrics"].items())
                + f"; speed {wall['speed']:.3f}, {wall['duration_s']:.1f} s", flush=True)
    traced = {w: run_once(spec, w, SEEDS[0], 1)[0] for w in workloads}

    summary = {}
    ok = True
    for w in workloads:
        walls = [wall for _, wall in plain[w]]
        summary[w] = {"attempted": [r["attempted"] for r, _ in plain[w]],
                      "duration_s": summarise([x["duration_s"] for x in walls]),
                      "speed": summarise([x["speed"] for x in walls]),
                      "end_to_end": {}, "wall_clock": {}, "per_layer": {}}
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            s = summarise([r["metrics"][name]["value"] for r, _ in plain[w]])
            s["unit"], s["bound"] = metric["unit"], bound
            raw = summarise([x[name] for x in walls])
            summary[w]["end_to_end"][name] = s
            summary[w]["wall_clock"][name] = raw
            line = (f"{w:11s} {name:12s} median {s['median']:.4g} {metric['unit']:5s} "
                    f"spread {s['spread']:.3f} (wall-clock {raw['spread']:.3f}; "
                    f"bound {bound})")
            ok &= s["spread"] < bound / 3
            if earlier:
                before = earlier["workloads"][w]["end_to_end"][name]["median"]
                s["worse_than_earlier"] = worse_by(before, s["median"], metric["better"])
                ok &= s["worse_than_earlier"] <= bound
                line += f", {s['worse_than_earlier']:+.3f} against the earlier set"
            print(line)
        for name, v in traced[w]["metrics"].items():
            summary[w]["per_layer"][name] = {"median": v["value"], "unit": v["unit"]}
        summary[w]["layer_shares"] = layer_shares(summary[w]["per_layer"])
        print(f"{w:11s} layer shares of traced time: " + ", ".join(
            f"{k} {v:.1%}" for k, v in summary[w]["layer_shares"].items()))
        print(f"{w:11s} run duration median {summary[w]['duration_s']['median']:.1f} s, "
              f"machine speed median {summary[w]['speed']['median']:.3f}")

    if args.out:
        machine = {"python": platform.python_version(), "nproc": os.cpu_count(),
                   "cpu": cpu_model(), "platform": platform.platform()}
        report = {"machine": machine, "run_seconds": spec["run_seconds"],
                  "seeds": list(SEEDS), "workloads": summary}
        if earlier:
            report["earlier"] = {
                w: {k: v["median"] for k, v in s["end_to_end"].items()}
                for w, s in earlier["workloads"].items()}
        args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print("steady: every spread below a third of its bound"
          + (", every median within its bound of the earlier set" if earlier else "")
          if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
