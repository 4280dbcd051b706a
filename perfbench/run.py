"""Benchmark of the ``rbr`` command line, end to end and per layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload dominance --seed 1 --seconds 30 --trace 0

Each request is one in-process call of ``rbr.cli.main(argv)`` on input
files that set-up generates from the seed, with stdout captured and the
answer checked against an expected result that does not come from the
code being timed.  The load is a closed loop: one client, no threads,
the next request starts when the previous one has been checked.

Times are reported in reference seconds: the wall time of a request
scaled by how fast the machine ran a fixed calibration task (no ``rbr``
code) around it, so that slow spells of a shared machine do not read as
regressions.  The same figures in wall-clock time are printed alongside.

``--trace 0`` reports the end-to-end metrics (tracing off).  ``--trace 1``
alternates untraced and traced passes over the request list and reports
the per-layer metrics of the traced passes; the spans are written to
``perfbench/work/``.  The last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "work"
SETUP_REPEATS = 5
# Calibrations taken between two set-ups; a set-up's speed estimate is the
# median of those on both sides of it.
SETUP_CALIBRATIONS = 5
SHOW_FAILURES = 5
# With 100 samples, 10 lie beyond the p90 of ``statistics.quantiles``.
MIN_SAMPLES = 100
# What the calibration task takes on an Intel Xeon at Python 3.11 when
# the machine is not slowed by its neighbours.
REFERENCE_CALIBRATION_S = 0.008
# Calibrations on each side of a request that its speed estimate uses.
SPEED_WINDOW = 4


def import_rbr() -> float:
    """Import ``rbr`` from this checkout's ``src``; returns the seconds it
    took.  Exits when the checkout holds no ``rbr`` to benchmark."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    start = time.perf_counter()
    try:
        import rbr.cli
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import rbr from {src}: {exc}")
    elapsed = time.perf_counter() - start
    if Path(rbr.cli.__file__).resolve().parents[1] != src.resolve():
        sys.exit(f"perfbench: rbr was imported from {rbr.cli.__file__}, not {src}")
    return elapsed


class Speedometer:
    """Times a fixed pure-Python task that resembles ``rbr``'s work
    (partition refinement of a 600-node graph with the reference refiner,
    and ``Fraction`` arithmetic) to estimate how fast the machine runs."""

    def __init__(self):
        import gen

        rng = random.Random(0)
        self._gen = gen
        self._graph, _ = gen.blow_up(rng, gen.random_core(rng, 30, ("a", "b", "c"), 0.5), 20)

    def sample(self) -> float:
        start = time.perf_counter()
        self._gen.hierarchy_classes(self._graph.labels, self._graph.succ)
        x = Fraction(0)
        for i in range(1, 800):
            x += Fraction(i % 7, 3 * (i % 5 + 1)) - abs(x / 2)
        return time.perf_counter() - start


def reference_seconds(raw: list[float], calibrations: list[float]) -> list[float]:
    """Scale each raw time by the reference calibration over the median
    calibration in a window around it."""
    out = []
    for j, seconds in enumerate(raw):
        near = calibrations[max(0, j - SPEED_WINDOW): j + SPEED_WINDOW + 1]
        out.append(seconds * REFERENCE_CALIBRATION_S / statistics.median(near))
    return out


def call(argv: list[str]) -> tuple[float, object, str, str]:
    """One request: seconds, exit code (None after an exception), stdout,
    stderr."""
    import rbr.cli

    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = rbr.cli.main(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    except Exception as exc:  # a traceback is a failed request, not a crash
        code = None
        err.write(f"{type(exc).__name__}: {exc}")
    return time.perf_counter() - start, code, out.getvalue(), err.getvalue()


class Client:
    """Issues requests, checks answers, and keeps latencies and failures."""

    def __init__(self, speed: Speedometer | None = None):
        self.speed = speed
        self.latencies: list[float] = []  # raw wall seconds of timed requests
        self.calibrations: list[float] = []  # calibration just before each
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def fail(self, reason: str) -> None:
        self.failed += 1
        if len(self.reasons) < SHOW_FAILURES:
            self.reasons.append(reason)

    def run(self, request, timed: bool = True) -> None:
        """Issue and check one request; warm-up requests (``timed`` false)
        count as attempted but add no latency sample.  The garbage of
        earlier requests is collected first, untimed and before the
        calibration, so each request starts from a clean heap as a fresh
        ``rbr`` process would."""
        gc.collect()
        if timed:
            self.calibrations.append(self.speed.sample())
        seconds, code, out, err = call(request.argv)
        if code != request.exit_code:
            reason = f"exit {code}, want {request.exit_code}: {err.strip()[:200]}"
        else:
            try:
                reason = request.check(out)
            except Exception as exc:  # unparsable output is a wrong answer
                reason = f"check raised {type(exc).__name__}: {exc}"
        self.attempted += 1
        if timed:
            self.latencies.append(seconds)
        if reason is not None:
            self.fail(f"{' '.join(request.argv)}: {reason}")

    def reference_latencies(self) -> list[float]:
        return reference_seconds(self.latencies, self.calibrations)


def digest(directory: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def calibrate(client: Client) -> list[float]:
    """``SETUP_CALIBRATIONS`` calibration samples on a clean heap."""
    gc.collect()
    return [client.speed.sample() for _ in range(SETUP_CALIBRATIONS)]


def set_up(workload: str, seed: int, run_dir: Path, import_s: float, client: Client):
    """Generate inputs and expected answers ``SETUP_REPEATS`` times, each
    followed by a warm-up; returns the request list, the set-up time of
    each repetition in wall and in reference seconds, and whether every
    repetition wrote identical inputs."""
    import workloads

    raws, times, digests, requests = [], [], [], None
    before = calibrate(client)
    for rep in range(SETUP_REPEATS):
        start = time.perf_counter()
        requests = workloads.build(workload, seed, run_dir / f"inputs{rep}")
        for warm in workloads.warmup(run_dir / f"warm{rep}"):
            client.run(warm, timed=False)
        raw = import_s + time.perf_counter() - start
        after = calibrate(client)
        raws.append(raw)
        times.append(raw * REFERENCE_CALIBRATION_S / statistics.median(before + after))
        before = after
        digests.append(digest(run_dir / f"inputs{rep}"))
    # Keep the benchmark's own long-lived objects out of the collections
    # that run during timed requests.
    gc.collect()
    gc.freeze()
    return requests, raws, times, len(set(digests)) == 1


def timed_loop(requests, seconds: float, client: Client) -> None:
    """Whole passes over the request list while another pass fits in
    ``seconds``, more if needed to get ``MIN_SAMPLES`` latencies.  Every
    request is sampled equally often, so the quantiles do not depend on
    where in the (seeded) request order the run stops."""
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        for r in requests:
            client.run(r)
        now = time.perf_counter()
        if len(client.latencies) >= MIN_SAMPLES and now + (now - pass_start) > start + seconds:
            break


def traced_loop(requests, seconds: float, client: Client, tracer):
    """Pairs of (untraced, traced) passes over the whole request list
    while a further pair fits in ``seconds``, at least one pair; returns
    the pair count, the traced and untraced request time, and the
    reference seconds per wall second of the traced passes."""
    start = time.perf_counter()
    cycles = 0
    while True:
        pair_start = time.perf_counter()
        for r in requests:
            client.run(r)
        tracer.install()
        try:
            for i, r in enumerate(requests):
                tracer.request = cycles * len(requests) + i
                client.run(r)
        finally:
            tracer.uninstall()
        cycles += 1
        now = time.perf_counter()
        if now + (now - pair_start) > start + seconds:
            break
    n = len(requests)
    lat = client.reference_latencies()
    passes = [sum(lat[k * n:(k + 1) * n]) for k in range(2 * cycles)]
    traced_cal = [c for k in range(1, 2 * cycles, 2) for c in client.calibrations[k * n:(k + 1) * n]]
    scale = REFERENCE_CALIBRATION_S / statistics.median(traced_cal)
    return cycles, sum(passes[1::2]), sum(passes[0::2]), scale


def latency_metrics(lat: list[float], failed: int, setup: list[float]) -> dict:
    return {
        "req_s.p50": statistics.median(lat),
        "req_s.p90": statistics.quantiles(lat, n=10)[-1],
        "req_per_s": (len(lat) - failed) / sum(lat),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": statistics.median(setup),
    }


def end_to_end(client: Client, setup_raw: list[float], setup_ref: list[float],
               started: float) -> tuple[dict, dict]:
    """The end-to-end metrics in reference seconds.  Also prints, on a
    line of its own starting ``wall-clock``, the same metrics in plain
    wall time with the machine speed and the run's duration, so that the
    two can be compared across runs."""
    lat = client.reference_latencies()
    metrics = latency_metrics(lat, client.failed, setup_ref)
    units = {"req_s.p50": "s", "req_s.p90": "s", "req_per_s": "1/s",
             "peak_rss_mb": "MiB", "setup_s": "s"}
    print(f"{len(lat)} timed requests, {sum(x > metrics['req_s.p90'] for x in lat)} "
          f"beyond p90; fail_frac = {client.failed / client.attempted} ratio of "
          f"{client.attempted}")
    wall = latency_metrics(client.latencies, client.failed, setup_raw)
    wall["speed"] = REFERENCE_CALIBRATION_S / statistics.median(client.calibrations)
    wall["duration_s"] = time.perf_counter() - started
    print("wall-clock " + json.dumps(wall))
    return metrics, units


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    started = time.perf_counter()
    import_s = import_rbr()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload}; one of {workloads.WORKLOADS}")
    run_dir = WORK / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    client = Client(Speedometer())
    print(f"{args.workload} seed {args.seed}")
    try:
        requests, setup_raw, setup_ref, same_inputs = set_up(
            args.workload, args.seed, run_dir, import_s, client)
        if not same_inputs:
            client.attempted += 1
            client.fail("set-up wrote different inputs for the same seed")
        if args.trace:
            from tracing import METRICS as units, Tracer

            tracer = Tracer()
            cycles, traced_s, plain_s, scale = traced_loop(
                requests, args.seconds, client, tracer)
            metrics = tracer.metrics(cycles, traced_s, plain_s, scale)
            tracer.write(WORK / f"spans-{args.workload}-s{args.seed}.csv")
            print(f"{cycles} traced passes of {len(requests)} requests; layer shares "
                  "of traced time: " + ", ".join(
                      f"{k} {v:.1%}" for k, v in tracer.layer_shares().items()))
        else:
            timed_loop(requests, args.seconds, client)
            metrics, units = end_to_end(client, setup_raw, setup_ref, started)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    for reason in client.reasons:
        print(f"  FAILED {reason}", file=sys.stderr)
    result = {
        "correct": client.failed == 0 and client.attempted > 0,
        "attempted": client.attempted,
        "failed": client.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
