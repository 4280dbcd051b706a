"""Self-check of the benchmark itself.

Usage, from the root of a checkout:

    python3 perfbench/selfcheck.py

1. Determinism: every workload is generated twice with one seed, in
   two processes with different hash seeds; the input files must be
   byte-identical.
2. Sensitivity: requests checked against a deliberately wrong expected
   answer must count as failed, so ``fail_frac`` rises above 0, while the
   same requests with their own expected answers all pass.

Exits 0 when both hold.
"""

from __future__ import annotations

import argparse
import filecmp
import os
import shutil
import subprocess
import sys
from pathlib import Path

import run

CHECK_DIR = run.WORK / "selfcheck"
SEED = 7


def generate(out: Path) -> None:
    import workloads

    for name in workloads.WORKLOADS:
        workloads.build(name, SEED, out / name)


def same_inputs() -> bool:
    dirs = []
    for hash_seed in ("1", "2"):
        out = CHECK_DIR / f"gen-h{hash_seed}"
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        subprocess.run([sys.executable, __file__, "--generate", str(out)],
                       check=True, env=env, timeout=170)
        dirs.append(out)
    ok = True
    for sub in sorted(p.name for p in dirs[0].iterdir()):
        cmp = filecmp.dircmp(dirs[0] / sub, dirs[1] / sub)
        names = sorted(p.name for p in (dirs[0] / sub).iterdir())
        _, mismatch, errors = filecmp.cmpfiles(dirs[0] / sub, dirs[1] / sub, names, shallow=False)
        bad = mismatch + errors + cmp.left_only + cmp.right_only
        print(f"determinism {sub}: {len(names)} files, {'identical' if not bad else bad}")
        ok &= not bad
    return ok


def find(requests, *needles):
    for r in requests:
        if all(any(Path(a).name == n for a in r.argv) for n in needles):
            return r
    raise LookupError(needles)


def detects_corruption() -> bool:
    import workloads

    dom = workloads.build("dominance", SEED, CHECK_DIR / "dominance")
    b1 = find(dom, "b1.rbr", "guess23:3:10")  # answer {1} for every agent
    b2 = find(dom, "b2.rbr", "guess23:3:10")  # answer {1..5}, {1..5}, {1..10}
    ref = workloads.build("refine", SEED, CHECK_DIR / "refine")
    chain = next(r for r in ref if r.argv[0] == "equiv" and r.exit_code == 1)
    picked = [b1, b2, chain]

    honest = run.Client()
    for r in picked:
        honest.run(r, timed=False)
    corrupted = run.Client()
    wrong = [
        workloads.Request(b1.argv, b1.exit_code, b2.check),
        workloads.Request(b2.argv, b2.exit_code, b1.check),
        workloads.Request(chain.argv, 1 - chain.exit_code, chain.check),
    ]
    for r in wrong:
        corrupted.run(r, timed=False)
    print(f"honest answers: fail_frac = {honest.failed / honest.attempted}")
    print(f"corrupted answers: fail_frac = {corrupted.failed / corrupted.attempted}")
    for reason in corrupted.reasons:
        print(f"  detected: {reason[-120:]}")
    return honest.failed == 0 and corrupted.failed == len(wrong)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--generate", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    run.import_rbr()
    if args.generate:
        generate(args.generate)
        return 0
    try:
        ok = same_inputs() & detects_corruption()
    finally:
        shutil.rmtree(CHECK_DIR, ignore_errors=True)
    print("self-check passed" if ok else "self-check FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
