"""Run every benchmark workload and print all of its metrics by name.

    python3 perfbench/report.py [--seed N] [--seconds S] [--workload NAME ...]

Run from the root of a source checkout. Each workload runs twice in a
process of its own (untraced for the end-to-end metrics, traced for the
per-layer ones), so that peak RSS belongs to that workload alone. Then,
outside the timed runs, the parity check replays a short stream through the
benchmark loop and through `dyngibbs run` with the same files, seed and
`--length-override`, and requires identical final-step estimates. Exits 1 if
any run is incorrect or any parity check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import run
from workloads import WORKLOADS, write_workload

HERE = Path(__file__).resolve().parent
PARITY_BATCHES = 8


def bench(name: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, check=True, timeout=600,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    detail = json.loads(
        (Path(run.WORK_DIR) / f"{name}-s{seed}" / f"result-trace{trace}.json").read_text())
    return result, detail


def parity(dg, name: str, seed: int) -> tuple[bool, str]:
    """Final-step estimates of the benchmark loop against `dyngibbs run`."""
    w = WORKLOADS[name]
    work = Path(run.WORK_DIR) / f"parity-{name}-s{seed}"
    gen = write_workload(w, seed, PARITY_BATCHES, work)
    inst, params, sched, batches, queries = run.load(dg, w, seed, gen["files"])
    cs, states, _ = run.setup(dg, inst, params, sched, queries)
    loop = run.closed_loop(dg, cs, states, batches, w)
    del cs, states
    if loop["failed"]:
        return False, f"{loop['failed']} of {loop['attempted']} benchmark batches failed"
    env = dict(os.environ, PYTHONPATH=str(Path("src").resolve()))
    subprocess.run(
        [sys.executable, "-m", "dyngibbs.cli", *gen["run_args"], "--out",
         str(work / "run-out")],
        env=env, check=True, timeout=600,
    )
    final = {}
    with (work / "run-out" / "estimates.jsonl").open() as fh:
        for line in fh:
            rec = json.loads(line)
            if rec["step"] == PARITY_BATCHES:
                final[rec["query"]] = rec["vector"]
    if final != loop["answers"]:
        bad = sorted(q for q in final.keys() | loop["answers"].keys()
                     if final.get(q) != loop["answers"].get(q))
        return False, f"estimates differ on {len(bad)} queries, e.g. {bad[:3]}"
    return True, f"{len(final)} final-step estimates equal after {PARITY_BATCHES} batches"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=50.0)
    p.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = p.parse_args(argv)
    try:
        dg = run.import_library(Path.cwd())
    except (RuntimeError, ImportError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    ok = True
    for name in args.workload or list(WORKLOADS):
        e2e, e2e_detail = bench(name, args.seed, args.seconds, 0)
        layer, layer_detail = bench(name, args.seed, args.seconds, 1)
        extra = e2e_detail["extra"]
        rows = {k: (m["value"], m["unit"]) for k, m in e2e["metrics"].items()}
        rows["batch_fail_frac"] = (e2e["failed"] / e2e["attempted"], "ratio")
        print(f"== {name} (seed {args.seed}, {args.seconds:g} s)")
        for k, (v, u) in rows.items():
            print(f"  {k:32s} {v:14.6g} {u}")
        if "batch_tail_percentile" in extra:
            print(f"  {'':32s} tail is p{extra['batch_tail_percentile']:.1f} of "
                  f"{extra['batch_samples']} batches")
        print("  -- traced run, per batch (summed over chains)")
        for k, m in layer["metrics"].items():
            print(f"  {k:32s} {m['value']:14.6g} {m['unit']}")
        for k, why in layer_detail["extra"].get("dropped", {}).items():
            print(f"  {k:32s} dropped: {why}")
        same, detail = parity(dg, name, args.seed)
        print(f"  parity with `dyngibbs run`: {'PASS' if same else 'FAIL'}: {detail}")
        ok &= e2e["correct"] and layer["correct"] and same
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
