"""gdwell benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload paper_tables --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout.  The package is imported from
``src/``; nothing needs installing.  With ``--trace 0`` the last line of
standard output holds the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of a separate traced run.  The line before it is the run's
record: versions, core count, git sha, outcome counts and the guarded
numbers.  The record is also written to ``.perfbench_out/``.

All work runs in fresh child interpreters with BLAS/OpenMP pinned to one
thread: ``setup_s`` is the median over several children of import plus one
warm-up op; the timed loop runs in one more child, whose peak resident
memory is ``peak_rss_mb``.  Times are scaled to a reference machine speed
(see ``child.py``).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CHILD = Path(__file__).resolve().parent / "child.py"
SETUP_SAMPLES = 5
# the whole run must end within 180 s
DEADLINE = time.monotonic() + 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update({v: "1" for v in THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONPATH", None)
    return env


def _child(args: list[str]) -> str:
    """Run child.py and return its last line of output."""
    proc = subprocess.run(
        [sys.executable, str(CHILD), *args], env=_child_env(), cwd=ROOT,
        capture_output=True, text=True, timeout=DEADLINE - time.monotonic(), check=False)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"child {args[0]} exited with {proc.returncode}")
    return proc.stdout.strip().splitlines()[-1]


def _git_sha() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10, check=False)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if not (ROOT / "src" / "gdwell" / "__init__.py").is_file():
        print(f"no gdwell source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2

    out_dir = ROOT / ".perfbench_out" / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    out_dir.mkdir(parents=True, exist_ok=True)
    setup_s, samples = None, []
    if not args.trace:
        # the first child also fills the bytecode and file caches
        samples = [json.loads(_child(["setup", args.workload, str(out_dir)]))
                   for _ in range(SETUP_SAMPLES + 1)][1:]
        setup_s = statistics.median(s["setup_s"] for s in samples)
    loop = json.loads(_child(
        ["loop", args.workload, str(args.seed), str(args.seconds), str(args.trace),
         str(out_dir)]))

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_sha": _git_sha(), "cores": os.cpu_count(),
        "setup_samples_s": samples,
        **{k: v for k, v in loop.items() if k not in ("end_to_end", "per_layer")},
    }
    if args.trace:
        metrics = loop["per_layer"]
    else:
        metrics = {"setup_s": setup_s, **loop["end_to_end"]}
    record["metrics"] = metrics
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    with open(out_dir / "record.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    record.pop("samples", None)
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": loop["silent_wrong"] == 0,
        "attempted": loop["attempted"],
        "failed": loop["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
