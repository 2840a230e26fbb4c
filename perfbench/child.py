"""Fresh-interpreter side of the benchmark; ``run.py`` starts it.

    child.py setup WORKLOAD OUT_DIR
        import gdwell, run the workload's warm-up op once, print the seconds
        both took at reference speed (one sample of setup_s).
    child.py loop WORKLOAD SEED SECONDS TRACE OUT_DIR
        build the seeded ops, compute references, run whole passes over the
        ops in a closed loop with one caller until SECONDS have passed, check
        every output, print one JSON line of results.

Thread-count variables are pinned by ``run.py`` before this starts.

Times are reported at a reference machine speed.  The machine is shared,
and other jobs slowed passes by up to 75% for minutes at a time.  A fixed
calibration kernel, independent of gdwell, is timed after every op, and an
op's wall time t is reported as t * CAL_REF_S / c, where c is the median
kernel time measured right before and right after the op.
"""

from __future__ import annotations

from time import perf_counter

T_START = perf_counter()

import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import spans  # noqa: E402  (imports gdwell)
import workloads as wl  # noqa: E402

# fastest time of calibration_s() on the 2-core Xeon VM the bounds were set
# on (Python 3.11, numpy 2.4)
CAL_REF_S = 2.6e-3
# calibration time per second of op time, and so the loop's overhead
CAL_SHARE = 0.1
_CAL_X = wl.np.linspace(0.0, 4.0, 8001)


def calibration_s() -> float:
    """Time of a fixed mix of interpreter loop, numpy and float formatting,
    the kinds of work the ops do."""
    t0 = perf_counter()
    acc = 0.0
    for i in range(20000):
        acc += (i % 7) * 0.5
    y = _CAL_X
    for _ in range(20):
        y = wl.np.exp(-0.5 * y).cumsum() / y.size
    ",".join(f"{v:.17g}" for v in _CAL_X[:1000].tolist())
    return perf_counter() - t0


def setup(workload: str, out_dir: str) -> None:
    op = wl.warm_op(workload)
    wl.run_op(op, wl.out_file(out_dir, op))
    elapsed = perf_counter() - T_START
    # a child lasts under a second, so its fastest kernel time stands for it
    cal = min(calibration_s() for _ in range(9))
    print(json.dumps({"setup_s": elapsed * CAL_REF_S / cal, "unscaled_s": elapsed,
                      "calibration_s": cal}))


def _p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def loop(workload: str, seed: int, seconds: float, traced: bool, out_dir: str) -> None:
    ops = wl.generate(workload, seed)
    refs = wl.references(ops)
    guarded = wl.guarded_numbers()
    first = ops[0]
    wl.run_op(first, wl.out_file(out_dir, first))  # let lazy set-up finish

    tracer = spans.Tracer()
    outcomes, op_s, cal_after = [], [], []
    with spans.installed(tracer) if traced else contextlib.nullcontext():
        t0 = perf_counter()
        while perf_counter() - t0 < seconds:
            for op in ops:
                path = wl.out_file(out_dir, op)
                tracer.op = len(op_s)
                if traced:
                    with tracer.span("op"):
                        dt, raw = wl.run_op(op, path)
                else:
                    dt, raw = wl.run_op(op, path)
                op_s.append(dt)
                outcomes.append(wl.check(op, raw, path, refs))
                n_cal = max(1, round(CAL_SHARE * dt / CAL_REF_S))
                cal_after.append([calibration_s() for _ in range(n_cal)])
        wall = perf_counter() - t0

    # each op at reference speed, then its median over the passes
    scaled = [
        t * CAL_REF_S / statistics.median(cal_after[k] + (cal_after[k - 1] if k else []))
        for k, t in enumerate(op_s)
    ]
    op_ms = [1e3 * statistics.median(scaled[i::len(ops)]) for i in range(len(ops))]
    n = len(outcomes)
    verified = sum(o.status == "ok" for o in outcomes)
    errs = [o.err for o in outcomes if o.err is not None]
    result = {
        "attempted": n,
        "failed": n - verified,
        # a wrong result the program reported as good
        "silent_wrong": sum(o.status.startswith("check:") for o in outcomes),
        "statuses": dict(Counter(o.status for o in outcomes)),
        "ops_per_pass": len(ops),
        "wall_s": wall,
        "unscaled_op_ms_p50": 1e3 * statistics.median(op_s),
        "samples": {"op_s": op_s, "calibration_s": cal_after},
        "end_to_end": {
            # one pass's verified ops over the pass's op time
            "ops_per_s": verified / n * len(ops) / (1e-3 * sum(op_ms)),
            "op_ms_p50": statistics.median(op_ms),
            "op_ms_p90": _p90(op_ms),
            "result_err_max": max(errs) if errs else None,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        },
        "guarded": guarded,
        "versions": {
            "python": platform.python_version(),
            "numpy": metadata.version("numpy"),
            "scipy": metadata.version("scipy"),
        },
    }
    if traced:
        layers = spans.layer_metrics(tracer, outcomes)
        layers["fail_ratio"] = (n - verified) / n
        layers["trace.op_ms_p50"] = statistics.median(op_ms)
        result["per_layer"] = layers
        result["reached"] = dict(tracer.reached)
    print(json.dumps(result))


def main(argv: list[str]) -> None:
    if argv[0] == "setup":
        setup(argv[1], argv[2])
    elif argv[0] == "loop":
        loop(argv[1], int(argv[2]), float(argv[3]), argv[4] == "1", argv[5])
    else:
        raise SystemExit(f"unknown command {argv[0]!r}")


if __name__ == "__main__":
    main(sys.argv[1:])
