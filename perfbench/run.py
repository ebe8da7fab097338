"""The quiverdt benchmark.

Usage, from the root of a checkout (the sources are taken from ./src)::

    python3 perfbench/run.py --workload kac-census --seed 1 --seconds 30 --trace 0

Workloads (closed loop, one caller, the package's own ``workers`` threads,
at most nproc and at most 2) are defined in ``workloads.py``:

* ``kac-census`` -- Kac polynomials by census and interpolation (criterion 1);
* ``series-roundtrip`` -- exact stack-series / Exp / Log round trips, no census;
* ``count-filter`` -- filter-only census counts, wall-crossing, the HN
  recursion and a Kac interpolation refused by its point budget.

A run builds the inputs in this process, runs one untimed warm-up pass
(lookup-table caches fill on first use), and runs timed passes while their
summed wall time is expected to stay within ``--seconds`` (at least two).
``setup_s`` is the median over fresh interpreters that each import quiverdt
and build the workload's inputs: one before the warm-up and one after every
pass, so that the samples span the run and not one moment of a machine
whose speed drifts.  Every
op of every pass, the warm-up included, is checked exactly against golden
values; a pass whose digest of exact outputs differs from the others, or from
the digest an earlier run in this checkout recorded for the same workload
and seed, makes the run incorrect.

With ``--trace 0`` the last line carries the end-to-end metrics:

* ``wall_s`` -- median over timed passes of the summed op-call wall time
  (checking excluded);
* ``setup_s`` -- see above (the time every ``qdt`` invocation pays);
* ``peak_rss_mib`` -- peak resident memory of this process.

With ``--trace 1`` it carries the per-layer metrics of ``tracing.PER_LAYER``,
taken from one extra traced pass after the untraced ones.  The line before the
last is a report: machine block, per-pass and per-op times, the tail
percentile of ``wall_s`` (the highest with ten samples beyond it; none below
eleven passes) and the digest.  Traced runs write their spans to
``.perfbench_out/``, next to the digest record.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
MIN_PASSES = 2


def require_sources() -> None:
    if not (SRC / "quiverdt" / "__init__.py").is_file():
        sys.exit(f"perfbench: no quiverdt sources under {SRC}")


def load_package() -> None:
    """Put the checkout's sources first on the path, or exit non-zero."""
    require_sources()
    sys.path.insert(0, str(SRC))
    import quiverdt

    if Path(quiverdt.__file__).resolve().parent != SRC / "quiverdt":
        sys.exit(f"perfbench: quiverdt imported from {quiverdt.__file__}, not {SRC}")


def workers() -> int:
    return max(1, min(2, os.cpu_count() or 1))


def measure_setup(args) -> float:
    """Wall time of a fresh interpreter that imports quiverdt and builds the
    workload's inputs."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.smoke:
        cmd.append("--smoke")
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        sys.exit(f"perfbench: set-up child failed: {proc.stderr.strip()}")
    return elapsed


def run_pass(ops) -> dict:
    """Run every op once; time only the calls, then check each outcome."""
    import workloads
    from quiverdt.census import CapExceeded

    walls, windows, failures, record = [], [], [], []
    for op in ops:
        out = err = None
        t0 = time.perf_counter()
        try:
            out = op.call()
        except CapExceeded as exc:
            err = f"{workloads.CAP}: {exc.kind}"
        except Exception as exc:  # noqa: BLE001 - counted as a failed op
            err = f"error: {type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
        walls.append(t1 - t0)
        windows.append((t0, t1))
        if err is None:
            try:
                value, full = workloads.outcome(op, out)
            except Exception as exc:  # noqa: BLE001 - a malformed output fails its op
                value = full = f"error: {type(exc).__name__}: {exc}"
        else:
            value = full = err
        if value != op.expect:
            failures.append({"op": op.name, "got": value, "expected": op.expect})
        record.append([op.name, full])
    digest = hashlib.sha256(json.dumps(record, sort_keys=True, default=str).encode()).hexdigest()
    return {"wall": sum(walls), "walls": walls, "windows": windows,
            "failures": failures, "digest": digest}


def tail(samples: list[float]) -> dict | None:
    """Highest percentile with at least ten samples beyond it, if any."""
    n = len(samples)
    if n < 11:
        return None
    k = n - 10
    return {"percentile": 100 * k // n, "value": sorted(samples)[k - 1], "samples": n}


def check_digest(key: str, digest: str) -> bool:
    """Record the digest for key, or compare with the one recorded before."""
    OUT.mkdir(exist_ok=True)
    path = OUT / "digests.json"
    known = json.loads(path.read_text()) if path.exists() else {}
    if key in known:
        return known[key] == digest
    known[key] = digest
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
    tmp.replace(path)
    return True


def parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("kac-census", "series-roundtrip", "count-filter"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="reduced-size inputs")
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse(argv)
    require_sources()
    timed_run = not (args.trace or args.setup_only)
    setup = [measure_setup(args)] if timed_run else []
    load_package()
    import numpy
    import workloads

    ops = workloads.build(args.workload, args.seed, workers(), smoke=args.smoke)
    if args.setup_only:
        return 0

    passes = [run_pass(ops)]  # warm-up, untimed
    timed: list[dict] = []
    while len(timed) < MIN_PASSES or (
        sum(p["wall"] for p in timed) + statistics.median(p["wall"] for p in timed) <= args.seconds
    ):
        if timed_run:
            setup.append(measure_setup(args))
        timed.append(run_pass(ops))
    if timed_run:
        setup.append(measure_setup(args))
    passes += timed
    wall = statistics.median(p["wall"] for p in timed)
    points = sum(op.points for op in ops)

    if args.trace:
        import tracing

        with tracing.Tracer() as tracer:
            traced = run_pass(ops)
        passes.append(traced)

    attempted = len(ops) * len(passes)
    failed = sum(len(p["failures"]) for p in passes)
    digests = {p["digest"] for p in passes}
    key = f"{args.workload}:{args.seed}:{'smoke' if args.smoke else 'full'}"
    stable = len(digests) == 1 and check_digest(key, passes[0]["digest"])

    if args.trace:
        metrics = tracing.layer_metrics(
            tracer, traced["windows"], wall, points, failed / attempted
        )
        units = tracing.PER_LAYER
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"spans-{args.workload}-{args.seed}.json"
        spans_path.write_text(json.dumps(
            {"fields": ["id", "parent", "name", "start", "end", "thread", "refused", "counts"],
             "spans": tracer.spans(), "counts": tracer.counts()}
        ))
    else:
        metrics = {
            "wall_s": wall,
            "setup_s": statistics.median(setup),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = {"wall_s": "s", "setup_s": "s", "peak_rss_mib": "MiB"}

    report = {
        "machine": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "workers": workers(),
        },
        "workload": args.workload,
        "seed": args.seed,
        "smoke": args.smoke,
        "trace": args.trace,
        "ops": len(ops),
        "points": points,
        "pass_wall_s": [p["wall"] for p in timed],
        "wall_tail": tail([p["wall"] for p in timed]),
        "warmup_wall_s": passes[0]["wall"],
        "op_median_s": {
            op.name: statistics.median(p["walls"][i] for p in timed) for i, op in enumerate(ops)
        },
        "setup_samples_s": setup,
        "digest": passes[0]["digest"],
        "digest_stable": stable,
        "failures": [f for p in passes for f in p["failures"]][:10],
    }
    print(json.dumps({"report": report}, default=str))
    result = {
        "correct": failed == 0 and stable,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
