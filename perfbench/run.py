"""conjpr benchmark: one closed-loop workload per process.

    python3 perfbench/run.py --workload decide --seed 1 --seconds 30 --trace 0

Runs whole rounds of the workload's operations (see workloads.py), one
caller sending the next operation only after the previous one returns,
until ``--seconds`` have passed and at least MIN_OPS operations ran.  Every
output is checked against the oracles in oracles.py.  The last line of
stdout is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
alternates untraced and traced rounds and reports per-layer metrics from
the spans of the traced ones (written to perfbench/out/).
"""

import time

_PROCESS_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"

#: Every run holds at least this many operations, so ten lie beyond p90.
MIN_OPS = 100
#: Fresh set-up processes per run; setup_s is their median.
SETUP_REPEATS = 3
#: Fresh interpreters started for cli.import_ms.
IMPORT_SAMPLES = 5


class Loop:
    """Runs rounds and keeps latencies, failures and wrong answers."""

    def __init__(self, ops):
        self.ops = ops
        self.attempted = 0
        self.failed = 0
        self.wrong = []
        self.failures = []
        self.latencies = []

    def round(self, wrap=None) -> float:
        """One pass over the ops; returns the summed operation time."""
        busy = 0.0
        for op in self.ops:
            call = op.call if wrap is None else wrap(op.call)
            self.attempted += 1
            start = time.perf_counter()
            try:
                result = call()
                verdict = None
            except Exception as exc:  # a crash is a failed operation
                verdict = ("failed", f"raised {exc!r}")
            elapsed = time.perf_counter() - start
            busy += elapsed
            self.latencies.append(elapsed)
            if verdict is None:
                verdict = op.check(result)
            if verdict is None:
                continue
            kind, reason = verdict
            if kind == "failed":
                self.failed += 1
                self.failures.append(f"{op.label}: {reason}")
            else:
                self.wrong.append(f"{op.label}: {reason}")
        return busy


def _median_wall(argv, env) -> float:
    times = []
    for _ in range(IMPORT_SAMPLES):
        start = time.perf_counter()
        subprocess.run(argv, env=env, check=True, capture_output=True, timeout=60)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _import_ms() -> float:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    bare = _median_wall([sys.executable, "-c", "pass"], env)
    cli = _median_wall([sys.executable, "-c", "import conjpr.cli"], env)
    return 1000.0 * (cli - bare)


def _setup_s(args) -> float:
    """Median set-up time of fresh processes that stop once inputs are ready."""
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", "0", "--setup-only"],
            check=True, capture_output=True, text=True, timeout=120,
        )
        times.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
    return statistics.median(times)


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def end_to_end(loop: Loop, setup_s: float) -> dict:
    deciles = statistics.quantiles([1000.0 * t for t in loop.latencies], n=10, method="inclusive")
    done = loop.attempted - loop.failed
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "ops_per_s": {"value": done / sum(loop.latencies), "unit": "1/s"},
        "op_p50_ms": {"value": deciles[4], "unit": "ms"},
        "op_p90_ms": {"value": deciles[8], "unit": "ms"},
        "peak_rss_mb": {"value": _peak_rss_mb(), "unit": "MB"},
    }


def per_layer(summary, counts, ops: int, rounds: int, overhead: float) -> dict:
    """Self times per operation (ms) and counts per round."""

    def agg(name, key="self_s"):
        return summary.get(name, {}).get(key, 0.0)

    def per_op_ms(name):
        return 1000.0 * agg(name) / ops

    metrics = {}

    def put(name, value, unit):
        metrics[name] = {"value": float(value), "unit": unit}

    put("lift.omega_matrix.calls_per_op", agg("lift.omega_matrix", "calls") / ops, "count")
    for name in (
        "lift.omega_matrix",
        "certify.complement_property",
        "certify.kernel_basis",
        "certify.certify",
        "certify.falsify_exact",
        "certify.falsify_search",
        "certify.strict_report",
        "witness.witness_general",
        "kernels.pair_search",
        "kernels.altproj",
        "reconstruct.reconstruct_linear",
        "reconstruct.reconstruct_altproj",
        "frames_io.load",
        "frames_io.save",
        "cli.main",
    ):
        put(f"{name}.self_ms", per_op_ms(name), "ms")
    rank_checks = "certify.complement_property.rank_checks"
    put(rank_checks, counts.get(rank_checks, 0) / rounds, "count")

    restart_iters = agg("kernels.pair_search", "restart_iters")
    slots = agg("kernels.pair_search", "restart_slots")
    put("kernels.pair_search.restart_iters", restart_iters / rounds, "count")
    put("kernels.pair_search.us_per_restart_iter",
        1e6 * agg("kernels.pair_search") / restart_iters if restart_iters else 0.0, "us")
    put("kernels.pair_search.live_share", restart_iters / slots if slots else 0.0, "ratio")
    put("kernels.pair_search.hit_restarts",
        agg("kernels.pair_search", "hit_restarts") / rounds, "count")

    iters = agg("kernels.altproj", "iters")
    put("kernels.altproj.iters", iters / rounds, "count")
    put("kernels.altproj.us_per_iter", 1e6 * agg("kernels.altproj") / iters if iters else 0.0, "us")
    put("kernels.altproj.converged", agg("kernels.altproj", "converged") / rounds, "count")

    put("frames_io.bytes_written", agg("frames_io.save", "bytes_written") / rounds, "bytes")
    put("cli.import_ms", _import_ms(), "ms")
    put("trace.overhead_pct", 100.0 * overhead, "%")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="decide, search, recover or cli")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "conjpr" / "__init__.py").is_file():
        print(f"error: no conjpr sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import conjpr
    from tracing import Tracer
    from workloads import WORKLOADS, CliRunner, build

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")

    if Path(conjpr.__file__).resolve().parent != (SRC / "conjpr").resolve():
        print(f"error: imported conjpr from {conjpr.__file__}, not {SRC}", file=sys.stderr)
        return 2

    workdir = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    cli = CliRunner(SRC)
    ops = build(args.workload, args.seed, workdir, cli)
    if args.setup_only:
        print(json.dumps({"setup_s": time.perf_counter() - _PROCESS_T0}))
        shutil.rmtree(workdir, ignore_errors=True)
        return 0

    loop = Loop(ops)
    tracer = Tracer()
    rounds = 0
    plain_s = traced_s = 0.0
    cli.in_process = bool(args.trace)
    begin = time.perf_counter()
    try:
        while rounds == 0 or time.perf_counter() - begin < args.seconds or (
            loop.attempted < (2 if args.trace else 1) * MIN_OPS
        ):
            if not args.trace:
                loop.round()
            else:
                plain_s += loop.round()
                with tracer.installed():
                    traced_s += loop.round(lambda call: tracer.span("op", call))
            rounds += 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        OUT.mkdir(parents=True, exist_ok=True)
        trace_file = OUT / f"trace-{args.workload}-{args.seed}.json"
        tracer.write(trace_file)
        metrics = per_layer(
            tracer.summary(), tracer.counts, rounds * len(ops), rounds, traced_s / plain_s - 1.0
        )
    else:
        metrics = end_to_end(loop, _setup_s(args))

    for reason in loop.failures[:10]:
        print(f"failed: {reason}", file=sys.stderr)
    for reason in loop.wrong[:10]:
        print(f"wrong: {reason}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed}: {rounds} rounds of {len(ops)} ops, "
          f"{loop.attempted} attempted, {loop.failed} failed, {len(loop.wrong)} wrong")
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    if args.trace:
        print(f"  spans written to {trace_file.relative_to(ROOT)}")
    print(json.dumps({
        "correct": not loop.wrong,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
