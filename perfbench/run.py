"""Run one workload of the benchmark and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the program is imported from
``src/``.  ``--trace 0`` measures the end-to-end metrics; ``--trace 1`` is
the separate traced run that reports the per-layer metrics.  The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it holds the run's details
(host fingerprint, per-phase operation counts, sample counts).
"""

import os
import sys
import time

# The BLAS thread count is fixed before numpy loads.  One thread per process:
# serving overlaps two engine threads (or two worker processes) on the
# host's CPUs, and BLAS threads on top of them only contend.
BLAS_THREADS = 1
for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_variable] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
from concurrent.futures import ThreadPoolExecutor  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
#: Set-ups per timed run; ``setup_s`` adds their median to the import time.
SETUPS = 3
#: Fresh interpreters a timed run imports the program in; the import time
#: is their median.
IMPORTS = 5
#: Run in a fresh interpreter: the time to import the program and the
#: benchmark's workloads (which import every layer they drive).
IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path[:0] = sys.argv[1:3]\n"
    "started = time.perf_counter()\n"
    "import repro, workloads\n"
    "print(time.perf_counter() - started)\n"
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def host_fingerprint() -> dict:
    import numpy

    return {
        "cpus": os.cpu_count(),
        "schedulable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": metadata.version("scipy"),
        "blas": numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"],
        "blas_threads": BLAS_THREADS,
    }


def import_seconds() -> float:
    """Seconds to import the program in a fresh interpreter."""
    probe = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(SRC), str(Path(__file__).resolve().parent)],
        capture_output=True, text=True, check=True, timeout=120)
    return float(probe.stdout.strip().splitlines()[-1])


def peak_rss_mb() -> float:
    """Peak resident set of this process (worker processes not included)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program source under {SRC}", file=sys.stderr)
        return 2
    traced = bool(args.trace)
    imports = [import_seconds() for _ in range(0 if traced else IMPORTS)]
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    from loop import median, run_closed_loop, tail

    workload = WORKLOADS[args.workload](args.seed)

    setups, teardowns = [], []

    def timed(samples, call, *args):
        started = time.monotonic()
        result = call(*args)
        samples.append(time.monotonic() - started)
        return result

    stack = timed(setups, workload.setup, traced)

    def store_stats():
        return stack.session.store.stats() if stack.session is not None else {}

    def server_stats():
        return stack.server.stats() if stack.server is not None else {}

    warmup = run_closed_loop([workload.warmup(stack)], workload.outstanding)
    blocks = workload.blocks(stack)
    phase_errors = []
    if not traced:
        store_before = store_stats()
        load = run_closed_loop(blocks, workload.outstanding, args.seconds)
        # Peak memory through set-up and the load, before the checks (which
        # build engines of their own) and the later set-ups.  The run keeps
        # a compact copy of each output, so this is the program's footprint.
        rss = peak_rss_mb()
        phase_errors += workload.check_phase(stack, store_before, store_stats(), load.ops)
        phases = {"warmup": warmup, "load": load}
    else:
        from tracing import instrumented, per_layer, write_spans

        plain = run_closed_loop(blocks, workload.outstanding, args.seconds / 2)
        store_before, before = store_stats(), server_stats()
        with instrumented(stack) as probe:
            traced_phase = run_closed_loop(blocks, workload.outstanding, args.seconds / 2)
        after = server_stats()
        phase_errors += workload.check_phase(stack, store_before, store_stats(),
                                             traced_phase.ops)
        tracer = getattr(stack.server, "tracer", None)
        traces = tracer.completed(flush=True) if tracer is not None else []
        phases = {"warmup": warmup, "plain": plain, "traced": traced_phase}
    timed(teardowns, workload.close, stack)
    # The other set-ups of a timed run come after its load, and are closed
    # on a side thread while the outputs are checked: closing a cluster
    # waits out the coordinator's 5 s accept-thread join.
    extras = [timed(setups, workload.setup, traced) for _ in range(0 if traced else SETUPS - 1)]
    closer = ThreadPoolExecutor(max_workers=1)
    closing = closer.submit(lambda: [timed(teardowns, workload.close, extra) for extra in extras])

    # An operation fails when it raises or its output fails its check; either
    # makes the run incorrect.  The timings count only the operations that
    # succeeded, so a program that fails fast does not read faster.
    counts, failed_total, wrong, raised, succeeded = {}, 0, [], [], {}
    for name, phase in phases.items():
        good = [op for op in phase.ops if op.error is None]
        raised += [f"{name} {op.kind}: {op.error!r}" for op in phase.ops if op.error is not None]
        errors = workload.check(stack, good)
        wrong += [f"{name}: {e}" for index in sorted(errors) for e in errors[index]]
        succeeded[name] = [op for index, op in enumerate(good) if not errors.get(index)]
        failed = len(phase.ops) - len(succeeded[name])
        counts[name] = {"attempted": len(phase.ops), "failed": failed}
        failed_total += failed

    closing.result()
    closer.shutdown()
    main_phase = "traced" if traced else "load"
    latencies = [op.latency_s * 1e3 for op in succeeded[main_phase]]
    tail_percentile, tail_ms = tail(latencies)
    details = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": int(traced),
        "host": host_fingerprint(),
        "operation": workload.op_unit,
        "outstanding": workload.outstanding,
        "phases": counts,
        "import_samples_s": imports,
        "setup_samples_s": setups,
        "teardown_samples_s": teardowns,
        "latency_samples": len(latencies),
        "latency_tail_percentile": tail_percentile,
        "peak_rss": "benchmark process through set-up, warm-up and load; worker "
                    "processes are not included",
        "errors": (wrong + raised)[:20] + phase_errors,
    }
    if traced:
        metrics = per_layer(plain, traced_phase, probe, traces, before, after, teardowns[-1])
        from tracing import PER_LAYER

        units = dict(PER_LAYER)
        spans = OUT / f"trace-{workload.name}-seed{args.seed}.jsonl"
        write_spans(spans, probe, traces)
        details["spans"] = str(spans.relative_to(ROOT))
    else:
        metrics = {
            "setup_s": median(imports) + median(setups),
            "throughput_rps": load.rate(succeeded["load"], "op"),
            "throughput_fps": load.rate(succeeded["load"], "frame"),
            "latency_p50_ms": median(latencies),
            "latency_tail_ms": tail_ms,
            "peak_rss_mb": rss,
        }
        units = {"setup_s": "s", "throughput_rps": "1/s", "throughput_fps": "frames/s",
                 "latency_p50_ms": "ms", "latency_tail_ms": "ms", "peak_rss_mb": "MB"}
    attempted = sum(c["attempted"] for c in counts.values())
    result = {
        "correct": not wrong and not raised and not phase_errors,
        "attempted": attempted,
        "failed": failed_total,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
