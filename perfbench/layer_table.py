"""Print the reference tables of perfbench/README.md for this host.

    python3 perfbench/layer_table.py

Per S-VGG11 layer: the modeled cluster cycles, FPU utilization and DMA bytes
of SpikeStream FP16 (mean over the paper's batch of 128 statistical
frames), next to the host time the cost model spends on that layer (median
of five engine passes, read through ``layer_profiler``).  Then the model's
headline numbers next to the paper's.
"""

import os
import statistics
import sys
import time
from pathlib import Path

os.environ["OPENBLAS_NUM_THREADS"] = "1"
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro import Session  # noqa: E402
from repro.core.pipeline import layer_profiler  # noqa: E402

BATCH, SEED, REPEATS = 128, 2025, 5

#: (label, the model's value from the regenerated figures, the paper's value)
HEADLINES = (
    ("network speedup, SpikeStream FP16 over baseline", "speedup",
     "network_speedup_fp16_over_baseline", 4.39),
    ("FPU utilization, baseline", "utilization", "network_fpu_util_baseline", 0.0928),
    ("FPU utilization, SpikeStream", "utilization", "network_fpu_util_spikestream", 0.523),
    ("energy gain of FP8 over LSMCore", "accelerator_comparison",
     "fp8_energy_gain_vs_lsmcore", 3.46),
    ("speedup of FP8 over Loihi", "accelerator_comparison", "fp8_speedup_vs_loihi", 2.38),
)


def main() -> int:
    with Session() as session:
        variants = session.run_variants(batch_size=BATCH, seed=SEED)
        figures = {
            name: session.run(name, seed=SEED, batch_size=BATCH)
            for name in ("speedup", "utilization", "accelerator_comparison")
        }
        engine = session.engine(variants["spikestream_fp16"].config)
    host = {}
    for _ in range(REPEATS):
        spans = {}
        with layer_profiler(lambda name, start, end: spans.__setitem__(name, end - start)):
            engine.run_statistical(batch_size=BATCH, seed=SEED)
        for name, seconds in spans.items():
            host.setdefault(name, []).append(seconds)

    print(f"| layer | kernel | cycles | FPU util. | DMA bytes | host cost ms/frame |")
    print("|---|---|---:|---:|---:|---:|")
    for layer in variants["spikestream_fp16"].layers:
        host_ms = 1e3 * statistics.median(host[layer.name]) / BATCH
        print(f"| {layer.name} | {layer.kernel} | {layer.cycles.mean():,.0f} "
              f"| {layer.fpu_utilization.mean():.3f} | {layer.dma_bytes.mean():,.0f} "
              f"| {host_ms:.3f} |")
    print()
    print("| headline | model | paper | deviation |")
    print("|---|---:|---:|---:|")
    for label, figure, key, paper in HEADLINES:
        model = figures[figure].headline[key]
        print(f"| {label} | {model:.4g} | {paper:.4g} | {100 * (model / paper - 1):+.1f}% |")
    print()
    print(f"(batch {BATCH}, seed {SEED}, {time.strftime('%Y-%m-%d')}, "
          f"{os.cpu_count()} CPUs, 1 BLAS thread)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
