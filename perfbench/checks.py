"""Output checks.  Each returns a list of error strings; empty means correct.

Every check compares an output against a computation made apart from the
path the workload timed -- the per-frame reference loops, direct
``Session`` calls, an in-process recomputation of what a worker process
returned, a direct convolution written here -- or against a relation the
paper's results must satisfy.  None compares against a stored copy of an
earlier output.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.core.results import PER_FRAME_METRICS
from repro.snn.numerics import SPIKE_COUNT_TOLERANCE

# --------------------------------------------------------------------------- #
# figures: the paper-derived relations (the bands the shape tests assert)
# --------------------------------------------------------------------------- #


def _band(errors: List[str], name: str, value: float, low: float, high: float) -> None:
    if not low <= value <= high:
        errors.append(f"{name} = {value:.4g} outside [{low}, {high}]")


def paper_shapes(figures: Dict[str, object]) -> List[str]:
    """The relations ``tests/integration/test_paper_shapes.py`` asserts."""
    errors: List[str] = []
    fig3a = figures["memory_footprint"]
    _band(errors, "fig3a mean CSR/AER reduction",
          fig3a.headline["mean_csr_over_aer_reduction"], 2.0, 4.0)
    for row in fig3a.rows:
        if not row["csr_bytes_mean"] < row["aer_bytes_mean"]:
            errors.append(f"fig3a {row['layer']}: CSR not smaller than AER")
    util = figures["utilization"].headline
    baseline, stream = util["network_fpu_util_baseline"], util["network_fpu_util_spikestream"]
    if not stream > 4.0 * baseline:
        errors.append(f"fig3b utilization {stream:.4f} not > 4x baseline {baseline:.4f}")
    _band(errors, "fig3b SpikeStream utilization", stream, 0.35, 0.60)
    _band(errors, "fig3b baseline utilization", baseline, 0.05, 0.15)
    speed = figures["speedup"].headline
    _band(errors, "fig3c FP16 speedup", speed["network_speedup_fp16_over_baseline"], 4.5, 7.0)
    _band(errors, "fig3c FP8 over FP16", speed["network_speedup_fp8_over_fp16"], 1.3, 2.0)
    if not speed["network_speedup_fp8_over_fp16"] > 1.0:
        errors.append("fig3c FP8 is not faster than FP16")
    energy = figures["energy"].headline
    if not (energy["mean_power_spikestream_fp8_conv2_to_8"]
            < energy["mean_power_spikestream_fp16_conv2_to_8"]):
        errors.append("fig4 FP8 power not below FP16 power")
    _band(errors, "fig4 FP16 energy gain", energy["energy_gain_fp16_over_baseline"], 2.0, 4.5)
    _band(errors, "fig4 FP8 energy gain", energy["energy_gain_fp8_over_baseline"], 4.0, 8.0)
    accel = figures["accelerator_comparison"].headline
    _band(errors, "fig5 FP8 slowdown vs LSMCore", accel["fp8_slowdown_vs_lsmcore"], 3.0, 7.0)
    _band(errors, "fig5 FP8 speedup vs Loihi", accel["fp8_speedup_vs_loihi"], 1.5, 3.5)
    _band(errors, "fig5 FP8 energy gain vs LSMCore", accel["fp8_energy_gain_vs_lsmcore"], 2.0, 6.0)
    spva = figures["spva_microbenchmark"].headline
    if not spva["asymptotic_speedup"] > 1.0:
        errors.append("listing1 streaming SpVA not faster than the baseline")
    return errors


def statistical_frame(engine, seed: int, frame: int):
    """Frame ``frame`` of a statistical batch, computed alone by the reference loop.

    The batch engine gives frame ``i`` the generator seeded by the ``i``-th
    draw of ``default_rng(seed)``; advancing a generator past the first
    ``frame`` draws and handing it to the per-frame reference as its seed
    reproduces exactly that frame, without computing the ones before it.
    """
    rng = np.random.default_rng(seed)
    if frame:
        rng.integers(0, 2**63 - 1, size=frame, dtype=np.int64)
    return engine.run_statistical_reference(batch_size=1, seed=rng)


def compact(result) -> tuple:
    """What the checks need of an inference result: its layers' names and
    kernels, and every per-frame metric array, stacked ``(layer, metric,
    frame)``.  About 1 KB against about 16 KB for the result, so a run
    keeps one per operation until its checks instead of the result."""
    return (",".join(f"{layer.name}/{layer.kernel}" for layer in result.layers),
            np.array([[getattr(layer, metric) for metric in PER_FRAME_METRICS]
                      for layer in result.layers]))


def same(name: str, served: tuple, expected: tuple) -> List[str]:
    """Bit-for-bit equality of two compacted results (same layers, same arrays)."""
    if served[0] == expected[0] and np.array_equal(served[1], expected[1]):
        return []
    return [f"{name}: not bit-for-bit equal"]


def within_spike_tolerance(name: str, served: tuple, expected: tuple) -> List[str]:
    """A non-reference policy's compacted result against the same policy's solo call.

    The cost model is linear in each layer's input spikes plus a fixed
    part, so a layer whose spike count moved by a share ``d`` moves its
    modeled cycles by at most ``d``: the documented per-layer spike-count
    bound applies to the cycle counts the served result carries.
    """
    if served[0] != expected[0]:
        return [f"{name}: layers {served[0]}, expected {expected[0]}"]
    cycles = PER_FRAME_METRICS.index("cycles")
    errors = []
    for layer, got, want in zip(served[0].split(","), served[1][:, cycles], expected[1][:, cycles]):
        reference = float(np.sum(want))
        deviation = abs(float(np.sum(got)) - reference) / max(reference, 1.0)
        if deviation > SPIKE_COUNT_TOLERANCE:
            errors.append(f"{name} {layer}: cycles moved {deviation:.4f}")
    return errors


# --------------------------------------------------------------------------- #
# the golden forward pass: conv1 by direct convolution
# --------------------------------------------------------------------------- #
#: Currents this close to the threshold may round either way between a
#: GEMM and the direct sum below; their spikes are not compared.
THRESHOLD_MARGIN = 1e-9


def conv1_spikes_direct(layer, frame: np.ndarray):
    """The first layer's spikes and currents, by a sum over kernel offsets.

    One timestep from a zero membrane: the membrane is ``r * I`` and a
    neuron fires when it reaches the threshold.
    """
    weights = np.asarray(layer.weights, dtype=np.float64)
    kh, kw, _c_in, c_out = weights.shape
    pad, stride = layer.padding, layer.stride
    padded = np.pad(np.asarray(frame, dtype=np.float64), ((pad, pad), (pad, pad), (0, 0)))
    out_h = (padded.shape[0] - kh) // stride + 1
    out_w = (padded.shape[1] - kw) // stride + 1
    currents = np.zeros((out_h, out_w, c_out))
    for dy in range(kh):
        for dx in range(kw):
            window = padded[dy:dy + stride * out_h:stride, dx:dx + stride * out_w:stride, :]
            currents += np.tensordot(window, weights[dy, dx], axes=([2], [0]))
    membrane = layer.lif.resistance * currents
    return membrane >= layer.lif.v_threshold, membrane


def conv1_matches(network, frame: np.ndarray) -> List[str]:
    """The batched forward pass's conv1 spike map against the direct one."""
    layer = network.layers[network.weighted_layers[0]]
    activity = network.forward_batch(frame[None])
    batched = activity.for_name(layer.name)[0].output_spikes[0]
    direct, membrane = conv1_spikes_direct(layer, frame)
    decided = np.abs(membrane - layer.lif.v_threshold) > THRESHOLD_MARGIN
    flipped = int(np.count_nonzero((batched != direct) & decided))
    return [f"conv1: {flipped} spike(s) differ from the direct convolution"] if flipped else []
