"""The workloads: set-up, generated operations, teardown and checks.

Every input comes from the workload seed: statistical seeds, synthetic
CIFAR-10 frames and the targets of exact repeats.  The program only ever
sees the generated inputs.
"""

from __future__ import annotations

import subprocess
from types import SimpleNamespace
from typing import Dict, Iterator, List

import numpy as np

from repro import Session
from repro.core.pipeline import concat_workloads
from repro.eval.experiments import svgg11_variant_configs
from repro.net import Coordinator, spawn_worker
from repro.obs import Tracer
from repro.serve import InferenceServer
from repro.session import functional_svgg11_setup
from repro.snn.datasets import SyntheticCIFAR10
from repro.snn.numerics import REFERENCE, NumericsPolicy

import checks
from loop import Op, resolved

#: Weight seed of the golden S-VGG11 every functional workload runs.
NETWORK_SEED = 2025
FAST = NumericsPolicy("fp32", "event_sparse")
#: Capacity of the traced run's ring buffer of finished traces: larger than
#: any traced phase's request count, so no trace is dropped.
TRACE_CAPACITY = 1 << 16


class Workload:
    """Base class; subclasses fill in the workload-specific parts."""

    name = ""
    #: operations the closed loop keeps in flight
    outstanding = 1
    #: how the output explains one operation
    op_unit = ""

    def __init__(self, seed: int):
        self.seed = seed
        self.rng = np.random.default_rng([seed, sum(map(ord, self.name))])
        self._serial = 0

    def next_seed(self) -> int:
        """A seed no other input of this run uses."""
        self._serial += 1
        return self.seed * 1_000_000 + self._serial

    def setup(self, traced: bool) -> SimpleNamespace:
        return SimpleNamespace(session=None, server=None, network=None)

    def close(self, stack) -> None:
        pass

    def warmup(self, stack) -> List[Op]:
        raise NotImplementedError

    def blocks(self, stack) -> Iterator[List[Op]]:
        raise NotImplementedError

    def check(self, stack, ops: List[Op]) -> Dict[int, List[str]]:
        """Errors per operation index (operations with none are correct)."""
        raise NotImplementedError

    def check_phase(self, stack, before: dict, after: dict, ops: List[Op]) -> List[str]:
        """Run-level invariants of one timed phase (none by default)."""
        return []


# --------------------------------------------------------------------------- #
# figures
# --------------------------------------------------------------------------- #
#: The paper's evaluation, in the order the CLI's figures command names it.
FIGURE_SCENARIOS = ("memory_footprint", "utilization", "speedup", "energy",
                    "accelerator_comparison", "spva_microbenchmark")
PAPER_BATCH = 128


def regenerate(seed: int):
    """One cold regeneration of every figure in a fresh session."""
    with Session() as session:
        figures = {}
        for name in FIGURE_SCENARIOS:
            params = {"seed": seed}
            if "batch_size" in session.describe(name)["params"]:
                params["batch_size"] = PAPER_BATCH
            figures[name] = session.run(name, **params)
        variants = session.run_variants(batch_size=PAPER_BATCH, seed=seed)
    return figures, variants


class Figures(Workload):
    name = "figures"
    op_unit = "one cold regeneration of Fig. 3a-5 and Listing 1"

    def _op(self) -> Op:
        seed = self.next_seed()
        # one seeded frame of each hardware variant is re-derived alone
        samples = [int(f) for f in self.rng.integers(0, PAPER_BATCH, size=3)]

        def keep(outcome):
            """Each figure's headline and rows, and the sampled frames."""
            figures, variants = outcome
            return ({name: SimpleNamespace(headline=figure.headline, rows=figure.rows)
                     for name, figure in figures.items()},
                    {key: checks.compact(result.frame_slice(frame, frame + 1))
                     for (key, result), frame in zip(variants.items(), samples)})

        return Op("regenerate", PAPER_BATCH, lambda: resolved(lambda: regenerate(seed)),
                  inputs={"seed": seed, "samples": samples}, keep=keep)

    def warmup(self, stack):
        return [self._op()]

    def blocks(self, stack):
        while True:
            yield [self._op()]

    def check(self, stack, ops):
        errors = {}
        session = Session()
        for index, op in enumerate(ops):
            figures, sampled = op.output
            found = checks.paper_shapes(figures)
            configs = svgg11_variant_configs(batch_size=PAPER_BATCH, seed=op.inputs["seed"])
            for (key, served), frame in zip(sampled.items(), op.inputs["samples"]):
                alone = checks.statistical_frame(
                    session.engine(configs[key]), op.inputs["seed"], frame)
                found += checks.same(f"{key} frame {frame}", served, checks.compact(alone))
            errors[index] = found
        return errors


# --------------------------------------------------------------------------- #
# serve-mixed and cluster-statistical: closed loops over a server
# --------------------------------------------------------------------------- #
def golden_network():
    """The golden S-VGG11, with its weight hash computed (as a server needs it)."""
    network, _ = functional_svgg11_setup(batch_size=1, seed=NETWORK_SEED)
    network.fingerprint()
    return network


def frames(seed: int, count: int) -> np.ndarray:
    return SyntheticCIFAR10(seed=seed).sample(count)[0]


class Served(Workload):
    """An interleaved mix of requests with exact repeats, and its checks."""

    outstanding = 32
    op_unit = "one single-frame request, from issue to result"
    #: kind -> count in every block of 20; one in five is an exact repeat
    mix: Dict[str, int] = {}
    #: requests recomputed per engine pass when checking the responses
    check_batch = 16
    warmup_kinds: List[str] = []

    def __init__(self, seed):
        super().__init__(seed)
        self._warm: List[Op] = []
        self._originals: List[Op] = []

    def _request(self, stack, kind: str) -> Op:
        """A new request of ``kind`` with inputs drawn from the seed."""
        return self._issue(stack, kind, {"kind": kind, "seed": self.next_seed()})

    def _issue(self, stack, kind: str, inputs: dict) -> Op:
        """The request ``inputs`` describe, as an operation of ``kind``."""
        raise NotImplementedError

    def _repeat(self, stack) -> Op:
        # Only originals issued at least two windows earlier qualify: by the
        # time the loop reaches this request its target has almost surely
        # completed, and the loop waits for it if not -- so every repeat is
        # answered from the store.  The request is rebuilt from the
        # original's seed: a run keeps no input frames.
        eligible = len(self._originals) - 2 * self.outstanding
        pool = self._originals[:max(eligible, len(self._warm))]
        target = pool[int(self.rng.integers(0, len(pool)))]
        op = self._issue(stack, "repeat", target.inputs)
        op.after = target
        return op

    def warmup(self, stack):
        self._warm = [self._request(stack, kind) for kind in self.warmup_kinds]
        self._originals = list(self._warm)
        return self._warm

    def blocks(self, stack):
        """Blocks of the mix, each in its own order drawn from the seed."""
        kinds = [kind for kind, count in self.mix.items() for _ in range(count)]
        while True:
            block = []
            for index in self.rng.permutation(len(kinds)):
                kind = kinds[index]
                if kind == "repeat":
                    block.append(self._repeat(stack))
                else:
                    op = self._request(stack, kind)
                    self._originals.append(op)
                    block.append(op)
            yield block

    def expected(self, stack, originals: List[dict]) -> Dict[int, object]:
        """The expected result of each distinct request, keyed by ``id(inputs)``."""
        raise NotImplementedError

    def compare(self, op, served, expected) -> List[str]:
        return checks.same(op.kind, served, expected)

    def extra_checks(self, stack, originals: List[dict]) -> Dict[int, List[str]]:
        """Errors of checks on a request's inputs beside its response."""
        return {}

    def check(self, stack, ops):
        originals = list({id(op.inputs): op.inputs for op in ops}.values())
        expected = self.expected(stack, originals)
        extra = self.extra_checks(stack, originals)
        return {index: self.compare(op, op.output, expected[id(op.inputs)])
                + extra.get(id(op.inputs), [])
                for index, op in enumerate(ops)}

    def _server_kwargs(self, traced: bool) -> dict:
        tracer = Tracer(enabled=False, sample=1.0, capacity=TRACE_CAPACITY,
                        profile_layers=True) if traced else None
        return dict(max_batch=16, max_wait_ms=5.0, max_queue=256, tracer=tracer)


class ServeMixed(Served):
    name = "serve-mixed"
    mix = {"statistical": 8, "fp64": 4, "fp32": 4, "repeat": 4}
    warmup_kinds = ["fp64", "fp32", "statistical"] * 2

    def setup(self, traced):
        network = golden_network()
        session = Session()
        server = InferenceServer(session=session, workers=2, **self._server_kwargs(traced))
        return SimpleNamespace(session=session, server=server, network=network)

    def close(self, stack):
        stack.server.close()
        stack.session.close()

    def _issue(self, stack, kind, inputs):
        server, seed = stack.server, inputs["seed"]
        if inputs["kind"] == "statistical":
            return Op(kind, 1, lambda: server.submit_statistical(batch_size=1, seed=seed),
                      inputs=inputs, keep=checks.compact)
        frame = frames(seed, 1)
        policy = REFERENCE if inputs["kind"] == "fp64" else FAST
        return Op(kind, 1,
                  lambda: server.submit_functional(stack.network, frame, numerics=policy),
                  inputs=inputs, keep=checks.compact)

    def _sampled(self, originals):
        """One fp64 request per block's worth, checked against the references."""
        return [inputs for inputs in originals if inputs["kind"] == "fp64"][::self.mix["fp64"]]

    def expected(self, stack, originals):
        """Direct ``Session`` calls per policy, 16 frames a call; statistical
        requests and the sampled fp64 requests through the per-frame
        reference loops."""
        session = Session()
        out = {}
        for kind, policy in (("fp64", REFERENCE), ("fp32", FAST)):
            group = [inputs for inputs in originals if inputs["kind"] == kind]
            for start in range(0, len(group), self.check_batch):
                chunk = group[start:start + self.check_batch]
                result = session.run_functional(
                    stack.network, np.concatenate([frames(inputs["seed"], 1) for inputs in chunk]),
                    numerics=policy)
                for row, inputs in enumerate(chunk):
                    out[id(inputs)] = checks.compact(result.frame_slice(row, row + 1))
        engine = session.engine()
        for inputs in originals:
            if inputs["kind"] == "statistical":
                out[id(inputs)] = checks.compact(engine.run_statistical_reference(
                    batch_size=1, seed=inputs["seed"]))
        for inputs in self._sampled(originals):
            out[id(inputs)] = checks.compact(engine.run_functional_reference(
                stack.network, frames(inputs["seed"], 1)))
        return out

    def extra_checks(self, stack, originals):
        """conv1's spike map of each sampled frame, by direct convolution."""
        return {id(inputs): checks.conv1_matches(stack.network, frames(inputs["seed"], 1)[0])
                for inputs in self._sampled(originals)}

    def compare(self, op, served, expected):
        if op.inputs["kind"] == "fp32":
            return checks.within_spike_tolerance(op.kind, served, expected)
        return checks.same(op.kind, served, expected)

    def check_phase(self, stack, before, after, ops):
        repeats = sum(op.kind == "repeat" for op in ops)
        hits = after["hits"] - before["hits"]
        misses = after["misses"] - before["misses"]
        if (hits, misses) != (repeats, len(ops) - repeats):
            return [f"store counted {hits} hits / {misses} misses for "
                    f"{repeats} repeats of {len(ops)} requests"]
        return []


class ClusterStatistical(Served):
    name = "cluster-statistical"
    mix = {"statistical": 16, "repeat": 4}
    warmup_kinds = ["statistical"] * 4
    check_batch = 128
    #: Four times ``max_batch``: each worker's credit window (2 batches)
    #: always finds a full batch queued, so batches stay full instead of
    #: following the phase of completions (32 outstanding formed 8 to 13
    #: frames per pass and moved throughput by 20% between runs).
    outstanding = 64
    workers = 2

    def setup(self, traced):
        session = Session()
        coordinator = Coordinator(session=session, **self._server_kwargs(traced))
        processes = [
            spawn_worker(coordinator.address, worker_id=f"bench-{index}", quiet=True)
            for index in range(self.workers)
        ]
        stack = SimpleNamespace(session=session, server=coordinator, network=None,
                                processes=processes)
        if not coordinator.wait_for_workers(self.workers, timeout=120):
            self.close(stack)
            raise RuntimeError("worker processes never registered")
        return stack

    def close(self, stack):
        stack.server.close()
        for process in stack.processes:
            try:
                process.wait(timeout=60)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
        stack.session.close()

    def _issue(self, stack, kind, inputs):
        server, seed = stack.server, inputs["seed"]
        return Op(kind, 1, lambda: server.submit_statistical(batch_size=1, seed=seed),
                  inputs=inputs, keep=checks.compact)

    def expected(self, stack, originals):
        """In-process recomputation, 128 requests an engine pass; one request
        in every block's worth through the per-frame reference loop."""
        engine = Session().engine()
        plans = engine.optimizer.plan_svgg11()
        out = {}
        for start in range(0, len(originals), self.check_batch):
            chunk = originals[start:start + self.check_batch]
            result = engine.run_workloads(concat_workloads(
                [engine.statistical_workloads(plans, 1, inputs["seed"]) for inputs in chunk]))
            for row, inputs in enumerate(chunk):
                out[id(inputs)] = checks.compact(result.frame_slice(row, row + 1))
        for inputs in originals[::sum(self.mix.values())]:
            out[id(inputs)] = checks.compact(
                engine.run_statistical_reference(batch_size=1, seed=inputs["seed"]))
        return out


WORKLOADS = {cls.name: cls for cls in (Figures, ServeMixed, ClusterStatistical)}
