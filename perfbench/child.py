"""Benchmark subprocesses: ``setup`` timing and the ``measure`` run.

``python3 perfbench/child.py setup <workload> <seed> <root> <inputs.json>``
times one program set-up from a fresh interpreter — imports plus what
the workload needs before its first operation — and prints it as JSON.

``python3 perfbench/child.py measure <args.json>`` runs the workload's
operations and writes the outcome to the JSON file named in the
arguments.  The first operation is a warm-up: it is not timed, and the
memory high-water marks are read right after it, before the benchmark
keeps any result.  Untraced runs then time operations for the requested
seconds, each between two timings of :func:`reference_kernel`, and
spread the set-up repetitions between them, each also between two
kernel timings; traced runs time an untraced, a traced and an untraced
operation after the warm-up.  The output checks run last.  It is a
process of its own so that the memory peak is the program's, not the
benchmark's input builders'.
"""

import time

SETUP_STARTED = time.perf_counter()

import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

#: Set-up repetitions of an untraced run, each in a fresh interpreter.
SETUP_REPEATS = 5


def _setup(workload: str, seed: int, root: Path, inputs: dict) -> float:
    import workloads

    if workload in ("study", "shard-resume"):
        from repro.core.parallel import execute_study  # noqa: F401
        from repro.core.shards import plan_shards
        from repro.core.study import LongitudinalStudy
        from repro.service.results import render_figures  # noqa: F401

        config = (workloads.study_config if workload == "study"
                  else workloads.shard_config)(seed)
        study = LongitudinalStudy(config)
        study.planned_days()
        if workload == "shard-resume":
            plan_shards(len(study.world.population), workloads.SHARDS)
        return time.perf_counter() - SETUP_STARTED
    if workload == "ingest":
        from repro.core.persistence import run_replay  # noqa: F401
        from repro.dataflow.datalake import DataLake
        from repro.packets.pcap import read_pcap  # noqa: F401
        from repro.tstat.probe import Probe, ProbeConfig

        Probe(ProbeConfig.for_pop("pop1", ["10.1.0.0/16"]))
        DataLake(root / inputs["lake"]).tables()
        return time.perf_counter() - SETUP_STARTED
    import tempfile

    from repro.service import ServerThread, ServiceClient

    with tempfile.TemporaryDirectory(dir=root / ".perfbench") as state:
        thread = ServerThread(Path(state), max_active=1, run_workers=1)
        server = thread.__enter__()
        try:
            ServiceClient("127.0.0.1", server.port).healthz()
            elapsed = time.perf_counter() - SETUP_STARTED
        finally:
            thread.__exit__(None, None, None)
    return elapsed


#: The reference kernel's time on the reference host (a 2-CPU VM), in
#: seconds: ``setup_s`` is each set-up's time over the kernel's time next
#: to it, in these seconds.
REFERENCE_KERNEL_S = 0.175


def reference_kernel() -> float:
    """Seconds a fixed CPU kernel takes now.

    The kernel mixes what the pipeline does — NumPy draws, sorts and
    reductions, dict updates and string handling in Python loops — and
    calls nothing in ``repro``, so a change to the program leaves it
    alone while the host's current speed moves it like an operation.
    """
    import numpy as np

    started = time.perf_counter()
    rng = np.random.default_rng(12345)
    for _ in range(20):
        values = rng.random(100_000)
        np.cumsum(np.sort(values))
        np.bincount((values * 100).astype(np.int64))
    counts: dict = {}
    for i in range(300_000):
        key = (i * 7919) % 1009
        counts[key] = counts.get(key, 0) + i
    words = sorted(str(i * 31) for i in range(160_000))
    [(word, len(word)) for word in words]
    return time.perf_counter() - started


def _peaks_mb() -> tuple:
    """Exact high-water resident sets, in MB: this process's, and that of
    the largest child it has waited for (a pool worker's includes the
    pages it shares with this process)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return own / 1024.0, children / 1024.0


def _run_setup(args: dict) -> float:
    import procs

    proc = procs.run(
        [sys.executable, __file__, "setup", args["workload"], str(args["seed"]),
         args["root"], args["inputs_path"]],
        timeout=120, cwd=args["root"],
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up failed:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def _measure(args: dict) -> dict:
    import tracing
    import workloads

    root = Path(args["root"])
    work = Path(args["work"])
    digests = workloads.Digests(root / ".perfbench" / "digests.json", args["source_sha"])
    inputs = {k: (str(root / v) if k in ("pcap", "lake") else v)
              for k, v in args["inputs"].items()}
    workload = workloads.WORKLOADS[args["workload"]](
        args["seed"], work, inputs, digests, args["trace"])
    workload.start()
    ops: list = []
    setups: list = []

    def run_op(tracer=None, timed=True) -> dict:
        # Each operation starts from a collected heap, so garbage left by
        # the previous one does not land in its timing.
        gc.collect()
        op = workload.op(len(ops), tracer)
        data = op.pop("data", None)
        if data is not None:
            workload.note_result(data)
        op.update(traced=tracer is not None, timed=timed)
        ops.append(op)
        return op

    tracer = None
    try:
        run_op(timed=False)
        peaks = _peaks_mb()
        if args["trace"]:
            # Untraced operations on both sides of the traced one, so the
            # overhead's base does not depend on which operation ran first.
            run_op()
            tracer = tracing.Tracer()
            with tracing.patched(*workload.instrument(tracer)):
                run_op(tracer)
            run_op()
        else:
            deadline = time.perf_counter() + args["seconds"]
            before = None

            def timed_setup(before):
                # Like an operation, each set-up sits between two kernel runs.
                if before is None:
                    before = reference_kernel()
                setup_s = _run_setup(args)
                after = reference_kernel()
                setups.append({"setup_s": setup_s, "ref_s": (before + after) / 2})
                return after

            # The warm-up plus at least two timed operations.
            while len(ops) < 3 or time.perf_counter() < deadline:
                if len(setups) < SETUP_REPEATS:
                    # Set-ups do not eat into the measured seconds.
                    paused = time.perf_counter()
                    before = timed_setup(before)
                    deadline += time.perf_counter() - paused
                if before is None:
                    before = reference_kernel()
                op = run_op()
                after = reference_kernel()
                op["ref_s"] = (before + after) / 2
                before = after
            while len(setups) < SETUP_REPEATS:
                before = timed_setup(before)
        workload.check()
    finally:
        workload.stop()
    out = {
        "ops": [{k: v for k, v in op.items() if k not in ("window", "polls_ms")}
                for op in ops],
        "peak_rss_mb": peaks[0],
        "worker_peak_rss_mb": peaks[1],
        "setups": setups,
        "attempted": workload.attempted,
        "failed": workload.failed,
        "checks": workload.checks,
        "digest": workload.digest,
        "config_hashes": workload.config_hashes(),
    }
    polls = [p for op in ops for p in op.get("polls_ms", [])]
    if polls:
        out["polls_ms"] = polls
    if tracer is not None:
        out["trace"] = _layers(tracer, ops)
    return out


def _layers(tracer, ops) -> dict:
    """Per-layer self times of the traced op and the sum check."""
    import tracing

    traced = next(op for op in ops if op["traced"])
    untraced = [op for op in ops if op["timed"] and not op["traced"]]
    windows = traced["window"]
    windows = windows if isinstance(windows, list) else [windows]
    parts = tracing.attribute(tracer.intervals, windows)
    whole = sum(end - start for start, end in windows)
    total = sum(parts.values())
    layers = {f"{name}_s": value for name, value in parts.items()}
    for name, value in tracer.worker_layers.items():
        layers[f"{name}_s"] = layers.get(f"{name}_s", 0.0) + value
    counts = dict(tracer.counts)
    capacity = counts.pop("core.pool.capacity_s", 0.0)
    if capacity:
        counts["core.pool.busy_share"] = counts["core.pool.worker_busy_s"] / capacity
    return {
        "whole_s": whole,
        "parts_s": total,
        "timeline": {f"{name}_s": value for name, value in sorted(parts.items())},
        "worker_busy": {f"{k}_s": v for k, v in sorted(tracer.worker_layers.items())},
        "layers": layers,
        "counts": counts,
        "adds_up": abs(total - whole) <= 1e-6 * max(1.0, whole)
        and min(parts.values()) >= 0.0,
        "untraced_s": statistics.median(op["result_s"] for op in untraced),
        "untraced_ops": len(untraced),
        "traced_s": traced["result_s"],
    }


def main(argv) -> int:
    mode = argv[1]
    if mode == "setup":
        workload, seed, root, inputs_path = argv[2], int(argv[3]), Path(argv[4]), argv[5]
        sys.path[:0] = [str(root / "src")]
        inputs = json.loads(Path(inputs_path).read_text())
        print(json.dumps({"setup_s": _setup(workload, seed, root, inputs)}))
        return 0
    args = json.loads(Path(argv[2]).read_text())
    sys.path[:0] = [str(Path(args["root"]) / "src")]
    result = _measure(args)
    Path(args["out"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
