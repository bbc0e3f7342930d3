"""Run one benchmark workload and print its metrics.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload study --seed 1 --seconds 15 --trace 0

Workloads: ``study``, ``shard-resume``, ``ingest`` and ``served`` (see
``perfbench/README.md``); ``--workload all`` runs each in turn.
After an untimed warm-up operation, ``--trace 0`` times operations for
``--seconds`` and prints the end-to-end metrics; ``--trace 1`` runs an
untraced, a traced and an untraced operation and prints the per-layer
metrics.
Either way the outputs are checked, a table goes to standard output,
the full record (host block, seed, config hashes, input cache key,
samples, checks) is written under ``.perfbench/results/``, and the last
line of standard output is the JSON summary.  A failed check prints
``"correct": false`` and exits 1; a run that cannot run at all exits 2
without a summary.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import procs
from child import REFERENCE_KERNEL_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE = ROOT / ".perfbench"
#: Time the measuring process may take beyond ``--seconds``: warm-up,
#: set-ups, the operation running at the deadline, checks and reference runs.
MARGIN_S = 140.0
WORKLOADS = ("study", "shard-resume", "ingest", "served")


def host_block() -> dict:
    cpu = platform.processor() or ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    import numpy

    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "git_commit": commit,
    }


def quartiles(values) -> dict:
    values = sorted(values)
    if len(values) < 2:
        return {"value": values[0], "q1": values[0], "q3": values[0], "n": len(values)}
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"value": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def child(args, timeout: float) -> str:
    proc = procs.run([sys.executable, str(HERE / "child.py"), *args],
                     timeout=timeout, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"child {args[0]} failed:\n{proc.stderr[-4000:]}")
    return proc.stdout


def ratio(ops, key: str) -> dict:
    """Total ``key`` seconds of the timed operations over their total
    reference-kernel seconds, with the per-operation ratios' quartiles."""
    stats = quartiles([op[key] / op["ref_s"] for op in ops])
    stats["value"] = sum(op[key] for op in ops) / sum(op["ref_s"] for op in ops)
    return stats


def per_layer_metrics(measured: dict, names) -> dict:
    trace = measured["trace"]
    ops = measured["ops"]
    untraced = [op for op in ops if op["timed"] and not op["traced"]]
    values = {name: 0.0 for name in names}
    values.update({k: v for k, v in trace["layers"].items() if k in values})
    values.update({k: v for k, v in trace["counts"].items() if k in values})
    values["figures.total_s"] = sum(
        v for k, v in trace["layers"].items() if k.startswith("figures."))
    values["trace_overhead_s"] = trace["traced_s"] - trace["untraced_s"]
    values["failed_share"] = measured["failed"] / measured["attempted"]
    values["core.pool.worker_peak_rss_mb"] = measured["worker_peak_rss_mb"]
    for key in ("result_s", "run_s", "resume_s", "probe_pkts_per_s", "replay_s",
                "poll_p50_ms"):
        samples = [op[key] for op in untraced if key in op]
        if samples:
            values[key] = statistics.median(samples)
    traced = next(op for op in ops if op["traced"])
    if "submit_ms" in traced:
        values["done_s"] = statistics.median(op["result_s"] for op in untraced)
        values["service.submit_ms"] = traced["submit_ms"]
        values["service.queue_wait_s"] = traced["queue_wait_s"]
        values["service.failed_runs"] = measured["failed"]
        polls = sorted(measured.get("polls_ms", [0.0]))
        values["service.poll_tail_ms"] = polls[int(0.9 * (len(polls) - 1))]
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated run unwinds, so that it stops its subprocesses on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.workload == "all":
        failed = 0
        for workload in WORKLOADS:
            flags = ["--workload", workload, "--seed", str(args.seed),
                     "--seconds", str(args.seconds), "--trace", str(args.trace)]
            failed |= procs.run([sys.executable, __file__, *flags],
                                capture=False).returncode
        return failed
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path[:0] = [str(ROOT / "src")]
    import inputs

    STATE.mkdir(exist_ok=True)
    sha = inputs.source_sha(ROOT)
    meta = (inputs.ensure(ROOT, STATE / "cache", args.seed, sha)
            if args.workload == "ingest" else {})
    work = STATE / "work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        inputs_path = work / "inputs.json"
        inputs_path.write_text(json.dumps(meta))
        request = {
            "root": str(ROOT), "work": str(work / "run"), "workload": args.workload,
            "seed": args.seed, "seconds": args.seconds, "trace": bool(args.trace),
            "source_sha": sha, "inputs": meta, "inputs_path": str(inputs_path),
            "out": str(work / "measured.json"),
        }
        (work / "run").mkdir()
        (work / "request.json").write_text(json.dumps(request))
        child(["measure", str(work / "request.json")], args.seconds + MARGIN_S)
        measured = json.loads((work / "measured.json").read_text())
    finally:
        shutil.rmtree(work, ignore_errors=True)

    ops = measured["ops"]
    e2e = {}
    if not args.trace:
        timed = [op for op in ops if op["timed"]]
        e2e = {
            "setup_s": quartiles([
                setup["setup_s"] / setup["ref_s"] * REFERENCE_KERNEL_S
                for setup in measured["setups"]]),
            "result_ref": ratio(timed, "result_s"),
            "run_ref": ratio(timed, "run_s"),
            "peak_rss_mb": quartiles([measured["peak_rss_mb"]]),
        }
        raw = {key: quartiles([op[key] for op in timed])
               for key in ("result_s", "run_s", "ref_s")}
        raw["setup_wall_s"] = quartiles([setup["setup_s"] for setup in measured["setups"]])
    checks = measured["checks"]
    if args.trace:
        checks.append(("traced parts add up to the traced whole",
                       measured["trace"]["adds_up"],
                       f"{measured['trace']['parts_s']:.6f} vs "
                       f"{measured['trace']['whole_s']:.6f} s"))
    correct = all(ok for _, ok, _ in checks)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    if args.trace:
        values = per_layer_metrics(measured, [m["name"] for m in wanted])
    else:
        values = {name: stats["value"] for name, stats in e2e.items()}
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "host": host_block(), "source_sha": sha,
        "config_hashes": measured["config_hashes"], "input_cache_key": meta.get("key"),
        "digest": measured["digest"], "e2e": e2e, "setup_samples": measured["setups"],
        "ops": ops, "checks": checks, "attempted": measured["attempted"],
        "failed": measured["failed"], "metrics": metrics,
        "wall_clock": raw if e2e else None, "worker_peak_rss_mb": measured["worker_peak_rss_mb"],
        "trace_detail": measured.get("trace"),
    }
    results = STATE / "results"
    results.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{int(time.time())}.json"
    (results / name).write_text(json.dumps(record, indent=1))

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"ops={len(ops)} host={record['host']['nproc']}cpu "
          f"{record['host']['cpu_model']}")
    for key, stats in e2e.items():
        unit = next(m["unit"] for m in spec["end_to_end"] if m["name"] == key)
        kind = "total ratio" if key.endswith("_ref") else "median"
        print(f"  {key:<14} {stats['value']:>12.4f} {unit:<6} "
              f"({kind} of {stats['n']}, q1 {stats['q1']:.4f}, q3 {stats['q3']:.4f})")
    if e2e:
        for key, stats in raw.items():
            print(f"  {key:<14} {stats['value']:>12.4f} {'s':<6} "
                  f"(median of {stats['n']}, q1 {stats['q1']:.4f}, q3 {stats['q3']:.4f}; "
                  f"wall clock, not host-steady)")
    if args.trace:
        trace = measured["trace"]
        print(f"  traced {trace['traced_s']:.4f} s vs untraced {trace['untraced_s']:.4f} s "
              f"(median of {trace['untraced_ops']}); parts {trace['parts_s']:.6f} s")
        for key, value in sorted(values.items()):
            if value:
                print(f"    {key:<32} {value:.6g}")
    for check_name, ok, detail in checks:
        print(f"  [{'ok' if ok else 'FAIL'}] {check_name}" + (f" ({detail})" if detail else ""))
    print(f"  attempted {measured['attempted']}, failed {measured['failed']}; "
          f"record {results.name}/{name}")
    print(json.dumps({
        "correct": correct,
        "attempted": measured["attempted"],
        "failed": measured["failed"],
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
