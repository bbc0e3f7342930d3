"""Compare a parent and a change with paired, alternating benchmark runs.

Usage (each checkout is a full source tree with this ``perfbench/``)::

    python3 perfbench/compare.py run PARENT CHANGE --workload study \\
        --seeds 1-10 --seconds 15 --out pairs.jsonl
    python3 perfbench/compare.py report pairs.jsonl

``run`` runs the benchmark in the two checkouts one seed at a time, the
parent first on odd pairs and the change first on even ones, so a slow
phase of the host lands on both sides alike.  Each run's summary line and
the host block of its record are appended to the output file.

``report`` pairs the runs by workload and seed and prints, for every
end-to-end metric of ``BENCHMARK.json``, each side's median, quartiles
and run count, the pairs the change wins and a verdict:

* ``unresolved`` — either side's first-to-third quartile distance, over
  its median, is wider than the metric's bound, and the two sides
  overlap (not every run of one side beats every run of the other);
* ``WORSE`` — the change's median is worse than the parent's by more
  than the bound;
* ``better`` — the change wins at least nine tenths of the pairs and the
  medians differ by more than the parent's quartile distance;
* ``within bound`` — anything else.

Runs from different hosts (CPU count, CPU model, Python, NumPy or
platform differ) are refused: their numbers do not compare.  Exits 1
when a metric is ``WORSE``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HOST_KEYS = ("nproc", "cpu_model", "python", "numpy", "platform")
SIDES = ("parent", "change")


def seed_list(text: str) -> list:
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def run_once(checkout: Path, workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{checkout}: {workload} seed {seed} exited "
                           f"{proc.returncode}:\n{proc.stderr[-4000:]}")
    records = (checkout / ".perfbench" / "results").glob(f"{workload}-seed{seed}-trace0-*.json")
    newest = max(records, key=lambda p: p.stat().st_mtime)
    return {"summary": json.loads(lines[-1]),
            "host": json.loads(newest.read_text())["host"]}


def run(args) -> int:
    checkouts = {"parent": Path(args.parent).resolve(), "change": Path(args.change).resolve()}
    with open(args.out, "a", encoding="utf-8") as out:
        for pair, seed in enumerate(seed_list(args.seeds)):
            order = SIDES if pair % 2 == 0 else SIDES[::-1]
            for position, side in enumerate(order):
                result = run_once(checkouts[side], args.workload, seed, args.seconds)
                out.write(json.dumps(dict(result, side=side, workload=args.workload,
                                          seed=seed, pair=pair, position=position)) + "\n")
                out.flush()
                print(f"pair {pair} seed {seed} {side}: "
                      + " ".join(f"{k}={v['value']:.4g}"
                                 for k, v in result["summary"]["metrics"].items()))
    return 0


def spread(values: list) -> tuple:
    """(median, q1, q3, (q3 - q1) / median)."""
    median = statistics.median(values)
    if len(values) < 2:
        return median, median, median, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median


def verdict(metric: dict, parent: list, change: list, pairs: list) -> tuple:
    # Scaled by ``sign``, a smaller value is always the better one.
    sign = 1.0 if metric["better"] == "lower" else -1.0
    p_med, p_q1, p_q3, p_spread = spread(parent)
    c_med, _, _, c_spread = spread(change)
    worse_by = sign * (c_med - p_med) / p_med
    wins = sum(1 for p, c in pairs if sign * c < sign * p)
    scaled_p = [sign * v for v in parent]
    scaled_c = [sign * v for v in change]
    separated = max(scaled_c) < min(scaled_p) or min(scaled_c) > max(scaled_p)
    bound = metric["bound"]
    if max(p_spread, c_spread) > bound and not separated:
        label = "unresolved"
    elif worse_by > bound:
        label = "WORSE"
    elif worse_by < 0 and wins >= 0.9 * len(pairs) and abs(c_med - p_med) > p_q3 - p_q1:
        label = "better"
    else:
        label = "within bound"
    return label, worse_by, wins


def report(args) -> int:
    rows = [json.loads(line) for line in Path(args.pairs).read_text().splitlines() if line]
    if not rows:
        print(f"no runs in {args.pairs}", file=sys.stderr)
        return 2
    hosts = {tuple(row["host"][k] for k in HOST_KEYS) for row in rows}
    if len(hosts) != 1:
        print("refusing to compare runs from different hosts:", file=sys.stderr)
        for host in sorted(hosts):
            print("  " + ", ".join(f"{k}={v}" for k, v in zip(HOST_KEYS, host)),
                  file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    runs = defaultdict(dict)
    for row in rows:
        runs[(row["workload"], row["seed"])][row["side"]] = row["summary"]
    worse = 0
    for workload in sorted({w for w, _ in runs}):
        complete = [sides for (w, _), sides in sorted(runs.items())
                    if w == workload and len(sides) == 2]
        for metric in spec["end_to_end"]:
            name = metric["name"]
            pairs = [(s["parent"]["metrics"][name]["value"],
                      s["change"]["metrics"][name]["value"]) for s in complete]
            if not pairs:
                continue
            parent, change = [p for p, _ in pairs], [c for _, c in pairs]
            label, worse_by, wins = verdict(metric, parent, change, pairs)
            worse += label == "WORSE"
            p_med, p_q1, p_q3, p_spread = spread(parent)
            c_med, c_q1, c_q3, c_spread = spread(change)
            print(f"{workload:<13} {name:<12} parent {p_med:.4g} [{p_q1:.4g}, {p_q3:.4g}] "
                  f"change {c_med:.4g} [{c_q1:.4g}, {c_q3:.4g}] n={len(pairs)} "
                  f"spreads {p_spread:.1%}/{c_spread:.1%} worse by {worse_by:+.1%} "
                  f"(bound {metric['bound']:.0%}) wins {wins}/{len(pairs)}  {label}")
    return 1 if worse else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)
    runner = commands.add_parser("run", help="alternate runs in two checkouts")
    runner.add_argument("parent")
    runner.add_argument("change")
    runner.add_argument("--workload", required=True)
    runner.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 1,3,9001")
    runner.add_argument("--seconds", type=int, default=15)
    runner.add_argument("--out", required=True)
    reporter = commands.add_parser("report", help="verdicts from a pairs file")
    reporter.add_argument("pairs")
    args = parser.parse_args(argv)
    return run(args) if args.command == "run" else report(args)


if __name__ == "__main__":
    sys.exit(main())
