"""Seeded benchmark inputs, built outside the timed region and cached.

The ingest workload reads two inputs that are expensive to make:

* a pcap of the ``examples/probe_deep_dive.py::build_specs`` traffic mix
  (TLS, HTTP/2, QUIC, FB-Zero, HTTP, DNS-named opaque and P2P flows with
  RST teardowns); packet synthesis runs at roughly a tenth of the
  probe's speed, so the capture is built in one process while the lake
  is archived in another;
* a v2 lake archived from ``small_study(seed)`` (333 days).

Both are a pure function of the seed and of the code that writes them.
The cache key is the seed plus a hash of every source file under
``src/repro``, ``examples/probe_deep_dive.py`` and this file, so any
change to the lake writer, the packet builders or the study rebuilds
them.  Only the most recent few entries are kept (a capture is ~200 MB).
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import procs

#: Flow specs in the capture, and the client population they come from.
FLOWS = 4000
SUBSCRIBERS = 200
#: Cache entries kept besides the one in use.
KEEP = 2
#: Seconds one input build may take.
BUILD_TIMEOUT_S = 600


def source_sha(root: Path) -> str:
    digest = hashlib.sha256()
    files = sorted((root / "src" / "repro").rglob("*.py"))
    files += [root / "examples" / "probe_deep_dive.py", Path(__file__).resolve()]
    for path in files:
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _specs(root: str, seed: int) -> list:
    sys.path.insert(0, str(Path(root) / "examples"))
    from probe_deep_dive import build_specs

    return build_specs(subscribers=SUBSCRIBERS, flows=FLOWS, seed=seed)


def _capture(root: str, seed: int, path: str) -> int:
    from repro.packets.pcap import write_pcap
    from repro.synthesis.packetgen import PacketSynthesizer

    return write_pcap(path, PacketSynthesizer(seed=seed).synthesize(_specs(root, seed)))


def _archive(root: str, seed: int, path: str) -> int:
    from repro.core.config import small_study
    from repro.core.persistence import PersistingStudy
    from repro.dataflow.datalake import DataLake

    lake = DataLake(Path(path), write_format="v2")
    PersistingStudy(small_study(seed), lake=lake).run()
    return len(set(lake.days("usage")) | set(lake.days("protocols"))
               | set(lake.days("hourly")))


def _build(root: Path, seed: int, entry: Path) -> tuple:
    """Build the capture and the lake side by side, each in a process
    of its own; returns (packets written, lake days)."""
    builds = []
    try:
        for kind, name in (("capture", "capture.pcap"), ("archive", "lake")):
            with open(entry / f"{kind}.log", "w") as log:
                builds.append(procs.start(
                    [sys.executable, __file__, kind, str(root), str(seed), str(entry / name)],
                    stdout=log, stderr=subprocess.STDOUT, cwd=root,
                ))
        deadline = time.monotonic() + BUILD_TIMEOUT_S
        for build in builds:
            build.wait(timeout=max(1.0, deadline - time.monotonic()))
            procs.settle(build)
    except BaseException:
        for build in builds:
            procs.stop(build)
        raise
    counts = []
    for kind, build in zip(("capture", "archive"), builds):
        log = (entry / f"{kind}.log").read_text()
        if build.returncode != 0:
            raise RuntimeError(f"input build {kind} failed:\n{log[-4000:]}")
        counts.append(json.loads(log.strip().splitlines()[-1]))
    return tuple(counts)


def ensure(root: Path, cache: Path, seed: int, sha: str) -> dict:
    """The cached inputs for ``seed``, built first if missing.

    ``src`` must already be importable here (the flow count comes from
    the specs); the build processes put it on their own path.
    """
    entry = cache / f"seed{seed}-{sha[:16]}"
    meta_path = entry / "meta.json"
    if meta_path.is_file():
        meta_path.touch()
        return json.loads(meta_path.read_text())
    if entry.exists():
        shutil.rmtree(entry)  # a build that died half way
    entry.mkdir(parents=True)
    written, lake_days = _build(root, seed, entry)
    specs = _specs(str(root), seed)
    meta = {
        "seed": seed,
        "key": entry.name,
        "pcap": str((entry / "capture.pcap").relative_to(root)),
        "lake": str((entry / "lake").relative_to(root)),
        "packets": written,
        # Each DNS-preceded spec adds its lookup as a flow of its own.
        "flows": len(specs) + sum(1 for s in specs if s.with_dns and s.domain),
        "lake_days": lake_days,
    }
    meta_path.write_text(json.dumps(meta, indent=1))
    _evict(cache, keep=entry)
    # Flush the new capture (and the evicted ones' deletion) now, so the
    # write-back does not land inside the timed operations.
    os.sync()
    return meta


def _evict(cache: Path, keep: Path) -> None:
    entries = sorted(
        (p for p in cache.iterdir() if p.is_dir() and p != keep),
        key=lambda p: (p / "meta.json").stat().st_mtime
        if (p / "meta.json").is_file() else 0.0,
    )
    for stale in entries[:-KEEP] if KEEP else entries:
        shutil.rmtree(stale)


if __name__ == "__main__":
    # python3 perfbench/inputs.py {capture,archive} ROOT SEED PATH: one
    # input build; the last line of its output is the count it made.
    kind, root_arg, seed_arg, path_arg = sys.argv[1:5]
    sys.path[:0] = [str(Path(root_arg) / "src")]
    build = {"capture": _capture, "archive": _archive}[kind]
    print(json.dumps(build(root_arg, int(seed_arg), path_arg)))
