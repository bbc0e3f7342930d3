"""The four benchmark workloads over the paper's pipeline.

Each workload drives public entry points of ``repro`` and exposes:

* ``start()`` / ``stop()`` — untimed preparation and teardown;
* ``op(index, tracer)`` — one timed operation, returning its timings
  (``result_s``: input to checked output; ``run_s``: the study or probe
  stage inside it) plus workload-specific numbers;
* ``instrument(tracer)`` — the patches that wrap untraced public calls
  in benchmark spans for a traced operation;
* ``check()`` — output checks, run after timing (reference runs are
  cached per seed and source version, see :class:`Digests`).

Outputs are checked by field equality and ``study_digest`` identity,
never against pinned draw values, so a change that alters the draws on
purpose still passes as long as every execution mode agrees.
"""

from __future__ import annotations

import datetime
import json
import pickle
from contextlib import nullcontext
import shutil
import statistics
import time
from pathlib import Path
from typing import Dict, List, Optional

from tracing import Tracer

FIGURE_KEYS = (
    "table1", "fig02", "fig03", "fig04", "fig05", "fig06",
    "fig07", "fig08", "fig09", "fig10", "fig11",
)

#: Day the ingest workload files its probe export under in the lake.
INGEST_DAY = datetime.date(2017, 6, 14)


def study_config(seed: int):
    """Single-threaded study: the benchmark-scale shape (every figure
    renders, 60 flow days) at a population and stride that fit the run
    budget."""
    from repro.core.config import StudyConfig
    from repro.synthesis.world import WorldConfig

    return StudyConfig(
        world=WorldConfig(seed=seed, adsl_count=60, ftth_count=30),
        day_stride=12,
        flow_days_per_month=1,
        rtt_days_per_comparison_month=3,
        max_flows_per_usage=8,
    )


def shard_config(seed: int):
    """Two dense weeks of April 2017, a comparison month: every day is
    hourly, and every day from the 8th on also carries flows and RTT."""
    from repro.core.config import StudyConfig
    from repro.synthesis.world import WorldConfig

    world = WorldConfig(
        seed=seed,
        adsl_count=1200,
        ftth_count=600,
        start=datetime.date(2017, 4, 1),
        end=datetime.date(2017, 4, 14),
    )
    return StudyConfig(
        world=world,
        day_stride=1,
        flow_days_per_month=31,
        rtt_days_per_comparison_month=31,
        max_flows_per_usage=4,
    )


SHARD_WORKERS = 2
SHARDS = 4
#: Low enough that most shard partials spill before fan-in.
SPILL_WATERMARK_BYTES = 1 << 20
#: Poll period of the served workload's closed-loop client.
POLL_S = 0.05
#: Span of each served study: two months, one of them a comparison month.
SERVED_SPAN = {"start": "2017-03-01", "end": "2017-04-30"}


def counter_total(metrics, name: str) -> float:
    return sum(v for (key, _), v in metrics.counters.items() if key == name)


class Digests:
    """Reference digests verified once per (workload, seed, config,
    source) and reused by later runs, which then only have to match."""

    def __init__(self, path: Path, source_sha: str) -> None:
        self.path = path
        self.source_sha = source_sha
        try:
            self.table = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            self.table = {}

    def key(self, kind: str, seed: int, config_hash: str) -> str:
        return f"{kind}|{seed}|{config_hash}|{self.source_sha}"

    def get(self, key: str) -> Optional[str]:
        return self.table.get(key)

    def put(self, key: str, digest: str) -> None:
        self.table[key] = digest
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.table, indent=1, sort_keys=True))
        tmp.replace(self.path)


class Workload:
    name = ""

    def __init__(
        self, seed: int, work: Path, inputs: dict, digests: Digests, traced: bool
    ) -> None:
        self.seed = seed
        self.traced = traced
        self.work = work
        self.inputs = inputs
        self.digests = digests
        self.attempted = 0
        self.failed = 0
        self.checks: List[tuple] = []
        self.first_blob: Optional[bytes] = None
        self.repeats = True

    def expect(self, name: str, ok: bool, detail: object = "") -> None:
        self.checks.append((name, bool(ok), str(detail)))

    def note_result(self, data) -> None:
        """Keep the first operation's study data; later ones must equal it.

        It is kept pickled: a live object graph of that size would make
        every later full garbage collection, and so every later
        operation, slower than the first.
        """
        if self.first_blob is None:
            self.first_blob = pickle.dumps(data, protocol=pickle.HIGHEST_PROTOCOL)
        else:
            self.repeats &= data == pickle.loads(self.first_blob)

    def first_data(self):
        return pickle.loads(self.first_blob)

    def start(self) -> None:
        pass

    def stop(self) -> None:
        pass

    def config_hashes(self) -> Dict[str, str]:
        raise NotImplementedError

    def instrument(self, tracer: Tracer) -> list:
        return []

    def check(self) -> None:
        raise NotImplementedError

    def reference(self, kind: str, config_hash: str, digest: str, compute) -> None:
        """Check ``digest`` against the cached reference, computing and
        comparing the reference run (``compute() -> bool``) on a miss."""
        key = self.digests.key(kind, self.seed, config_hash)
        cached = self.digests.get(key)
        if cached is None:
            ok = compute()
            self.expect(f"{kind} (fresh reference)", ok)
            if ok:
                self.digests.put(key, digest)
        else:
            self.expect(f"{kind} (cached reference)", cached == digest,
                        f"{digest[:12]} vs {cached[:12]}")


# ----------------------------------------------------------------------
# Shared instrumentation


def figure_patches(tracer: Tracer) -> list:
    from repro.service.results import figure_modules

    patches = []
    for key, module in figure_modules().items():
        name = f"figures.{key}"
        patches.append((module, "compute", tracer.wrap(module.compute, name)))
        patches.append((module, "report", tracer.wrap(module.report, name)))
    return patches


def checkpoint_patches(tracer: Tracer) -> list:
    from repro.dataflow.datalake import CheckpointStore

    save, load = CheckpointStore.save, CheckpointStore.load

    def traced_save(store, *args, **kwargs):
        with tracer.span("dataflow.checkpoint_save"):
            path = save(store, *args, **kwargs)
        tracer.counts["dataflow.checkpoint_bytes"] += path.stat().st_size
        return path

    return [
        (CheckpointStore, "save", traced_save),
        (CheckpointStore, "load", tracer.wrap(load, "dataflow.checkpoint_load")),
    ]


def core_patches(tracer: Tracer) -> list:
    from repro.core import parallel

    spill, unpack = parallel.spill_partial, parallel.ColumnarPartial.unpack

    def traced_spill(*args, **kwargs):
        with tracer.span("core.shards.spill"):
            freed = spill(*args, **kwargs)
        tracer.counts["core.shards.spills"] += 1
        tracer.counts["core.shards.spill_bytes"] += freed
        return freed

    def traced_unpack(partial):
        with tracer.span("core.unpack"):
            tracer.counts["core.partial_bytes"] += partial.approx_nbytes()
            return unpack(partial)

    return [
        (parallel, "spill_partial", traced_spill),
        (parallel, "load_spilled",
         tracer.wrap(parallel.load_spilled, "core.shards.restore")),
        (parallel, "merge_day_shards",
         tracer.wrap(parallel.merge_day_shards, "core.fanin")),
        (parallel.ColumnarPartial, "unpack", traced_unpack),
    ]


def run_counts(tracer: Tracer, result) -> None:
    """Fold one ``execute_study`` result's counters into the trace."""
    report = result.report
    tracer.counts["core.pool.tasks"] += sum(
        r.attempts for r in report.records if r.source != "checkpoint"
    )
    tracer.counts["core.pool.retries"] += report.retries
    tracer.counts["core.pool.crashes"] += report.crashes
    if report.execution == "pool":
        busy = report.worker_wall_time()
        tracer.counts["core.pool.worker_busy_s"] += busy
        tracer.counts["core.pool.capacity_s"] += report.workers * report.wall_time
    if result.telemetry is not None:
        metrics = result.telemetry.metrics
        tracer.counts["synthesis.usage_rows"] += counter_total(
            metrics, "usage_rows_generated")
        tracer.counts["synthesis.flows"] += counter_total(metrics, "flows_expanded")
        tracer.add_program_spans(
            result.telemetry.spans, in_process=report.execution != "pool")


def task_counts(report) -> tuple:
    """(attempted, failed) day/shard task attempts of one run: a checkpoint
    load counts as one attempt, a retry (worker crashes included) as a
    failed one."""
    attempted = sum(max(1, r.attempts) for r in report.records)
    return attempted, report.retries + report.failed


def execute(config, tracer: Optional[Tracer], span: str = "core.dispatch", **kwargs):
    """``execute_study``; traced, with program telemetry on and its own
    time outside the program's spans charged to ``span``."""
    from repro.core.parallel import execute_study
    from repro.telemetry.clock import MonotonicClock
    from repro.telemetry.runtime import Telemetry

    if tracer is None:
        return execute_study(config, **kwargs)
    with tracer.span(span):
        result = execute_study(
            config, telemetry=Telemetry(MonotonicClock()), **kwargs)
    run_counts(tracer, result)
    return result


# ----------------------------------------------------------------------
# study


class StudyWorkload(Workload):
    name = "study"

    def start(self) -> None:
        self.config = study_config(self.seed)
        self.rendered_all = True

    def config_hashes(self):
        from repro.core.config import config_hash

        return {"study": config_hash(study_config(self.seed))}

    def instrument(self, tracer):
        return figure_patches(tracer) + checkpoint_patches(tracer) + core_patches(tracer)

    def op(self, index: int, tracer: Optional[Tracer]) -> dict:
        from repro.service.results import render_figures

        render = render_figures if tracer is None else tracer.wrap(
            render_figures, "results.render")
        t0 = time.perf_counter()
        result = execute(self.config, tracer, workers=1)
        t1 = time.perf_counter()
        rendered, unrendered = render(result.data)
        t2 = time.perf_counter()
        attempted, failed = task_counts(result.report)
        self.attempted += attempted + len(FIGURE_KEYS)
        self.failed += failed + len(unrendered)
        self.rendered_all &= sorted(rendered) == sorted(FIGURE_KEYS)
        return {"result_s": t2 - t0, "run_s": t1 - t0, "window": (t0, t2),
                "data": result.data}

    def check(self) -> None:
        from repro.core.config import config_hash
        from repro.service.results import study_digest

        self.expect("all 11 figures render on every op", self.rendered_all)
        self.expect("ops of this run are field-identical", self.repeats)
        first = self.first_data()
        digest = study_digest(first)
        self.digest = digest
        self.reference(
            "study == 2-shard run", config_hash(self.config), digest,
            lambda: execute(self.config, None, workers=2, shards=2).data == first,
        )


# ----------------------------------------------------------------------
# shard-resume


class ShardResumeWorkload(Workload):
    name = "shard-resume"

    def start(self) -> None:
        self.config = shard_config(self.seed)
        self.identical = True
        self.all_hits = True
        self.spilled = True

    def config_hashes(self):
        from repro.core.config import config_hash

        return {"shard-resume": config_hash(shard_config(self.seed))}

    def instrument(self, tracer):
        return checkpoint_patches(tracer) + core_patches(tracer)

    def op(self, index: int, tracer: Optional[Tracer]) -> dict:
        root = self.work / f"op{index}"
        kwargs = dict(
            workers=SHARD_WORKERS,
            shards=SHARDS,
            checkpoint_root=root / "checkpoints",
            shard_spill_dir=root / "spill",
            spill_watermark_bytes=SPILL_WATERMARK_BYTES,
        )
        t0 = time.perf_counter()
        fresh = execute(self.config, tracer, **kwargs)
        t1 = time.perf_counter()
        resumed = execute(self.config, tracer, resume=True, **kwargs)
        t2 = time.perf_counter()
        for report in (fresh.report, resumed.report):
            attempted, failed = task_counts(report)
            self.attempted += attempted
            self.failed += failed
        self.all_hits &= resumed.report.checkpoint_hits == resumed.report.planned_tasks
        self.spilled &= fresh.report.spills > 0
        self.identical &= resumed.data == fresh.data
        checkpoint_bytes = sum(
            p.stat().st_size for p in (root / "checkpoints").rglob("*.ckpt"))
        shutil.rmtree(root)
        return {
            "result_s": t2 - t0, "run_s": t1 - t0, "resume_s": t2 - t1,
            "spills": fresh.report.spills, "checkpoint_bytes": checkpoint_bytes,
            "window": [(t0, t1), (t1, t2)], "data": fresh.data,
        }

    def check(self) -> None:
        from repro.core.config import config_hash
        from repro.service.results import study_digest

        self.expect("resume loads every task from its checkpoint", self.all_hits)
        self.expect("fresh run spills partials", self.spilled)
        self.expect("fresh == resumed on every op", self.identical)
        self.expect("ops of this run are field-identical", self.repeats)
        first = self.first_data()
        digest = study_digest(first)
        self.digest = digest
        self.reference(
            "sharded == unsharded run", config_hash(self.config), digest,
            lambda: execute(self.config, None, workers=SHARD_WORKERS).data == first,
        )


# ----------------------------------------------------------------------
# ingest


class _TimedDataset:
    """A lake read whose ``collect`` is the traced (lazy) read itself."""

    def __init__(self, dataset, tracer: Tracer) -> None:
        self._dataset = dataset
        self._tracer = tracer

    def collect(self):
        with self._tracer.span("dataflow.lake_read"):
            return self._dataset.collect()

    def __getattr__(self, name):
        return getattr(self._dataset, name)


class IngestWorkload(Workload):
    name = "ingest"

    def start(self) -> None:
        self.pcap = Path(self.inputs["pcap"])
        self.archive = Path(self.inputs["lake"])
        self.checked = []

    def config_hashes(self):
        from repro.core.config import config_hash, small_study

        return {"archive": config_hash(small_study(self.seed))}

    def instrument(self, tracer):
        from itertools import islice

        from repro.core import persistence
        from repro.dataflow.datalake import DataLake
        from repro.tstat import meter, probe

        iter_batches = probe.iter_decoded_batches
        read_day = DataLake.read_day

        def traced_batches(decoder, packets, batch_size):
            # Same batching as the program's iterator: pull one chunk
            # (the pcap read), then decode it as one batch.
            stream = iter(packets)
            while True:
                with tracer.span("packets.read"):
                    chunk = list(islice(stream, batch_size))
                if not chunk:
                    return
                with tracer.span("packets.decode"):
                    batches = list(iter_batches(decoder, chunk, batch_size))
                yield from batches

        class TracedWriter(probe.FlowLogWriter):
            def __init__(self, *args, **kwargs):
                with tracer.span("tstat.export"):
                    super().__init__(*args, **kwargs)

            def write(self, record):
                with tracer.span("tstat.export"):
                    super().write(record)

            def close(self):
                with tracer.span("tstat.export"):
                    super().close()

        def traced_read_day(lake, table, day, *args, **kwargs):
            tracer.counts["dataflow.lake_bytes_read"] += sum(
                p.stat().st_size for p in lake.day_dir(table, day).glob("*")
                if p.is_file())
            return _TimedDataset(read_day(lake, table, day, *args, **kwargs), tracer)

        return [
            (probe, "iter_decoded_batches", traced_batches),
            (probe, "FlowLogWriter", TracedWriter),
            (meter.FlowMeter, "process_batch",
             tracer.wrap(meter.FlowMeter.process_batch, "tstat.meter")),
            (meter.FlowMeter, "flush", tracer.wrap(meter.FlowMeter.flush, "tstat.meter")),
            (DataLake, "write_day", tracer.wrap(DataLake.write_day, "dataflow.lake_write")),
            (DataLake, "read_day", traced_read_day),
            (persistence, "run_replay",
             tracer.wrap(persistence.run_replay, "analytics.replay")),
        ]

    def op(self, index: int, tracer: Optional[Tracer]) -> dict:
        from repro.core import persistence
        from repro.core.config import small_study
        from repro.dataflow.datalake import FLOW_CODEC, DataLake
        from repro.packets.pcap import read_pcap
        from repro.synthesis.studycalendar import study_months
        from repro.tstat.logs import load_flow_log
        from repro.tstat.probe import Probe, ProbeConfig

        root = self.work / f"op{index}"
        root.mkdir(parents=True)
        log_path = root / f"{INGEST_DAY.isoformat()}.pop1.tsv.gz"
        probe = Probe(ProbeConfig.for_pop("pop1", ["10.1.0.0/16"]))
        lake = DataLake(root / "lake", write_format="v2")
        archive = DataLake(self.archive)
        world = small_study(self.seed).world
        t0 = time.perf_counter()
        written = probe.run_to_log(read_pcap(self.pcap), log_path)
        t1 = time.perf_counter()
        # Ingest into the lake: parse the probe's export, write a partition.
        with tracer.span("dataflow.lake_write") if tracer else nullcontext():
            records = load_flow_log(log_path)
            lake.write_day("flows", INGEST_DAY, records, FLOW_CODEC)
        t2 = time.perf_counter()
        replay = persistence.run_replay(
            archive,
            study_months(world.start, world.end),
            policy="strict",
        )
        t3 = time.perf_counter()
        packets = probe.decode_stats.total
        errors = probe.decode_stats.malformed
        days = len(replay.report.records)
        excluded = sum(1 for r in replay.report.records if r.status != "completed")
        self.attempted += packets + written + days
        self.failed += errors + excluded
        if tracer is not None:
            tracer.counts["packets.packets"] += packets
            tracer.counts["packets.decode_errors"] += errors
            tracer.counts["tstat.flows"] += written
        self.checked.append((root, log_path, written, errors, days, excluded))
        return {
            "result_s": t3 - t0, "run_s": t1 - t0, "replay_s": t3 - t2,
            "probe_pkts_per_s": packets / (t1 - t0), "window": (t0, t3),
        }

    def check(self) -> None:
        from repro.dataflow.datalake import FLOW_CODEC, DataLake
        from repro.dataflow.integrity import fsck_lake, verify_partition

        expected = self.inputs["flows"]
        for root, log_path, written, errors, days, excluded in self.checked:
            label = root.name
            self.expect(f"{label}: flow records == specs (+DNS)", written == expected,
                        f"{written} vs {expected}")
            self.expect(f"{label}: no decode errors", errors == 0, errors)
            check = verify_partition(log_path)
            self.expect(f"{label}: flow log verifies", check.ok and not check.kind,
                        check.detail)
            lake = DataLake(root / "lake")
            self.expect(f"{label}: flow lake fsck clean", fsck_lake(lake).clean)
            rows = len(lake.read_day("flows", INGEST_DAY, FLOW_CODEC).collect())
            self.expect(f"{label}: lake rows == records written", rows == written,
                        f"{rows} vs {written}")
            self.expect(f"{label}: replay admits every archived day",
                        days == self.inputs["lake_days"] and excluded == 0,
                        f"{days} days, {excluded} excluded")
            shutil.rmtree(root)
        self.expect("archived lake fsck clean", fsck_lake(DataLake(self.archive)).clean)
        self.digest = ""


# ----------------------------------------------------------------------
# served


class ServedWorkload(Workload):
    name = "served"

    def payload(self, index: int) -> dict:
        return {"scale": "small", "seed": self.seed * 1000 + index, **SERVED_SPAN}

    def config_hashes(self):
        from repro.service.configs import build_config, run_id_for

        config, _ = build_config(self.payload(0))
        return {"served[0]": run_id_for(config)}

    def _execute_fn(self, config, **kwargs):
        """The ``ServerThread(execute_fn=...)`` hook of traced runs."""
        return execute(config, self.tracer, span="service.execute", **kwargs)

    def start(self) -> None:
        from repro.service import ServerThread, ServiceClient

        self.tracer: Optional[Tracer] = None
        extra = {"execute_fn": self._execute_fn} if self.traced else {}
        self.thread = ServerThread(
            self.work / "state", max_active=1, run_workers=1, **extra)
        server = self.thread.__enter__()
        self.client = ServiceClient("127.0.0.1", server.port)
        self.client.healthz()
        self.records: List[dict] = []

    def stop(self) -> None:
        self.thread.__exit__(None, None, None)

    def instrument(self, tracer):
        from repro.service import queue, results

        blocking = queue.JobQueue._execute_blocking
        return figure_patches(tracer) + checkpoint_patches(tracer) + [
            (queue, "render_figures",
             tracer.wrap(queue.render_figures, "results.render")),
            (queue, "results_payload",
             tracer.wrap(queue.results_payload, "results.render")),
            (results, "study_digest",
             tracer.wrap(results.study_digest, "results.digest")),
            (queue.JobQueue, "_execute_blocking",
             tracer.wrap(blocking, "service.results_write")),
        ]

    def op(self, index: int, tracer: Optional[Tracer]) -> dict:
        self.tracer = tracer
        polls: List[float] = []
        t0 = time.perf_counter()
        record = self.client.submit(self.payload(index))
        t1 = time.perf_counter()
        if tracer is not None:
            tracer.intervals.append((t0, t1, "service.submit"))
        while record["state"] not in ("done", "failed", "cancelled"):
            time.sleep(POLL_S)
            p0 = time.perf_counter()
            record = self.client.run(record["id"])
            polls.append(time.perf_counter() - p0)
        t2 = time.perf_counter()
        self.tracer = None
        self.attempted += 1
        self.failed += record["state"] != "done"
        self.records.append(record)
        return {
            "result_s": t2 - t0,
            "run_s": record["finished_at"] - record["started_at"],
            "submit_ms": 1000 * (t1 - t0),
            "queue_wait_s": record["started_at"] - record["created_at"],
            "poll_p50_ms": 1000 * statistics.median(polls) if polls else 0.0,
            "polls_ms": [1000 * p for p in polls],
            "window": (t0, t2),
        }

    def check(self) -> None:
        from repro.service.configs import build_config, run_id_for
        from repro.service.results import render_figures, study_digest

        states = [r["state"] for r in self.records]
        self.expect("every served run reaches done",
                    all(s == "done" for s in states), states)
        first = self.records[0]
        served = self.client.results(first["id"])
        self.digest = served["digest"]
        # A two-month span cannot render the figures pinned to other
        # months; the served run must render what a direct run renders.
        figures = ",".join(sorted(served["figures"]))
        config, _ = build_config(self.payload(0))

        def direct() -> bool:
            data = execute(config, None, workers=1).data
            rendered, _ = render_figures(data)
            return (study_digest(data) == self.digest
                    and ",".join(sorted(rendered)) == figures)

        self.reference("served digest and figures == direct execute_study",
                       run_id_for(config), f"{self.digest} {figures}", direct)


WORKLOADS = {
    cls.name: cls
    for cls in (StudyWorkload, ShardResumeWorkload, IngestWorkload, ServedWorkload)
}
