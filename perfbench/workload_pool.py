"""``pool-hot-rw``: Zipf-skewed reads with 2% writes against a ``WorkerPool``.

A reader thread and a writer thread send operations on one fixed schedule
(an open loop, 400 per second) to a two-worker pool serving the frozen,
unguarded hybrid cardinality estimator; neither waits for earlier answers.
Reads draw from a key set larger than the worker caches; writes are
``record_update`` calls storing the true count (the paper's update path,
§7.2).  Each round is a fresh seeded draw with the same make-up: 1,004
reads and 20 writes.
"""

from __future__ import annotations

import collections
import pickle
import queue
import threading
import time

import numpy as np

from repro.datasets import load_dataset
from repro.infer import attached_plans, freeze_structure
from repro.serve import WorkerPool

from harness import Deadline, geometric_mean, median, percentile, q_error
from oracle import Oracle, check_served_reads
from workload_build import BUILD_SEED, DATASET, build_estimator, stored_subsets

KEYS = 8192
KEY_MAX_SIZE = 3
ZIPF_EXPONENT = 1.1
ROUND_OPS = 1024
WRITES_PER_ROUND = 20  # ~2% of a round
#: Operations (reads and writes) sent per second, whether or not earlier
#: ones have been answered.
RATE = 400
WORKERS = 2
CACHE_PER_WORKER = 1024
INFER_BATCH = 32
#: float32 plans round differently for different batch shapes (measured
#: relative differences up to 5e-7), so served and direct answers agree to
#: this relative tolerance, not bit for bit.
REL_TOL = 1e-5
RESULT_TIMEOUT_S = 60.0
WARMUP_READS = 256
#: qerror_gmean covers the distinct keys read in this many first rounds.
ACCURACY_ROUNDS = 4


def distinct_keys(oracle: Oracle, count: int, rng) -> list[tuple[int, ...]]:
    keys: set[tuple[int, ...]] = set()
    while len(keys) < count:
        keys.update(stored_subsets(oracle, count - len(keys), KEY_MAX_SIZE, rng))
    return sorted(keys)


class PoolWorkload:
    name = "pool-hot-rw"
    setup_repeats = 7

    def __init__(self, seed: int):
        self.seed = seed
        self.pool = None
        self.build_times = []

    def setup(self, tracer) -> None:
        seed = self.seed
        with tracer.span("datasets.generate"):
            collection = load_dataset(DATASET, scale=1.0)
        with tracer.span("bench.oracle"):
            self.oracle = Oracle(collection.sets())
        with tracer.span("bench.inputs"):
            rng = np.random.default_rng([seed, 3])
            self.keys = distinct_keys(self.oracle, KEYS, rng)
            # Zipf weights over a random ranking of the keys.
            weights = np.empty(KEYS)
            weights[rng.permutation(KEYS)] = 1.0 / np.arange(1, KEYS + 1) ** ZIPF_EXPONENT
            self.cumulative = np.cumsum(weights / weights.sum())
            self.rounds_made = 0
        start = time.perf_counter()
        estimator = build_estimator(collection, np.random.default_rng(BUILD_SEED), tracer)
        with tracer.span("infer.freeze"):
            freeze_structure(estimator)
        with tracer.span("core.pickle"):
            blob = pickle.dumps(estimator, protocol=pickle.HIGHEST_PROTOCOL)
        self.build_times.append(time.perf_counter() - start)
        self.structure_bytes = len(blob)
        self.estimator = estimator
        self.pristine = pickle.loads(blob)
        self.writes = []
        with tracer.span("serve.pool_start"):
            self.pool = WorkerPool(estimator, workers=WORKERS, cache_size=CACHE_PER_WORKER)
            self.pool.start()
        # Warm-up, so the first timed reads do not pay for the workers'
        # first forwards and empty caches.
        with tracer.span("serve.warmup"):
            rng = np.random.default_rng([seed, 7])
            picks = np.searchsorted(self.cumulative, rng.random(WARMUP_READS), side="right")
            futures = [self.pool.submit(self.keys[min(int(k), KEYS - 1)]) for k in picks]
            for future in futures:
                future.result(timeout=RESULT_TIMEOUT_S)

    def _round(self, number: int) -> list[tuple[str, int]]:
        """Round ``number`` of the stream: ROUND_OPS operations, of which
        exactly WRITES_PER_ROUND are writes, keys drawn by Zipf weight."""
        rng = np.random.default_rng([self.seed, 6, number])
        keys = np.searchsorted(self.cumulative, rng.random(ROUND_OPS), side="right")
        keys = np.minimum(keys, KEYS - 1)
        writes = set(rng.choice(ROUND_OPS, size=WRITES_PER_ROUND, replace=False).tolist())
        return [("write" if i in writes else "read", int(key)) for i, key in enumerate(keys)]

    def truth(self, key: int) -> int:
        return self.oracle.count(self.keys[key])

    def teardown(self) -> None:
        if self.pool is not None:
            pool, self.pool = self.pool, None
            pool.close()

    def measure(self, tracer, seconds: float, inject_fault: bool = False) -> dict:
        pool = self.pool
        keys = self.keys
        reads = []  # [key, submitted, done, answer, round, rid]
        write_s = []
        outstanding = collections.deque()
        writes_due = queue.Queue()
        failures = {"read": 0, "write": 0}
        attempted = 0

        def mark_done(record):
            def callback(_future):
                record[2] = time.perf_counter()
            return callback

        def harvest(wait: bool):
            while outstanding and (wait or outstanding[0][0].done()):
                future, record = outstanding.popleft()
                with tracer.span("serve.wait", record[5]):
                    try:
                        record[3] = future.result(timeout=RESULT_TIMEOUT_S)
                    except Exception:
                        failures["read"] += 1
                        continue
                if not record[2]:
                    # result() can return before the pool thread runs callbacks.
                    record[2] = time.perf_counter()
                reads.append(record)

        def pace(due: float, rid) -> None:
            ahead = due - time.perf_counter()
            if ahead > 0:
                with tracer.span("bench.pace", rid):
                    time.sleep(ahead)

        def writer() -> None:
            # Writes come from their own thread, as from another user: a
            # synchronous record_update must not hold up the reads due
            # behind it.
            tracer.adopt(parent)
            while (item := writes_due.get()) is not None:
                due, key, rid = item
                pace(due, rid)
                with tracer.span("bench.oracle", rid):
                    value = self.truth(key)
                started = time.perf_counter()
                with tracer.span("serve.write", rid):
                    try:
                        pool.record_update(keys[key], value)
                    except Exception:
                        failures["write"] += 1
                        continue
                finished = time.perf_counter()
                write_s.append(finished - started)
                self.writes.append((key, value, started, finished))

        parent = tracer.current()
        deadline = Deadline(seconds)
        writer_thread = threading.Thread(target=writer, daemon=True)
        writer_thread.start()
        first_round = self.rounds_made
        try:
            while self.rounds_made == first_round or not deadline.expired():
                number = self.rounds_made
                self.rounds_made += 1
                for op, key in self._round(number):
                    due = deadline.start + attempted / RATE
                    attempted += 1
                    rid = attempted
                    if op == "write":
                        writes_due.put((due, key, rid))
                        continue
                    harvest(wait=False)
                    pace(due, rid)
                    record = [key, 0.0, 0.0, None, number, rid]
                    with tracer.span("serve.submit", rid):
                        record[1] = time.perf_counter()
                        future = pool.submit(keys[key])
                    future.add_done_callback(mark_done(record))
                    outstanding.append((future, record))
        finally:
            writes_due.put(None)
            writer_thread.join(timeout=RESULT_TIMEOUT_S)
        harvest(wait=True)
        failed = failures["read"] + failures["write"]
        elapsed = deadline.elapsed()
        if inject_fault and reads:
            reads[0][3] = -5.0
        return {"reads": reads, "write_s": write_s, "elapsed": elapsed,
                "first_round": first_round,
                "attempted": attempted, "failed": failed}

    def attempted(self, m: dict) -> tuple[int, int]:
        return m["attempted"], m["failed"]

    def check(self, m: dict, tracer) -> list[str]:
        with tracer.span("bench.check"):
            direct = dict(zip(range(KEYS), self.pristine.estimate_many(self.keys)))
            return check_served_reads(
                [(key, submitted, done, answer) for key, submitted, done, answer, *_ in m["reads"]],
                self.writes, direct, REL_TOL,
            )

    def end_to_end(self, m: dict) -> dict:
        # A read's latency runs from its submit call to its answer.  How late
        # the sending thread woke up is the benchmark's own delay: on the
        # shared host it moved the read p50 from 0.50 to 0.78 ms between runs.
        latencies = [done - submitted for _k, submitted, done, *_rest in m["reads"]]
        # Accuracy over the distinct keys of the first rounds, first answer
        # each, so it does not depend on how many rounds ran.
        first_round = {}
        for key, _s, _d, answer, rnd, *_rest in m["reads"]:
            if rnd < m["first_round"] + ACCURACY_ROUNDS:
                first_round.setdefault(key, answer)
        return {
            "build_s": median(self.build_times),
            "structure_bytes": float(self.structure_bytes),
            "qps": len(m["reads"]) / m["elapsed"],
            "latency_p50_ms": percentile(latencies, 50) * 1e3,
            "latency_p90_ms": percentile(latencies, 90) * 1e3,
            "qerror_gmean": geometric_mean(
                q_error(answer, self.truth(key)) for key, answer in first_round.items()
            ),
        }

    def layers(self, m: dict, tracer) -> dict:
        with tracer.span("serve.stats"):
            stats = self.pool.stats_dict()
        workers = list(stats["per_worker"].values())
        hits = sum(w["cache"]["hits"] for w in workers)
        misses = sum(w["cache"]["misses"] for w in workers)
        invalidations = sum(w["cache"]["invalidations"] for w in workers)
        estimator = self.estimator
        plan = attached_plans(estimator)[0]
        stream = [self.keys[key] for op, key in self._round(0) if op == "read"]
        times = []
        with tracer.span("infer.estimate"):
            for offset in range(0, len(stream) - INFER_BATCH + 1, INFER_BATCH):
                began = time.perf_counter()
                plan.predict_scaled(estimator.model, stream[offset:offset + INFER_BATCH])
                times.append(time.perf_counter() - began)
        return {
            "core.epoch_s": estimator.report.seconds_per_epoch,
            "core.outliers": float(estimator.report.num_outliers),
            "core.card_bytes": float(self.structure_bytes),
            "infer.estimate_ms": median(times) * 1e3,
            "serve.worker_batch_mean": sum(w["mean_batch_size"] for w in workers) / len(workers),
            "serve.worker_p50_ms": sum(w["p50_ms"] for w in workers) / len(workers),
            "serve.cache_hit_rate": hits / max(hits + misses, 1),
            "serve.cache_invalidations": invalidations / max(len(m["write_s"]), 1),
            "serve.write_p50_ms": percentile(m["write_s"], 50) * 1e3 if m["write_s"] else 0.0,
        }
