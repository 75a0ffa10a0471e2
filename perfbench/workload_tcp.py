"""``tcp-index-cold``: distinct index lookups over TCP against ``repro serve``.

``repro train index --guarded`` trains the guarded learned index on every
stored subset of up to three elements (the paper's full enumeration for the
index task), and ``repro serve`` serves it on the threaded tier.  Two
connections each send their next line only after the previous reply.  The
queries are distinct, so the result cache never answers one; fixed shares
are element combinations no stored set holds and out-of-vocabulary ids.
"""

from __future__ import annotations

import os
import pickle
import select
import signal
import socket
import subprocess
import sys
import threading
import time

import numpy as np

from repro.datasets import load_dataset

from harness import Deadline, SpanTracer, geometric_mean, median, percentile, q_error
from oracle import Oracle, check_index
from workload_build import BUILD_SEED

#: A third of the rw-small preset: 1,999 rw-like sets.
DATASET = "rw-small"
DATASET_SCALE = 1 / 3
MAX_SUBSET_SIZE = 3
#: Above the number of distinct stored subsets of up to three elements, so
#: the index trains on all of them and every present query has a bound.
TRAINING_CAP = 100_000
EPOCHS = 10
CONNECTIONS = 2
PRESENT_PER_ROUND = 16
ABSENT_PER_ROUND = 2
OOV_PER_ROUND = 2
POOL_ABSENT = 4000
POOL_OOV = 4000
DIRECT_SAMPLE = 1000
IO_TIMEOUT_S = 30.0
START_TIMEOUT_S = 60.0
TRAIN_TIMEOUT_S = 150.0


class TcpWorkload:
    name = "tcp-index-cold"
    setup_repeats = 5

    def __init__(self, seed: int, root, workdir):
        self.seed = seed
        self.workdir = workdir
        self.server = None
        self.build_times = []
        self.env = dict(
            os.environ,
            PYTHONPATH=str(root / "src") + os.pathsep + os.environ.get("PYTHONPATH", ""),
            PYTHONUNBUFFERED="1",
        )

    # -- set-up ----------------------------------------------------------------

    def setup(self, tracer) -> None:
        seed = self.seed
        self.workdir.mkdir(parents=True, exist_ok=True)
        sets_path = self.workdir / "sets.txt"
        self.index_path = self.workdir / "index.pkl"
        with tracer.span("datasets.generate"):
            collection = load_dataset(DATASET, scale=DATASET_SCALE)
        with tracer.span("bench.io"):
            collection.save(sets_path)
        with tracer.span("bench.oracle"):
            self.oracle = oracle = Oracle(collection.sets())
            universe = oracle.subsets(MAX_SUBSET_SIZE)
            if len(universe) > TRAINING_CAP:
                raise RuntimeError(
                    f"{len(universe)} stored subsets exceed the training cap {TRAINING_CAP}"
                )
        with tracer.span("bench.inputs"):
            rng = np.random.default_rng([seed, 4])
            self.present = [universe[i] for i in rng.permutation(len(universe))]
            self.trained = frozenset(universe)
            self.absent = self._absent_queries(rng)
            top = oracle.max_element
            elements = oracle.elements
            self.oov = [
                tuple(sorted((elements[int(rng.integers(len(elements)))], top + 1 + j)))
                for j in range(POOL_OOV)
            ]
            self._rounds = 0
            self._round_lock = threading.Lock()
        command = [
            sys.executable, "-m", "repro.cli", "train", "index",
            str(sets_path), str(self.index_path), "--guarded",
            "--epochs", str(EPOCHS), "--max-subset-size", str(MAX_SUBSET_SIZE),
            "--max-training-samples", str(TRAINING_CAP), "--seed", str(BUILD_SEED),
        ]
        start = time.perf_counter()
        with tracer.span("cli.train"):
            subprocess.run(command, env=self.env, check=True, timeout=TRAIN_TIMEOUT_S,
                           stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        self.build_times.append(time.perf_counter() - start)
        self.structure_bytes = self.index_path.stat().st_size
        with tracer.span("cli.serve_start"):
            self.port = self._start_server()

    def _absent_queries(self, rng) -> list[tuple[int, ...]]:
        elements = self.oracle.elements
        out: set[tuple[int, ...]] = set()
        while len(out) < POOL_ABSENT:
            size = int(rng.integers(2, MAX_SUBSET_SIZE + 1))
            picks = rng.choice(len(elements), size=size, replace=False)
            query = tuple(sorted(elements[i] for i in picks))
            if self.oracle.first(query) is None:
                out.add(query)
        ordered = sorted(out)
        return [ordered[i] for i in rng.permutation(len(ordered))]

    def _start_server(self) -> int:
        stderr = open(self.workdir / "serve.err", "ab")
        try:
            self.server = subprocess.Popen(
                [sys.executable, "-m", "repro.cli", "serve", str(self.index_path),
                 "--port", "0"],
                env=self.env, stdout=subprocess.PIPE, stderr=stderr,
                stdin=subprocess.DEVNULL,
            )
        finally:
            stderr.close()
        ready, _, _ = select.select([self.server.stdout], [], [], START_TIMEOUT_S)
        line = self.server.stdout.readline().decode() if ready else ""
        if " on " not in line:
            raise RuntimeError(f"repro serve did not report its address: {line!r}")
        address = line.split(" on ", 1)[1].split()[0]
        return int(address.rsplit(":", 1)[1])

    def teardown(self) -> None:
        server, self.server = self.server, None
        if server is None:
            return
        if server.poll() is None:
            # SIGINT is the server's clean shutdown path.
            server.send_signal(signal.SIGINT)
            try:
                server.wait(timeout=15)
            except subprocess.TimeoutExpired:
                server.kill()
                server.wait(timeout=15)
        server.stdout.close()

    # -- measurement -----------------------------------------------------------

    def _next_round(self) -> list[tuple[str, tuple[int, ...]]]:
        with self._round_lock:
            number = self._rounds
            self._rounds += 1

        def take(pool, count):
            return [pool[(number * count + i) % len(pool)] for i in range(count)]

        queries = (
            [("present", q) for q in take(self.present, PRESENT_PER_ROUND)]
            + [("absent", q) for q in take(self.absent, ABSENT_PER_ROUND)]
            + [("oov", q) for q in take(self.oov, OOV_PER_ROUND)]
        )
        order = np.random.default_rng([self.seed, 5, number]).permutation(len(queries))
        return [queries[i] for i in order]

    def _connect(self):
        sock = socket.create_connection(("127.0.0.1", self.port), timeout=IO_TIMEOUT_S)
        return sock, sock.makefile("rwb")

    def measure(self, tracer, seconds: float, inject_fault: bool = False) -> dict:
        results = [[] for _ in range(CONNECTIONS)]  # (kind, query, reply, latency)
        failures = [0] * CONNECTIONS
        attempts = [0] * CONNECTIONS
        parent = tracer.current()
        deadline = Deadline(seconds)

        def client(index: int) -> None:
            tracer.adopt(parent)
            try:
                sock, stream = self._connect()
            except OSError:
                attempts[index] += 1
                failures[index] += 1
                return
            try:
                while not deadline.expired():
                    batch = self._next_round()
                    attempts[index] += len(batch)
                    for position, (kind, query) in enumerate(batch):
                        line = (" ".join(map(str, query)) + "\n").encode()
                        began = time.perf_counter()
                        try:
                            with tracer.span("serve.request", (index, attempts[index], position)):
                                stream.write(line)
                                stream.flush()
                                reply = stream.readline()
                        except OSError:
                            failures[index] += len(batch) - position
                            return
                        latency = time.perf_counter() - began
                        text = reply.decode().strip()
                        if not text or text.startswith("error"):
                            failures[index] += 1
                            continue
                        results[index].append((kind, query, text, latency))
                stream.write(b"QUIT\n")
                stream.flush()
            finally:
                stream.close()
                sock.close()

        threads = [threading.Thread(target=client, args=(i,), daemon=True)
                   for i in range(CONNECTIONS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        elapsed = deadline.elapsed()
        flat = [row for rows in results for row in rows]
        if inject_fault and flat:
            kind, query, _text, *times = flat[0]
            flat[0] = (kind, query, "1999999", *times)
        return {"results": flat, "elapsed": elapsed,
                "attempted": sum(attempts), "failed": sum(failures)}

    def attempted(self, m: dict) -> tuple[int, int]:
        return m["attempted"], m["failed"]

    # -- results ---------------------------------------------------------------

    def check(self, m: dict, tracer) -> list[str]:
        out = []
        with tracer.span("bench.check"):
            queries, answers = [], []
            for kind, query, text, *_times in m["results"]:
                try:
                    answer = None if text == "none" else int(text)
                except ValueError:
                    out.append(f"tcp {query}: unparseable reply {text!r}")
                    continue
                if kind == "oov" and answer is not None:
                    out.append(f"tcp {query}: out-of-vocabulary query answered {answer}")
                queries.append(query)
                answers.append(answer)
            out += check_index(self.oracle, queries, answers, self.trained)
        return out

    def _load_index(self, tracer):
        with tracer.span("core.load"):
            with open(self.index_path, "rb") as handle:
                return pickle.load(handle)

    def end_to_end(self, m: dict) -> dict:
        latencies = [row[3] for row in m["results"]]
        guarded = self._load_index(SpanTracer(False))
        sample = self.present[:DIRECT_SAMPLE]
        estimates = guarded.index.predict_positions(sample)
        return {
            "build_s": median(self.build_times),
            "structure_bytes": float(self.structure_bytes),
            "qps": len(m["results"]) / m["elapsed"],
            "latency_p50_ms": percentile(latencies, 50) * 1e3,
            "latency_p90_ms": percentile(latencies, 90) * 1e3,
            "qerror_gmean": geometric_mean(
                q_error(estimate + 1.0, self.oracle.first(query) + 1.0)
                for query, estimate in zip(sample, estimates)
            ),
        }

    def layers(self, m: dict, tracer) -> dict:
        import json

        with tracer.span("serve.stats"):
            sock, stream = self._connect()
            try:
                stream.write(b"STATS\nTRACE 5000\nQUIT\n")
                stream.flush()
                stats = json.loads(stream.readline())
                spans = json.loads(stream.readline())
            finally:
                stream.close()
                sock.close()
        health = stats.get("health", {})
        queries = max(health.get("queries", 0), 1)

        def mean_span_ms(name):
            durations = [s["duration_ms"] for s in spans if s.get("name") == name]
            return sum(durations) / len(durations) if durations else 0.0

        guarded = self._load_index(tracer)
        inner = guarded.index
        inner.reset_stats()
        sample = self.present[:DIRECT_SAMPLE]
        absent = self.absent[:200]
        with tracer.span("core.lookup"):
            began = time.perf_counter()
            inner.lookup_many(sample)
            lookup_s = time.perf_counter() - began
        with tracer.span("sets.exact"):
            began = time.perf_counter()
            for query in absent:
                guarded.exact.first_position(query)
            exact_s = time.perf_counter() - began
        with tracer.span("reliability.fallback"):
            began = time.perf_counter()
            guarded.lookup_many(absent)
            fallback_s = time.perf_counter() - began
        stats_direct = inner.stats
        report = inner.report
        return {
            "core.index_fit_s": report.total_seconds,
            "core.epoch_s": report.seconds_per_epoch,
            "core.outliers": float(report.num_outliers),
            "core.index_bytes": float(self.structure_bytes),
            "core.aux_hits": float(stats_direct.auxiliary_hits),
            "core.sets_scanned": stats_direct.sets_scanned / max(stats_direct.lookups, 1),
            "core.lookup_ms": lookup_s * 1e3 / len(sample),
            "sets.exact_ms": exact_s * 1e3 / len(absent),
            "reliability.fallback_ms": fallback_s * 1e3 / len(absent),
            "reliability.exact_fallbacks": sum(health.get("exact_fallbacks", {}).values()) / queries,
            "reliability.short_circuits": sum(health.get("short_circuits", {}).values()) / queries,
            "serve.server_p50_ms": stats.get("p50_ms", 0.0),
            "serve.batch_mean": stats.get("mean_batch_size", 0.0),
            "serve.cache_hit_rate": stats.get("cache", {}).get("hit_rate", 0.0),
            "serve.batch_wait_ms": mean_span_ms("batch_wait"),
            "serve.model_forward_ms": mean_span_ms("model_forward"),
        }

