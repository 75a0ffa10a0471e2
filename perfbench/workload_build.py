"""``build``: build the paper's three hybrid structures, then probe them directly.

One round labels a seeded rw-like collection (``repro.sets``), trains the
cardinality estimator with guided eviction, the learned index with
Algorithm-2 local bounds and the learned Bloom filter with its backup filter
(``repro.core`` over ``repro.nn``), freezes all three (``repro.infer``) and
pickles them.  It then answers a fixed probe of stored-subset queries with
direct ``estimate_many`` / ``lookup_many`` / ``contains_many`` batch calls.
No serving layer runs.  Rounds repeat until the run's time is up.
"""

from __future__ import annotations

import pickle
import time

import numpy as np

from repro.core import (
    LearnedBloomFilter,
    LearnedCardinalityEstimator,
    LearnedSetIndex,
    ModelConfig,
    OutlierRemovalConfig,
    TrainConfig,
)
from repro.datasets import load_dataset
from repro.infer import attached_plans, freeze_structure
from repro.sets import InvertedIndex
from repro.sets.subsets import (
    cardinality_training_pairs,
    index_training_pairs,
    negative_membership_samples,
    positive_membership_samples,
)

from harness import Deadline, geometric_mean, median, percentile, q_error
from oracle import Oracle, check_cardinality, check_index, check_no_false_negatives

#: The collection is the rw-small preset (6,000 rw-like sets, generator
#: seed fixed by the preset); the workload seed drives everything else.
DATASET = "rw-small"
#: Seed of model initialisation, training samples and batch order.  Fixed,
#: like the collection: the workload seed varies the queries, not the build.
BUILD_SEED = 0
MAX_SUBSET_SIZE = 4
BLOOM_MAX_SUBSET_SIZE = 3
TRAINING_CAP = 10_000
NEGATIVES = TRAINING_CAP // 2
EPOCHS = 8
PROBE_TRAINED = 384
PROBE_STORED = 384
ACCURACY_PROBE = 16384
BATCH = 4


def model_config(seed: int) -> ModelConfig:
    return ModelConfig(kind="clsm", embedding_dim=8, seed=seed)


def train_config(seed: int, loss: str) -> TrainConfig:
    return TrainConfig(epochs=EPOCHS, batch_size=1024, lr=5e-3, loss=loss, seed=seed)


def removal() -> OutlierRemovalConfig:
    return OutlierRemovalConfig(percentile=90.0, at_epochs=(EPOCHS * 2 // 3,))


def stored_subsets(oracle: Oracle, count: int, max_size: int, rng) -> list[tuple[int, ...]]:
    """Random subsets of random stored sets, sizes uniform in [1, max_size]."""
    out = []
    for _ in range(count):
        stored = sorted(oracle.sets[int(rng.integers(len(oracle.sets)))])
        size = int(rng.integers(1, min(max_size, len(stored)) + 1))
        chosen = rng.choice(len(stored), size=size, replace=False)
        out.append(tuple(sorted(stored[i] for i in chosen)))
    return out


def build_estimator(collection, rng, tracer):
    """Label and train the hybrid cardinality estimator (shared with the pool)."""
    seed = BUILD_SEED
    with tracer.span("sets.labels"):
        pairs = cardinality_training_pairs(
            collection, max_subset_size=MAX_SUBSET_SIZE,
            max_samples=TRAINING_CAP, rng=rng,
        )
    with tracer.span("core.card_fit"):
        estimator = LearnedCardinalityEstimator.build(
            collection, model_config=model_config(seed),
            train_config=train_config(seed, "mse"), removal=removal(),
            training_pairs=pairs, rng=rng,
        )
    return estimator


class BuildWorkload:
    name = "build"
    setup_repeats = 9

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self, tracer) -> None:
        with tracer.span("datasets.generate"):
            self.collection = load_dataset(DATASET, scale=1.0)
        with tracer.span("bench.oracle"):
            self.oracle = Oracle(self.collection.sets())
        with tracer.span("bench.inputs"):
            rng = np.random.default_rng([self.seed, 1])
            self.probe_stored = stored_subsets(self.oracle, PROBE_STORED, MAX_SUBSET_SIZE, rng)
            self.accuracy_probe = stored_subsets(self.oracle, ACCURACY_PROBE, MAX_SUBSET_SIZE, rng)
            self.probe_rng_seed = [self.seed, 2]

    def teardown(self) -> None:
        pass

    # -- one round -------------------------------------------------------------

    def _build(self, tracer) -> dict:
        seed = BUILD_SEED
        collection = self.collection
        rng = np.random.default_rng(seed)
        start = time.perf_counter()
        estimator = build_estimator(collection, rng, tracer)
        with tracer.span("sets.labels"):
            index_pairs = index_training_pairs(
                collection, max_subset_size=MAX_SUBSET_SIZE,
                max_samples=TRAINING_CAP, rng=rng,
            )
            positives = positive_membership_samples(
                collection, BLOOM_MAX_SUBSET_SIZE, TRAINING_CAP, rng
            )
        with tracer.span("sets.negatives"):
            negatives = negative_membership_samples(
                collection, InvertedIndex(collection), num_samples=NEGATIVES,
                max_subset_size=BLOOM_MAX_SUBSET_SIZE, rng=rng,
            )
        with tracer.span("core.index_fit"):
            index = LearnedSetIndex.build(
                collection, model_config=model_config(seed),
                train_config=train_config(seed, "mse"), removal=removal(),
                training_pairs=index_pairs, rng=rng,
            )
        with tracer.span("core.bloom_fit"):
            bloom = LearnedBloomFilter.from_training_data(
                positives, negatives, max_element_id=collection.max_element_id(),
                model_config=model_config(seed), train_config=train_config(seed, "bce"),
                rng=rng,
            )
        structures = (estimator, index, bloom)
        with tracer.span("infer.freeze"):
            for structure in structures:
                freeze_structure(structure)
        with tracer.span("core.pickle"):
            blobs = [pickle.dumps(s, protocol=pickle.HIGHEST_PROTOCOL) for s in structures]
        build_s = time.perf_counter() - start
        return {
            "estimator": estimator, "index": index, "bloom": bloom,
            "trained": frozenset(index_pairs[0]), "trained_list": index_pairs[0],
            "build_s": build_s, "bytes": [len(blob) for blob in blobs],
        }

    def _probe(self, built: dict, tracer, rid_base: int) -> dict:
        rng = np.random.default_rng(self.probe_rng_seed)
        trained = built["trained_list"]
        picks = rng.choice(len(trained), size=min(PROBE_TRAINED, len(trained)), replace=False)
        probe = [trained[i] for i in picks] + self.probe_stored
        probe = [probe[i] for i in rng.permutation(len(probe))]
        estimator, index, bloom = built["estimator"], built["index"], built["bloom"]
        index.reset_stats()
        answers = {"cardinality": [], "index": [], "bloom": []}
        latencies = []
        start = time.perf_counter()
        for offset in range(0, len(probe), BATCH):
            batch = probe[offset:offset + BATCH]
            rid = rid_base + offset
            began = time.perf_counter()
            with tracer.span("core.estimate", rid):
                answers["cardinality"].extend(estimator.estimate_many(batch))
            with tracer.span("core.lookup", rid):
                answers["index"].extend(index.lookup_many(batch))
            with tracer.span("core.contains", rid):
                answers["bloom"].extend(bloom.contains_many(batch))
            latencies.append(time.perf_counter() - began)
        probe_s = time.perf_counter() - start
        return {"probe": probe, "answers": answers, "latencies": latencies,
                "probe_s": probe_s, "stats": index.stats}

    def measure(self, tracer, seconds: float, inject_fault: bool = False) -> dict:
        deadline = Deadline(seconds)
        rounds = []
        while not rounds or not deadline.expired():
            with tracer.span("run.round"):
                built = self._build(tracer)
                probed = self._probe(built, tracer, rid_base=len(rounds) * 100_000)
            if inject_fault:
                probed["answers"]["index"][0] = -1
            rounds.append((built, probed))
        return {"rounds": rounds, "elapsed": deadline.elapsed()}

    # -- results ---------------------------------------------------------------

    def attempted(self, m: dict) -> tuple[int, int]:
        # Per round: three builds plus every probe query on each structure.
        per_round = [3 + 3 * len(probed["probe"]) for _b, probed in m["rounds"]]
        return sum(per_round), 0

    def check(self, m: dict, tracer) -> list[str]:
        out = []
        with tracer.span("bench.check"):
            for built, probed in m["rounds"]:
                probe, answers = probed["probe"], probed["answers"]
                out += check_cardinality(probe, answers["cardinality"])
                out += check_index(self.oracle, probe, answers["index"], built["trained"])
                bloom = built["bloom"]
                positives = list(bloom.trained_positives)
                out += check_no_false_negatives(positives, bloom.contains_many(positives))
        return out

    def end_to_end(self, m: dict) -> dict:
        rounds = m["rounds"]
        latencies = [lat for _b, p in rounds for lat in p["latencies"]]
        estimator = rounds[0][0]["estimator"]
        answers = estimator.estimate_many(self.accuracy_probe)
        errors = [
            q_error(answer, self.oracle.count(query))
            for query, answer in zip(self.accuracy_probe, answers)
        ]
        return {
            "build_s": median([b["build_s"] for b, _p in rounds]),
            "structure_bytes": float(sum(rounds[0][0]["bytes"])),
            "qps": median([3 * len(p["probe"]) / p["probe_s"] for _b, p in rounds]),
            "latency_p50_ms": percentile(latencies, 50) * 1e3,
            "latency_p90_ms": percentile(latencies, 90) * 1e3,
            "qerror_gmean": geometric_mean(errors),
        }

    def layers(self, m: dict, tracer) -> dict:
        built, probed = m["rounds"][0]
        estimator, index, bloom = built["estimator"], built["index"], built["bloom"]
        reports = (estimator.report, index.report, bloom.report)
        stats = probed["stats"]
        plan = attached_plans(estimator)[0]
        index.reset_stats()
        with tracer.span("core.lookup"):
            began = time.perf_counter()
            index.lookup_many(probed["probe"])
            lookup_ms = (time.perf_counter() - began) * 1e3 / len(probed["probe"])
        batches = [probed["probe"][i:i + 32] for i in range(0, len(probed["probe"]), 32)]
        times = []
        with tracer.span("infer.estimate"):
            for batch in batches:
                began = time.perf_counter()
                plan.predict_scaled(estimator.model, batch)
                times.append(time.perf_counter() - began)
        return {
            "core.epoch_s": sum(r.seconds_per_epoch for r in reports) / len(reports),
            "core.outliers": float(estimator.report.num_outliers + index.report.num_outliers),
            "core.card_bytes": float(built["bytes"][0]),
            "core.index_bytes": float(built["bytes"][1]),
            "core.bloom_bytes": float(built["bytes"][2]),
            "core.aux_hits": float(stats.auxiliary_hits),
            "core.sets_scanned": stats.sets_scanned / max(stats.lookups, 1),
            "core.lookup_ms": lookup_ms,
            "infer.estimate_ms": median(times) * 1e3,
        }
