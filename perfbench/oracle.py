"""Independent correctness oracle: brute-force truth over plain frozensets.

Nothing here touches the program's exact structures (``InvertedIndex``, GIN,
seqscan).  Truth comes from subset tests against every stored set that
holds the query's element with the fewest sets; those candidates come from
this module's own element-to-positions map, built by one pass over the
frozensets.

Each ``check_*`` function returns a list of violation strings (empty when
the answers are correct), so a corrupted answer shows as a non-empty list.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterable, Sequence


class Oracle:
    """Exact subset semantics over a stored collection."""

    def __init__(self, sets: Iterable[Iterable[int]]):
        self.sets = [frozenset(stored) for stored in sets]
        postings: dict[int, list[int]] = {}
        for position, stored in enumerate(self.sets):
            for element in stored:
                postings.setdefault(element, []).append(position)
        self._postings = postings
        self._cache: dict[tuple[int, ...], tuple[int, ...]] = {}

    @property
    def elements(self) -> list[int]:
        return sorted(self._postings)

    @property
    def max_element(self) -> int:
        return max(self._postings)

    def matches(self, query: Iterable[int]) -> tuple[int, ...]:
        """Ascending positions of the stored sets containing ``query``."""
        key = tuple(sorted(set(query)))
        found = self._cache.get(key)
        if found is None:
            if not key:
                found = tuple(range(len(self.sets)))
            else:
                lists = [self._postings.get(element) for element in key]
                if any(posting is None for posting in lists):
                    found = ()
                else:
                    wanted = frozenset(key)
                    found = tuple(
                        position
                        for position in min(lists, key=len)
                        if wanted <= self.sets[position]
                    )
            self._cache[key] = found
        return found

    def count(self, query: Iterable[int]) -> int:
        return len(self.matches(query))

    def first(self, query: Iterable[int]) -> int | None:
        found = self.matches(query)
        return found[0] if found else None

    def subsets(self, max_size: int) -> list[tuple[int, ...]]:
        """Every distinct non-empty stored subset of at most ``max_size``."""
        seen: set[tuple[int, ...]] = set()
        for stored in self.sets:
            ordered = sorted(stored)
            for size in range(1, min(max_size, len(ordered)) + 1):
                seen.update(itertools.combinations(ordered, size))
        return sorted(seen)


def check_cardinality(queries: Sequence, answers: Sequence[float]) -> list[str]:
    """Every estimate is a finite number >= 1."""
    out = []
    if len(answers) != len(queries):
        out.append(f"cardinality: {len(answers)} answers for {len(queries)} queries")
    for query, answer in zip(queries, answers):
        value = float(answer)
        if not math.isfinite(value) or value < 1.0:
            out.append(f"cardinality {query}: estimate {answer!r} is not finite and >= 1")
    return out


def check_index(
    oracle: Oracle,
    queries: Sequence,
    answers: Sequence,
    trained: set | frozenset = frozenset(),
) -> list[str]:
    """Index answers against brute force.

    * a position must hold a stored set containing the query;
    * "not found" only when no stored set contains the query;
    * queries in ``trained`` (the index's training corpus) must get exactly
      the first containing position.
    """
    out = []
    if len(answers) != len(queries):
        out.append(f"index: {len(answers)} answers for {len(queries)} queries")
    for query, answer in zip(queries, answers):
        key = tuple(sorted(set(query)))
        if answer is None:
            truth = oracle.first(key)
            if truth is not None:
                out.append(f"index {key}: not found, but set {truth} contains it")
            continue
        if isinstance(answer, bool) or not isinstance(answer, int) or not (
            0 <= answer < len(oracle.sets)
        ):
            out.append(f"index {key}: answer {answer!r} is not a stored position")
            continue
        if not frozenset(key) <= oracle.sets[answer]:
            out.append(f"index {key}: set {answer} does not contain the query")
            continue
        if key in trained:
            truth = oracle.first(key)
            if answer != truth:
                out.append(f"index {key}: trained subset answered {answer}, first is {truth}")
    return out


def check_no_false_negatives(queries: Sequence, answers: Sequence) -> list[str]:
    """A membership filter answers "present" for every stored subset given."""
    out = []
    if len(answers) != len(queries):
        out.append(f"bloom: {len(answers)} answers for {len(queries)} queries")
    for query, answer in zip(queries, answers):
        if not bool(answer):
            out.append(f"bloom {tuple(query)}: false negative")
    return out


def check_served_reads(reads: Sequence, writes: Sequence, direct: dict, rel_tol: float) -> list[str]:
    """Served cardinality reads against direct calls and the writes made.

    ``reads`` holds ``(key, submitted, done, answer)`` and ``writes`` holds
    ``(key, value, started, finished)``, all times from one clock.
    ``direct[key]`` is the direct ``estimate_many`` answer of the structure
    before any write.  A read must return

    * the written value when it was submitted after a write to its key
      finished;
    * the direct answer when it finished before any write to its key began;
    * either of the two when it overlapped a write.

    ``rel_tol`` absorbs float32 rounding that depends on batch composition.
    """
    by_key: dict = {}
    for key, value, started, finished in writes:
        by_key.setdefault(key, []).append((started, finished, float(value)))
    out = []
    for key, submitted, done, answer in reads:
        value = float(answer)
        if not math.isfinite(value) or value < 1.0:
            out.append(f"served {key}: estimate {answer!r} is not finite and >= 1")
            continue
        at_submit = float(direct[key])
        allowed = []
        for started, finished, written in sorted(by_key.get(key, ())):
            if finished <= submitted:
                at_submit = written
            elif started < done:
                allowed.append(written)
        allowed.append(at_submit)
        if not any(math.isclose(value, want, rel_tol=rel_tol) for want in allowed):
            out.append(f"served {key}: answered {value!r}, expected one of {allowed}")
    return out
