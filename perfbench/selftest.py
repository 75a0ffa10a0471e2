"""Self-test of the benchmark harness.

    python3 perfbench/selftest.py            # about four minutes on 2 cores

Checks, in order:

1. every checker rejects a deliberately corrupted answer and accepts the
   correct one;
2. each workload, run briefly untraced and traced, prints every metric of
   ``BENCHMARK.json`` with its unit plus the attempted and failed counts,
   and its outputs pass the oracle;
3. each workload run with ``--inject-fault`` reports ``correct: false``;
4. after every run no process started by it, no listening TCP port and no
   ``/dev/shm`` segment is left behind;
5. without the program's source the benchmark exits non-zero and prints no
   result.

Exits 0 when everything passes.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import signal
import subprocess
import sys
import uuid
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from oracle import (  # noqa: E402
    Oracle,
    check_cardinality,
    check_index,
    check_no_false_negatives,
    check_served_reads,
)

RUN_TIMEOUT_S = 180
failures: list[str] = []


def expect(condition: bool, what: str) -> None:
    print(("PASS " if condition else "FAIL ") + what, flush=True)
    if not condition:
        failures.append(what)


# -- 1. checkers ---------------------------------------------------------------


def checker_tests() -> None:
    oracle = Oracle([(1, 2, 3), (2, 3), (1, 4), (2, 3, 5)])
    queries = [(2, 3), (1,), (4,), (1, 5)]
    expect(not check_index(oracle, queries, [0, 0, 2, None], {(2, 3)}),
           "index checker accepts exact answers")
    expect(bool(check_index(oracle, queries, [0, 1, 2, None])),
           "index checker rejects a position whose set lacks the query")
    expect(bool(check_index(oracle, queries, [0, 0, None, None])),
           "index checker rejects 'not found' for a stored subset")
    expect(bool(check_index(oracle, queries, [3, 0, 2, None], {(2, 3)})),
           "index checker rejects a later position for a trained subset")
    expect(bool(check_index(oracle, queries, [0, 0, 2, 9])),
           "index checker rejects a position out of range")
    expect(not check_cardinality(queries, [2.0, 2.0, 1.0, 1.0]),
           "cardinality checker accepts finite estimates >= 1")
    expect(bool(check_cardinality(queries, [2.0, math.nan, 1.0, 1.0])),
           "cardinality checker rejects NaN")
    expect(bool(check_cardinality(queries, [2.0, 0.5, 1.0, 1.0])),
           "cardinality checker rejects an estimate below 1")
    expect(not check_no_false_negatives(queries[:3], [True, True, True]),
           "bloom checker accepts all-present")
    expect(bool(check_no_false_negatives(queries[:3], [True, False, True])),
           "bloom checker rejects a false negative")
    direct = {"a": 5.0, "b": 7.0}
    writes = [("a", 3, 10.0, 11.0)]
    good = [("a", 1.0, 2.0, 5.0000001), ("a", 12.0, 13.0, 3.0),
            ("a", 9.0, 10.5, 3.0), ("b", 12.0, 13.0, 7.0)]
    expect(not check_served_reads(good, writes, direct, 1e-5),
           "served-read checker accepts pre-write, post-write and overlapping answers")
    expect(bool(check_served_reads([("a", 12.0, 13.0, 5.0)], writes, direct, 1e-5)),
           "served-read checker rejects a stale answer after a write")
    expect(bool(check_served_reads([("b", 1.0, 2.0, 7.5)], writes, direct, 1e-5)),
           "served-read checker rejects an answer unlike the direct call")

    from workload_tcp import TcpWorkload

    tcp = TcpWorkload(0, ROOT, ROOT / ".bench_work" / "selftest-unused")
    tcp.oracle = oracle
    tcp.trained = frozenset({(2, 3)})
    ok = {"results": [("present", (2, 3), "0", 0.001), ("absent", (1, 5), "none", 0.001),
                      ("oov", (1, 99), "none", 0.001)]}
    expect(not tcp.check(ok, _quiet()), "tcp checker accepts exact replies")
    for row, text, what in ((2, "0", "an answered out-of-vocabulary query"),
                            (0, "3", "a later position for a trained subset"),
                            (1, "x", "an unparseable reply")):
        bad = {"results": list(ok["results"])}
        kind, query, _text, latency = bad["results"][row]
        bad["results"][row] = (kind, query, text, latency)
        expect(bool(tcp.check(bad, _quiet())), f"tcp checker rejects {what}")


def _quiet():
    from harness import SpanTracer

    return SpanTracer(False)


# -- 2-4. runs and leaks ---------------------------------------------------------


def listening_ports() -> set[str]:
    ports = set()
    for table in ("/proc/net/tcp", "/proc/net/tcp6"):
        try:
            with open(table, encoding="ascii") as handle:
                next(handle)
                for line in handle:
                    fields = line.split()
                    if fields[3] == "0A":  # LISTEN
                        ports.add(fields[1])
        except OSError:
            continue
    return ports


def shm_names() -> set[str]:
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()


def tagged_processes(tag: str) -> list[int]:
    needle = f"PERFBENCH_SELFTEST={tag}".encode()
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/environ", "rb") as handle:
                if needle in handle.read().split(b"\0"):
                    found.append(int(entry))
        except OSError:
            continue
    return found


def session_processes(session: int) -> list[int]:
    """Processes, zombies included, whose session id is ``session``.

    A zombie's environment cannot be read, so :func:`tagged_processes` misses
    a helper that is still exiting when the run returns; its session id
    still names it.
    """
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii", errors="replace") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[3]) == session:
            found.append(int(entry))
    return found


def run_once(args: list[str], cwd: Path = ROOT) -> tuple[int, str, list[int], set, set]:
    tag = uuid.uuid4().hex
    ports, segments = listening_ports(), shm_names()
    env = dict(os.environ, PERFBENCH_SELFTEST=tag)
    # A session of its own, so every process the run starts can be found
    # by session id once it has returned.
    with subprocess.Popen(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, env=env,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, start_new_session=True,
    ) as proc:
        try:
            stdout, stderr = proc.communicate(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            raise
    leaked_procs = sorted(set(tagged_processes(tag)) | set(session_processes(proc.pid)))
    leaked_ports = listening_ports() - ports
    leaked_shm = shm_names() - segments
    if proc.returncode and cwd == ROOT:
        print(stderr[-3000:])
    return proc.returncode, stdout, leaked_procs, leaked_ports, leaked_shm


def expect_no_leaks(label: str, procs, ports, segments) -> None:
    expect(not procs, f"{label}: no process left behind {procs or ''}")
    expect(not ports, f"{label}: no listening port left behind {ports or ''}")
    expect(not segments, f"{label}: no /dev/shm segment left behind {segments or ''}")


def workload_runs(spec: dict, seconds: str) -> None:
    for workload in spec["workloads"]:
        name = workload["name"]
        for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
            label = f"{name} --trace {trace}"
            code, stdout, procs, ports, segments = run_once(
                ["--workload", name, "--seed", "7", "--seconds", seconds, "--trace", trace]
            )
            expect(code == 0, f"{label}: exits 0")
            try:
                result = json.loads(stdout.strip().splitlines()[-1])
            except (IndexError, ValueError):
                expect(False, f"{label}: last line is a JSON object")
                continue
            expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                   f"{label}: result has exactly correct/attempted/failed/metrics")
            expect(isinstance(result.get("attempted"), int) and result["attempted"] >= 1
                   and isinstance(result.get("failed"), int),
                   f"{label}: attempted and failed counts printed")
            expect(result.get("correct") is True, f"{label}: outputs pass the oracle")
            metrics = result.get("metrics", {})
            wanted = {m["name"]: m["unit"] for m in spec[section]}
            expect(set(metrics) == set(wanted), f"{label}: prints exactly the {section} metrics")
            for metric, unit in wanted.items():
                entry = metrics.get(metric, {})
                expect(entry.get("unit") == unit and isinstance(entry.get("value"), float)
                       and math.isfinite(entry["value"]),
                       f"{label}: {metric} printed in {unit}")
            if section == "per_layer" and set(metrics) == set(wanted):
                parts = sum(v["value"] for k, v in metrics.items() if k.startswith("self."))
                parts += metrics["unexplained_s"]["value"]
                expect(math.isclose(parts, metrics["wall_s"]["value"], rel_tol=1e-6),
                       f"{label}: layer self times plus unexplained_s add up to wall_s")
            if section == "end_to_end":
                expect(all(metrics[m]["value"] > 0 for m in wanted if m in metrics),
                       f"{label}: no end-to-end metric reads 0")
            expect_no_leaks(label, procs, ports, segments)

        label = f"{name} --inject-fault"
        code, stdout, procs, ports, segments = run_once(
            ["--workload", name, "--seed", "7", "--seconds", "1", "--inject-fault"]
        )
        try:
            result = json.loads(stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            result = {}
        expect(code == 0 and result.get("correct") is False,
               f"{label}: a corrupted answer makes the run incorrect")
        expect_no_leaks(label, procs, ports, segments)


def missing_program_run() -> None:
    bare = ROOT / ".bench_work" / f"selftest-bare-{os.getpid()}"
    try:
        (bare / "perfbench").mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        for path in HERE.glob("*.py"):
            shutil.copy(path, bare / "perfbench" / path.name)
        code, stdout, procs, ports, segments = run_once(
            ["--workload", "build", "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=bare
        )
        expect(code != 0, "without the program source: exits non-zero")
        expect('"metrics"' not in stdout, "without the program source: prints no result")
        expect_no_leaks("without the program source", procs, ports, segments)
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    seconds = sys.argv[1] if len(sys.argv) > 1 else "2"
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    checker_tests()
    missing_program_run()
    workload_runs(spec, seconds)
    print(f"{len(failures)} failures" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
