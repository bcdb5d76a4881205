"""The three benchmark workloads.

Each workload runs in a fresh child process (see ``child.py``) and has
four steps: ``setup`` (everything before the first timed op),
``run`` (the timed closed loop), ``check`` (answer checks, outside the
timed loop) and ``close`` (stop whatever it started).

The seed fixes every input and order.  The program sees the generated
traces and requests, never the seed.

Run as a script, ``python3 workloads.py DIR`` writes the 24 PowerStone
traces to ``DIR`` as dinero ``.din`` files, the same files
``repro emit NAME --kind data|inst --scale large`` writes.  Set-up runs
it in a separate process, so the ISA simulator's machines and traces
never sit in the measured process.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import re
import shutil
import signal
import subprocess
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

from common import child_pids, host_kernel_s, vm_hwm_mb

#: Budgets of the paper's tables: percent of the maximum non-cold misses.
PERCENTS = (5.0, 10.0, 20.0)

#: PowerStone build scale; 593k references over the 24 traces.
SCALE = "large"

#: Traces whose answers are spot-checked against the LRU simulator.
SIMULATED_TRACES = 4

#: ``session-stream`` shape.
STREAM_BITS = 16
STREAM_FOOTPRINT = 1024
STREAM_LOCALITY = 0.9
CHUNK_REFS = 1000
SESSION_OPS = 30
STREAM_BUDGETS = (1000, 5000, 20000)
CHECKPOINT_EVERY = 10
CHECKED_PREFIXES = 3

#: Seconds allowed for building the trace files.
TRACE_BUILD_TIMEOUT = 120.0

#: Seconds to wait for the daemon's listening line, and for it to stop.
DAEMON_START_TIMEOUT = 60.0
DAEMON_STOP_TIMEOUT = 60.0


def write_powerstone_traces(directory: str) -> None:
    """Write the 24 PowerStone traces (12 kernels, data and instruction)."""
    from repro.trace.io import write_trace
    from repro.workloads.registry import WORKLOAD_NAMES, run_workload_by_name

    os.makedirs(directory)
    for name in WORKLOAD_NAMES:
        run = run_workload_by_name(name, SCALE)
        write_trace(run.data_trace, os.path.join(directory, f"{name}.data.din"))
        write_trace(run.instruction_trace, os.path.join(directory, f"{name}.inst.din"))


def powerstone_trace_files(directory: str) -> List[str]:
    """Build the PowerStone trace files in a separate process; their paths."""
    subprocess.run(
        [sys.executable, os.path.abspath(__file__), directory],
        check=True,
        timeout=TRACE_BUILD_TIMEOUT,
    )
    return sorted(os.path.join(directory, entry) for entry in os.listdir(directory))


def simulated_problems(trace, report, checker: random.Random) -> List[str]:
    """Check one sampled cell of ``report`` against the LRU simulator.

    At a sampled ``(D, A*)`` the simulated non-cold misses must equal the
    reported ones and meet the budget; at ``(D, A*-1)`` they must not.
    """
    from repro.cache import CacheConfig, simulate_trace

    result = checker.choice(report.results)
    cell = checker.randrange(len(result.instances))
    depth = result.instances[cell].depth
    assoc = result.instances[cell].associativity
    problems = []
    misses = simulate_trace(trace, CacheConfig(depth, assoc)).non_cold_misses
    if misses != result.misses[cell] or misses > result.budget:
        problems.append(
            f"D={depth} A*={assoc} simulates {misses} misses, "
            f"reported {result.misses[cell]}, budget {result.budget}"
        )
    if assoc > 1:
        below = simulate_trace(trace, CacheConfig(depth, assoc - 1)).non_cold_misses
        if below <= result.budget:
            problems.append(
                f"D={depth} A*-1={assoc - 1} meets budget {result.budget} "
                f"({below} misses), so A* is not minimal"
            )
    return problems


def _report_digest(report, drop_store: bool = False) -> str:
    """SHA-256 of the report's canonical JSON (optionally minus ``store``)."""
    document = report.to_json_dict()
    if drop_store:
        document.pop("store", None)
    text = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class Workload:
    """State shared by every workload: work dir, seed and the op log."""

    name = ""

    def __init__(self, workdir: str, seed: int, span_dir: Optional[str]) -> None:
        self.workdir = workdir
        self.seed = seed
        self.span_dir = span_dir
        self.rng = random.Random(seed)
        #: Timed ops started, whether or not they returned an answer.
        self.attempted = 0
        #: Wall seconds of each timed op that returned an answer.  An op
        #: that raised is counted in ``attempted`` and as failed only.
        self.latencies: List[float] = []
        #: Trace references each answered op covered.
        self.refs: List[int] = []
        #: Host-speed kernel wall timed just before each answered op.
        self.kernel_s: List[float] = []
        #: ``(start, end)`` of the timed loop (``perf_counter``).
        self.window: Tuple[float, float] = (0.0, 0.0)

    def setup(self) -> None:
        raise NotImplementedError

    def run(self, seconds: float, min_ops: int) -> None:
        """Time ops until ``seconds`` have passed and ``min_ops`` ran."""
        raise NotImplementedError

    def measured_pids(self) -> List[int]:
        """Processes whose peak RSS is the workload's (this one here)."""
        return [os.getpid()]

    def reset_peak_rss(self) -> None:
        """Restart the peak-RSS count of :meth:`measured_pids` from their
        current RSS, so the peak covers the timed loop, not set-up."""
        for pid in self.measured_pids():
            with open(f"/proc/{pid}/clear_refs", "w", encoding="ascii") as fh:
                fh.write("5")

    def peak_rss_mb(self) -> float:
        """Summed peak RSS of :meth:`measured_pids` since the reset."""
        return sum(vm_hwm_mb(pid) for pid in self.measured_pids())

    def check(self) -> Tuple[int, List[str]]:
        """``(failed ops, problems)``; a wrong answer is a failed op."""
        raise NotImplementedError

    def extras(self) -> Dict[str, float]:
        """Workload-specific numbers for the traced run."""
        return {}

    def close(self) -> None:
        pass

    def _done(self, start: float, seconds: float, min_ops: int) -> bool:
        return time.perf_counter() - start >= seconds and self.attempted >= min_ops

    def _timed(self, op: Callable[[], object], refs: int):
        """Run one timed op, after one run of the host-speed kernel; its
        answer, or ``None`` if it raised."""
        self.attempted += 1
        kernel_s = host_kernel_s()
        start = time.perf_counter()
        try:
            answer = op()
        except Exception as exc:  # a failed op is counted, not fatal
            print(f"{self.name}: op {self.attempted}: {exc!r}", file=sys.stderr)
            return None
        self.latencies.append(time.perf_counter() - start)
        self.refs.append(refs)
        self.kernel_s.append(kernel_s)
        return answer


class ColdSuite(Workload):
    """``explore_request`` over the 24 PowerStone trace files, cold store.

    An op reads one ``.din`` file and explores it.  A pass explores every
    trace once, in a seed-shuffled order, against a fresh empty on-disk
    store; passes repeat until the time is up.  Only whole passes run, so
    every trace weighs the same in the percentiles.
    """

    name = "cold-suite"

    def setup(self) -> None:
        from repro.trace import io as trace_io

        self.paths = powerstone_trace_files(os.path.join(self.workdir, "traces"))
        self.passes = 0
        self.lengths: Dict[str, int] = {}
        #: Warm-up answers every later pass must repeat byte for byte.
        self.reference: Dict[str, str] = {}
        self.reference_reports = {}
        root = self._fresh_store()
        for path in self.paths:
            trace = trace_io.read_trace(path)
            report = self._explore(trace, root)
            self.lengths[path] = len(trace)
            self.reference[path] = _report_digest(report)
            self.reference_reports[path] = report
        shutil.rmtree(root, ignore_errors=True)
        #: ``(path, answer digest or None)`` of every timed op.
        self.answers: List[Tuple[str, Optional[str]]] = []

    def _fresh_store(self) -> str:
        root = os.path.join(self.workdir, f"store-{self.passes}")
        self.passes += 1
        return root

    @staticmethod
    def _explore(trace, root: str):
        from repro.core import request as core_request
        from repro.store import fs as store_fs

        return core_request.explore_request(
            core_request.ExplorationRequest.single(
                trace, percents=PERCENTS, store=store_fs.ArtifactStore(root)
            )
        )

    def run(self, seconds: float, min_ops: int) -> None:
        from repro.trace import io as trace_io

        start = time.perf_counter()
        while not self._done(start, seconds, min_ops):
            root = self._fresh_store()
            for path in self.rng.sample(self.paths, len(self.paths)):
                report = self._timed(
                    lambda: self._explore(trace_io.read_trace(path), root),
                    self.lengths[path],
                )
                self.answers.append(
                    (path, None if report is None else _report_digest(report))
                )
            shutil.rmtree(root, ignore_errors=True)
        self.window = (start, time.perf_counter())

    def check(self) -> Tuple[int, List[str]]:
        from repro.trace import io as trace_io

        problems = []
        wrong = set()
        checker = random.Random(f"{self.seed}/check")
        for path in checker.sample(self.paths, SIMULATED_TRACES):
            found = simulated_problems(
                trace_io.read_trace(path), self.reference_reports[path], checker
            )
            if found:
                wrong.add(path)
                label = os.path.basename(path)
                problems += [f"{label}: {problem}" for problem in found]
        differing = sum(answer != self.reference[path] for path, answer in self.answers)
        if differing:
            problems.append(f"{differing} ops differ from the warm-up pass")
        failed = sum(
            answer != self.reference[path] or path in wrong
            for path, answer in self.answers
        )
        return failed, problems


class WarmServe(Workload):
    """Repeat requests against a ``repro serve`` daemon with a primed store.

    The daemon runs as its own process with one process-pool worker.
    Its store holds every trace's histograms before the loop starts, so
    each answer is a store hit: the time goes to the wire, the pool hop
    and store reads.  One client, one connection at a time, closed loop.
    """

    name = "warm-serve"

    def setup(self) -> None:
        from repro.core import request as core_request
        from repro.serve import protocol
        from repro.serve.client import ServeClient
        from repro.store import fs as store_fs
        from repro.trace import io as trace_io

        traces = [
            trace_io.read_trace(path)
            for path in powerstone_trace_files(os.path.join(self.workdir, "traces"))
        ]
        self.requests = [
            core_request.ExplorationRequest.single(trace, percents=PERCENTS)
            for trace in traces
        ]
        self.lengths = [len(trace) for trace in traces]
        store_root = os.path.join(self.workdir, "store")
        self.daemon = self._start_daemon(store_root)
        # Prime the store while the daemon boots, with exactly the
        # requests the daemon decodes from the wire.  These cold answers
        # are also what every warm answer is checked against.
        self.cold = []
        for request in self.requests:
            decoded = protocol.request_from_wire(protocol.request_to_wire(request))
            primed = core_request.ExplorationRequest.single(
                decoded.traces[0],
                percents=PERCENTS,
                store=store_fs.ArtifactStore(store_root),
            )
            self.cold.append((decoded.traces[0], core_request.explore_request(primed)))
        self.expected = [_report_digest(report, drop_store=True) for _, report in self.cold]
        self.client = ServeClient("127.0.0.1", self._wait_for_port(), timeout=120)
        self.client.health()
        self.warmup = []
        for index, request in enumerate(self.requests):
            report = self.client.explore(request)
            if report.store_stats.get("misses", 0):
                raise RuntimeError(
                    f"warm-up request {index} missed the primed store: "
                    f"{report.store_stats}"
                )
            self.warmup.append(_report_digest(report, drop_store=True))
        self.answers: List[Tuple[int, Optional[str]]] = []

    def _start_daemon(self, store_root: str) -> subprocess.Popen:
        serve_args = [
            "serve", "--host", "127.0.0.1", "--port", "0",
            "--workers", "1", "--cache-dir", store_root,
        ]
        if self.span_dir is None:
            command = [sys.executable, "-m", "repro.cli"] + serve_args
        else:
            launcher = os.path.join(os.path.dirname(__file__), "traced_serve.py")
            command = [sys.executable, launcher, self.span_dir] + serve_args
        self.log_path = os.path.join(self.workdir, "daemon.log")
        with open(self.log_path, "w", encoding="utf-8") as log:
            return subprocess.Popen(command, stdout=subprocess.DEVNULL, stderr=log)

    def _wait_for_port(self) -> int:
        deadline = time.monotonic() + DAEMON_START_TIMEOUT
        while time.monotonic() < deadline:
            with open(self.log_path, encoding="utf-8") as log:
                match = re.search(r"listening on http://[^:]+:(\d+)", log.read())
            if match:
                return int(match.group(1))
            if self.daemon.poll() is not None:
                break
            time.sleep(0.02)
        with open(self.log_path, encoding="utf-8") as log:
            raise RuntimeError(f"daemon did not start:\n{log.read()}")

    def run(self, seconds: float, min_ops: int) -> None:
        self.metrics_before = self.client.metrics()
        start = time.perf_counter()
        while not self._done(start, seconds, min_ops):
            for index in self.rng.sample(range(len(self.requests)), len(self.requests)):
                report = self._timed(
                    lambda: self.client.explore(self.requests[index]),
                    self.lengths[index],
                )
                self.answers.append(
                    (index, None if report is None else _report_digest(report, True))
                )
        self.window = (start, time.perf_counter())
        self.metrics_after = self.client.metrics()

    def measured_pids(self) -> List[int]:
        """The daemon and its pool worker."""
        return [self.daemon.pid] + child_pids(self.daemon.pid)

    def check(self) -> Tuple[int, List[str]]:
        problems = []
        wrong = set()
        checker = random.Random(f"{self.seed}/check")
        for index in checker.sample(range(len(self.cold)), SIMULATED_TRACES):
            found = simulated_problems(*self.cold[index], checker)
            if found:
                wrong.add(index)
                problems += [f"request {index}: {problem}" for problem in found]
        differing = sum(answer != self.expected[index] for index, answer in self.answers)
        if differing:
            problems.append(
                f"{differing} served answers differ from in-process cold answers"
            )
        failed = sum(
            answer != self.expected[index] or index in wrong
            for index, answer in self.answers
        )
        if self.warmup != self.expected:
            problems.append("warm-up answers differ from in-process cold answers")
        return failed, problems

    def extras(self) -> Dict[str, float]:
        return {
            key: self.metrics_after.get(f"serve_{key}_total", 0.0)
            - self.metrics_before.get(f"serve_{key}_total", 0.0)
            for key in ("requests", "computations", "dedup_hits")
        }

    def close(self) -> None:
        daemon = getattr(self, "daemon", None)
        if daemon is None or daemon.poll() is not None:
            return
        daemon.send_signal(signal.SIGTERM)
        try:
            daemon.wait(timeout=DAEMON_STOP_TIMEOUT)
        except subprocess.TimeoutExpired:
            daemon.kill()
            daemon.wait()


class SessionStream(Workload):
    """In-process trace sessions fed a seeded Markov stream.

    Each op appends a 1000-reference chunk and explores three budgets;
    every tenth op also checkpoints into an on-disk store.  A session
    lives for :data:`SESSION_OPS` appends, then a fresh one starts on the
    next stretch of the stream.  Only whole sessions run, so the cost of
    an op does not depend on how many ops the host managed to run.
    """

    name = "session-stream"

    def setup(self) -> None:
        from repro.store import fs as store_fs
        from repro.stream import TraceSession

        warm_root = os.path.join(self.workdir, "warm-store")
        warm = TraceSession(STREAM_BITS, store=store_fs.ArtifactStore(warm_root))
        for chunk in self._stream(-1)[:CHECKPOINT_EVERY]:
            warm.append(chunk)
            warm.explore_many(STREAM_BUDGETS)
        warm.checkpoint()
        shutil.rmtree(warm_root, ignore_errors=True)
        self.store_root = os.path.join(self.workdir, "store")
        self.stream = self._stream(0)
        #: Per session: the answers after each op (``None`` if it raised).
        self.answers: List[List[Optional[Dict]]] = []

    def _stream(self, index: int) -> List:
        """The chunks of session ``index``'s stretch of the stream.

        Made again from the seed when checked, so no stretch is held.
        """
        from repro.trace.synthetic import markov_trace

        addresses = markov_trace(
            SESSION_OPS * CHUNK_REFS,
            STREAM_FOOTPRINT,
            locality=STREAM_LOCALITY,
            seed=random.Random(f"{self.seed}/{index}").getrandbits(63),
            address_bits=STREAM_BITS,
        ).addresses
        return [
            addresses[op * CHUNK_REFS : (op + 1) * CHUNK_REFS]
            for op in range(SESSION_OPS)
        ]

    def _op(self, chunk, index: int):
        self.session.append(chunk)
        found = self.session.explore_many(STREAM_BUDGETS)
        if (index + 1) % CHECKPOINT_EVERY == 0:
            self.session.checkpoint()
        return found

    def run(self, seconds: float, min_ops: int) -> None:
        from repro.store import fs as store_fs
        from repro.stream import TraceSession

        start = time.perf_counter()
        while not self._done(start, seconds, min_ops):
            if self.answers:
                self.stream = self._stream(len(self.answers))
            self.session = TraceSession(
                STREAM_BITS, store=store_fs.ArtifactStore(self.store_root)
            )
            answers = []
            for index, chunk in enumerate(self.stream):
                found = self._timed(lambda: self._op(chunk, index), len(chunk))
                answers.append(None if found is None else _normalize(found))
            self.answers.append(answers)
        self.window = (start, time.perf_counter())

    def check(self) -> Tuple[int, List[str]]:
        from array import array

        from repro.core import engines
        from repro.core import request as core_request
        from repro.store import fs as store_fs
        from repro.stream import TraceSession
        from repro.trace.trace import Trace

        problems = []
        failed = sum(answer is None for answers in self.answers for answer in answers)
        checker = random.Random(f"{self.seed}/check")
        checked = [(len(self.answers) - 1, SESSION_OPS - 1)] + [
            (checker.randrange(len(self.answers)), checker.randrange(SESSION_OPS))
            for _ in range(CHECKED_PREFIXES - 1)
        ]
        for session, op in checked:
            prefix = array("q")
            for chunk in self._stream(session)[: op + 1]:
                prefix.extend(chunk)
            batch = core_request.explore_request(
                core_request.ExplorationRequest.single(
                    Trace(prefix, address_bits=STREAM_BITS),
                    budgets=STREAM_BUDGETS,
                    max_depth=1 << STREAM_BITS,
                )
            )
            expected = {
                result.budget: [
                    (inst.depth, inst.associativity) for inst in result.instances
                ]
                for result in batch.results
            }
            if self.answers[session][op] != expected:
                failed += 1
                problems.append(
                    f"session {session} op {op}: answers differ from batch"
                )
            if (session, op) == checked[0]:
                trace = Trace(prefix, address_bits=STREAM_BITS)
                found = simulated_problems(trace, batch, checker)
                batch_histograms = engines.compute_histograms(
                    "auto", engines.EngineInputs(trace), max_level=STREAM_BITS
                )
                if _counts(batch_histograms) != _counts(self.session.histograms()):
                    found.append("histograms differ from the batch engine")
                failed += bool(found)
                problems += [f"session {session} op {op}: {problem}" for problem in found]
        digest = self.session.checkpoint()
        resumed = TraceSession.resume(store_fs.ArtifactStore(self.store_root), digest)
        live = self.session
        if (
            resumed is None
            or (resumed.total_refs, resumed.unique_refs)
            != (live.total_refs, live.unique_refs)
            or _normalize(resumed.explore_many(STREAM_BUDGETS))
            != _normalize(live.explore_many(STREAM_BUDGETS))
        ):
            problems.append("resume from the last checkpoint differs from the live session")
        return failed, problems

    def extras(self) -> Dict[str, float]:
        return {"unique_refs": float(self.session.unique_refs)}


def _counts(histograms) -> Dict[int, Dict[int, int]]:
    return {level: dict(histogram.counts) for level, histogram in histograms.items()}


def _normalize(answers) -> Dict[int, List[Tuple[int, int]]]:
    return {
        budget: [(inst.depth, inst.associativity) for inst in instances]
        for budget, instances in answers.items()
    }


WORKLOADS = {cls.name: cls for cls in (ColdSuite, WarmServe, SessionStream)}


if __name__ == "__main__":
    write_powerstone_traces(sys.argv[1])
