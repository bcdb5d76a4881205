"""Shared pieces of the benchmark: percentiles, memory, host speed,
metric hygiene."""

from __future__ import annotations

import math
import os
import random
import re
import time
from collections import OrderedDict
from typing import Dict, List, Sequence

import numpy as np

#: Every measured run times at least this many ops, so that p90 has at
#: least ten samples beyond it.
MIN_OPS = 100

#: Percentiles reported as ``latency_p<P>_s``.
PERCENTILES = (50, 90)

#: A percentile metric's name, e.g. ``latency_p90_s``.
PERCENTILE_NAME = re.compile(r"_p(\d+)(?:_|$)")

#: Samples a percentile needs beyond it to be reported.
MIN_BEYOND = 10


#: Host-speed kernel wall, in seconds, that defines one reference
#: second: about its median on the 2-core host.
REFERENCE_KERNEL_S = 0.0018

_KERNEL_RNG = random.Random(12345)
_KERNEL_TEXT = "\n".join(
    f"{_KERNEL_RNG.randrange(3)} {_KERNEL_RNG.randrange(1 << 20):x}"
    for _ in range(1500)
)
_KERNEL_ADDRESSES = [_KERNEL_RNG.randrange(256) for _ in range(3000)]
_KERNEL_ARRAY = np.random.default_rng(12345).integers(0, 1 << 16, size=40000)


def _host_kernel() -> int:
    """Fixed work in the program's mix: text parsing, an LRU stack, NumPy."""
    total = 0
    for line in _KERNEL_TEXT.split("\n"):
        total += int(line.split()[1], 16)
    stack: OrderedDict = OrderedDict()
    for address in _KERNEL_ADDRESSES:
        if address in stack:
            stack.move_to_end(address)
        else:
            stack[address] = None
    ordered = np.sort(_KERNEL_ARRAY)
    return total + len(stack) + int(np.cumsum(np.bincount(ordered & 0xFFF))[-1])


def host_kernel_s() -> float:
    """Wall seconds of one run of the host-speed kernel, timed now.

    The shared host's speed drifts up to 2x for minutes at a time, and
    the program's op walls follow it.  A wall ``w`` timed next to a
    kernel wall ``k`` is reported as ``w * REFERENCE_KERNEL_S / k``
    reference seconds (see :func:`reference_seconds`).

    An untimed run goes first.  It brings the kernel's data back into
    the CPU caches, so the timed run does not depend on how much the
    program's work before it disturbed them.
    """
    _host_kernel()
    start = time.perf_counter()
    _host_kernel()
    return time.perf_counter() - start


def reference_seconds(wall_s: float, kernel_s: float) -> float:
    """``wall_s`` measured while the kernel took ``kernel_s``, in
    reference seconds."""
    return wall_s * REFERENCE_KERNEL_S / kernel_s


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile: the smallest value with ``p``% at or below."""
    if not values:
        raise ValueError("no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(count: int, p: float) -> int:
    """Samples ranked strictly after the nearest-rank ``p``-th percentile."""
    return count - max(1, math.ceil(p / 100.0 * count))


def vm_hwm_mb(pid: int) -> float:
    """Peak resident set size (``VmHWM``) of a live process, in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def child_pids(pid: int) -> List[int]:
    """Direct children of ``pid`` (scans ``/proc``)."""
    children = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii") as fh:
                stat = fh.read()
        except OSError:
            continue
        # Field 4 (ppid) follows the parenthesised command name.
        if int(stat.rsplit(")", 1)[1].split()[1]) == pid:
            children.append(int(entry))
    return children


def hygiene_problems(
    metrics: Dict[str, Dict], samples: Dict[str, int], distinct: bool = True
) -> List[str]:
    """What makes a result's metrics untrustworthy; empty when clean.

    Args:
        metrics: ``{name: {"value": v, "unit": u}}`` as printed.
        samples: sample count behind each percentile metric.
        distinct: require that no metric's value copies another's (the
            end-to-end set; per-layer metrics of layers a workload never
            enters are all 0).

    Checks that every metric carries a unit and a finite number, and that
    every percentile names its sample count and has at least
    :data:`MIN_BEYOND` samples beyond it.
    """
    problems = []
    for name, metric in metrics.items():
        unit = metric.get("unit")
        value = metric.get("value")
        if not isinstance(unit, str) or not unit:
            problems.append(f"{name}: no unit")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{name}: value {value!r} is not a finite number")
    names = sorted(metrics)
    for i, first in enumerate(names):
        for second in names[i + 1 :] if distinct else ():
            if metrics[first].get("value") == metrics[second].get("value"):
                problems.append(f"{first} copies {second}")
    for name in names:
        match = PERCENTILE_NAME.search(name)
        if match is None:
            continue
        p = float(match.group(1))
        count = samples.get(name)
        if count is None:
            problems.append(f"{name}: no sample count")
        elif samples_beyond(count, p) < MIN_BEYOND:
            problems.append(
                f"{name}: {samples_beyond(count, p)} samples beyond p{p:g} "
                f"(n={count}), need {MIN_BEYOND}"
            )
    return problems
