"""Trace transformations.

Utilities for reshaping traces before analysis: address remapping (the
lever a data-layout optimizer pulls), base offsetting, region filtering
and region splitting.  All transformations preserve reference order and
access kinds.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

from repro.trace.trace import Trace


def offset_addresses(trace: Trace, offset: int, name: str = "") -> Trace:
    """Add a constant to every address (relocate a buffer).

    Raises:
        ValueError: if any address would become negative.
    """
    addresses = [addr + offset for addr in trace]
    if addresses and min(addresses) < 0:
        raise ValueError(f"offset {offset} drives addresses negative")
    return Trace(
        addresses,
        kinds=trace.kind_labels,
        name=name or trace.name,
    )


def remap_addresses(
    trace: Trace,
    mapping: Dict[int, int],
    name: str = "",
    strict: bool = False,
) -> Trace:
    """Rewrite addresses through a mapping (identity where unmapped).

    This is the layout-optimization primitive: move the conflicting
    addresses the analyzer identified and re-analyze.

    Args:
        mapping: old address -> new address.
        strict: raise for addresses missing from the mapping instead of
            passing them through unchanged.
    """
    addresses: List[int] = []
    for addr in trace:
        if addr in mapping:
            addresses.append(mapping[addr])
        elif strict:
            raise KeyError(f"address {addr:#x} missing from mapping")
        else:
            addresses.append(addr)
    if addresses and min(addresses) < 0:
        raise ValueError("mapping produces negative addresses")
    return Trace(addresses, kinds=trace.kind_labels, name=name or trace.name)


def filter_address_range(
    trace: Trace, low: int, high: int, name: str = ""
) -> Trace:
    """Keep only references with ``low <= address < high``."""
    if low > high:
        raise ValueError(f"empty range: [{low}, {high})")
    indices = [i for i, addr in enumerate(trace) if low <= addr < high]
    return _pick(trace, indices, name or trace.name)


def split_at_address(trace: Trace, boundary: int) -> Tuple[Trace, Trace]:
    """Split into (below, at-or-above) the boundary — e.g. code vs data."""
    below = filter_address_range(trace, 0, boundary, name=f"{trace.name}/lo")
    above_indices = [i for i, addr in enumerate(trace) if addr >= boundary]
    return below, _pick(trace, above_indices, f"{trace.name}/hi")


def _pick(trace: Trace, indices: List[int], name: str) -> Trace:
    """The references at ``indices``, with their kind labels, as a trace
    of the same address width."""
    labels = trace.kind_labels
    return Trace(
        (trace[i] for i in indices),
        address_bits=trace.address_bits,
        kinds=None if labels is None else bytes(labels[i] for i in indices),
        name=name,
    )


def map_addresses(
    trace: Trace, function: Callable[[int], int], name: str = ""
) -> Trace:
    """Apply an arbitrary address function (e.g. ``lambda a: a ^ 0x40``)."""
    addresses = [function(addr) for addr in trace]
    if addresses and min(addresses) < 0:
        raise ValueError("function produces negative addresses")
    return Trace(addresses, kinds=trace.kind_labels, name=name or trace.name)
