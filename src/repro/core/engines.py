"""Postlude engine registry: one dispatch point for every implementation.

Two interchangeable engines turn a trace into the per-level conflict
histograms of the paper's Algorithm 3 — serial bigints and a NumPy
bit-matrix kernel.  Callers (the explorer, the CLI, the benchmark
harness) should not hard-code that list; they select an engine *by
name* here and new engines become visible everywhere by registering a
single :class:`EngineSpec`.

Names
-----

``serial``
    The reference implementation
    (:func:`repro.core.postlude.compute_level_histograms`).  Every other
    engine is tested bit-identical against it.  ``bitmask`` is accepted
    as a legacy alias.
``vectorized``
    NumPy ``uint64`` bit-matrix kernel (:mod:`repro.core.vectorized`);
    falls back to ``serial`` when NumPy is missing.  It always walks the
    packed conflict bit-matrix (:attr:`EngineInputs.packed_mrct`): the
    fast prelude emits it directly, skipping the bigint MRCT entirely,
    and the ``python`` prelude packs its bigint MRCT.  The retired
    engine names ``parallel``, ``parallel-shm`` and ``streaming`` are
    legacy aliases: none of them ever beat this kernel (DESIGN §5.9).
``auto``
    ``vectorized`` wherever NumPy is importable, ``serial`` where it is
    not; the trace is never consulted.  Every engine returns the same
    histograms, and ``vectorized`` beat ``serial`` on all 24 PowerStone
    traces under both preludes (DESIGN §5.1), so no size threshold
    picks ``serial`` any more.

All engines consume the same :class:`EngineInputs` bundle, which builds
the prelude products (stripped trace, zero/one sets, MRCT and packed
MRCT) from the trace lazily and exactly once, so switching engines never
repeats the prelude.  The ``prelude`` mode selects the
builders: ``python`` the paper-faithful reference builders, ``auto``
(``fast`` is a synonym) the NumPy kernels at every trace size, or the
pure-Python fallbacks without NumPy.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from repro.core.mrct import MRCT, build_mrct
from repro.core.postlude import (
    LevelHistogram,
    compute_level_histograms,
    validate_max_level,
)
from repro.core.zerosets import ZeroOneSets, build_zero_one_sets
from repro.obs.recorder import NULL_RECORDER
from repro.trace.strip import StrippedTrace, strip_trace
from repro.trace.trace import Trace

#: Engine selected when the caller does not choose one.
AUTO_ENGINE = "auto"

#: Prelude builder modes accepted by :class:`EngineInputs`.  ``fast``
#: is kept as a synonym of ``auto``: both run the same builders.
PRELUDE_MODES = ("auto", "fast", "python")

#: Legacy names still accepted everywhere an engine name is.  The three
#: retired engines answer through ``vectorized``: their histograms were
#: bit-identical to it, and it was faster on every measured trace.
ALIASES = {
    "bitmask": "serial",
    "parallel": "vectorized",
    "parallel-shm": "vectorized",
    "streaming": "vectorized",
}


class EngineInputs:
    """Lazily built prelude products shared by every engine.

    One instance per trace; each stage (strip, zero/one sets, MRCT,
    packed MRCT) is built from the trace on first access and cached, so
    engines can be re-run or compared without re-running the prelude
    (the benchmark harness touches the stages it needs before timing
    the postlude alone).

    When an :class:`repro.store.ArtifactStore` is attached, the
    histograms — what every answer is read from — are looked up in the
    store first (content-addressed by the trace digest) and persisted
    when computed, so a second exploration of the same trace — any
    process, any engine — skips the prelude and the postlude.  The
    prelude products themselves are never stored: they are rebuilt
    from the trace whenever a histograms key misses.

    Args:
        trace: the raw trace.
        recorder: a :class:`repro.obs.Recorder` that each lazily built
            stage reports itself to; defaults to the no-op recorder.
        store: optional :class:`repro.store.ArtifactStore`.
        prelude: which builders construct the prelude products —
            ``"python"`` (the paper-faithful reference builders only)
            or ``"auto"``/``"fast"`` (synonyms: the NumPy kernels at
            every size, the pure-Python fallbacks without NumPy).
            Every mode produces identical products.
    """

    def __init__(
        self,
        trace: Trace,
        recorder=NULL_RECORDER,
        store=None,
        prelude: str = "auto",
    ) -> None:
        if prelude not in PRELUDE_MODES:
            raise ValueError(
                f"unknown prelude mode {prelude!r}; expected one of {PRELUDE_MODES}"
            )
        self.trace = trace
        self.recorder = recorder
        self.store = store
        self.prelude = prelude
        self._stripped: Optional[StrippedTrace] = None
        self._zerosets: Optional[ZeroOneSets] = None
        self._mrct: Optional[MRCT] = None
        self._packed_mrct = None
        self._trace_digest: Optional[str] = None

    @property
    def trace_digest(self) -> str:
        """Content digest of the raw trace."""
        if self._trace_digest is None:
            from repro.store.keys import trace_digest

            self._trace_digest = trace_digest(self.trace)
        return self._trace_digest

    def _histograms_key(self, level_key):
        """Artifact key of the histograms entry for one ``max_level`` key."""
        from repro.store.codec import HISTOGRAMS_CODEC
        from repro.store.keys import ArtifactKey

        return ArtifactKey.for_stage(
            self.trace_digest,
            HISTOGRAMS_CODEC.stage,
            HISTOGRAMS_CODEC.version,
            max_level=level_key,
        )

    def _get_histograms(self, level_key) -> Optional[Dict[int, LevelHistogram]]:
        from repro.store.codec import HISTOGRAMS_CODEC

        return self.store.get(
            self._histograms_key(level_key),
            HISTOGRAMS_CODEC,
            recorder=self.recorder,
        )

    def load_histograms(
        self, max_level: Optional[int] = None
    ) -> Optional[Dict[int, LevelHistogram]]:
        """Stored per-level histograms for this trace, or ``None``.

        Histogram entries are engine-independent (every engine is
        differentially tested bit-identical), keyed only by
        ``max_level``.  A bounded request that misses its exact key
        falls back to the ``full`` entry and truncates it — levels
        ``0..max_level`` of the full result are exactly the bounded
        computation.
        """
        if self.store is None:
            return None
        exact = self._get_histograms(self._histogram_level_key(max_level))
        if exact is not None or max_level is None:
            return exact
        full = self._get_histograms("full")
        if full is None:
            return None
        return {
            level: histogram
            for level, histogram in full.items()
            if level <= max_level
        }

    def histograms_stored(self, max_level: Optional[int] = None) -> bool:
        """Whether the store holds an entry :meth:`load_histograms`
        would read (the exact ``max_level`` key, or ``full``).  Checks
        presence only: nothing is read, decoded or counted."""
        if self.store is None:
            return False
        return any(
            self.store.contains(self._histograms_key(level))
            for level in {self._histogram_level_key(max_level), "full"}
        )

    def save_histograms(
        self,
        histograms: Dict[int, LevelHistogram],
        max_level: Optional[int] = None,
    ) -> None:
        """Persist per-level histograms under their ``max_level`` key
        (no-op without a store)."""
        if self.store is None:
            return
        from repro.store.codec import HISTOGRAMS_CODEC

        self.store.put(
            self._histograms_key(self._histogram_level_key(max_level)),
            HISTOGRAMS_CODEC,
            histograms,
            recorder=self.recorder,
        )

    @staticmethod
    def _histogram_level_key(max_level: Optional[int]):
        """The store key parameter for a ``max_level`` bound.

        Validates the bound even here: an unvalidated negative level
        must never be persisted as a legitimate-looking store key.
        """
        max_level = validate_max_level(max_level)
        return "full" if max_level is None else int(max_level)

    @property
    def stripped(self) -> StrippedTrace:
        if self._stripped is None:
            with self.recorder.phase("prelude:strip"):
                self._stripped = self._strip(self.trace)
                self.recorder.record("trace_refs", self._stripped.n)
                self.recorder.record("unique_refs", self._stripped.n_unique)
        return self._stripped

    def _strip(self, trace: Trace) -> StrippedTrace:
        """Run the strip builder selected by the prelude mode."""
        if self.prelude == "python":
            return strip_trace(trace)
        from repro.trace.strip import strip_trace_auto

        return strip_trace_auto(trace)

    def _build_zerosets(self, stripped: StrippedTrace) -> ZeroOneSets:
        """Run the zero/one-set builder selected by the prelude mode."""
        from repro.core.vectorized import numpy_available

        if self.prelude == "python" or not numpy_available():
            return build_zero_one_sets(stripped)
        from repro.core.zerosets import build_zero_one_sets_numpy

        return build_zero_one_sets_numpy(stripped)

    def _build_mrct(self, stripped: StrippedTrace) -> MRCT:
        """Run the MRCT builder selected by the prelude mode."""
        if self.prelude == "python":
            return build_mrct(stripped)
        from repro.core.prelude_fast import build_mrct_auto

        return build_mrct_auto(stripped)

    @property
    def zerosets(self) -> ZeroOneSets:
        if self._zerosets is None:
            stripped = self.stripped
            with self.recorder.phase("prelude:zerosets"):
                self._zerosets = self._build_zerosets(stripped)
        return self._zerosets

    @property
    def mrct(self) -> MRCT:
        if self._mrct is None:
            stripped = self.stripped
            with self.recorder.phase("prelude:mrct"):
                self._mrct = self._build_mrct(stripped)
                self.recorder.record(
                    "conflict_sets", self._mrct.total_conflict_sets
                )
        return self._mrct

    @property
    def packed_mrct(self):
        """The packed conflict bit-matrix the vectorized engine walks.

        The prelude mode alone picks the builder: ``python`` packs the
        bigint :attr:`mrct` (:func:`repro.core.prelude_fast.pack_mrct`);
        ``auto``/``fast`` emit it straight from the stripped trace
        (:func:`repro.core.prelude_fast.build_packed_mrct`), never
        materializing the bigint MRCT.  Requires NumPy; callers gate on
        :func:`repro.core.vectorized.numpy_available`.
        """
        if self._packed_mrct is None:
            from repro.core.prelude_fast import build_packed_mrct, pack_mrct

            stripped = self.stripped
            mrct = self.mrct if self.prelude == "python" else None
            with self.recorder.phase("prelude:packed-mrct"):
                if mrct is None:
                    packed = build_packed_mrct(stripped, recorder=self.recorder)
                else:
                    packed = pack_mrct(
                        mrct, stripped.unique_addresses, stripped.address_bits
                    )
                self.recorder.record("conflict_sets", packed.total_conflict_sets)
                self.recorder.record("packed_rows", packed.n_rows)
            self._packed_mrct = packed
        return self._packed_mrct


Runner = Callable[..., Dict[int, LevelHistogram]]


@dataclass(frozen=True)
class EngineSpec:
    """A registered histogram engine.

    Attributes:
        name: canonical registry key.
        summary: one-line description (shown by ``repro engines``).
        memory: qualitative working-set note for the selection table.
        best_for: when to pick this engine.
        runner: callable ``runner(inputs, max_level=None)`` returning
            the per-level histograms.
        requires_numpy: True when the fast path needs NumPy (the engine
            must still *work* without it, falling back internally).
    """

    name: str
    summary: str
    memory: str
    best_for: str
    runner: Runner
    requires_numpy: bool = False

    def available(self) -> bool:
        """True when the engine's fast path can run in this interpreter."""
        if not self.requires_numpy:
            return True
        from repro.core.vectorized import numpy_available

        return numpy_available()

    def compute(
        self,
        inputs: EngineInputs,
        max_level: Optional[int] = None,
    ) -> Dict[int, LevelHistogram]:
        """Run this engine on the given prelude products.

        When the inputs carry an artifact store, a stored histogram
        entry for this trace short-circuits the run entirely — every
        engine is bit-identical, so a hit written by any engine serves
        every engine.

        Raises:
            ValueError: for a negative ``max_level`` (every engine
                rejects it identically, before the store is consulted).
        """
        max_level = validate_max_level(max_level)
        recorder = inputs.recorder
        cached = inputs.load_histograms(max_level)
        if cached is not None:
            if recorder.enabled:
                recorder.record("histogram_levels", len(cached))
                recorder.record(
                    "histogram_occurrences",
                    sum(sum(h.counts.values()) for h in cached.values()),
                )
            return cached
        with recorder.phase(f"engine:{self.name}"):
            histograms = self.runner(inputs, max_level=max_level)
            if recorder.enabled:
                recorder.record("histogram_levels", len(histograms))
                recorder.record(
                    "histogram_occurrences",
                    sum(sum(h.counts.values()) for h in histograms.values()),
                )
        inputs.save_histograms(histograms, max_level)
        return histograms


_REGISTRY: "OrderedDict[str, EngineSpec]" = OrderedDict()


def register_engine(spec: EngineSpec) -> EngineSpec:
    """Add an engine to the registry (name must be new and not an alias)."""
    if spec.name in _REGISTRY or spec.name in ALIASES or spec.name == AUTO_ENGINE:
        raise ValueError(f"engine name {spec.name!r} already taken")
    _REGISTRY[spec.name] = spec
    return spec


def engine_names(include_auto: bool = True) -> Tuple[str, ...]:
    """Registered canonical engine names, in registration order."""
    names = tuple(_REGISTRY)
    return names + (AUTO_ENGINE,) if include_auto else names


def canonical_name(name: str) -> str:
    """Validate an engine name and resolve aliases (``auto`` stays ``auto``).

    Raises:
        ValueError: for names that are neither registered, aliased nor
            ``auto``.
    """
    resolved = ALIASES.get(name, name)
    if resolved != AUTO_ENGINE and resolved not in _REGISTRY:
        raise ValueError(
            f"unknown engine {name!r}; expected one of {engine_names()}"
        )
    return resolved


def choose_auto() -> str:
    """The concrete engine ``auto`` stands for in this interpreter:
    ``vectorized`` with NumPy, ``serial`` without it."""
    from repro.core.vectorized import numpy_available

    return "vectorized" if numpy_available() else "serial"


def get_engine(name: str) -> EngineSpec:
    """Look up a concrete engine by (possibly aliased) name."""
    resolved = canonical_name(name)
    if resolved == AUTO_ENGINE:
        raise ValueError(
            "'auto' is a selection policy, not a concrete engine; "
            "use resolve_engine()"
        )
    return _REGISTRY[resolved]


def resolve_engine(name: str) -> EngineSpec:
    """Resolve a name (including ``auto`` and aliases) to an engine spec."""
    resolved = canonical_name(name)
    if resolved == AUTO_ENGINE:
        resolved = choose_auto()
    return _REGISTRY[resolved]


def compute_histograms(
    engine: str,
    inputs: EngineInputs,
    max_level: Optional[int] = None,
) -> Dict[int, LevelHistogram]:
    """Select an engine by name and run it — the one-call dispatch path."""
    return resolve_engine(engine).compute(inputs, max_level=max_level)


# -- built-in engines ----------------------------------------------------------


def _run_serial(
    inputs: EngineInputs, max_level: Optional[int] = None
) -> Dict[int, LevelHistogram]:
    return compute_level_histograms(
        inputs.zerosets, inputs.mrct, max_level=max_level
    )


def _run_vectorized(
    inputs: EngineInputs, max_level: Optional[int] = None
) -> Dict[int, LevelHistogram]:
    from repro.core.vectorized import (
        compute_level_histograms_packed,
        numpy_available,
    )

    if not numpy_available():
        return _run_serial(inputs, max_level=max_level)
    return compute_level_histograms_packed(
        inputs.packed_mrct,
        max_level=max_level,
        recorder=inputs.recorder,
    )


register_engine(
    EngineSpec(
        name="serial",
        summary="reference bigint BCAT/MRCT pipeline (pure Python)",
        memory="O(N' bits x N') sets + O(occurrences) MRCT",
        best_for="the correctness baseline; what auto runs without NumPy",
        runner=_run_serial,
    )
)
register_engine(
    EngineSpec(
        name="vectorized",
        summary="NumPy uint64 bit-matrix kernel, fused with the fast prelude",
        memory="O(unique conflict rows x N'/64 words)",
        best_for="every trace when NumPy is available (what auto runs)",
        runner=_run_vectorized,
        requires_numpy=True,
    )
)


# -- replacement-policy exploration registry ------------------------------------
#
# The histogram registry above is LRU-only by construction: every entry
# is differentially tested bit-identical against ``serial``, and FIFO
# misses are not monotone in associativity (Belady's anomaly), so they
# cannot be encoded as a LevelHistogram at all.  Policy-aware
# exploration therefore has its own registry: each entry is a factory
# producing an *explorer* (the ``AnalyticalCacheExplorer`` surface —
# ``explore``/``explore_many``/``misses``/``statistics``/
# ``resolved_engine``/``report_level``) for one replacement policy.


@dataclass(frozen=True)
class PolicyEngineSpec:
    """A registered policy-aware exploration engine.

    Attributes:
        name: replacement policy name (matches
            :class:`repro.cache.config.ReplacementKind` values).
        summary: one-line description of how the policy is explored.
        exactness: where the answers are analytical vs simulator-backed.
        factory: callable ``factory(trace, **kwargs)`` returning an
            explorer; accepts the :class:`AnalyticalCacheExplorer`
            constructor keywords (``max_depth``, ``engine``,
            ``prelude``, ``recorder``, ``store``).
    """

    name: str
    summary: str
    exactness: str
    factory: Callable[..., object]


_POLICY_REGISTRY: "OrderedDict[str, PolicyEngineSpec]" = OrderedDict()


def register_policy_engine(spec: PolicyEngineSpec) -> PolicyEngineSpec:
    """Add a policy engine to the registry (name must be new)."""
    if spec.name in _POLICY_REGISTRY:
        raise ValueError(f"policy engine name {spec.name!r} already taken")
    _POLICY_REGISTRY[spec.name] = spec
    return spec


def policy_names() -> Tuple[str, ...]:
    """Registered replacement-policy names, in registration order."""
    return tuple(_POLICY_REGISTRY)


def get_policy_engine(name: str) -> PolicyEngineSpec:
    """Look up a policy engine by name.

    Raises:
        ValueError: for unregistered policy names.
    """
    spec = _POLICY_REGISTRY.get(name)
    if spec is None:
        raise ValueError(
            f"unknown policy {name!r}; expected one of {policy_names()}"
        )
    return spec


def policy_explorer(policy: str, trace: Trace, **kwargs: object):
    """Build the exploration engine for a replacement policy.

    ``policy_explorer("lru", trace)`` is exactly
    ``AnalyticalCacheExplorer(trace)``; other policies return hybrid
    engines that fall back to per-depth simulation where no analytical
    shortcut is exact.
    """
    return get_policy_engine(policy).factory(trace, **kwargs)


def _make_lru_explorer(trace: Trace, **kwargs: object):
    from repro.core.explorer import AnalyticalCacheExplorer

    return AnalyticalCacheExplorer(trace, **kwargs)


def _make_fifo_explorer(trace: Trace, **kwargs: object):
    from repro.core.fifo import FIFOHybridExplorer

    return FIFOHybridExplorer(trace, **kwargs)


register_policy_engine(
    PolicyEngineSpec(
        name="lru",
        summary="the paper's fully analytical histogram pipeline",
        exactness="analytical at every (D, A)",
        factory=_make_lru_explorer,
    )
)
register_policy_engine(
    PolicyEngineSpec(
        name="fifo",
        summary="DEW-style hybrid: analytical where exact, one-pass "
        "multi-associativity simulation elsewhere",
        exactness="analytical at A=1 and at the zero-eviction bound; "
        "simulator-backed per depth in between",
        factory=_make_fifo_explorer,
    )
)
