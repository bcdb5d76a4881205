"""The declarative sweep spec: one YAML document describing a matrix.

A sweep spec names *what* to run (the axes: traces x engines x preludes
x store warmth x replacement policies x hierarchy levels), *at which
budgets*, and *how* (worker concurrency, per-cell timeout, retry count,
baseline files and the regression tolerance).  Parsing is strict in the
same way the serve wire protocol is: unknown fields anywhere in the
document are rejected loudly, so a typo'd axis name can never silently
shrink the matrix.

Document layout (schema ``repro-sweep-spec/1``)::

    schema: repro-sweep-spec/1
    name: quick
    seed: 0                    # folded into the plan fingerprint; the
                               # default seed for synthetic traces
    scale: tiny                # workload build scale (tiny/small/...)
    axes:
      traces: [crc, fir]       # workload kernels or synthetic forms
      engines: [serial, vectorized]
      preludes: [fast]         # auto | fast | python
      warmth: [cold, warm]     # warm cells depend on their cold producer
      policies: [lru]          # any repro.core.engines.policy_names()
      levels: [1]              # 1 = single level, 2 = L1+L2 (l2_depth)
    budgets: [0, 8]
    percents: []               # percent-of-max-misses budgets
    max_depth: 64              # optional depth bound (power of two)
    l2_depth: 32               # depth bound for level-2 cells
    include:                   # extra cells outside the product
      - {trace: crc, engine: serial, prelude: python, warmth: cold}
    exclude:                   # drop product cells by subset match
      - {engine: vectorized, trace: fir}
    execution:
      workers: 2
      timeout_s: 120.0
      retries: 1
      backoff_s: 0.25
    report:
      tolerance: 1.0           # flag cells slower than (1+t) x baseline
      baselines: [BENCH_postlude.json]

Synthetic trace forms (deterministic; ``<seed>`` may be omitted to use
the spec's ``seed``)::

    loop:<footprint>x<iterations>
    loop-mix:<footprint>x<iterations>       # four interleaved loop nests
    zipf:<n>:<unique>[:<seed>]
    markov:<n>:<unique>[:<locality>[:<seed>]]
    random:<n>:<footprint>[:<seed>]
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core import engines as _engines

#: Spec document schema identifier.
SPEC_SCHEMA = "repro-sweep-spec/1"

#: Store-warmth axis domain: ``warm`` cells depend on their ``cold``
#: producer and run against the store the producer populated.
WARMTH = ("cold", "warm")

#: Hierarchy-level axis domain (2 = explore an L2 behind the L1 winner).
LEVELS = (1, 2)

#: The axis names an include/exclude rule may constrain, in canonical
#: (cell-id) order.
AXIS_NAMES = ("trace", "engine", "prelude", "warmth", "policy", "level")

#: Top-level fields of a spec document.
_TOP_FIELDS = (
    "schema",
    "name",
    "seed",
    "scale",
    "axes",
    "budgets",
    "percents",
    "max_depth",
    "l2_depth",
    "include",
    "exclude",
    "execution",
    "report",
)

_AXES_FIELDS = ("traces", "engines", "preludes", "warmth", "policies", "levels")
_EXECUTION_FIELDS = ("workers", "timeout_s", "retries", "backoff_s")
_REPORT_FIELDS = ("tolerance", "baselines")

#: Synthetic generator prefixes understood by :func:`parse_trace_entry`.
SYNTHETIC_KINDS = ("loop", "loop-mix", "zipf", "markov", "random")


class SweepSpecError(ValueError):
    """A sweep spec document failed validation."""


def _require_dict(value: object, what: str) -> Dict:
    if not isinstance(value, dict):
        raise SweepSpecError(f"{what} must be a mapping")
    return value


def _reject_unknown(document: Dict, allowed: Sequence[str], what: str) -> None:
    unknown = set(document) - set(allowed)
    if unknown:
        raise SweepSpecError(f"{what}: unknown fields {sorted(unknown)}")


def _require_str(value: object, what: str) -> str:
    if not isinstance(value, str) or not value:
        raise SweepSpecError(f"{what} must be a non-empty string")
    return value


def _require_int(value: object, what: str, minimum: Optional[int] = None) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise SweepSpecError(f"{what} must be an integer")
    if minimum is not None and value < minimum:
        raise SweepSpecError(f"{what} must be >= {minimum}, got {value}")
    return value


def _require_number(
    value: object, what: str, minimum: Optional[float] = None
) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SweepSpecError(f"{what} must be a number")
    if minimum is not None and value < minimum:
        raise SweepSpecError(f"{what} must be >= {minimum}, got {value}")
    return float(value)


def _require_list(value: object, what: str) -> List:
    if not isinstance(value, list):
        raise SweepSpecError(f"{what} must be a list")
    return value


def _is_power_of_two(value: int) -> bool:
    return value > 0 and (value & (value - 1)) == 0


def _workload_names() -> Tuple[str, ...]:
    from repro.workloads.registry import ALL_WORKLOAD_NAMES

    return ALL_WORKLOAD_NAMES


def parse_trace_entry(entry: str, default_seed: int = 0) -> Dict[str, object]:
    """Parse one trace-axis entry into a generator descriptor.

    Returns a dict with ``kind`` (``workload`` or one of
    :data:`SYNTHETIC_KINDS`) plus the generator's parameters.  Raises
    :class:`SweepSpecError` for anything unrecognized — a misspelled
    kernel never becomes an empty cell.
    """
    if ":" not in entry:
        if entry not in _workload_names():
            raise SweepSpecError(
                f"unknown workload {entry!r}; expected one of "
                f"{_workload_names()} or a synthetic form "
                f"({'|'.join(SYNTHETIC_KINDS)}:...)"
            )
        return {"kind": "workload", "name": entry}
    kind, _, rest = entry.partition(":")
    if kind not in SYNTHETIC_KINDS:
        raise SweepSpecError(
            f"unknown synthetic generator {kind!r} in {entry!r}; "
            f"expected one of {SYNTHETIC_KINDS}"
        )
    try:
        if kind in ("loop", "loop-mix"):
            footprint, _, iterations = rest.partition("x")
            return {
                "kind": kind,
                "footprint": int(footprint),
                "iterations": int(iterations),
            }
        parts = rest.split(":")
        if kind == "zipf":
            if len(parts) not in (2, 3):
                raise ValueError("zipf takes n:unique[:seed]")
            return {
                "kind": kind,
                "n": int(parts[0]),
                "unique": int(parts[1]),
                "seed": int(parts[2]) if len(parts) > 2 else default_seed,
            }
        if kind == "markov":
            if len(parts) not in (2, 3, 4):
                raise ValueError("markov takes n:unique[:locality[:seed]]")
            return {
                "kind": kind,
                "n": int(parts[0]),
                "unique": int(parts[1]),
                "locality": float(parts[2]) if len(parts) > 2 else 0.9,
                "seed": int(parts[3]) if len(parts) > 3 else default_seed,
            }
        # random
        if len(parts) not in (2, 3):
            raise ValueError("random takes n:footprint[:seed]")
        return {
            "kind": kind,
            "n": int(parts[0]),
            "footprint": int(parts[1]),
            "seed": int(parts[2]) if len(parts) > 2 else default_seed,
        }
    except ValueError as exc:
        raise SweepSpecError(f"bad synthetic trace {entry!r}: {exc}") from exc


def _validate_rule(rule: object, what: str) -> Dict[str, object]:
    """Validate one include/exclude rule (a partial axis assignment)."""
    rule = _require_dict(rule, what)
    if not rule:
        raise SweepSpecError(f"{what} must constrain at least one axis")
    _reject_unknown(rule, AXIS_NAMES, what)
    validated: Dict[str, object] = {}
    for axis, value in rule.items():
        if axis == "level":
            value = _require_int(value, f"{what}.level")
            if value not in LEVELS:
                raise SweepSpecError(
                    f"{what}.level must be one of {LEVELS}, got {value}"
                )
        else:
            value = _require_str(value, f"{what}.{axis}")
        validated[axis] = value
    return validated


@dataclass(frozen=True)
class SweepSpec:
    """A complete, validated sweep description (see module docstring).

    Axis tuples are normalized to their declaration order with
    duplicates rejected, so two specs that expand to the same matrix
    compare (and fingerprint) equal.
    """

    name: str
    traces: Tuple[str, ...]
    engines: Tuple[str, ...]
    preludes: Tuple[str, ...] = ("auto",)
    warmth: Tuple[str, ...] = ("cold",)
    policies: Tuple[str, ...] = ("lru",)
    levels: Tuple[int, ...] = (1,)
    budgets: Tuple[int, ...] = ()
    percents: Tuple[float, ...] = ()
    max_depth: Optional[int] = None
    l2_depth: int = 32
    scale: str = "tiny"
    seed: int = 0
    include: Tuple[Dict[str, object], ...] = ()
    exclude: Tuple[Dict[str, object], ...] = ()
    workers: int = 2
    timeout_s: float = 300.0
    retries: int = 1
    backoff_s: float = 0.25
    tolerance: float = 1.0
    baselines: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        _require_str(self.name, "name")
        for axis_name in ("traces", "engines"):
            if not getattr(self, axis_name):
                raise SweepSpecError(f"axes.{axis_name} must be non-empty")
        for axis_name in _AXES_FIELDS:
            field_name = _AXIS_FIELD_MAP[axis_name]
            values = getattr(self, field_name)
            if len(set(values)) != len(values):
                raise SweepSpecError(f"axes.{axis_name}: duplicate entries")
            if not values:
                raise SweepSpecError(f"axes.{axis_name} must be non-empty")
        for entry in self.traces:
            parse_trace_entry(entry, self.seed)
        for engine in self.engines:
            _engines.canonical_name(engine)  # raises on unknown names
        for prelude in self.preludes:
            if prelude not in _engines.PRELUDE_MODES:
                raise SweepSpecError(
                    f"axes.preludes: {prelude!r} not in "
                    f"{_engines.PRELUDE_MODES}"
                )
        for warmth in self.warmth:
            if warmth not in WARMTH:
                raise SweepSpecError(
                    f"axes.warmth: {warmth!r} not in {WARMTH}"
                )
        for policy in self.policies:
            if policy not in _engines.policy_names():
                raise SweepSpecError(
                    f"axes.policies: {policy!r} not in "
                    f"{_engines.policy_names()}"
                )
        for level in self.levels:
            if level not in LEVELS:
                raise SweepSpecError(f"axes.levels: {level!r} not in {LEVELS}")
        if not self.budgets and not self.percents:
            raise SweepSpecError("at least one budget or percent is required")
        if any(
            not isinstance(k, int) or isinstance(k, bool) or k < 0
            for k in self.budgets
        ):
            raise SweepSpecError("budgets must be non-negative integers")
        if any(
            isinstance(p, bool) or not isinstance(p, (int, float)) or p < 0
            for p in self.percents
        ):
            raise SweepSpecError("percents must be non-negative numbers")
        if self.max_depth is not None and not _is_power_of_two(self.max_depth):
            raise SweepSpecError(
                f"max_depth must be a power of two, got {self.max_depth}"
            )
        if not _is_power_of_two(self.l2_depth):
            raise SweepSpecError(
                f"l2_depth must be a power of two, got {self.l2_depth}"
            )
        from repro.workloads.common import SCALES

        if self.scale not in SCALES:
            raise SweepSpecError(
                f"scale must be one of {sorted(SCALES)}, got {self.scale!r}"
            )
        _require_int(self.seed, "seed", minimum=0)
        _require_int(self.workers, "execution.workers", minimum=1)
        _require_number(self.timeout_s, "execution.timeout_s", minimum=0.001)
        _require_int(self.retries, "execution.retries", minimum=0)
        _require_number(self.backoff_s, "execution.backoff_s", minimum=0.0)
        _require_number(self.tolerance, "report.tolerance", minimum=0.0)
        for rule_name in ("include", "exclude"):
            for i, rule in enumerate(getattr(self, rule_name)):
                _validate_rule(rule, f"{rule_name}[{i}]")
        for baseline in self.baselines:
            _require_str(baseline, "report.baselines entry")

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> Dict:
        """The canonical document form (inverse of :func:`spec_from_dict`)."""
        return {
            "schema": SPEC_SCHEMA,
            "name": self.name,
            "seed": self.seed,
            "scale": self.scale,
            "axes": {
                "traces": list(self.traces),
                "engines": list(self.engines),
                "preludes": list(self.preludes),
                "warmth": list(self.warmth),
                "policies": list(self.policies),
                "levels": list(self.levels),
            },
            "budgets": list(self.budgets),
            "percents": list(self.percents),
            "max_depth": self.max_depth,
            "l2_depth": self.l2_depth,
            "include": [dict(rule) for rule in self.include],
            "exclude": [dict(rule) for rule in self.exclude],
            "execution": {
                "workers": self.workers,
                "timeout_s": self.timeout_s,
                "retries": self.retries,
                "backoff_s": self.backoff_s,
            },
            "report": {
                "tolerance": self.tolerance,
                "baselines": list(self.baselines),
            },
        }

    def to_yaml_text(self) -> str:
        """Canonical YAML serialization (stable key order)."""
        import yaml

        return yaml.safe_dump(self.to_dict(), sort_keys=True)

    def replace(self, **changes: object) -> "SweepSpec":
        """A copy with the given fields replaced (re-validated)."""
        import dataclasses

        return dataclasses.replace(self, **changes)


#: Maps YAML axis names to :class:`SweepSpec` field names.
_AXIS_FIELD_MAP = {
    "traces": "traces",
    "engines": "engines",
    "preludes": "preludes",
    "warmth": "warmth",
    "policies": "policies",
    "levels": "levels",
}


def spec_from_dict(document: object) -> SweepSpec:
    """Parse and validate a spec document (strict: unknown fields fail)."""
    document = _require_dict(document, "spec")
    if document.get("schema") != SPEC_SCHEMA:
        raise SweepSpecError(
            f"spec.schema must be {SPEC_SCHEMA!r}, got "
            f"{document.get('schema')!r}"
        )
    _reject_unknown(document, _TOP_FIELDS, "spec")
    if "name" not in document or "axes" not in document:
        raise SweepSpecError("spec: missing required fields 'name'/'axes'")
    axes = _require_dict(document["axes"], "spec.axes")
    _reject_unknown(axes, _AXES_FIELDS, "spec.axes")
    kwargs: Dict[str, object] = {"name": _require_str(document["name"], "spec.name")}

    for axis_name, field_name in _AXIS_FIELD_MAP.items():
        if axis_name not in axes:
            continue
        values = _require_list(axes[axis_name], f"spec.axes.{axis_name}")
        if axis_name == "levels":
            kwargs[field_name] = tuple(
                _require_int(v, f"spec.axes.levels[{i}]")
                for i, v in enumerate(values)
            )
        else:
            kwargs[field_name] = tuple(
                _require_str(v, f"spec.axes.{axis_name}[{i}]")
                for i, v in enumerate(values)
            )
    if "traces" not in axes or "engines" not in axes:
        raise SweepSpecError("spec.axes: missing required axes traces/engines")

    if "budgets" in document:
        kwargs["budgets"] = tuple(
            _require_int(v, f"spec.budgets[{i}]", minimum=0)
            for i, v in enumerate(_require_list(document["budgets"], "spec.budgets"))
        )
    if "percents" in document:
        kwargs["percents"] = tuple(
            _require_number(v, f"spec.percents[{i}]", minimum=0)
            for i, v in enumerate(
                _require_list(document["percents"], "spec.percents")
            )
        )
    if document.get("max_depth") is not None:
        kwargs["max_depth"] = _require_int(document["max_depth"], "spec.max_depth")
    if "l2_depth" in document:
        kwargs["l2_depth"] = _require_int(document["l2_depth"], "spec.l2_depth")
    if "scale" in document:
        kwargs["scale"] = _require_str(document["scale"], "spec.scale")
    if "seed" in document:
        kwargs["seed"] = _require_int(document["seed"], "spec.seed", minimum=0)
    for rule_name in ("include", "exclude"):
        if rule_name in document:
            rules = _require_list(document[rule_name], f"spec.{rule_name}")
            kwargs[rule_name] = tuple(
                _validate_rule(rule, f"spec.{rule_name}[{i}]")
                for i, rule in enumerate(rules)
            )
    if "execution" in document:
        execution = _require_dict(document["execution"], "spec.execution")
        _reject_unknown(execution, _EXECUTION_FIELDS, "spec.execution")
        if "workers" in execution:
            kwargs["workers"] = _require_int(
                execution["workers"], "spec.execution.workers", minimum=1
            )
        if "timeout_s" in execution:
            kwargs["timeout_s"] = _require_number(
                execution["timeout_s"], "spec.execution.timeout_s", minimum=0.001
            )
        if "retries" in execution:
            kwargs["retries"] = _require_int(
                execution["retries"], "spec.execution.retries", minimum=0
            )
        if "backoff_s" in execution:
            kwargs["backoff_s"] = _require_number(
                execution["backoff_s"], "spec.execution.backoff_s", minimum=0.0
            )
    if "report" in document:
        report = _require_dict(document["report"], "spec.report")
        _reject_unknown(report, _REPORT_FIELDS, "spec.report")
        if "tolerance" in report:
            kwargs["tolerance"] = _require_number(
                report["tolerance"], "spec.report.tolerance", minimum=0.0
            )
        if "baselines" in report:
            kwargs["baselines"] = tuple(
                _require_str(v, f"spec.report.baselines[{i}]")
                for i, v in enumerate(
                    _require_list(report["baselines"], "spec.report.baselines")
                )
            )
    try:
        return SweepSpec(**kwargs)
    except SweepSpecError:
        raise
    except (TypeError, ValueError) as exc:
        raise SweepSpecError(f"spec: {exc}") from exc


def spec_from_yaml(text: str) -> SweepSpec:
    """Parse a YAML spec document (strict)."""
    import yaml

    try:
        document = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise SweepSpecError(f"spec is not valid YAML: {exc}") from exc
    return spec_from_dict(document)


def load_spec(path: str) -> SweepSpec:
    """Read and parse a YAML spec file."""
    with open(path, "r", encoding="utf-8") as handle:
        return spec_from_yaml(handle.read())
