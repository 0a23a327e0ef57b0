"""Configuration: scopes and allowlists from ``[tool.repro-analysis]``.

The defaults below encode the repo's actual contracts, so a bare
``python -m repro.analysis src`` enforces them with no configuration at
all.  ``pyproject.toml`` can extend (never silently replace) the
allowlists — extension keeps the shipped contract the floor, and makes
every local waiver visible as a diff to ``[tool.repro-analysis]``.

Scope patterns are dotted module names with ``fnmatch`` wildcards
(``repro.engine.*`` matches the package root and everything below it;
a pattern without wildcards matches that module exactly).

On Python ≥ 3.11 the section is read with :mod:`tomllib`; on 3.10 a
deliberately tiny TOML-subset parser (tables, strings, booleans,
integers, string lists) keeps the analyzer dependency-free — the
section's schema never needs more than that subset.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, fields
from fnmatch import fnmatchcase

__all__ = ["AnalysisConfig", "load_config", "parse_toml_subset", "module_matches"]


def module_matches(module: str, patterns: tuple[str, ...]) -> bool:
    """Whether a dotted module name falls under any scope pattern.

    ``repro.engine.*`` is understood the way an import path reads: it
    covers ``repro.engine`` itself *and* every submodule.
    """
    for pattern in patterns:
        if fnmatchcase(module, pattern):
            return True
        if pattern.endswith(".*") and module == pattern[:-2]:
            return True
    return False


@dataclass(frozen=True)
class AnalysisConfig:
    """Every knob the checkers read, with the repo contract as default.

    Attributes:
        select: rule names to run (all registered rules when empty).
        wall_clock_modules: scope of the ``wall-clock`` rule — the
            simulation core, where the only legal clock is the event
            loop's.
        wall_clock_allow_modules: measured-overhead modules where real
            wall-clock reads are the documented exception (prediction
            service timings, export runtime, trainer fit times,
            AutoExecutor stopwatch).
        rng_modules: scope of the ``unseeded-rng`` rule (library code;
            drivers and tests draw their own seeds explicitly anyway).
        heap_key_modules: modules whose ``heapq.heappush`` calls must
            push the two-class ``(time, class-rank, counter, ...)`` key.
        taxonomy_module: repo-relative path of the file declaring
            ``EVENT_KINDS`` / ``RAW_DATA_FIELDS``.
        taxonomy_census_modules: scope whose emit sites make up the
            taxonomy census (library code only — a bench script
            replaying a trace is not an emitter).
        emit_helpers: function names that forward a ``kind`` argument to
            a tracer, mapped implicitly to "kind is the second
            positional argument" (``_trace(now, kind, ...)``).
        set_iteration_modules: scope of the ``set-iteration`` rule —
            the event-handling / float-accumulation core where
            iteration order feeds arithmetic.
        streaming_classes: ``module:ClassName`` scopes holding the
            O(1)-memory streaming accumulators; growth calls inside
            them are findings unless the attribute is allowlisted.
        streaming_bounded_attrs: attribute names inside those classes
            that are provably bounded (sketch buckets, merge scratch).
    """

    select: tuple[str, ...] = ()
    wall_clock_modules: tuple[str, ...] = (
        "repro.engine.*",
        "repro.fleet.*",
        "repro.core.*",
        "repro.export.*",
        "repro.obs.*",
        "repro.sparklens.*",
        "repro.serve.*",
    )
    wall_clock_allow_modules: tuple[str, ...] = (
        "repro.fleet.prediction",
        "repro.export.runtime",
        "repro.core.training",
        "repro.core.autoexecutor",
        # The serving layer's one measured-overhead module: service
        # latency sketches read real elapsed time there.  The rest of
        # repro.serve (protocol framing, batching, the server loop) is
        # clock-free by contract.
        "repro.serve.app",
    )
    rng_modules: tuple[str, ...] = (
        # Library code and the drivers that feed gated numbers: a bench
        # whose inputs come from global RNG state is unreproducible in
        # exactly the way its baselines cannot tolerate.
        "repro.*",
        "benchmarks.*",
        "examples.*",
    )
    heap_key_modules: tuple[str, ...] = (
        "repro.engine.scheduler",
        "repro.fleet.cluster",
        "repro.fleet.parallel",
    )
    taxonomy_module: str = "src/repro/obs/trace.py"
    taxonomy_census_modules: tuple[str, ...] = ("repro.*",)
    emit_helpers: tuple[str, ...] = ("_trace",)
    set_iteration_modules: tuple[str, ...] = (
        "repro.engine.*",
        "repro.fleet.*",
    )
    streaming_classes: tuple[str, ...] = (
        "repro.fleet.metrics:PoolStreamStats",
        "repro.fleet.metrics:SkylineTracker",
        "repro.obs.metrics:StreamingFleetStats",
        "repro.obs.sketch:QuantileSketch",
    )
    streaming_bounded_attrs: tuple[str, ...] = (
        # StreamingFleetStats' sketch attributes: their .add() is a
        # bounded histogram fold, not container growth.
        "latency",
        "queue_delay",
        "run_seconds",
        # PoolStreamStats' fault ledger: FaultStats.add sums a fixed set
        # of counters in place.
        "fault",
    )

    #: keys whose pyproject values *extend* the default tuple instead of
    #: replacing it — allowlists only ever widen.
    _EXTEND = frozenset(
        {
            "wall_clock_allow_modules",
            "emit_helpers",
            "streaming_bounded_attrs",
            "streaming_classes",
        }
    )

    @classmethod
    def from_mapping(cls, raw: dict[str, object]) -> "AnalysisConfig":
        """Build a config from a ``[tool.repro-analysis]`` mapping.

        Unknown keys are a hard error: a typoed allowlist key that
        silently does nothing would un-gate CI.
        """
        known = {f.name: f for f in fields(cls) if not f.name.startswith("_")}
        kwargs: dict[str, object] = {}
        for key, value in raw.items():
            name = key.replace("-", "_")
            if name not in known:
                raise ValueError(
                    f"[tool.repro-analysis] unknown key {key!r}; "
                    f"expected one of {sorted(known)}"
                )
            if name == "taxonomy_module":
                if not isinstance(value, str):
                    raise ValueError(f"{key} must be a string")
                kwargs[name] = value
                continue
            if isinstance(value, str):
                value = [value]
            if not isinstance(value, list) or not all(
                isinstance(item, str) for item in value
            ):
                raise ValueError(f"{key} must be a string or list of strings")
            defaults: tuple[str, ...] = known[name].default  # type: ignore[assignment]
            if name in cls._EXTEND:
                kwargs[name] = defaults + tuple(v for v in value if v not in defaults)
            else:
                kwargs[name] = tuple(value)
        return cls(**kwargs)  # type: ignore[arg-type]


# --- minimal TOML subset (3.10 fallback) ---------------------------------

_TABLE_RE = re.compile(r"^\[(?P<name>[^\]]+)\]\s*$")
_KEY_RE = re.compile(r"^(?P<key>[A-Za-z0-9_\-\.\"']+)\s*=\s*(?P<value>.+)$")


def _strip_comment(line: str) -> str:
    """Drop a trailing comment, respecting single/double quotes."""
    out: list[str] = []
    quote: str | None = None
    for ch in line:
        if quote is not None:
            out.append(ch)
            if ch == quote:
                quote = None
        elif ch in "\"'":
            quote = ch
            out.append(ch)
        elif ch == "#":
            break
        else:
            out.append(ch)
    return "".join(out).strip()


def _parse_scalar(text: str) -> object:
    text = text.strip()
    if (text.startswith('"') and text.endswith('"')) or (
        text.startswith("'") and text.endswith("'")
    ):
        return text[1:-1]
    if text == "true":
        return True
    if text == "false":
        return False
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        raise ValueError(f"unsupported TOML value: {text!r}") from None


def _parse_list(text: str) -> list[object]:
    inner = text.strip()[1:-1].strip()
    if not inner:
        return []
    items: list[object] = []
    for piece in _split_top_level(inner):
        piece = piece.strip()
        if piece:
            items.append(_parse_scalar(piece))
    return items


def _split_top_level(text: str) -> list[str]:
    parts: list[str] = []
    buf: list[str] = []
    quote: str | None = None
    for ch in text:
        if quote is not None:
            buf.append(ch)
            if ch == quote:
                quote = None
        elif ch in "\"'":
            quote = ch
            buf.append(ch)
        elif ch == ",":
            parts.append("".join(buf))
            buf = []
        else:
            buf.append(ch)
    if buf:
        parts.append("".join(buf))
    return parts


def parse_toml_subset(text: str) -> dict[str, dict[str, object]]:
    """Parse the TOML subset the analyzer's config section needs.

    Tables, string/bool/int/float scalars, and (possibly multiline)
    string lists.  This exists only as the Python 3.10 fallback —
    :func:`load_config` prefers :mod:`tomllib` — and it raises on
    anything outside the subset rather than guessing.
    """
    tables: dict[str, dict[str, object]] = {}
    current: dict[str, object] = tables.setdefault("", {})
    pending_key: str | None = None
    pending_buf = ""
    for raw_line in text.splitlines():
        line = _strip_comment(raw_line)
        if pending_key is not None:
            pending_buf += " " + line
            if _balanced(pending_buf):
                current[pending_key] = _parse_list(pending_buf)
                pending_key = None
                pending_buf = ""
            continue
        if not line:
            continue
        table_match = _TABLE_RE.match(line)
        if table_match is not None:
            current = tables.setdefault(table_match.group("name").strip(), {})
            continue
        key_match = _KEY_RE.match(line)
        if key_match is None:
            raise ValueError(f"unsupported TOML line: {raw_line!r}")
        key = key_match.group("key").strip().strip("\"'")
        value = key_match.group("value").strip()
        if value.startswith("["):
            if _balanced(value):
                current[key] = _parse_list(value)
            else:
                pending_key = key
                pending_buf = value
        else:
            current[key] = _parse_scalar(value)
    if pending_key is not None:
        raise ValueError(f"unterminated list for key {pending_key!r}")
    return tables


def _balanced(text: str) -> bool:
    depth = 0
    quote: str | None = None
    for ch in text:
        if quote is not None:
            if ch == quote:
                quote = None
        elif ch in "\"'":
            quote = ch
        elif ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
    return depth == 0


def _read_pyproject(path: str) -> dict[str, object]:
    try:
        import tomllib
    except ImportError:  # Python 3.10
        with open(path, encoding="utf-8") as handle:
            tables = parse_toml_subset(handle.read())
        section = tables.get("tool.repro-analysis", {})
        return dict(section)
    with open(path, "rb") as handle:
        data = tomllib.load(handle)
    tool = data.get("tool", {})
    section = tool.get("repro-analysis", {})
    if not isinstance(section, dict):
        raise ValueError("[tool.repro-analysis] must be a table")
    return section


def load_config(root: str = ".") -> AnalysisConfig:
    """Load the config for a repo root (defaults when no section/file)."""
    import os

    path = os.path.join(root, "pyproject.toml")
    if not os.path.exists(path):
        return AnalysisConfig()
    return AnalysisConfig.from_mapping(_read_pyproject(path))
