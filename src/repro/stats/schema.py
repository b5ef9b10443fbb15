"""Versioned JSON schema for exported run statistics.

The exporter stamps every document with ``schema_version``; the validator
here is dependency-free (no ``jsonschema`` in the container) and checks the
same things a JSON-Schema draft would for this shape: required keys, value
types, nullability, and nested object/array structure.  CI's ``stats-smoke``
job runs it over the 8-app subset on every push.
"""

from __future__ import annotations

from typing import Any, List

__all__ = [
    "GRID_SCHEMA_VERSION",
    "SCHEMA_VERSION",
    "SERVE_SCHEMA",
    "SERVE_SCHEMA_V2",
    "SERVE_SCHEMA_VERSION",
    "SPAN_SCHEMA",
    "STATS_SCHEMA",
    "SUPPORTED_SERVE_VERSIONS",
    "SchemaError",
    "validate_serve_stats",
    "validate_spans",
    "validate_stats",
    "validate_stats_json",
]

#: Bump on any backwards-incompatible change to the exported document shape.
#: v2: added the ``semant`` section (static prediction + dead-state proofs).
#: v3: added the ``cost`` section (DFA-safety proofs, symbol-class
#: accounting, per-partition backend advisories — ``repro.cost``).
#: v4: the ``cost`` section gained ``requested_backend`` /
#: ``selected_backend`` — the engine actually chosen for execution (null
#: when the collection did not execute a backend), so a stats export can
#: no longer hide a feasibility substitution.
#: v5: added the ``reduce`` section (states before/after the SPAP-R
#: equivalence-preserving reduction, merges by rule, STE saving, and the
#: downstream effect on baseline batches — ``repro.reduce``).
SCHEMA_VERSION = 5

#: Bump on any backwards-incompatible change to the match server's exported
#: statistics document (``repro.serve``).
#: v2: added the ``grid`` section — the router's merged view of a worker
#: pool (per-worker request rates, spill/failover counts, write-behind
#: merge lag — ``repro.grid``).  Single-process servers keep exporting v1.
SERVE_SCHEMA_VERSION = 1

#: The version the grid router stamps on its merged document (the v2 shape).
GRID_SCHEMA_VERSION = 2

#: One StageTimer span as exported (shared by RunStats and the bench harness).
SPAN_SCHEMA = {"name": "str", "calls": "int", "seconds": "number"}

# (field -> type spec).  Type specs: "int", "number" (int or float), "str",
# "bool"; "number?" marks a nullable leaf; dicts nest; ("array", spec)
# matches a homogeneous list.
STATS_SCHEMA = {
    "schema_version": "int",
    "app": "str",
    "full_name": "str",
    "group": "str",
    "workload": {
        "scale": "int",
        "input_len": "int",
        "profile_fraction": "number",
        "capacity": "int",
        "n_states": "int",
        "n_automata": "int",
    },
    "baseline": {
        "n_batches": "int",
        "cycles": "int",
    },
    "spap": {
        "n_hot_batches": "int",
        "n_cold_batches": "int",
        "base_cycles": "int",
        "consumed_cycles": "int",
        "stall_cycles": "int",
        "cycles": "int",
        "n_intermediate_reports": "int",
        "jump_ratio": "number?",
    },
    "queue": {
        "refills": "int",
        "device_bytes": "int",
        "on_chip_bytes": "int",
    },
    "ap_cpu": {
        "cpu_seconds": "number",
        "n_intermediate_reports": "int",
    },
    "prediction": {
        "hot_fraction": "number",
        "predicted_hot_fraction": "number",
        "accuracy": "number",
        "precision": "number",
        "recall": "number",
    },
    "semant": {
        "n_statically_dead": "int",
        "n_never_reporting": "int",
        "static_hot_fraction": "number",
        "accuracy": "number",
        "precision": "number",
        "recall": "number",
    },
    "speedups": {
        "spap": "number",
        "ap_cpu": "number",
        "resource_saving": "number",
    },
    "cost": {
        "budget": "int",
        "requested_backend": "str?",
        "selected_backend": "str?",
        "n_classes": "int",
        "table_bytes_dense": "int",
        "table_bytes_classed": "int",
        "class_compression_ratio": "number",
        "dfa_safe_fraction": "number",
        "partitions": (
            "array",
            {
                "name": "str",
                "n_states": "int",
                "n_classes": "int",
                "dfa_safe": "bool",
                "dfa_states": "int?",
                "recommended": "str",
                "margin": "number",
            },
        ),
    },
    "reduce": {
        "mode": "str",
        "states_before": "int",
        "states_after": "int",
        "saving": "number",
        "merges": {
            "dead_stripped": "int",
            "never_reporting_stripped": "int",
            "backward_merged": "int",
            "forward_merged": "int",
        },
        "baseline_batches_before": "int",
        "baseline_batches_after": "int",
    },
    "stages": ("array", SPAN_SCHEMA),
}

#: The match server's statistics document (``repro.serve``): configuration
#: echo, request/reply/error counters, micro-batch shape, and the server's
#: StageTimer spans (queue wait, batch execution, reply encoding).
SERVE_SCHEMA = {
    "schema_version": "int",
    "server": {
        "apps": ("array", "str"),
        "max_batch": "int",
        "max_queue_depth": "int",
        "workers": "int",
        "uptime_seconds": "number",
    },
    "requests": {
        "received": "int",
        "replied": "int",
        "errors": "int",
        "expired": "int",
        "rejected": "int",
    },
    "errors_by_code": ("array", {"code": "str", "count": "int"}),
    "batches": {
        "dispatched": "int",
        "batched_requests": "int",
        "max_size": "int",
        "mean_size": "number",
    },
    "stages": ("array", SPAN_SCHEMA),
}

#: The v2 serve document (``repro.grid``): the v1 shape plus the router's
#: merged ``grid`` section.  ``merge_lag_ms`` is nullable — before the
#: first write-behind merge completes there is no lag to report.
SERVE_SCHEMA_V2 = dict(SERVE_SCHEMA)
SERVE_SCHEMA_V2["grid"] = {
    "n_workers": "int",
    "merges": "int",
    "merge_lag_ms": "number?",
    "spills": "int",
    "failovers": "int",
    "workers_down": "int",
    "workers": (
        "array",
        {
            "worker": "int",
            "up": "bool",
            "apps": ("array", "str"),
            "forwarded": "int",
            "received": "int",
            "replied": "int",
            "errors": "int",
            "rps": "number",
        },
    ),
}

#: Versions :func:`validate_serve_stats` accepts, newest first.
SUPPORTED_SERVE_VERSIONS = (2, 1)

_SERVE_SCHEMA_BY_VERSION = {
    2: SERVE_SCHEMA_V2,
    1: SERVE_SCHEMA,
}


class SchemaError(ValueError):
    """The document does not match :data:`STATS_SCHEMA`."""


def _check(value: Any, spec: Any, path: str, problems: List[str]) -> None:
    if isinstance(spec, dict):
        if not isinstance(value, dict):
            problems.append(f"{path}: expected object, got {type(value).__name__}")
            return
        for key, sub in spec.items():
            if key not in value:
                problems.append(f"{path}.{key}: missing")
            else:
                _check(value[key], sub, f"{path}.{key}", problems)
        for key in value:
            if key not in spec:
                problems.append(f"{path}.{key}: unexpected field")
        return
    if isinstance(spec, tuple) and spec and spec[0] == "array":
        if not isinstance(value, list):
            problems.append(f"{path}: expected array, got {type(value).__name__}")
            return
        for index, item in enumerate(value):
            _check(item, spec[1], f"{path}[{index}]", problems)
        return
    nullable = isinstance(spec, str) and spec.endswith("?")
    kind = spec.rstrip("?")
    if value is None:
        if not nullable:
            problems.append(f"{path}: null is not allowed")
        return
    if kind == "int":
        # bool is an int subclass; it is never a valid counter.
        if not isinstance(value, int) or isinstance(value, bool):
            problems.append(f"{path}: expected int, got {type(value).__name__}")
    elif kind == "number":
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            problems.append(f"{path}: expected number, got {type(value).__name__}")
    elif kind == "str":
        if not isinstance(value, str):
            problems.append(f"{path}: expected string, got {type(value).__name__}")
    elif kind == "bool":
        if not isinstance(value, bool):
            problems.append(f"{path}: expected bool, got {type(value).__name__}")
    else:  # pragma: no cover - schema author error
        problems.append(f"{path}: unknown spec {spec!r}")


def validate_stats(document: dict) -> None:
    """Validate one exported stats object; raises :class:`SchemaError`.

    Version-checks first so any other producer fails with "unsupported
    version" rather than a wall of field errors.  Only the current
    :data:`SCHEMA_VERSION` is accepted: no older document is committed or
    read anywhere.
    """
    if not isinstance(document, dict):
        raise SchemaError(f"stats document must be an object, got {type(document).__name__}")
    version = document.get("schema_version")
    # `type(...) is int` rejects bools (an int subclass) and floats such as
    # 5.0 that compare equal to the version.
    if type(version) is not int or version != SCHEMA_VERSION:
        raise SchemaError(
            f"unsupported stats schema_version {version!r} "
            f"(supported: {SCHEMA_VERSION})"
        )
    problems: List[str] = []
    _check(document, STATS_SCHEMA, "$", problems)
    if problems:
        raise SchemaError(
            f"{len(problems)} schema violation(s): " + "; ".join(problems[:20])
        )


def validate_serve_stats(document: Any) -> None:
    """Validate one match-server statistics export (``repro.serve``).

    Version-dispatched like :func:`validate_stats`: a v1 single-process
    export must not carry the ``grid`` section, a v2 router merge must.
    Raises :class:`SchemaError` on shape violations or an unsupported
    (or bool-typed) version.
    """
    if not isinstance(document, dict):
        raise SchemaError(
            f"serve stats document must be an object, got {type(document).__name__}"
        )
    version = document.get("schema_version")
    # bool is an int subclass: `True` must not dispatch as version 1.
    valid_key = isinstance(version, int) and not isinstance(version, bool)
    schema = _SERVE_SCHEMA_BY_VERSION.get(version) if valid_key else None
    if schema is None:
        raise SchemaError(
            f"unsupported serve schema_version {version!r} "
            f"(supported: {', '.join(str(v) for v in SUPPORTED_SERVE_VERSIONS)})"
        )
    problems: List[str] = []
    _check(document, schema, "$", problems)
    if problems:
        raise SchemaError(
            f"{len(problems)} schema violation(s): " + "; ".join(problems[:20])
        )


def validate_spans(spans: Any) -> int:
    """Validate an exported span list (the bench harness's stats document).

    Returns the number of spans; raises :class:`SchemaError` if any is
    malformed.
    """
    problems: List[str] = []
    _check(spans, ("array", SPAN_SCHEMA), "$.stages", problems)
    if problems:
        raise SchemaError(
            f"{len(problems)} schema violation(s): " + "; ".join(problems[:20])
        )
    return len(spans)


def validate_stats_json(payload: Any) -> int:
    """Validate a CLI export: one stats object or an array of them.

    Returns the number of documents validated; raises :class:`SchemaError`
    on the first invalid one.
    """
    documents = payload if isinstance(payload, list) else [payload]
    for document in documents:
        validate_stats(document)
    return len(documents)
