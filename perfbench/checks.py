"""Output checks applied to every workload call, and the result digest.

A call passes when its payload validates against the report schema shipped
with ``nodalfields``, has the expected kind, holds only finite numbers, and
meets its workload's invariants.  The digest is the SHA-256 of the payload
serialised exactly as the CLI prints it, so equal digests mean bit-identical
seeded output.  It is recorded, not gated: some changes alter counts on
purpose.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import jsonschema

# Inputs echoed into a payload that may be infinite by design.
_NOT_FINITE_OK = {"stability_report": {"beta"}}


def load_validator(src: Path) -> jsonschema.Draft7Validator:
    schema_path = src / "nodalfields" / "schemas" / "report.schema.json"
    with open(schema_path) as fh:
        return jsonschema.Draft7Validator(json.load(fh))


def _non_finite(value, path, allowed):
    if isinstance(value, dict):
        for key, item in value.items():
            if key not in allowed:
                yield from _non_finite(item, f"{path}.{key}", allowed)
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _non_finite(item, f"{path}[{i}]", allowed)
    elif isinstance(value, float) and not math.isfinite(value):
        yield f"{path} is {value}"


def problems(validator, workload, payload, params, seed) -> list:
    """Everything wrong with one payload; empty when the call passed."""
    if not isinstance(payload, dict):
        return [f"payload is {type(payload).__name__}, not an object"]
    found = [f"schema: {err.message}" for err in validator.iter_errors(payload)]
    if payload.get("kind") != workload.kind:
        found.append(f"kind is {payload.get('kind')!r}, expected {workload.kind!r}")
    if found:
        return found
    found += _non_finite(payload, "payload",
                         _NOT_FINITE_OK.get(workload.kind, set()))
    found += workload.invariants(payload, params, seed)
    return found


def digest(payload: dict) -> str:
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    return hashlib.sha256(text.encode()).hexdigest()
