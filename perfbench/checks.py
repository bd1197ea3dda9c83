"""Output check: compare each operation's result with the recorded reference.

``reference.json`` holds, per workload and scale, the result of one
operation at each recorded seed, taken at the commit that introduced the
benchmark. A run whose seed is recorded is compared with that record. Any
other seed is compared with what all recorded seeds agree on: verdicts,
exit codes, exact counts and grid shapes, which the plan fixes and the seed
does not. Every operation must also reproduce the run's first operation
exactly, artifacts byte for byte (gate c11).

Counts and other non-floats must match exactly. Floats match within a
relative tolerance of 1e-6, loose enough for a numerically equivalent
kernel (an lfilter RK4 differs from the loop by about 1e-12).
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

REFERENCE = Path(__file__).resolve().parent / "reference.json"
RTOL = 1e-6
ATOL = 1e-9


class _Any:
    """A leaf on which the recorded seeds disagree: not checked."""

    def __repr__(self):
        return "<any>"


ANY = _Any()


def common(values: list):
    """The parts of several records that are identical in all of them."""
    first = values[0]
    if all(isinstance(v, dict) for v in values) and \
            all(v.keys() == first.keys() for v in values):
        return {k: common([v[k] for v in values]) for k in first}
    if all(isinstance(v, list) for v in values) and \
            all(len(v) == len(first) for v in values):
        return [common([v[i] for v in values]) for i in range(len(first))]
    return first if all(v == first for v in values) else ANY


def mismatches(expected, actual, path: str = "$") -> list[str]:
    """Where `actual` departs from `expected`, one line per difference."""
    if expected is ANY:
        return []
    if isinstance(expected, dict) and isinstance(actual, dict):
        if expected.keys() != actual.keys():
            return [f"{path}: keys {sorted(actual)} != {sorted(expected)}"]
        return [m for k in expected
                for m in mismatches(expected[k], actual[k], f"{path}.{k}")]
    if isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            return [f"{path}: length {len(actual)} != {len(expected)}"]
        return [m for i, (e, a) in enumerate(zip(expected, actual))
                for m in mismatches(e, a, f"{path}[{i}]")]
    if isinstance(expected, float) or isinstance(actual, float):
        if (isinstance(expected, (int, float)) and isinstance(actual, (int, float))
                and not isinstance(expected, bool) and not isinstance(actual, bool)
                and math.isclose(actual, expected, rel_tol=RTOL, abs_tol=ATOL)):
            return []
    elif type(expected) is type(actual) and expected == actual:
        return []
    return [f"{path}: {actual!r} != {expected!r}"]


def load_reference(workload: str, scale: str) -> dict:
    """{seed string: result} recorded for this workload and scale."""
    if not REFERENCE.exists():
        return {}
    return json.loads(REFERENCE.read_text()).get(workload, {}).get(scale, {})


def expected_result(recorded: dict, seed: int):
    if not recorded:
        return None
    if str(seed) in recorded:
        return recorded[str(seed)]
    return common(list(recorded.values()))


def failures(ops: list[dict], expected) -> dict[str, str]:
    """{op id: reason} for every operation that failed.

    An op fails when it raised, when its result departs from `expected`
    (skipped when None), or when its result or artifact digest differs
    from the first operation that did not raise.
    """
    base = next((op for op in ops if op["error"] is None), None)
    failed = {}
    for op in ops:
        if op["error"] is not None:
            failed[op["id"]] = op["error"]
            continue
        reasons = mismatches(expected, op["result"]) if expected is not None else []
        if op is not base:
            if op["result"] != base["result"]:
                reasons.append("result differs from the run's first operation")
            if op["digest"] != base["digest"]:
                reasons.append("artifacts differ from the run's first operation")
        if reasons:
            failed[op["id"]] = "; ".join(reasons[:5])
    return failed


def record(workload: str, scale: str, seed: int, result) -> None:
    """Store `result` as the reference for (workload, scale, seed)."""
    ref = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    ref.setdefault(workload, {}).setdefault(scale, {})[str(seed)] = result
    REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")


def artifact_digest(out: Path) -> tuple[str, int]:
    """sha256 over every file's relative path and bytes; total byte count."""
    h = hashlib.sha256()
    total = 0
    for p in sorted(out.rglob("*")):
        if p.is_file():
            data = p.read_bytes()
            total += len(data)
            h.update(str(p.relative_to(out)).encode() + b"\0")
            h.update(hashlib.sha256(data).digest())
    return h.hexdigest(), total
