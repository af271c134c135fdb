"""Tiny-size self-test of the benchmark (about a minute)::

    python3 perfbench/selftest.py

Runs every workload at a small size, untraced and traced, and checks
that each run emits exactly the metrics ``BENCHMARK.json`` names, each
with its unit and a finite value; that every correctness check passes;
that the traced run reproduces the untraced decision fingerprint (the
wrappers only observe); and that the per-layer self times plus
``unattributed_ms`` add up to the traced tick wall.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from run import build_result  # noqa: E402
from workloads import WORKLOADS, Scale, run_workload  # noqa: E402

TINY = Scale(
    setups=1,
    restarts=2,
    pop_ticks=20,
    steering_ticks=20,
    pop_fingerprint_ticks=10,
    table_v4=2_100,
    table_v6=600,
    table_cycles=20,
    table_fingerprint_cycles=17,
    wire_tick_seconds=0.25,
    wire_ticks=20,
    wire_samples_per_minute=600_000.0,
    wire_prime_datagrams=16,
)
SEED = 3


def check(condition: bool, message: str, failures: list) -> None:
    if not condition:
        failures.append(message)


def main() -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    failures: list = []
    for name in WORKLOADS:
        fingerprints = {}
        for trace, section in ((False, "end_to_end"), (True, "per_layer")):
            outcome = run_workload(name, SEED, trace, TINY)
            result = build_result(outcome, trace, SEED)
            where = f"{name} trace={int(trace)}"
            check(result["correct"], f"{where}: {outcome.problems}", failures)
            expected = {m["name"]: m["unit"] for m in spec[section]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            check(got == expected, f"{where}: metrics {got} != {expected}",
                  failures)
            for metric, body in result["metrics"].items():
                value = body["value"]
                check(
                    isinstance(value, (int, float)) and math.isfinite(value),
                    f"{where}: {metric} = {value!r}",
                    failures,
                )
            fingerprints[trace] = outcome.fingerprint
            if trace:
                layers = outcome.layers
                parts = sum(
                    value for key, value in layers.items()
                    if key.endswith("_ms") and not key.startswith("trace.")
                )
                check(
                    math.isclose(parts, layers["trace.tick_ms"], rel_tol=1e-9),
                    f"{where}: parts {parts} != tick {layers['trace.tick_ms']}",
                    failures,
                )
        check(
            fingerprints[False] == fingerprints[True],
            f"{name}: traced fingerprint differs from untraced",
            failures,
        )
        print(f"{name}: checked", file=sys.stderr)
    for failure in failures:
        print(f"FAIL {failure}", file=sys.stderr)
    print("selftest " + ("FAILED" if failures else "passed"), file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
