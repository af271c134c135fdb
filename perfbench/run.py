"""The egress controller's benchmark: one command, four workloads.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload pop-peak --seed 7 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing;
``--trace 1`` runs the same workload with per-layer timing wrappers
(``layertrace.py``) on two of every three ticks and reports the
per-layer metrics instead.  A human-readable table goes to stderr; the
last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``failed / attempted`` is the run's
failed fraction.  Each workload measures a fixed amount of work, sized
to take about ten seconds on a 2-vCPU host, so every run covers the
same simulated window however fast the host is; ``--seconds`` is
accepted for the benchmark's command line and does not change it.  The metric names, units and directions are the ones
in ``BENCHMARK.json``; ``README.md`` next to this file says what each
means on each workload.

With the default seed every run also checks a decision fingerprint
against ``reference.json``.  When decisions change on purpose, the
failed check prints the new fingerprint; copy it into
``reference.json`` by hand and say why in the change.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"
DEFAULT_SEED = 7

END_TO_END = [
    ("setup_s", "s", "lower"),
    ("tick_p50_ms", "ms", "lower"),
    ("tick_tail_ms", "ms", "lower"),
    ("sim_rate", "sim_s/s", "higher"),
    ("cycle_p50_ms", "ms", "lower"),
    ("cycle_tail_ms", "ms", "lower"),
    ("cold_cycle_s", "s", "lower"),
    ("delivered_spm", "samples/min", "higher"),
    ("peak_rss_mb", "MB", "lower"),
]


def _finite(value: float):
    return value if math.isfinite(value) else None


def build_result(outcome, trace: bool, seed: int) -> dict:
    """The JSON result for one run (also used by the self-test)."""
    from layertrace import LAYER_METRICS

    problems = list(outcome.problems)
    if seed == DEFAULT_SEED and outcome.workload != "wire-ingest":
        expected = json.loads(REFERENCE.read_text()).get(outcome.workload)
        if outcome.fingerprint != expected:
            problems.append(
                f"decision fingerprint {outcome.fingerprint} != "
                f"reference {expected}"
            )
    if trace:
        layers = dict(
            outcome.layers, **{"host.probe_ms": outcome.host.median_ms()}
        )
        metrics = {
            name: {"value": _finite(layers[name]), "unit": unit}
            for name, unit, _better, _moves in LAYER_METRICS
        }
    else:
        values = outcome.end_to_end()
        metrics = {
            name: {"value": _finite(values[name]), "unit": unit}
            for name, unit, _better in END_TO_END
        }
    outcome.problems = problems
    return {
        "correct": not problems and outcome.failed == 0,
        "attempted": max(1, int(outcome.attempted)),
        "failed": int(outcome.failed),
        "metrics": metrics,
    }


def render(outcome, result: dict, trace: bool) -> str:
    from layertrace import LAYER_METRICS

    probe_ms = outcome.host.median_ms()
    lines = [f"workload {outcome.workload}"]
    if trace:
        tick_ms = outcome.layers["trace.tick_ms"]
        for name, unit, better, moves in LAYER_METRICS:
            value = outcome.layers.get(name, probe_ms)
            share = calls = ""
            if unit == "ms" and not name.startswith(("trace.", "host.")):
                share = f"{100.0 * value / tick_ms:5.1f}%"
            if name in outcome.span_calls:
                calls = f"{outcome.span_calls[name]:9.1f}/tick"
            lines.append(
                f"  {name:30s} {value:12.4f} {unit:11s} {share:>6s} "
                f"{calls:>14s}  -> {moves}"
            )
        parts = sum(
            value
            for name, value in outcome.layers.items()
            if name.endswith("_ms") and not name.startswith("trace.")
        )
        lines.append(
            f"  self times + unattributed = {parts:.4f} ms; traced tick "
            f"wall = {tick_ms:.4f} ms over {len(outcome.traced_tick_s)} "
            f"traced ticks ({len(outcome.tick_s)} plain)"
        )
    else:
        for name, unit, better in END_TO_END:
            value = result["metrics"][name]["value"]
            lines.append(f"  {name:16s} {value!s:>22s} {unit:12s} {better}")
        lines.append(
            f"  tails are p{outcome.notes['tail_percentile']:g} over "
            f"{outcome.notes['tick_samples']} ticks and "
            f"{outcome.notes['cycle_samples']} cycles; median tick "
            f"{outcome.notes['raw_tick_p50_ms']} ms as measured, before "
            "scaling to the reference host speed"
        )
    lines.append(
        f"  failed_frac {result['failed']}/{result['attempted']}"
        f" = {result['failed'] / result['attempted']:.6f}"
    )
    extra = {
        key: value
        for key, value in outcome.notes.items()
        if key not in (
            "tail_percentile", "tick_samples", "cycle_samples", "raw_tick_p50_ms"
        )
    }
    lines.append(
        f"  host probe {probe_ms:.3f} ms" + (f"; {json.dumps(extra)}" if extra else "")
    )
    for problem in outcome.problems:
        lines.append(f"  CHECK FAILED: {problem}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument(
        "--seconds",
        type=float,
        default=10.0,
        help="accepted and ignored: each workload's work is fixed",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"error: no program source under {ROOT / 'src' / 'repro'}",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS, run_workload

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    trace = bool(args.trace)
    outcome = run_workload(args.workload, args.seed, trace)
    result = build_result(outcome, trace, args.seed)
    print(render(outcome, result, trace), file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
