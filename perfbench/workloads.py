"""The four benchmark workloads, run against the real stack.

Each workload sets itself up ``Scale.setups`` times (``setup_s`` is the
median), keeps the last set-up, runs its first cycle unmeasured and
measures a fixed number of ticks, the same on every host.  Then the
controller is restarted ``Scale.restarts`` times; ``cold_cycle_s`` is
the median of the first cycles after them.  Every workload checks its
own outputs; see :class:`Outcome` for what a run returns.

Every time is reported at a reference host speed (:class:`HostClock`):
the host this benchmark was built on runs the same code up to ~1.7x
slower for stretches of seconds to minutes, as its neighbours come and
go, and a wall time alone cannot tell that from the program.

- ``pop-peak`` / ``pop-peak-steering``: ``PopDeployment`` for pop-a,
  stepped in closed loop (each 30 s simulated tick starts when the
  previous one ends) from the diurnal peak, safety checks on.
- ``fulltable-churn``: the dual-stack full-table scale scenario at a
  reduced size (same 7:2 v4:v6 ratio), aggregated injection, safety
  check after every cycle.
- ``wire-ingest``: chaos-mini with ``external_ingest``, fed over
  loopback sockets by an open-loop generator process
  (``generator.py``) at a fixed offered rate, ticking on wall-clock
  time.
"""

from __future__ import annotations

import asyncio
import gc
import hashlib
import json
import math
import random
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from layertrace import LayerTracer

HERE = Path(__file__).resolve().parent

WORKLOADS = ("pop-peak", "pop-peak-steering", "fulltable-churn", "wire-ingest")

#: Percentile grid for the tail metrics; a workload uses the highest
#: entry that leaves ten samples beyond it at its tick count.
_TAIL_GRID = (99.0, 95.0, 90.0, 75.0, 50.0)

PEAK_START = 64_800.0

#: The chaos-mini PoP ``wire-ingest`` always runs.
WIRE_POP_SEED = 7

#: What :func:`probe_ms` takes on the reference host.  Reported times
#: are walls scaled by this over the probe time measured around them.
REFERENCE_PROBE_MS = 2.0


def _probe_data() -> Tuple[List[float], List[int]]:
    """The probe's memory-bound half reads a 4 MB table of float
    objects at these random indices."""
    rng = random.Random(0)
    table = [rng.random() for _ in range(1 << 17)]
    return table, [rng.randrange(1 << 17) for _ in range(15_000)]


_PROBE_TABLE, _PROBE_READS = _probe_data()


@dataclass(frozen=True)
class Scale:
    """Run sizes; the self-test shrinks these."""

    setups: int = 3
    pop_ticks: int = 60
    steering_ticks: int = 40
    pop_fingerprint_ticks: int = 30
    table_v4: int = 14_000
    table_v6: int = 4_000
    table_cycles: int = 200
    table_fingerprint_cycles: int = 40
    wire_tick_seconds: float = 0.5
    wire_ticks: int = 40
    wire_samples_per_minute: float = 6_000_000.0
    wire_prime_datagrams: int = 64
    #: Refuse the run if the generator sent any datagram later than
    #: this after its due time (it fell behind its schedule).
    wire_max_lateness_seconds: float = 0.125
    #: Controller restarts after the measured window.
    restarts: int = 9


FULL = Scale()


def probe_ms() -> float:
    """How fast the host runs this kind of code right now, in ms: the
    geometric mean of two fixed loops, one bound by the interpreter and
    one by random memory reads (a few ms in all).  The program does
    both; on a contended host the second slows more than the first,
    and together they track the program's own slowdown."""
    clock = time.perf_counter
    started = clock()
    total = 0
    for value in range(20_000):
        total += value * value % 7
    interpreted = clock() - started
    table = _PROBE_TABLE
    started = clock()
    total = 0.0
    for index in _PROBE_READS:
        total += table[index]
    memory = clock() - started
    return math.sqrt(interpreted * memory) * 1000.0


class HostClock:
    """Scales walls to the reference host's speed.

    ``mark()`` probes the host before a piece of work; ``scale()``
    probes it after and returns the factor for that work: the
    reference probe time over the mean of the two probes.  Back-to-back
    pieces share the probe between them, so a closed loop calls
    ``mark()`` once and ``scale()`` after every tick.  The probes
    interleave with the work, so they see the host as the work saw it.
    """

    def __init__(self) -> None:
        self.probes: List[float] = []
        self._last = math.nan

    def mark(self) -> None:
        self._last = probe_ms()
        self.probes.append(self._last)

    def scale(self) -> float:
        before = self._last
        self.mark()
        return 2.0 * REFERENCE_PROBE_MS / (before + self._last)

    def median_ms(self) -> float:
        return _median(self.probes)


def tail_percentile(count: int) -> float:
    for pct in _TAIL_GRID:
        if count * (1.0 - pct / 100.0) >= 10.0:
            return pct
    return 50.0


def _median(values: List[float]) -> float:
    # NaN (reported as null) when a failed run collected no samples.
    return statistics.median(values) if values else math.nan


def nearest_rank(values: List[float], pct: float) -> float:
    if not values:
        return math.nan
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


@dataclass
class Outcome:
    """What one workload run measured and checked.

    Times are in seconds at the reference host speed, except
    ``raw_tick_s``, the plain ticks' walls as measured.
    """

    workload: str
    host: HostClock = field(default_factory=HostClock)
    setup_s: List[float] = field(default_factory=list)
    cold_cycle_s: List[float] = field(default_factory=list)
    #: Each measured tick (plain ticks only in a traced run); a failed
    #: tick is recorded as +inf so it misses any latency limit.
    tick_s: List[float] = field(default_factory=list)
    raw_tick_s: List[float] = field(default_factory=list)
    traced_tick_s: List[float] = field(default_factory=list)
    #: ``run_cycle`` of each cycle in the window, as the program
    #: measures it (``CycleReport.runtime_seconds`` or
    #: ``CycleCapture.wall_seconds``).
    cycle_s: List[float] = field(default_factory=list)
    sim_seconds: float = 0.0
    #: Closed loops: the sum of the scaled ticks.  ``wire-ingest``: the
    #: window's wall, which its schedule sets.
    wall_seconds: float = 0.0
    delivered: float = 0.0
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    fingerprint: Optional[str] = None
    layers: Dict[str, float] = field(default_factory=dict)
    #: Wrapped calls per traced tick, by span.
    span_calls: Dict[str, float] = field(default_factory=dict)
    notes: Dict[str, object] = field(default_factory=dict)

    def end_to_end(self) -> Dict[str, float]:
        pct = tail_percentile(len(self.tick_s))
        self.notes["tail_percentile"] = pct
        self.notes["tick_samples"] = len(self.tick_s)
        self.notes["cycle_samples"] = len(self.cycle_s)
        self.notes["raw_tick_p50_ms"] = round(
            _median(self.raw_tick_s) * 1000.0, 3
        )
        return {
            "setup_s": _median(self.setup_s),
            "tick_p50_ms": _median(self.tick_s) * 1000.0,
            "tick_tail_ms": nearest_rank(self.tick_s, pct) * 1000.0,
            "sim_rate": self.sim_seconds / self.wall_seconds,
            "cycle_p50_ms": _median(self.cycle_s) * 1000.0,
            "cycle_tail_ms": nearest_rank(self.cycle_s, pct) * 1000.0,
            "cold_cycle_s": _median(self.cold_cycle_s),
            "delivered_spm": self.delivered * 60.0 / self.wall_seconds,
            "peak_rss_mb": peak_rss_mb(),
        }


def peak_rss_mb() -> float:
    # ru_maxrss is KiB on Linux; children (the generator) are excluded.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _targets(table) -> List[List[str]]:
    return sorted([str(prefix), str(target)] for prefix, target in table.items())


def _runtime(report) -> Optional[float]:
    """A cycle's wall as the controller measured it: None when no cycle
    ran, +inf when it was skipped (a failed operation)."""
    if report is None:
        return None
    return math.inf if report.skipped else report.runtime_seconds


def _set_up(outcome: Outcome, count: int, build: Callable[[], object]):
    """Build *count* times, timing each; returns the last build."""
    built = None
    for _ in range(count):
        built = None
        gc.collect()
        outcome.host.mark()
        started = time.perf_counter()
        built = build()
        wall = time.perf_counter() - started
        outcome.setup_s.append(wall * outcome.host.scale())
    gc.collect()
    return built


class LayerCounts:
    """Observers for the traced ticks' per-layer counts."""

    def __init__(self) -> None:
        self.samples = 0
        self.decode_errors = 0
        self.cycles = 0
        self.reuse = 0
        self.detours = 0
        self.installed = 0
        self.announced = 0
        self.withdrawn = 0
        self.snapshots = 0
        self.full = 0
        self.dirty = 0

    def feed(self, stats) -> None:
        self.samples += stats.samples
        self.decode_errors += stats.decode_errors

    def cycle(self, report) -> None:
        if report.skipped:
            return
        self.cycles += 1
        self.reuse += report.decision_path == "reuse"
        self.detours += report.detour_count
        self.installed += report.installed_overrides
        self.announced += report.announced
        self.withdrawn += report.withdrawn

    def snapshot(self, inputs) -> None:
        self.snapshots += 1
        if inputs.dirty_prefixes is None:
            self.full += 1
        else:
            self.dirty += len(inputs.dirty_prefixes)


def _trace_controller(tracer: LayerTracer, controller, counts) -> None:
    tracer.add(controller, "run_cycle", "core.cycle_self", counts.cycle)
    tracer.add(
        controller.assembler, "snapshot", "core.snapshot", counts.snapshot
    )
    tracer.add(controller.allocator, "allocate", "core.allocate")
    if controller.steering is not None:
        tracer.add(controller.steering, "run", "core.steering")
    tracer.add(controller.overrides, "reconcile", "core.overrides")
    if controller.aggregator is not None:
        tracer.add(controller.aggregator, "reconcile", "core.aggregate")
    tracer.add(controller.injector, "apply", "core.injector")
    audit = controller.telemetry.audit
    tracer.add(audit, "record_cycle", "obs.audit")
    tracer.add(audit, "set_installed_aggregates", "obs.audit")
    # The maintained projection is created by the first (cold) cycle
    # and only replaced by a crash, which no workload injects during
    # its window.
    projection = controller._incremental
    if projection is not None:
        tracer.add(projection, "apply", "core.projection_apply")
        tracer.add(projection, "rebuild", "core.projection_rebuild")


def _trace_deployment(tracer: LayerTracer, deployment, counts) -> None:
    simulator = deployment.simulator
    tracer.add(simulator, "tick", "dataplane.tick_self")
    tracer.add(deployment.demand, "rates_bps", "traffic.demand")
    tracer.add_leaf(simulator.view, "injected_specifics", "dataplane.specifics")
    for agent in simulator.agents.values():
        tracer.add(agent, "observe", "sflow.encode")
    tracer.add(deployment.sflow, "feed_many", "sflow.feed", counts.feed)
    tracer.add(deployment.bmp, "feed", "bmp.feed")
    for exporter in deployment.exporters:
        tracer.add(exporter, "heartbeat", "bmp.heartbeat")
        # In-process exporters captured the collector's bound feed at
        # construction; their sink is where route bytes enter.
        tracer.add(exporter, "_sink", "bmp.feed")
    tracer.add(deployment.altpath, "measure_round", "measurement.altpath")
    if deployment.safety is not None:
        tracer.add(deployment.safety, "check", "core.safety")
    if deployment.health is not None:
        tracer.add(deployment.health, "on_cycle", "obs.health")
    _trace_controller(tracer, deployment.controller, counts)


def _traced_tick(index: int) -> bool:
    # Two of every three ticks are traced, the third is plain.  Period
    # three never lines up with the controller's every-16th-cycle
    # reconciliation, so both kinds of tick see reconciliations.
    return index % 3 != 0


def _layers(
    tracer: LayerTracer, counts: LayerCounts, outcome: Outcome, extra
) -> Dict[str, float]:
    """Per-layer metrics of a traced run; ms at the reference speed,
    scaled by the run's median probe."""
    ticks = tracer.root_ticks
    scale = REFERENCE_PROBE_MS / outcome.host.median_ms()
    layers = {
        f"{span}_ms": tracer.self_ms(span) * scale for span in tracer.spans
    }
    outcome.span_calls = {
        f"{span}_ms": acc[2] / ticks for span, acc in tracer.spans.items()
    }
    feed = tracer.spans["sflow.feed"]
    specifics = tracer.spans["dataplane.specifics"]
    cycles = counts.cycles
    layers.update(
        {
            "unattributed_ms": tracer.unattributed * 1000.0 / ticks * scale,
            "trace.tick_ms": tracer.root_wall * 1000.0 / ticks * scale,
            "trace.overhead_ms": (
                _median(outcome.traced_tick_s) - _median(outcome.tick_s)
            )
            * 1000.0,
            "sflow.s_per_msample": (
                feed[1] / counts.samples * 1e6 if counts.samples else 0.0
            ),
            "sflow.samples": counts.samples / ticks,
            "sflow.decode_errors": counts.decode_errors / ticks,
            "dataplane.specifics_calls": specifics[2] / ticks,
            "dataplane.specifics_hit_ratio": (
                specifics[3] / specifics[2] if specifics[2] else 0.0
            ),
            "core.snapshot_dirty": (
                counts.dirty / counts.snapshots if counts.snapshots else 0.0
            ),
            "core.snapshot_full": (
                counts.full / counts.snapshots if counts.snapshots else 0.0
            ),
            "core.detours": counts.detours / cycles if cycles else 0.0,
            "core.reuse_ratio": counts.reuse / cycles if cycles else 0.0,
            "core.install_ratio": (
                counts.detours / counts.installed if counts.installed else 0.0
            ),
            "core.announced": counts.announced / cycles if cycles else 0.0,
            "core.withdrawn": counts.withdrawn / cycles if cycles else 0.0,
            "io.datagrams": 0.0,
            "io.queue_peak": 0.0,
            "io.shed": 0.0,
            "bmp.messages": 0.0,
            "core.steering_transitions": 0.0,
        }
    )
    layers.update(extra)
    return layers


def _record_tick(
    outcome: Outcome,
    tracer: Optional[LayerTracer],
    traced: bool,
    ok: bool,
    wall: float,
    cycle: Optional[float],
) -> None:
    """Book one measured tick of *wall* seconds whose cycle, if one
    ran, took *cycle*; scales both by the probes around the tick."""
    factor = outcome.host.scale()
    outcome.attempted += 1
    outcome.failed += not ok
    if cycle is not None:
        outcome.cycle_s.append(cycle * factor)
    scaled = wall * factor if ok else math.inf
    if traced:
        tracer.end_root(wall)
        tracer.remove()
        outcome.traced_tick_s.append(scaled)
    else:
        outcome.tick_s.append(scaled)
        outcome.raw_tick_s.append(wall)
    outcome.wall_seconds += wall * factor


def _measure_loop(
    outcome: Outcome,
    count: int,
    step: Callable[[], Tuple[bool, Optional[float]]],
    tracer: Optional[LayerTracer],
) -> None:
    """Closed loop: call ``step()`` *count* times back to back.
    ``step`` returns whether the operation succeeded (no skipped cycle,
    safety violation or projection drift) and its cycle's wall."""
    clock = time.perf_counter
    outcome.host.mark()
    for index in range(count):
        traced = tracer is not None and _traced_tick(index)
        if traced:
            tracer.install()
            tracer.begin_root()
        started = clock()
        ok, cycle = step()
        _record_tick(outcome, tracer, traced, ok, clock() - started, cycle)


def _cold_cycles(outcome: Outcome, restart: Callable, count: int) -> None:
    """After the measured window, restart the controller *count* times
    and record the first cycle after each.  A restart flushes the
    controller's state, so that cycle takes a full snapshot and
    rebuilds the projection: the time to a first decision, without the
    set-up's one-time costs."""
    host = outcome.host
    for _ in range(count):
        host.mark()
        ok, cycle = restart()
        factor = host.scale()
        if not ok:
            outcome.problems.append("the first cycle after a restart failed")
            return
        outcome.cold_cycle_s.append(cycle * factor)


def _check_safety(outcome: Outcome, safety) -> None:
    if safety.violations:
        outcome.problems.append(
            f"{len(safety.violations)} safety violations "
            f"(first: {safety.violations[0].invariant})"
        )


# -- pop-peak / pop-peak-steering ------------------------------------------


def run_pop(
    seed: int, trace: bool, scale: Scale = FULL, steering: bool = False
) -> Outcome:
    from repro.core.config import ControllerConfig
    from repro.core.pipeline import PopDeployment

    outcome = Outcome("pop-peak-steering" if steering else "pop-peak")
    # The CLI's steering shape: closed loop armed, measurement rounds
    # every other tick over the top 100 prefixes.
    extra = (
        dict(altpath_every_ticks=2, altpath_prefix_count=100)
        if steering
        else {}
    )
    # The PoP is always the canonical pop-a; the seed draws its traffic
    # (demand, and the capacity provisioned against it) and the
    # alternate paths' performance.  Seed 7 is pop-a's own demand seed.
    deployment = _set_up(
        outcome,
        scale.setups,
        lambda: PopDeployment.build(
            pop_name="pop-a",
            seed=7,
            demand_overrides={"seed": seed + 1},
            path_model_seed=seed,
            controller_config=ControllerConfig(performance_aware=steering),
            safety_checks=True,
            **extra,
        ),
    )

    record = deployment.record
    safety = deployment.safety
    controller = deployment.controller
    now = [PEAK_START]
    deployment.step(now[0])  # the first cycle after the build, unmeasured
    fingerprint_ticks = scale.pop_fingerprint_ticks

    def maybe_fingerprint() -> None:
        if len(record.ticks) == fingerprint_ticks:
            outcome.fingerprint = _digest(
                {
                    "ticks": [
                        [
                            tick.time,
                            tick.offered.bits_per_second,
                            tick.dropped.bits_per_second,
                            tick.detoured.bits_per_second,
                        ]
                        for tick in record.ticks
                    ],
                    "overrides": _targets(
                        controller.overrides.active_targets()
                    ),
                }
            )

    tracer = counts = None
    if trace:
        tracer, counts = LayerTracer(), LayerCounts()
        _trace_deployment(tracer, deployment, counts)

    samples_before = deployment.sflow.samples
    messages_before = deployment.bmp.stats.messages
    transitions_before = (
        len(controller.steering.transitions) if controller.steering else 0
    )

    def step() -> Tuple[bool, Optional[float]]:
        now[0] += deployment.tick_seconds
        violations = len(safety.violations)
        reports = len(record.cycle_reports)
        deployment.step(now[0])
        maybe_fingerprint()
        report = (
            record.cycle_reports[-1]
            if len(record.cycle_reports) > reports
            else None
        )
        ok = len(safety.violations) == violations and (
            report is None or not report.skipped
        )
        return ok, _runtime(report)

    ticks = scale.steering_ticks if steering else scale.pop_ticks
    _measure_loop(outcome, ticks, step, tracer)
    outcome.sim_seconds = ticks * deployment.tick_seconds
    outcome.delivered = deployment.sflow.samples - samples_before
    if outcome.fingerprint is None:
        outcome.problems.append("run ended before the fingerprint tick")
    if trace:
        extra_layers = {
            "bmp.messages": (deployment.bmp.stats.messages - messages_before)
            / ticks,
        }
        if controller.steering is not None:
            extra_layers["core.steering_transitions"] = (
                len(controller.steering.transitions) - transitions_before
            ) / len(outcome.cycle_s)
        outcome.layers = _layers(tracer, counts, outcome, extra_layers)

    def restart() -> Tuple[bool, Optional[float]]:
        # At the last tick's time, so the traffic it fed is still
        # fresh; only the control phase runs, not the simulator.
        violations = len(safety.violations)
        deployment.crash_controller(now[0])
        deployment.restart_controller(now[0])
        report = deployment.control_step(now[0])
        ok = (
            report is not None
            and not report.skipped
            and len(safety.violations) == violations
        )
        return ok, _runtime(report)

    _cold_cycles(outcome, restart, scale.restarts)
    _check_safety(outcome, safety)
    return outcome


# -- fulltable-churn -------------------------------------------------------


def run_fulltable(seed: int, trace: bool, scale: Scale = FULL) -> Outcome:
    from repro.core.scale import ScaleConfig, ScaleScenario

    outcome = Outcome("fulltable-churn")
    # The estimator window spans more cycles than any run reaches, so a
    # rate fed once holds until churn touches it.
    config = ScaleConfig.full_table(
        prefix_count=scale.table_v4,
        ipv6_prefix_count=scale.table_v6,
        dual_stack=True,
        cycles=5 * (scale.table_cycles + scale.restarts),
        seed=seed,
    )
    scenario = _set_up(
        outcome,
        scale.setups,
        lambda: ScaleScenario(config, incremental=True),
    )

    controller = scenario.controller
    safety = scenario.safety
    scenario.run_one_cycle(0)  # the first cycle after the build, unmeasured
    cycle = [0]
    tracer = counts = None
    if trace:
        tracer, counts = LayerTracer(), LayerCounts()
        _trace_controller(tracer, controller, counts)
        tracer.add(safety, "check", "core.safety")

    def step() -> Tuple[bool, float]:
        cycle[0] += 1
        violations = len(safety.violations)
        capture = scenario.run_one_cycle(cycle[0])
        if cycle[0] == scale.table_fingerprint_cycles:
            outcome.fingerprint = _digest(
                {
                    "desired": _targets(capture.overrides),
                    "installed": _targets(capture.installed),
                }
            )
        ok = len(safety.violations) == violations and not controller.last_drift
        return ok, capture.wall_seconds

    _measure_loop(outcome, scale.table_cycles, step, tracer)
    outcome.sim_seconds = scale.table_cycles * config.cycle_seconds
    # A "sample" here is one churn event (rate update or route flap)
    # delivered straight into the collectors.
    outcome.delivered = scale.table_cycles * int(
        config.total_prefix_count * config.churn_fraction
    )
    if outcome.fingerprint is None:
        outcome.problems.append("run ended before the fingerprint cycle")
    if trace:
        outcome.layers = _layers(tracer, counts, outcome, {})

    def restart() -> Tuple[bool, float]:
        # What PopDeployment.crash_controller / restart_controller do.
        scenario.injector.teardown_sessions()
        controller.crash(cycle[0] * config.cycle_seconds)
        scenario.assembler.force_full_snapshot()
        scenario.injector.reestablish_sessions()
        return step()

    _cold_cycles(outcome, restart, scale.restarts)
    _check_safety(outcome, safety)
    return outcome


# -- wire-ingest -----------------------------------------------------------


class GeneratorProcess:
    """The open-loop load generator process (``generator.py``)."""

    def __init__(self, process) -> None:
        self.process = process

    @classmethod
    async def start(
        cls, pop_seed: int, seed: int, tick_seconds: float
    ) -> "GeneratorProcess":
        process = await asyncio.create_subprocess_exec(
            sys.executable,
            str(HERE / "generator.py"),
            stdin=asyncio.subprocess.PIPE,
            stdout=asyncio.subprocess.PIPE,
        )
        generator = cls(process)
        await generator.request(
            {"pop_seed": pop_seed, "seed": seed, "tick_seconds": tick_seconds},
            timeout=60.0,
        )
        return generator

    async def request(self, message: Dict, timeout: float = 30.0) -> Dict:
        self.send(message)
        return await self.reply(timeout)

    def send(self, message: Dict) -> None:
        self.process.stdin.write((json.dumps(message) + "\n").encode())

    async def reply(self, timeout: float) -> Dict:
        line = await asyncio.wait_for(
            self.process.stdout.readline(), timeout
        )
        if not line:
            raise RuntimeError("generator exited early")
        return json.loads(line)

    async def stop(self) -> None:
        process = self.process
        if process.returncode is None:
            try:
                process.stdin.close()
            except (BrokenPipeError, ConnectionResetError):
                pass
            try:
                await asyncio.wait_for(process.wait(), 10.0)
            except asyncio.TimeoutError:
                process.kill()
                await process.wait()


def run_wire(seed: int, trace: bool, scale: Scale = FULL) -> Outcome:
    return asyncio.run(_run_wire(seed, trace, scale))


async def _wire_setup(generator: GeneratorProcess, scale: Scale):
    """Build, bind and ingest the initial BMP dump (that is set-up),
    then wait for a small priming batch of sFlow."""
    from repro.faults.scenario import build_chaos_deployment
    from repro.io.engine import WireIngest

    started = time.perf_counter()
    deployment = build_chaos_deployment(
        seed=WIRE_POP_SEED,
        tick_seconds=scale.wire_tick_seconds,
        safety_checks=True,
        health_checks=True,
        external_ingest=True,
    )
    ingest = WireIngest(
        deployment,
        queue_capacity=16384,
        max_datagram_age=deployment.config.max_input_age_seconds,
    )
    sflow_addr, bmp_addr = await ingest.start()
    sent = await generator.request(
        {
            "op": "session",
            "bmp_port": bmp_addr[1],
            "sflow_port": sflow_addr[1],
            "prime": scale.wire_prime_datagrams,
        }
    )
    await ingest.wait_until(
        lambda: sum(ingest.bmp.bytes_received.values()) >= sent["bmp_bytes"],
        timeout=30.0,
        what="initial BMP dump",
    )
    ingest.bmp.process()
    setup = time.perf_counter() - started
    await ingest.wait_until(
        lambda: ingest.stats.datagrams_received >= sent["datagrams"],
        timeout=30.0,
        what="priming datagrams",
    )
    return deployment, ingest, setup, sent


async def _run_wire(seed: int, trace: bool, scale: Scale) -> Outcome:
    outcome = Outcome("wire-ingest")
    host = outcome.host
    # The PoP is always the canonical chaos-mini; the seed draws the
    # generator's datagram rotation.
    generator = await GeneratorProcess.start(
        WIRE_POP_SEED, seed, scale.wire_tick_seconds
    )
    ingest = None
    try:
        for _ in range(scale.setups):
            if ingest is not None:
                ingest.close()
            deployment = ingest = None
            gc.collect()
            host.mark()
            deployment, ingest, setup, primed = await _wire_setup(
                generator, scale
            )
            outcome.setup_s.append(setup * host.scale())
        gc.collect()
        # The first cycle after the build, on the priming batch;
        # unmeasured.
        now = scale.wire_tick_seconds
        deployment.current_time = now
        ingest.process_pending(now)
        ingest.control_step(now)
        await _wire_measure(
            outcome, generator, deployment, ingest, primed, trace, scale
        )

        def restart() -> Tuple[bool, Optional[float]]:
            # At the last tick's deployment time, so the traffic the
            # last drain fed is still fresh.
            now = deployment.current_time
            violations = len(deployment.safety.violations)
            deployment.crash_controller(now)
            deployment.restart_controller(now)
            report = ingest.control_step(now)
            ok = (
                report is not None
                and not report.skipped
                and len(deployment.safety.violations) == violations
            )
            return ok, _runtime(report)

        _cold_cycles(outcome, restart, scale.restarts)
        _check_safety(outcome, deployment.safety)
    finally:
        if ingest is not None:
            ingest.close()
        await generator.stop()
    return outcome


async def _wire_measure(
    outcome, generator, deployment, ingest, primed, trace, scale
) -> None:
    tick = scale.wire_tick_seconds
    ticks = scale.wire_ticks
    rate_dps = scale.wire_samples_per_minute / 60.0 / primed["per_datagram"]
    safety = deployment.safety
    stats = ingest.stats
    tracer = counts = None
    if trace:
        tracer, counts = LayerTracer(), LayerCounts()
        _trace_deployment(tracer, deployment, counts)
        tracer.add(ingest, "process_pending", "io.drain")

    fed_before = stats.samples_fed
    received_before = stats.datagrams_received
    messages_before = deployment.bmp.stats.messages
    base_time = deployment.current_time
    outcome.host.mark()
    start_at = time.monotonic() + 0.25
    generator.send(
        {
            "op": "stream",
            "start_at": start_at,
            "seconds": ticks * tick,
            "datagrams_per_second": rate_dps,
        }
    )
    clock = time.monotonic
    for index in range(ticks):
        due = start_at + (index + 1) * tick
        delay = due - clock()
        if delay > 0:
            await asyncio.sleep(delay)
        traced = tracer is not None and _traced_tick(index)
        if traced:
            tracer.install()
            tracer.begin_root()
        now = base_time + (index + 1) * tick
        deployment.current_time = now
        violations = len(safety.violations)
        ingest.process_pending(now)
        report = ingest.control_step(now)
        ok = (
            report is not None
            and not report.skipped
            and len(safety.violations) == violations
        )
        # The probe after the tick runs in the idle time before the
        # next one is due.
        _record_tick(
            outcome, tracer, traced, ok, clock() - due, _runtime(report)
        )
        if not ok:
            outcome.problems.append(f"control tick {index} failed")
    # The schedule sets this window's length, not the host.
    outcome.wall_seconds = clock() - start_at
    outcome.sim_seconds = ticks * tick

    report = await generator.reply(timeout=30.0)
    sent_datagrams = primed["datagrams"] + report["datagrams"]
    sent_samples = primed["samples"] + report["samples"]
    # Everything sent must arrive and be drained before the books
    # close; what never arrives is counted below as undelivered.
    try:
        await ingest.wait_until(
            lambda: stats.datagrams_received
            + stats.queue_dropped
            >= sent_datagrams,
            timeout=5.0,
            what="in-flight datagrams",
        )
    except RuntimeError:
        pass
    ingest.process_pending(deployment.current_time)
    delivered = stats.samples_fed
    outcome.attempted = sent_samples
    outcome.failed = sent_samples - delivered
    outcome.delivered = delivered - fed_before
    outcome.notes.update(
        {
            "offered_spm": scale.wire_samples_per_minute,
            "sent_samples": sent_samples,
            "delivered_samples": delivered,
            "queue_dropped": stats.queue_dropped,
            "stale_expired": stats.stale_expired,
            "decode_errors": stats.decode_errors,
            "generator_late_max_ms": report["late_max_ms"],
            "generator_late_p99_ms": report["late_p99_ms"],
        }
    )
    if delivered != sent_samples:
        outcome.problems.append(
            f"delivered {delivered} samples of {sent_samples} sent"
        )
    if stats.decode_errors:
        outcome.problems.append(f"{stats.decode_errors} decode errors")
    if report["late_max_ms"] > scale.wire_max_lateness_seconds * 1000.0:
        outcome.problems.append(
            "INVALID: the generator fell behind its schedule by "
            f"{report['late_max_ms']:.1f} ms"
        )
    if trace:
        outcome.layers = _layers(
            tracer,
            counts,
            outcome,
            {
                "io.datagrams": (stats.datagrams_received - received_before)
                / ticks,
                "io.queue_peak": float(stats.peak_queue_depth),
                "io.shed": float(stats.queue_dropped + stats.stale_expired),
                "bmp.messages": (deployment.bmp.stats.messages - messages_before)
                / ticks,
            },
        )


RUNNERS = {
    "pop-peak": lambda seed, trace, scale: run_pop(seed, trace, scale),
    "pop-peak-steering": lambda seed, trace, scale: run_pop(
        seed, trace, scale, steering=True
    ),
    "fulltable-churn": run_fulltable,
    "wire-ingest": run_wire,
}


def run_workload(
    name: str, seed: int, trace: bool, scale: Scale = FULL
) -> Outcome:
    return RUNNERS[name](seed, trace, scale)
