"""Open-loop load generator for the wire-ingest workload.

Runs as its own process so its sending never competes with the
controller's event loop.  It builds the same chaos-mini PoP as the
process under test (same PoP seed, so the same routers, peers and
routes), pre-encodes real sFlow datagrams for that PoP's agents, draws
its rotation from them with the workload seed, and then takes one JSON
command per line on stdin, answering each with one JSON line on stdout:

- ``{"pop_seed": P, "seed": N, "tick_seconds": T}`` (first line):
  build and encode; answers ``{"ready": true}``.
- ``{"op": "session", "bmp_port": P, "sflow_port": Q, "prime": M}``:
  open a BMP-over-TCP session per router, send the initial dump, then
  send M priming datagrams; answers the byte and datagram counts.
- ``{"op": "stream", "start_at": t, "seconds": D,
  "datagrams_per_second": R}``: send datagram *i* at ``t + i/R``
  (monotonic clock) for D seconds, whether or not the receiver keeps
  up, with a BMP statistics heartbeat every tick.  Each datagram
  carries its sequence number and due time (ms after ``t``) in its
  header.  Answers with what was sent and how late the sends ran.

End of input closes every socket and exits.
"""

from __future__ import annotations

import json
import random
import socket
import struct
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.bmp.exporter import BmpExporter  # noqa: E402
from repro.faults.scenario import build_chaos_deployment  # noqa: E402
from repro.io.soak import SoakConfig, build_datagram_pool  # noqa: E402

#: sFlow v5 header: version, agent address (16 B), sub-agent id, then
#: the sequence number and uptime fields the generator stamps.
_STAMP = struct.Struct("!II")
_STAMP_OFFSET = 24


def _reply(message) -> None:
    sys.stdout.write(json.dumps(message) + "\n")
    sys.stdout.flush()


#: Datagrams in the rotation, and how many candidates the seed draws
#: them from.
ROTATION = 256
CANDIDATES = 4 * ROTATION


class Generator:
    def __init__(self, pop_seed: int, seed: int, tick_seconds: float) -> None:
        deployment = build_chaos_deployment(
            seed=pop_seed, tick_seconds=tick_seconds
        )
        self.tick_seconds = tick_seconds
        self.speakers = list(deployment.wired.speakers.values())
        # Candidates differ in agent, sampled prefixes and egress
        # interfaces; the seed picks which are sent, in which order.
        candidates = build_datagram_pool(
            deployment, SoakConfig(pool_datagrams=CANDIDATES)
        )
        self.pool = [
            bytearray(datagram)
            for datagram in random.Random(seed).sample(candidates, ROTATION)
        ]
        # Every pooled datagram carries the same number of samples.
        count_offset = _STAMP_OFFSET + _STAMP.size
        self.per_datagram = int.from_bytes(
            self.pool[0][count_offset:count_offset + 4], "big"
        )
        self.tcp = []
        self.exporters = []
        self.udp = None
        self.sequence = 0

    def close_session(self) -> None:
        for sock in self.tcp:
            sock.close()
        self.tcp = []
        self.exporters = []
        if self.udp is not None:
            self.udp.close()
            self.udp = None

    def session(self, bmp_port: int, sflow_port: int, prime: int) -> dict:
        self.close_session()
        sent = [0]
        for speaker in self.speakers:
            sock = socket.create_connection(("127.0.0.1", bmp_port))
            self.tcp.append(sock)

            def sink(_router, data, _sock=sock):
                _sock.sendall(data)
                sent[0] += len(data)

            exporter = BmpExporter(speaker, sink)
            exporter.export_full_rib()
            self.exporters.append(exporter)
        self.udp = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        self.udp.connect(("127.0.0.1", sflow_port))
        for index in range(prime):
            self._send(index, 0)
        return {
            "bmp_bytes": sent[0],
            "datagrams": prime,
            "samples": prime * self.per_datagram,
            "per_datagram": self.per_datagram,
        }

    def _send(self, index: int, due_ms: int) -> None:
        datagram = self.pool[index % len(self.pool)]
        self.sequence += 1
        _STAMP.pack_into(
            datagram, _STAMP_OFFSET, self.sequence & 0xFFFFFFFF,
            due_ms & 0xFFFFFFFF,
        )
        self.udp.send(datagram)

    def stream(
        self, start_at: float, seconds: float, datagrams_per_second: float
    ) -> dict:
        total = int(seconds * datagrams_per_second)
        interval = 1.0 / datagrams_per_second
        lateness = []
        heartbeats = 0
        next_heartbeat = start_at + self.tick_seconds
        clock = time.monotonic
        sent = 0
        while sent < total:
            now = clock()
            if now >= next_heartbeat:
                for exporter in self.exporters:
                    exporter.heartbeat()
                heartbeats += 1
                next_heartbeat += self.tick_seconds
            due = start_at + sent * interval
            if due > now:
                time.sleep(min(due, next_heartbeat) - now)
                continue
            # Send everything due by now; each send's lateness is how
            # far behind its own schedule slot it went out.
            while sent < total:
                due = start_at + sent * interval
                if due > now:
                    break
                self._send(sent, int((due - start_at) * 1000.0))
                lateness.append(clock() - due)
                sent += 1
        lateness.sort()
        p99 = lateness[min(len(lateness) - 1, int(0.99 * len(lateness)))]
        return {
            "datagrams": sent,
            "samples": sent * self.per_datagram,
            "heartbeats": heartbeats,
            "late_max_ms": lateness[-1] * 1000.0,
            "late_p99_ms": p99 * 1000.0,
        }


def main() -> int:
    first = json.loads(sys.stdin.readline())
    generator = Generator(
        int(first["pop_seed"]), int(first["seed"]), float(first["tick_seconds"])
    )
    _reply({"ready": True})
    try:
        for line in sys.stdin:
            command = json.loads(line)
            op = command["op"]
            if op == "session":
                _reply(
                    generator.session(
                        int(command["bmp_port"]),
                        int(command["sflow_port"]),
                        int(command["prime"]),
                    )
                )
            elif op == "stream":
                _reply(
                    generator.stream(
                        float(command["start_at"]),
                        float(command["seconds"]),
                        float(command["datagrams_per_second"]),
                    )
                )
            else:
                raise ValueError(f"unknown command {op!r}")
    finally:
        generator.close_session()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
