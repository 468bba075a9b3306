"""Integration tests: the substrates composed end-to-end on the kernel.

These are the "does the system actually work as a system" tests: a
Redis-shaped KVS served over the TCP state machine, an inline IDS on a
UDP packet stream, an accelerator offload pipeline fed by DPDK rings,
and power sensors observing a workload — each exercising several
packages together.
"""

import numpy as np
import pytest

from repro.core import Simulator, Store
from repro.functions.kvstore import KeyValueStore, encode_command
from repro.functions.regex.rulesets import load_ruleset
from repro.functions.snort import IntrusionDetector, PacketMeta
from repro.netstack import (
    DuplexChannel,
    PollModePort,
    TcpEndpoint,
    UdpEndpoint,
    ip,
    run_poll_loop,
)
from repro.power import BmcSensor, ComponentLoad, ServerPowerModel


class TestRedisOverTcp:
    def test_ycsb_style_session(self):
        """SET + GET round trips over the real TCP state machine."""
        sim = Simulator()
        channel = DuplexChannel(sim)
        client = TcpEndpoint(sim, ip(10, 0, 0, 1), channel.forward)
        server = TcpEndpoint(sim, ip(10, 0, 0, 2), channel.backward)
        channel.forward.attach(server.deliver)
        channel.backward.attach(client.deliver)

        store = KeyValueStore()
        listener = server.listen(6379)
        responses = []

        def server_proc():
            connection = yield listener.accept()
            yield connection.established()
            for _ in range(3):
                header = yield connection.recv(4)
                length = int(header)
                command = yield connection.recv(length)
                response, _ = store.execute(command)
                connection.send(response)

        def client_proc():
            connection = client.connect(40000, ip(10, 0, 0, 2), 6379)
            yield connection.established()
            for command in (
                encode_command(b"SET", b"user1", b"alice"),
                encode_command(b"GET", b"user1"),
                encode_command(b"GET", b"ghost"),
            ):
                connection.send(b"%04d" % len(command) + command)
                # replies are small; read what each command produces
            responses.append((yield connection.recv(5)))   # +OK\r\n
            responses.append((yield connection.recv(11)))  # $5\r\nalice\r\n
            responses.append((yield connection.recv(5)))   # $-1\r\n

        sim.process(server_proc())
        sim.process(client_proc())
        sim.run(until=5.0)
        assert responses == [b"+OK\r\n", b"$5\r\nalice\r\n", b"$-1\r\n"]
        assert store.stats.sets == 1
        assert store.stats.hits == 1
        assert store.stats.misses == 1


class TestSnortInline:
    def test_ids_alerts_on_udp_stream(self):
        """iperf-style UDP stream through the IDS; seeded packets alert."""
        sim = Simulator()
        channel = DuplexChannel(sim)
        client = UdpEndpoint(sim, ip(10, 0, 0, 1), channel.forward)
        server = UdpEndpoint(sim, ip(10, 0, 0, 2), channel.backward)
        channel.forward.attach(server.deliver)
        channel.backward.attach(client.deliver)

        detector = IntrusionDetector.from_named_ruleset("file_executable")
        fragment = load_ruleset("file_executable").seed_fragments[0]
        socket = server.bind(53)
        inspected = []

        def ids_proc():
            for _ in range(20):
                packet = yield socket.recv()
                alerts, _ = detector.inspect(
                    PacketMeta("udp", packet.dst_port, packet.payload)
                )
                inspected.append(len(alerts))

        def sender_proc():
            client_socket = client.bind(9999)
            for index in range(20):
                payload = b"benign traffic %03d" % index
                if index in (5, 13):
                    payload += fragment
                client_socket.sendto(payload, ip(10, 0, 0, 2), 53)
                yield sim.timeout(1e-5)

        sim.process(ids_proc())
        sim.process(sender_proc())
        sim.run(until=1.0)
        assert len(inspected) == 20
        assert sum(1 for n in inspected if n > 0) == 2
        assert detector.stats.alerts >= 2


class TestAcceleratorPipeline:
    def test_dpdk_staged_batch_offload(self):
        """§2.2's REM flow: DPDK rx ring -> staging buffer -> batched
        accelerator tasks, on the event kernel."""
        sim = Simulator()
        channel = DuplexChannel(sim)
        port = PollModePort(sim, channel.forward)
        channel.forward.attach(lambda p: None)
        channel.backward.attach(port.deliver)

        staging = Store(sim, capacity=256)
        completed = []

        def staging_core():
            """SNIC CPU core: polls the ring, stages buffers."""
            moved = 0
            while moved < 64:
                burst = port.rx_burst(32)
                if not burst:
                    yield sim.timeout(1e-6)
                    continue
                for packet in burst:
                    yield staging.put(packet)
                    moved += 1

        def accelerator():
            """Batch engine: drains up to 16 buffers, 2 us per task."""
            processed = 0
            while processed < 64:
                batch = []
                first = yield staging.get()
                batch.append(first)
                while len(batch) < 16 and len(staging) > 0:
                    batch.append((yield staging.get()))
                yield sim.timeout(2e-6 + 0.1e-6 * len(batch))
                completed.append(len(batch))
                processed += len(batch)

        from repro.netstack.packet import PROTO_UDP, Packet

        for index in range(64):
            channel.backward.send(
                Packet(proto=PROTO_UDP, src_ip=1, src_port=1, dst_ip=2,
                       dst_port=2, payload=b"x" * 64, packet_id=index)
            )
        sim.process(staging_core())
        sim.process(accelerator())
        sim.run(until=1.0)
        assert sum(completed) == 64
        assert max(completed) > 1  # batching actually happened


class TestPowerObservation:
    def test_bmc_sees_load_transition(self):
        """BMC sampling a server that goes busy halfway through."""
        sim = Simulator()
        model = ServerPowerModel()

        def power_fn(t):
            load = ComponentLoad(host_busy_cores=8.0 if t >= 30.0 else 0.0)
            return model.power(load)

        trace = BmcSensor(rng=np.random.default_rng(0)).attach(
            sim, power_fn, duration=60.0
        )
        sim.run(until=60.0)
        idle_readings = [w for t, w in zip(trace.times, trace.watts) if t < 30.0]
        busy_readings = [w for t, w in zip(trace.times, trace.watts) if t >= 30.0]
        assert np.mean(idle_readings) == pytest.approx(252.0, abs=2.0)
        assert np.mean(busy_readings) > 330.0
