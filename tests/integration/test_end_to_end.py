"""Integration tests: the substrates composed end-to-end on the kernel.

These are the "does the system actually work as a system" tests: a
Redis-shaped KVS served over the TCP state machine, and an inline IDS
on a UDP packet stream — each exercising several packages together.
"""

from repro.core import Simulator
from repro.functions.kvstore import KeyValueStore, encode_command
from repro.functions.regex.rulesets import load_ruleset
from repro.functions.snort import IntrusionDetector, PacketMeta
from repro.netstack import Link, TcpEndpoint, ip
from repro.netstack.packet import PROTO_UDP, Packet


class TestRedisOverTcp:
    def test_ycsb_style_session(self):
        """SET + GET round trips over the real TCP state machine."""
        sim = Simulator()
        forward, backward = Link(sim), Link(sim)
        client = TcpEndpoint(sim, ip(10, 0, 0, 1), forward)
        server = TcpEndpoint(sim, ip(10, 0, 0, 2), backward)
        forward.attach(server.deliver)
        backward.attach(client.deliver)

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
        """iperf-style UDP stream over the link into the IDS; seeded
        packets alert."""
        sim = Simulator()
        link = Link(sim)
        detector = IntrusionDetector.from_named_ruleset("file_executable")
        fragment = load_ruleset("file_executable").seed_fragments[0]
        inspected = []

        def ids(packet):
            alerts, _ = detector.inspect(
                PacketMeta("udp", packet.dst_port, packet.payload)
            )
            inspected.append(len(alerts))

        link.attach(ids)

        def sender_proc():
            for index in range(20):
                payload = b"benign traffic %03d" % index
                if index in (5, 13):
                    payload += fragment
                link.send(Packet(proto=PROTO_UDP, src_ip=ip(10, 0, 0, 1),
                                 src_port=9999, dst_ip=ip(10, 0, 0, 2),
                                 dst_port=53, payload=payload))
                yield sim.timeout(1e-5)

        sim.process(sender_proc())
        sim.run(until=1.0)
        assert len(inspected) == 20
        assert sum(1 for n in inspected if n > 0) == 2
        assert detector.stats.alerts >= 2
