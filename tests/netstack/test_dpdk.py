"""Tests for the DPDK poll-mode model."""

import pytest

from repro.core import Simulator
from repro.netstack import (
    DuplexChannel,
    PollModePort,
    RxRing,
    run_poll_loop,
)
from repro.netstack.packet import PROTO_UDP, Packet


def make_packet(payload=b"x"):
    return Packet(proto=PROTO_UDP, src_ip=1, src_port=1, dst_ip=2, dst_port=2,
                  payload=payload)


class TestRxRing:
    def test_fifo(self):
        ring = RxRing(4)
        for label in (b"a", b"b"):
            ring.offer(make_packet(label))
        burst = ring.poll(10)
        assert [p.payload for p in burst] == [b"a", b"b"]

    def test_tail_drop(self):
        ring = RxRing(2)
        results = [ring.offer(make_packet()) for _ in range(3)]
        assert results == [True, True, False]
        assert ring.tail_drops == 1

    def test_burst_bound(self):
        ring = RxRing(100)
        for _ in range(50):
            ring.offer(make_packet())
        assert len(ring.poll(32)) == 32
        assert len(ring) == 18

    def test_size_validation(self):
        with pytest.raises(ValueError):
            RxRing(0)


class TestPollMode:
    def test_ping_pong(self):
        """The dpu-pingpong microbenchmark shape (§3.3)."""
        sim = Simulator()
        channel = DuplexChannel(sim)
        client_port = PollModePort(sim, channel.forward)
        server_port = PollModePort(sim, channel.backward)
        channel.forward.attach(server_port.deliver)
        channel.backward.attach(client_port.deliver)

        run_poll_loop(sim, server_port, lambda p: p.reply_template(p.payload),
                      stop_after=3)
        rtts = []

        def client():
            for i in range(3):
                sent_at = sim.now
                client_port.tx_burst([
                    Packet(proto=PROTO_UDP, src_ip=1, src_port=9, dst_ip=2,
                           dst_port=9, payload=b"ping%d" % i)
                ])
                while True:
                    burst = client_port.rx_burst()
                    if burst:
                        rtts.append(sim.now - sent_at)
                        break
                    yield sim.timeout(1e-7)

        sim.process(client())
        sim.run(until=1.0)
        assert len(rtts) == 3
        assert all(0 < rtt < 1e-4 for rtt in rtts)

    def test_poll_loop_counts(self):
        sim = Simulator()
        channel = DuplexChannel(sim)
        port = PollModePort(sim, channel.forward)
        channel.forward.attach(lambda p: None)
        channel.backward.attach(port.deliver)
        for i in range(5):
            channel.backward.send(make_packet(b"p%d" % i))
        process = run_poll_loop(sim, port, lambda p: None, stop_after=5)
        sim.run(until=1.0)
        assert process.value == 5
        assert port.rx_packets == 5

