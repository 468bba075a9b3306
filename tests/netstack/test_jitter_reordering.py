"""Tests for link jitter and TCP's behaviour under packet reordering."""

import numpy as np
import pytest

from repro.core import Simulator
from repro.netstack import Link, TcpEndpoint, ip
from repro.netstack.packet import PROTO_UDP, Packet


def make_packet(i):
    return Packet(proto=PROTO_UDP, src_ip=1, src_port=1, dst_ip=2, dst_port=2,
                  payload=b"p%03d" % i, packet_id=i)


class TestLinkJitter:
    def test_jitter_requires_rng(self):
        with pytest.raises(ValueError):
            Link(Simulator(), jitter_s=1e-6)

    def test_negative_jitter_rejected(self):
        with pytest.raises(ValueError):
            Link(Simulator(), jitter_s=-1.0, rng=np.random.default_rng(0))

    def test_jitter_reorders_packets(self):
        sim = Simulator()
        link = Link(sim, propagation_s=0.0, jitter_s=50e-6,
                    rng=np.random.default_rng(3))
        order = []
        link.attach(lambda p: order.append(p.packet_id))
        for i in range(50):
            link.send(make_packet(i))
        sim.run()
        assert len(order) == 50
        assert order != sorted(order)  # something arrived out of order

    def test_no_jitter_preserves_order(self):
        sim = Simulator()
        link = Link(sim, propagation_s=0.0)
        order = []
        link.attach(lambda p: order.append(p.packet_id))
        for i in range(50):
            link.send(make_packet(i))
        sim.run()
        assert order == sorted(order)


class TestTcpUnderReordering:
    def _transfer(self, jitter_s, seed=0, nbytes=40_000, until=30.0):
        sim = Simulator()
        rng = np.random.default_rng(seed)
        forward = Link(sim, jitter_s=jitter_s, rng=rng)
        backward = Link(sim, jitter_s=jitter_s, rng=rng)
        a = TcpEndpoint(sim, ip(10, 0, 0, 1), forward)
        b = TcpEndpoint(sim, ip(10, 0, 0, 2), backward)
        forward.attach(b.deliver)
        backward.attach(a.deliver)
        listener = b.listen(80)
        connection = a.connect(40000, ip(10, 0, 0, 2), 80)
        data = bytes(range(256)) * (nbytes // 256)
        received = []

        def server():
            conn = yield listener.accept()
            yield conn.established()
            received.append((yield conn.recv(len(data))))

        def client():
            yield connection.established()
            connection.send(data)

        sim.process(server())
        sim.process(client())
        sim.run(until=until)
        return data, received, connection

    @pytest.mark.parametrize("seed", [1, 2])
    def test_reordered_segments_reassemble_in_order(self, seed):
        data, received, _ = self._transfer(jitter_s=30e-6, seed=seed)
        assert received and received[0] == data

    def test_heavy_jitter_with_loss(self):
        sim_data = None
        sim = Simulator()
        rng = np.random.default_rng(9)
        forward = Link(sim, jitter_s=50e-6, loss_probability=0.05, rng=rng)
        backward = Link(sim, jitter_s=50e-6, loss_probability=0.05, rng=rng)
        a = TcpEndpoint(sim, ip(10, 0, 0, 1), forward)
        b = TcpEndpoint(sim, ip(10, 0, 0, 2), backward)
        forward.attach(b.deliver)
        backward.attach(a.deliver)
        listener = b.listen(80)
        connection = a.connect(40000, ip(10, 0, 0, 2), 80)
        data = bytes(range(256)) * 100
        received = []

        def server():
            conn = yield listener.accept()
            yield conn.established()
            received.append((yield conn.recv(len(data))))

        def client():
            yield connection.established()
            connection.send(data)

        sim.process(server())
        sim.process(client())
        sim.run(until=120.0)
        assert received and received[0] == data  # exactly-once, in order
