"""Tests for TCP congestion control and adaptive RTO."""

import numpy as np
import pytest

from repro.core import Simulator
from repro.netstack import Link, TcpEndpoint, ip
from repro.netstack.tcp import DEFAULT_SSTHRESH, INITIAL_CWND, MIN_RTO, MSS


def make_pair(sim, loss=0.0, seed=0, gbps=100.0):
    rng = np.random.default_rng(seed)
    forward = Link(sim, gbps=gbps, loss_probability=loss, rng=rng)
    backward = Link(sim, gbps=gbps, loss_probability=loss, rng=rng)
    a = TcpEndpoint(sim, ip(10, 0, 0, 1), forward)
    b = TcpEndpoint(sim, ip(10, 0, 0, 2), backward)
    forward.attach(b.deliver)
    backward.attach(a.deliver)
    return a, b


def start_transfer(sim, a, b, nbytes):
    listener = b.listen(80)
    connection = a.connect(40000, ip(10, 0, 0, 2), 80)
    data = bytes(range(256)) * (nbytes // 256 + 1)
    data = data[:nbytes]
    received = []

    def server():
        conn = yield listener.accept()
        yield conn.established()
        payload = yield conn.recv(len(data))
        received.append(payload)

    def client():
        yield connection.established()
        connection.send(data)

    sim.process(server())
    sim.process(client())
    return connection, data, received


class TestCongestionWindow:
    def test_initial_window_rfc6928(self):
        sim = Simulator()
        a, b = make_pair(sim)
        connection, _, _ = start_transfer(sim, a, b, 1000)
        assert connection.cwnd == INITIAL_CWND * MSS

    def test_window_limits_in_flight(self):
        """A large send must not flood the wire: bytes in flight stay
        within cwnd at all times."""
        sim = Simulator()
        a, b = make_pair(sim)
        connection, _, _ = start_transfer(sim, a, b, 500 * MSS)
        sim.run(until=5e-4)  # mid-transfer
        assert connection.bytes_in_flight <= connection.cwnd + MSS

    def test_slow_start_doubles_window(self):
        sim = Simulator()
        a, b = make_pair(sim)
        connection, data, received = start_transfer(sim, a, b, 400 * MSS)
        sim.run(until=60.0)
        assert received and received[0] == data
        assert connection.cwnd > INITIAL_CWND * MSS  # grew during transfer

    def test_large_lossless_transfer_completes(self):
        sim = Simulator()
        a, b = make_pair(sim)
        connection, data, received = start_transfer(sim, a, b, 2000 * MSS)
        sim.run(until=120.0)
        assert received and received[0] == data
        assert connection.retransmissions == 0

    def test_timeout_collapses_window(self):
        sim = Simulator()
        a, b = make_pair(sim, loss=0.15, seed=2)
        connection, data, received = start_transfer(sim, a, b, 300 * MSS)
        sim.run(until=200.0)
        assert received and received[0] == data
        assert connection.retransmissions > 0
        assert connection.ssthresh < DEFAULT_SSTHRESH  # decrease happened

    def test_congestion_avoidance_linear_growth(self):
        """Past ssthresh, growth per ACK is ~MSS^2/cwnd, not +acked."""
        sim = Simulator()
        a, b = make_pair(sim)
        connection, _, _ = start_transfer(sim, a, b, 10 * MSS)
        connection.ssthresh = 1  # force congestion avoidance
        before = connection.cwnd
        connection._grow_cwnd(MSS)
        assert connection.cwnd - before <= MSS


class TestAdaptiveRto:
    def test_rto_adapts_to_path_rtt(self):
        """After samples on a microsecond-scale path, the RTO should fall
        from its conservative default toward the RTT scale."""
        sim = Simulator()
        a, b = make_pair(sim)
        connection, data, received = start_transfer(sim, a, b, 200 * MSS)
        sim.run(until=60.0)
        assert received
        assert connection.rto <= 20e-3
        assert connection.rto >= MIN_RTO

    def test_srtt_tracks_wire_latency(self):
        sim = Simulator()
        a, b = make_pair(sim)
        connection, data, received = start_transfer(sim, a, b, 100 * MSS)
        sim.run(until=60.0)
        assert received
        # propagation 500ns each way + serialization; srtt ~ microseconds
        assert 5e-7 < connection._srtt < 5e-3

    def test_backoff_on_repeated_loss(self):
        sim = Simulator()
        a, b = make_pair(sim, loss=0.35, seed=4)
        connection, data, received = start_transfer(sim, a, b, 50 * MSS)
        sim.run(until=400.0)
        assert received and received[0] == data  # still exactly-once

    def test_karns_rule_skips_retransmitted_samples(self):
        """Retransmitted segments must not poison the RTT estimate: after
        a retransmission storm the srtt stays near the real RTT, not the
        RTO scale."""
        sim = Simulator()
        a, b = make_pair(sim, loss=0.2, seed=6)
        connection, data, received = start_transfer(sim, a, b, 200 * MSS)
        sim.run(until=400.0)
        assert received
        if connection._srtt is not None:
            assert connection._srtt < 5e-3
