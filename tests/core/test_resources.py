"""Unit tests for the Resource queueing primitive."""

import pytest

from repro.core import Resource, SimulationError, Simulator


def test_resource_capacity_validation():
    sim = Simulator()
    with pytest.raises(SimulationError):
        Resource(sim, capacity=0)


def test_single_server_serializes_work():
    sim = Simulator()
    core = Resource(sim, capacity=1)
    completions = []

    def job(name, service):
        request = core.request()
        yield request
        yield sim.timeout(service)
        core.release()
        completions.append((name, sim.now))

    sim.process(job("a", 1.0))
    sim.process(job("b", 1.0))
    sim.process(job("c", 1.0))
    sim.run()
    assert completions == [("a", 1.0), ("b", 2.0), ("c", 3.0)]


def test_multi_server_runs_in_parallel():
    sim = Simulator()
    cores = Resource(sim, capacity=2)
    completions = []

    def job(name):
        yield cores.request()
        yield sim.timeout(1.0)
        cores.release()
        completions.append((name, sim.now))

    for name in "abcd":
        sim.process(job(name))
    sim.run()
    assert completions == [("a", 1.0), ("b", 1.0), ("c", 2.0), ("d", 2.0)]


def test_fifo_grant_order():
    sim = Simulator()
    core = Resource(sim, capacity=1)
    grants = []

    def job(name, arrival):
        yield sim.timeout(arrival)
        yield core.request()
        grants.append(name)
        yield sim.timeout(5.0)
        core.release()

    sim.process(job("first", 0.0))
    sim.process(job("second", 1.0))
    sim.process(job("third", 2.0))
    sim.run()
    assert grants == ["first", "second", "third"]


def test_release_idle_resource_raises():
    sim = Simulator()
    core = Resource(sim, capacity=1)
    with pytest.raises(SimulationError):
        core.release()


def test_queue_length_tracks_waiters():
    sim = Simulator()
    core = Resource(sim, capacity=1)

    def hold():
        yield core.request()
        yield sim.timeout(10.0)
        core.release()

    def wait():
        yield core.request()
        core.release()

    sim.process(hold())
    sim.process(wait())
    sim.process(wait())
    sim.run(until=1.0)
    assert core.in_use == 1
    assert core.queue_length == 2


def test_utilization_single_busy_server():
    sim = Simulator()
    core = Resource(sim, capacity=1)

    def job():
        yield core.request()
        yield sim.timeout(4.0)
        core.release()

    sim.process(job())
    sim.run(until=8.0)
    assert core.utilization() == pytest.approx(0.5)


def test_utilization_reset():
    sim = Simulator()
    core = Resource(sim, capacity=1)

    def job():
        yield core.request()
        yield sim.timeout(4.0)
        core.release()

    sim.process(job())
    sim.run(until=4.0)
    core.reset_utilization()
    sim.run(until=8.0)
    assert core.utilization(elapsed=4.0) == pytest.approx(0.0)
