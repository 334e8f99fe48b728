"""Unit and property tests for simulation resources (Resource, Container, Store)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import (
    Container,
    MultiRequest,
    PriorityResource,
    Resource,
    SimulationError,
    Simulator,
    Store,
)


def test_resource_serializes_exclusive_access():
    sim = Simulator()
    resource = Resource(sim, capacity=1)
    log = []

    def user(sim, name, hold):
        request = resource.request()
        yield request
        log.append((name, "start", sim.now))
        yield sim.timeout(hold)
        resource.release(request)
        log.append((name, "end", sim.now))

    sim.process(user(sim, "a", 2.0))
    sim.process(user(sim, "b", 1.0))
    sim.run()
    assert log == [
        ("a", "start", 0.0),
        ("a", "end", 2.0),
        ("b", "start", 2.0),
        ("b", "end", 3.0),
    ]


def test_resource_capacity_allows_concurrency():
    sim = Simulator()
    resource = Resource(sim, capacity=2)
    finish = []

    def user(sim):
        with (yield resource.request()):
            yield sim.timeout(1.0)
        finish.append(sim.now)

    def runner(sim):
        request = resource.request()
        yield request
        yield sim.timeout(1.0)
        resource.release(request)
        finish.append(sim.now)

    for _ in range(4):
        sim.process(runner(sim))
    sim.run()
    # Two run immediately, two queue behind them.
    assert sorted(finish) == [1.0, 1.0, 2.0, 2.0]


def test_resource_invalid_requests():
    sim = Simulator()
    resource = Resource(sim, capacity=2)
    with pytest.raises(SimulationError):
        resource.request(0)
    with pytest.raises(SimulationError):
        resource.request(3)
    with pytest.raises(SimulationError):
        Resource(sim, capacity=0)


def test_resource_release_of_ungranted_request_cancels_it():
    sim = Simulator()
    resource = Resource(sim, capacity=1)
    first = resource.request()
    second = resource.request()
    assert not second.triggered
    resource.release(second)  # cancel while still queued
    assert resource.queue_length == 0
    resource.release(first)
    assert resource.available == 1


def test_resource_release_of_pending_request_leaves_in_use_unchanged():
    sim = Simulator()
    resource = Resource(sim, capacity=1)
    granted = resource.request()
    del granted  # dropped unreleased; its address may be reused below
    pending = resource.request()
    assert not pending.granted
    resource.release(pending)
    assert resource.in_use == 1 and resource.queue_length == 0


def test_resource_double_release_is_a_no_op():
    sim = Simulator()
    resource = Resource(sim, capacity=2)
    first, second = resource.request(), resource.request()
    assert first.granted and second.granted
    resource.release(first)
    resource.release(first)
    assert resource.in_use == 1 and not first.granted
    # The release drops the grant's self-reference (value is the request).
    assert first._value is None
    joint = MultiRequest(sim, [(resource, 1)])
    joint.release()
    joint.release()
    assert resource.in_use == 1 and joint._value is None


def test_priority_resource_orders_waiters():
    sim = Simulator()
    resource = PriorityResource(sim, capacity=1)
    order = []

    def user(sim, name, priority, delay):
        yield sim.timeout(delay)
        request = resource.request(priority=priority)
        yield request
        order.append(name)
        yield sim.timeout(1.0)
        resource.release(request)

    sim.process(user(sim, "holder", 0, 0.0))
    sim.process(user(sim, "low", 5, 0.1))
    sim.process(user(sim, "high", 1, 0.2))
    sim.run()
    assert order == ["holder", "high", "low"]


def test_multi_request_grants_atomically_and_holds_nothing_while_pending():
    sim = Simulator()
    first, second = Resource(sim, capacity=1), Resource(sim, capacity=1)
    holder = second.request()
    assert holder.triggered
    joint = MultiRequest(sim, [(first, 1), (second, 1)])
    # Pending: neither resource is held, both queues see the claim.
    assert not joint.granted
    assert first.in_use == 0 and second.in_use == 1
    assert first.queue_length == 1 and second.queue_length == 1
    second.release(holder)
    # The moment both fit, the whole claim set is debited at once.
    assert joint.granted
    assert first.in_use == 1 and second.in_use == 1
    assert first.queue_length == 0 and second.queue_length == 0
    joint.release()
    assert first.in_use == 0 and second.in_use == 0


def test_multi_request_is_skipped_not_blocking_the_queue():
    """Work conservation: a later request passes an unmatchable multi-request."""
    sim = Simulator()
    first, second = Resource(sim, capacity=1), Resource(sim, capacity=1)
    holder = second.request()
    joint = MultiRequest(sim, [(first, 1), (second, 1)])
    assert not joint.granted
    # A single request on the free resource is granted straight past the
    # pending multi-request.
    bypass = first.request()
    assert bypass.triggered
    first.release(bypass)
    second.release(holder)
    assert joint.granted
    joint.release()


def test_multi_request_cancel_withdraws_every_claim():
    sim = Simulator()
    first, second = Resource(sim, capacity=1), Resource(sim, capacity=1)
    holder = second.request()
    joint = MultiRequest(sim, [(first, 1), (second, 1)])
    joint.cancel()
    assert first.queue_length == 0 and second.queue_length == 0
    joint.cancel()  # idempotent
    second.release(holder)
    # A cancelled claim is never granted, even once capacity frees up.
    assert not joint.granted
    assert first.in_use == 0 and second.in_use == 0


def test_multi_request_priority_orders_admission():
    sim = Simulator()
    first, second = Resource(sim, capacity=1), Resource(sim, capacity=1)
    holder = second.request()
    low = MultiRequest(sim, [(first, 1), (second, 1)], priority=2)
    high = MultiRequest(sim, [(first, 1), (second, 1)], priority=1)
    second.release(holder)
    assert high.granted and not low.granted
    high.release()
    assert low.granted
    low.release()


def test_multi_request_validation():
    sim = Simulator()
    resource = Resource(sim, capacity=1)
    with pytest.raises(SimulationError):
        MultiRequest(sim, [])
    with pytest.raises(SimulationError):
        MultiRequest(sim, [(resource, 2)])
    with pytest.raises(SimulationError):
        MultiRequest(sim, [(resource, 1), (resource, 1)])


@settings(max_examples=30, deadline=None)
@given(
    holds=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=2),  # src link
            st.integers(min_value=0, max_value=2),  # dst link
            st.floats(min_value=0.01, max_value=1.0),
        ),
        min_size=1,
        max_size=14,
    )
)
def test_multi_requests_never_exceed_capacity_or_leak(holds):
    """Property: atomic pair claims respect each link's capacity and drain."""
    sim = Simulator()
    links = [Resource(sim, capacity=1) for _ in range(3)]

    def user(sim, src, dst, hold):
        if src == dst:
            dst = (dst + 1) % 3
        joint = MultiRequest(sim, [(links[src], 1), (links[dst], 1)])
        yield joint
        assert all(link.in_use <= link.capacity for link in links)
        yield sim.timeout(hold)
        joint.release()

    for src, dst, hold in holds:
        sim.process(user(sim, src, dst, hold))
    sim.run()
    assert all(link.in_use == 0 for link in links)
    assert all(link.queue_length == 0 for link in links)


def test_container_blocks_until_level_available():
    sim = Simulator()
    container = Container(sim, capacity=10, init=0)
    log = []

    def producer(sim):
        yield sim.timeout(1.0)
        yield container.put(5)
        log.append(("put", sim.now))

    def consumer(sim):
        yield container.get(3)
        log.append(("got", sim.now))

    sim.process(consumer(sim))
    sim.process(producer(sim))
    sim.run()
    assert log == [("put", 1.0), ("got", 1.0)]
    assert container.level == pytest.approx(2)


def test_container_validation():
    sim = Simulator()
    with pytest.raises(SimulationError):
        Container(sim, capacity=5, init=6)
    container = Container(sim, capacity=5)
    with pytest.raises(SimulationError):
        container.put(-1)
    with pytest.raises(SimulationError):
        container.get(-1)


def test_store_fifo_and_blocking_get():
    sim = Simulator()
    store = Store(sim)
    received = []

    def consumer(sim):
        for _ in range(3):
            item = yield store.get()
            received.append((item, sim.now))

    def producer(sim):
        for index in range(3):
            yield sim.timeout(1.0)
            yield store.put(index)

    sim.process(consumer(sim))
    sim.process(producer(sim))
    sim.run()
    assert received == [(0, 1.0), (1, 2.0), (2, 3.0)]


def test_store_filtered_get():
    sim = Simulator()
    store = Store(sim)
    got = {}

    def consumer(sim):
        item = yield store.get(lambda value: value % 2 == 0)
        got["even"] = item

    def producer(sim):
        yield store.put(1)
        yield store.put(3)
        yield store.put(4)

    sim.process(consumer(sim))
    sim.process(producer(sim))
    sim.run()
    assert got["even"] == 4
    assert list(store.items) == [1, 3]


def test_store_capacity_blocks_putters():
    sim = Simulator()
    store = Store(sim, capacity=1)
    times = []

    def producer(sim):
        for index in range(2):
            yield store.put(index)
            times.append(sim.now)

    def consumer(sim):
        yield sim.timeout(5.0)
        yield store.get()

    sim.process(producer(sim))
    sim.process(consumer(sim))
    sim.run()
    assert times[0] == pytest.approx(0.0)
    assert times[1] == pytest.approx(5.0)


@settings(max_examples=40, deadline=None)
@given(
    capacity=st.integers(min_value=1, max_value=4),
    holds=st.lists(st.floats(min_value=0.01, max_value=2.0), min_size=1, max_size=12),
)
def test_resource_never_exceeds_capacity(capacity, holds):
    """Property: concurrent holders never exceed the configured capacity."""
    sim = Simulator()
    resource = Resource(sim, capacity=capacity)
    active = {"now": 0, "max": 0}

    def user(sim, hold):
        request = resource.request()
        yield request
        active["now"] += 1
        active["max"] = max(active["max"], active["now"])
        assert resource.in_use <= capacity
        yield sim.timeout(hold)
        active["now"] -= 1
        resource.release(request)

    for hold in holds:
        sim.process(user(sim, hold))
    sim.run()
    assert active["now"] == 0
    assert active["max"] <= capacity
    assert resource.in_use == 0


@settings(max_examples=40, deadline=None)
@given(items=st.lists(st.integers(), min_size=0, max_size=30))
def test_store_preserves_fifo_order(items):
    """Property: items come out of an unfiltered Store in insertion order."""
    sim = Simulator()
    store = Store(sim)
    out = []

    def producer(sim):
        for item in items:
            yield store.put(item)

    def consumer(sim):
        for _ in items:
            value = yield store.get()
            out.append(value)

    sim.process(producer(sim))
    sim.process(consumer(sim))
    sim.run()
    assert out == items
