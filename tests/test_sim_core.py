"""Unit tests for the discrete-event simulation kernel."""

import pytest

from repro.sim import (
    AllOf,
    AnyOf,
    Interrupt,
    SimulationError,
    Simulator,
)


def test_timeout_advances_clock():
    sim = Simulator()

    def proc(sim):
        yield sim.timeout(1.5)
        yield sim.timeout(0.5)
        return sim.now

    process = sim.process(proc(sim))
    sim.run()
    assert process.value == pytest.approx(2.0)
    assert sim.now == pytest.approx(2.0)


def test_negative_timeout_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.timeout(-1.0)


def test_process_return_value_and_waiting():
    sim = Simulator()

    def child(sim):
        yield sim.timeout(1.0)
        return 42

    def parent(sim):
        value = yield sim.process(child(sim))
        return value * 2

    parent_proc = sim.process(parent(sim))
    sim.run()
    assert parent_proc.value == 84


def test_event_succeed_and_value():
    sim = Simulator()
    event = sim.event()
    assert not event.triggered
    event.succeed("payload")
    assert event.triggered and event.ok
    with pytest.raises(SimulationError):
        event.succeed("again")


def test_event_value_before_trigger_raises():
    sim = Simulator()
    event = sim.event()
    with pytest.raises(SimulationError):
        _ = event.value


def test_event_fail_requires_exception():
    sim = Simulator()
    event = sim.event()
    with pytest.raises(SimulationError):
        event.fail("not an exception")  # type: ignore[arg-type]


def test_event_failure_propagates_into_process():
    sim = Simulator()
    event = sim.event()
    seen = {}

    def proc(sim):
        try:
            yield event
        except ValueError as exc:
            seen["error"] = str(exc)
        return "handled"

    process = sim.process(proc(sim))
    event.fail(ValueError("boom"))
    sim.run()
    assert process.value == "handled"
    assert seen["error"] == "boom"


def test_unhandled_process_failure_is_recorded():
    sim = Simulator()

    def proc(sim):
        yield sim.timeout(1.0)
        raise RuntimeError("unobserved")

    sim.process(proc(sim))
    sim.run()
    assert len(sim.unhandled_failures) == 1


def test_run_until_time_stops_mid_simulation():
    sim = Simulator()
    ticks = []

    def proc(sim):
        for _ in range(10):
            yield sim.timeout(1.0)
            ticks.append(sim.now)

    sim.process(proc(sim))
    sim.run(until=3.5)
    assert ticks == [1.0, 2.0, 3.0]
    assert sim.now == pytest.approx(3.5)
    sim.run()
    assert len(ticks) == 10


def test_run_until_event_returns_its_value():
    sim = Simulator()

    def proc(sim):
        yield sim.timeout(2.0)
        return "done"

    process = sim.process(proc(sim))
    assert sim.run(until=process) == "done"


def test_run_until_failed_event_raises():
    sim = Simulator()

    def proc(sim):
        yield sim.timeout(1.0)
        raise KeyError("nope")

    process = sim.process(proc(sim))
    with pytest.raises(KeyError):
        sim.run(until=process)


def test_run_until_past_time_rejected():
    sim = Simulator()
    sim.process(iter_timeout(sim, 5.0))
    sim.run()
    with pytest.raises(SimulationError):
        sim.run(until=1.0)


def iter_timeout(sim, delay):
    yield sim.timeout(delay)


def test_yielding_non_event_is_an_error():
    sim = Simulator()

    def proc(sim):
        yield "not an event"

    process = sim.process(proc(sim))
    sim.run()
    assert process.triggered and not process.ok
    assert isinstance(process.value, SimulationError)
    process.defused = True


def test_process_requires_generator():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.process(lambda: None)  # type: ignore[arg-type]


def test_all_of_waits_for_every_event():
    sim = Simulator()

    def proc(sim):
        t1 = sim.timeout(1.0, value="a")
        t2 = sim.timeout(3.0, value="b")
        values = yield sim.all_of([t1, t2])
        return values, sim.now

    process = sim.process(proc(sim))
    sim.run()
    values, when = process.value
    assert sorted(values) == ["a", "b"]
    assert when == pytest.approx(3.0)


def test_any_of_returns_at_first_event():
    sim = Simulator()

    def proc(sim):
        t1 = sim.timeout(1.0, value="fast")
        t2 = sim.timeout(5.0, value="slow")
        yield sim.any_of([t1, t2])
        return sim.now

    process = sim.process(proc(sim))
    sim.run()
    assert process.value == pytest.approx(1.0)
    # The queue still drains the slower timeout without error.
    assert sim.now == pytest.approx(5.0)


def test_condition_operators():
    sim = Simulator()

    def proc(sim):
        a = sim.timeout(1.0)
        b = sim.timeout(2.0)
        combined = a & b
        assert isinstance(combined, AllOf)
        either = a | b
        assert isinstance(either, AnyOf)
        yield combined
        return sim.now

    process = sim.process(proc(sim))
    sim.run()
    assert process.value == pytest.approx(2.0)


def test_empty_condition_fires_immediately():
    sim = Simulator()
    condition = AllOf(sim, [])
    assert condition.triggered


def test_interrupt_is_delivered_and_process_continues():
    sim = Simulator()
    log = []

    def victim(sim):
        try:
            yield sim.timeout(10.0)
        except Interrupt as interrupt:
            log.append(("interrupted", sim.now, interrupt.cause))
        yield sim.timeout(1.0)
        return "recovered"

    def attacker(sim, target):
        yield sim.timeout(2.0)
        target.interrupt("failure injected")

    target = sim.process(victim(sim))
    sim.process(attacker(sim, target))
    sim.run()
    assert target.value == "recovered"
    assert log == [("interrupted", 2.0, "failure injected")]


def test_interrupting_finished_process_is_noop():
    sim = Simulator()

    def quick(sim):
        yield sim.timeout(0.1)

    process = sim.process(quick(sim))
    sim.run()
    process.interrupt("too late")  # must not raise
    sim.run()
    assert process.ok


def test_events_at_same_time_fire_in_fifo_order():
    sim = Simulator()
    order = []

    def proc(sim, name):
        yield sim.timeout(1.0)
        order.append(name)

    for name in ("a", "b", "c"):
        sim.process(proc(sim, name))
    sim.run()
    assert order == ["a", "b", "c"]


def test_reserved_sequence_breaks_ties_as_of_the_claim():
    """A wake pushed later with a claimed number pops in the claim's order."""
    sim = Simulator()
    order = []
    claimed = sim.reserve_sequence()
    sim.wake_at(1.0).callbacks = [lambda _ev: order.append("scheduled after the claim")]
    late = sim.wake_at(1.0, seq=claimed)
    late.callbacks = [lambda _ev: order.append("claimed first")]
    sim.run()
    assert order == ["claimed first", "scheduled after the claim"]


def test_step_on_empty_queue_raises():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.step()


def test_peek_reports_next_event_time():
    sim = Simulator()
    assert sim.peek() == float("inf")
    sim.timeout(4.0)
    assert sim.peek() == pytest.approx(0.0) or sim.peek() <= 4.0
