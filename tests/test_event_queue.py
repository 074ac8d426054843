"""The event queue and the world clock.  A run feeds the entries queued
before it from one sorted list, so only the earliest of them is in the
heap; between runs `World._queue` holds every pending entry as a heap.
The clock never runs backwards: a send or a run before `now` is refused."""

import math
from pathlib import Path

import pytest
from counter_laws import check_counter_laws
from test_digests import _workloads

from lowpan.netsim import NodeRole, World
from lowpan.scenario import load_scenario

SCENARIOS = sorted((Path(__file__).parents[1] / "scenarios").glob("*.scn"))


def two_nodes() -> World:
    world = World()
    world.add_node("a", NodeRole.COORDINATOR, 1)
    world.add_node("b", NodeRole.FFD, 2)
    world.add_link("a", "b")
    return world


def event_times(text: str) -> tuple[list[float], float]:
    """The time of each event a `run_until(t_end)` of `text` runs, stepped by
    hand, and `t_end`."""
    world, t_end = load_scenario(text)
    world.prepare()
    times = []
    while world._queue and world._queue[0][0] <= t_end:
        times.append(world._queue[0][0])
        world.step()
    return times, t_end


def outputs(world: World) -> tuple[list[str], list[str]]:
    return list(world.trace_lines()), world.metrics_lines()


def pending(world: World) -> list[tuple[float, int]]:
    return sorted((t, seq) for t, seq, _ in world._queue)


def is_heap(queue: list) -> bool:
    return all(queue[(i - 1) // 2][:2] <= queue[i][:2] for i in range(1, len(queue)))


# --- the feed hands out the order of one heap -----------------------------------

@pytest.mark.parametrize("path", SCENARIOS, ids=lambda path: path.stem)
def test_a_run_split_into_parts_matches_one_run(path):
    text = path.read_text()
    whole, t_end = load_scenario(text)
    whole.run_until(t_end)
    times, _ = event_times(text)
    assert times[-1] < t_end
    # the first of two events at one time, else an event midway
    tie = next((i for i in range(1, len(times) - 1) if times[i - 1] < times[i] == times[i + 1]), len(times) // 2)
    parts, _ = load_scenario(text)
    parts.run_until(times[tie - 1])  # up to the event before the pair
    parts.step()  # the pair's first event: a split between two events at one time
    parts.run_until(times[tie])  # the rest of that time
    parts.run_until(max(times[tie], times[2 * len(times) // 3]))
    parts.run_until((times[-1] + t_end) / 2)  # past the last event
    parts.run_until(t_end)
    assert outputs(parts) == outputs(whole)
    assert pending(parts) == pending(whole) and is_heap(parts._queue)
    check_counter_laws(parts)


@pytest.mark.parametrize("path", SCENARIOS, ids=lambda path: path.stem)
def test_a_world_stepped_by_hand_matches_a_run(path):
    text = path.read_text()
    run, _ = load_scenario(text)
    run.run()
    stepped, _ = load_scenario(text)
    stepped.prepare()
    while stepped.step():  # never opens the feed
        assert stepped._offered == [] and stepped._fed is None
    assert outputs(stepped) == outputs(run)
    assert stepped.now == run.now and stepped._queue == run._queue == []


def test_an_event_that_raises_leaves_every_pending_entry_in_the_queue():
    text = _workloads()["gateway-mix"](1, small=True)

    def raising_world():
        world, t_end = load_scenario(text)
        rx_event, calls = world._rx_event, []

        def fails_on_the_50th_call(*args):
            calls.append(args)
            if len(calls) == 50:
                raise RuntimeError("event 50")
            rx_event(*args)
        world._rx_event = fails_on_the_50th_call  # the receptions the run queues
        return world, t_end

    world, t_end = raising_world()
    with pytest.raises(RuntimeError, match="event 50"):
        world.run_until(t_end)
    stepped, _ = raising_world()
    stepped.prepare()
    with pytest.raises(RuntimeError, match="event 50"):
        while stepped.step():
            pass
    assert world._offered == [] and world._fed is None
    assert is_heap(world._queue)
    assert pending(world) == pending(stepped)
    # sends queued at load were still waiting in the feed, more than the one in
    # the heap, and are back in the queue
    assert sum(event[0].__name__.startswith("_do_send") for _, _, event in world._queue) > 1


def test_a_send_between_runs_at_now_runs_after_the_entries_queued_for_now():
    world = two_nodes()
    for size in (10, 11):
        world.send_udp(1.0, "a", "b", 1, 2, bytes(size))
    world.run_until(0.5)
    world.step()  # the first send at 1.0; the second is still queued
    assert world.now == 1.0
    world.send_udp(world.now, "a", "b", 1, 2, bytes(12))
    world.send_udp(world.now, "b", "a", 1, 2, bytes(13))
    world.run_until(2.0)
    assert [r.nbytes for r in world.trace if r.kind == "send"] == [10, 11, 12, 13]
    assert world._queue == [] and world._offered == []


# --- the clock never runs backwards -----------------------------------------------

@pytest.mark.parametrize("send", [
    lambda world, at: world.send_udp(at, "a", "b", 1, 2, b"x"),
    lambda world, at: world.broadcast(at, "a", b"x"),
    lambda world, at: world.send_nwk(at, "a", 2, b"x"),
], ids=["udp", "broadcast", "nwk"])
def test_a_send_before_the_worlds_time_is_refused_and_queues_nothing(send):
    world = two_nodes()
    world.run_until(5.0)
    with pytest.raises(ValueError) as caught:
        send(world, 2.0)
    assert (caught.type, str(caught.value)) == (ValueError, "send time 2.0 is before the world's time 5.0")
    assert world._queue == []
    send(world, 5.0)  # at the world's time is accepted
    world.run_until(10.0)
    assert [r.time for r in world.trace if r.kind == "send"] == [5.0]


@pytest.mark.parametrize("t_end", [3.0, math.nan, -1.0])
def test_a_run_to_a_time_before_now_or_nan_is_refused_and_changes_nothing(t_end):
    world = two_nodes()
    world.send_udp(1.0, "a", "b", 1, 2, b"x")
    world.send_udp(20.0, "a", "b", 1, 2, b"y")
    world.run_until(10.0)
    before = (world.now, list(world._queue), len(world.trace), dict(world.metrics))
    with pytest.raises(ValueError) as caught:
        world.run_until(t_end)
    assert (caught.type, str(caught.value)) == (
        ValueError, f"run time {t_end!r} is not a number >= the world's time 10.0")
    assert (world.now, list(world._queue), len(world.trace), dict(world.metrics)) == before
    world.run_until(10.0)  # to the world's time is accepted, and runs nothing
    assert (world.now, len(world.trace)) == (10.0, before[2])


def test_a_fresh_world_refuses_a_run_to_nan():
    world = two_nodes()
    with pytest.raises(ValueError, match="run time nan"):
        world.run_until(math.nan)
    assert world.now == 0.0 and not world._prepared
