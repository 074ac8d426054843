"""Counter conservation laws that every simulated world obeys.

Shared by the tests that run worlds to their end: the pinned scenario and
benchmark runs (`test_digests.py`) and the generated scenarios the loader
accepts (`test_scenario.py`).
"""

from drop_reasons import drop_reasons


def check_counter_laws(world):
    """Counter conservation: every drop has a reason counter, each counter
    names a reason of the closed set (`drop_reasons.py`), every
    `deliver` record is counted in `delivered` or `bcast_delivered`, and
    every frame put on the air is received, lost, missed asleep,
    undecodable or still in flight."""
    metrics = world.metrics
    reasons = sum(v for k, v in metrics.items() if k.startswith("drops_"))
    assert metrics.get("drops", 0) == reasons
    assert {k for k in metrics if k.startswith("drops_")} <= {f"drops_{r}" for r in drop_reasons()}
    deliveries = sum(1 for r in world.trace if r.kind == "deliver")
    assert deliveries == metrics.get("delivered", 0) + metrics.get("bcast_delivered", 0)
    asleep_rx = sum(1 for r in world.trace if r.kind == "drop" and r.detail.startswith("reason=asleep dir=rx"))
    in_flight = sum(  # frames on the air: a queued receive, or a queued loss
        1 for _, _, (fn, *args) in world._queue
        if fn == world._rx_event or (fn == world._drop and args[1] == "loss")
    )
    assert metrics.get("frames_tx", 0) == (
        metrics.get("frames_rx", 0) + metrics.get("drops_loss", 0) + asleep_rx
        + metrics.get("drops_malformed-frame", 0) + in_flight
    )
