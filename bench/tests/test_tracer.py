"""Self-time arithmetic and wrapper restoration of the span tracer."""

import sys
import threading
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from tracer import Hook, Tracer, covered  # noqa: E402


class FakeClock:
    """Returns scripted instants, one per call."""

    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


def toy_module():
    mod = types.SimpleNamespace()
    mod.inner = lambda x: x + 1
    mod.outer = lambda x: mod.inner(x) + mod.inner(x)
    return mod


def test_covered_merges_overlaps_and_gaps():
    assert covered([]) == 0.0
    assert covered([(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)]) == 4.0
    assert covered([(4.0, 5.0), (0.0, 10.0)]) == 10.0


def test_self_time_of_toy_nested_call():
    mod = toy_module()
    # outer opens at 0; inner runs 1..4 and 5..6; outer closes at 10.
    tracer = Tracer([Hook(mod, "outer", "outer"), Hook(mod, "inner", "inner")],
                    clock=FakeClock([0.0, 1.0, 4.0, 5.0, 6.0, 10.0]))
    with tracer:
        assert mod.outer(1) == 4
    outer, first, second = tracer.spans
    assert (first.parent, second.parent, outer.parent) == (outer.id, outer.id, None)
    assert tracer.self_time(outer) == 6.0
    assert tracer.self_time(first) == 3.0 and tracer.self_time(second) == 1.0
    totals = tracer.totals()
    assert totals["outer"] == {"calls": 1, "total_s": 10.0, "self_s": 6.0}
    assert totals["inner"] == {"calls": 2, "total_s": 4.0, "self_s": 4.0}
    subtree_self = sum(tracer.self_time(s) for s in tracer.subtree(outer))
    assert subtree_self == outer.duration


def test_counters_sum_per_span_name():
    mod = toy_module()
    hook = Hook(mod, "inner", "inner", count=lambda args, kwargs: {"items": args[0]})
    with Tracer([hook]) as tracer:
        mod.outer(3)
    assert tracer.counts["inner"]["items"] == 6


def test_wrappers_restored_after_use_and_after_error():
    mod = toy_module()
    originals = (mod.outer, mod.inner)
    tracer = Tracer([Hook(mod, "outer", "outer"), Hook(mod, "inner", "inner")])
    with tracer:
        assert mod.inner is not originals[1]
        assert mod.inner.__wrapped__ is originals[1]
    assert (mod.outer, mod.inner) == originals

    mod.inner = lambda x: 1 / 0
    failing = mod.inner
    with pytest.raises(ZeroDivisionError):
        with Tracer([Hook(mod, "inner", "inner")]) as tracer:
            mod.outer(1)
    assert mod.inner is failing
    assert tracer.spans[0].end >= tracer.spans[0].start


def test_install_twice_is_refused():
    mod = toy_module()
    tracer = Tracer([Hook(mod, "inner", "inner")])
    with tracer:
        with pytest.raises(RuntimeError):
            tracer.install()


def test_spans_of_other_threads_have_no_parent_here():
    mod = toy_module()
    with Tracer([Hook(mod, "outer", "outer"), Hook(mod, "inner", "inner")]) as tracer:
        workers = [threading.Thread(target=mod.outer, args=(i,)) for i in range(2)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=10)
            assert not w.is_alive()
    outers = [s for s in tracer.spans if s.name == "outer"]
    assert len(outers) == 2 and all(s.parent is None for s in outers)
    for outer in outers:
        assert len(outer.children) == 2
        assert all(c.parent == outer.id for c in outer.children)
