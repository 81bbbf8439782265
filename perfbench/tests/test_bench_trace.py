"""Self-time arithmetic, the per-op identity check, and binding patches."""

import types

from tracing import Span, Tracer, check_self_time_identity, self_times


def spans_of(*rows):
    return [Span(name, start, end, parent, op=0) for name, start, end, parent in rows]


def test_leaf_self_time_is_its_duration():
    assert self_times(spans_of(("op", 10, 25, -1))) == [15]


def test_nested_children_are_subtracted_once_per_level():
    spans = spans_of(
        ("op", 0, 100, -1),
        ("solve", 10, 70, 0),
        ("bridges", 20, 30, 1),
        ("reconstruct", 40, 65, 1),
        ("validate", 75, 90, 0),
    )
    selfs = self_times(spans)
    assert selfs == [100 - 60 - 15, 60 - 10 - 25, 10, 25, 15]
    assert sum(selfs) == 100
    assert check_self_time_identity(spans, selfs) == []


def test_overlapping_children_count_their_union():
    spans = spans_of(
        ("op", 0, 100, -1),
        ("a", 10, 50, 0),
        ("b", 30, 60, 0),  # overlaps a on [30, 50)
        ("c", 55, 58, 0),  # inside b
        ("d", 80, 90, 0),
    )
    selfs = self_times(spans)
    # covered: [10, 60) and [80, 90) = 60
    assert selfs[0] == 40
    assert selfs[1:] == [40, 30, 3, 10]


def test_children_are_clipped_to_the_parent():
    spans = spans_of(("op", 10, 20, -1), ("late", 15, 30, 0), ("outside", 40, 50, 0))
    assert self_times(spans)[0] == 5


def test_identity_check_reports_a_broken_tree():
    spans = spans_of(("op", 0, 100, -1), ("a", 10, 50, 0), ("b", 30, 60, 0))
    problems = check_self_time_identity(spans, self_times(spans))
    assert len(problems) == 1 and "op 0 root op" in problems[0]


def test_tracer_wraps_counts_and_restores_bindings():
    ticks = iter(range(0, 1000, 10))
    tracer = Tracer(clock=lambda: next(ticks))
    mod = types.SimpleNamespace(outer=None, inner=lambda x: x + 1, leaf=lambda: None)
    mod.outer = lambda x: (mod.leaf(), mod.inner(x))[1] * 2
    originals = (mod.outer, mod.inner, mod.leaf)
    tracer.wrap(mod, "outer", "outer", on_result=lambda sp, r: setattr(sp, "attrs", {"r": r}))
    tracer.wrap(mod, "inner", "inner")
    tracer.count(mod, "leaf", "leaf_calls", inside="outer")
    tracer.install()
    tracer.op = 7
    root = tracer.begin("op")
    assert mod.outer(1) == 4
    mod.leaf()  # outside "outer": not counted
    tracer.end(root)
    tracer.uninstall()
    assert (mod.outer, mod.inner, mod.leaf) == originals
    assert [(s.name, s.parent, s.op) for s in tracer.spans] == [
        ("op", -1, 7), ("outer", 0, 7), ("inner", 1, 7)]
    assert tracer.spans[1].attrs == {"r": 4}
    assert dict(tracer.counts) == {(7, "leaf_calls"): 1}
    selfs = self_times(tracer.spans)
    assert check_self_time_identity(tracer.spans, selfs) == []


def test_calibration_subtracts_handler_time_and_scales_by_nearby_samples():
    import hostspeed

    ref = hostspeed.REFERENCE_NS
    sampler = hostspeed.Sampler()
    sampler.at = [0, 1000, 2000, 3000, 9000]
    sampler.kernel_ns = [ref, 2 * ref, 2 * ref, 4 * ref, ref]
    sampler.cost_ns = [10, 20, 20, 40, 10]
    # [1500, 3500) holds the samples at 2000 and 3000; the nearest outside are 1000 and 9000
    raw, cal = sampler.measure(1500, 3500)
    assert raw == 2000 - 20 - 40
    assert cal == raw / 2  # median of 2, 2, 4 and 1 reference
    # nothing inside [500, 900): bracketed by the samples at 0 and 1000
    assert sampler.measure(500, 900) == (400, 400 / 1.5)


def test_kernel_medians_inside_and_outside_ops_are_compared():
    import hostspeed

    sampler = hostspeed.Sampler()
    sampler.at = [0, 1000, 2000, 3000, 4000]
    sampler.kernel_ns = [100, 110, 130, 90, 100]
    sampler.inside = [False, True, True, False, True]
    assert sampler.inside_vs_outside(0, 5000) == (110 / 95, 3, 2)
    assert sampler.inside_vs_outside(1000, 3000) == (1.0, 2, 0)


def test_loop_time_calibrates_each_piece_at_its_own_speed():
    import hostspeed
    import run

    ref = hostspeed.REFERENCE_NS
    sampler = hostspeed.Sampler()
    sampler.at = [0, 1000, 2000, 3000]
    sampler.kernel_ns = [ref, ref, 4 * ref, 4 * ref]
    sampler.cost_ns = [0, 0, 0, 0]
    loop = run.Loop(intervals=[(0, 900), (1500, 3400)])
    # [0, 1500) runs at reference speed; [1500, 4000) at a quarter of it
    assert run.loop_time(sampler, (0, 4000), loop) == (4000, 1500 + 2500 / 4)
