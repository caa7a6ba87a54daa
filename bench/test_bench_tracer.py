"""Tests of the benchmark's own machinery: self-time arithmetic, tracer
coverage of every fmlab binding, the input generator and the per-query
correctness gate. Run with `PYTHONPATH=src python -m pytest bench`."""

import itertools
import types

import pytest

import fmlab
import inputs
import tracer as tracing
import workloads


def fake_clock(times):
    it = iter(times)
    return lambda: next(it)


def test_self_time_is_duration_minus_children():
    # root [0,10] > a [1,5] > g [2,4]; root > b [6,9]
    t = tracing.Tracer(clock=fake_clock([0, 1, 2, 4, 5, 6, 9, 10]))
    root = t.begin(tracing.QUERY)
    a = t.begin("a")
    g = t.begin("g")
    t.end(g)
    t.end(a)
    b = t.begin("b")
    t.end(b)
    t.end(root)
    assert list(t.parents) == [-1, root, a, root]
    assert list(t.self_times()) == [3.0, 2.0, 2.0, 3.0]
    assert list(t.roots()) == [0, 0, 0, 0]
    spans = t.summarize()["spans"]
    assert sum(v["self_s"] for v in spans.values()) == 10.0
    assert spans["a"] == {"calls": 1, "self_s": 2.0, "total_s": 4.0}


def test_summarize_keeps_only_query_roots_and_sums_repeats():
    t = tracing.Tracer(clock=fake_clock([0, 1, 3, 4, 6, 7, 8, 20, 21, 25, 30]))
    q = t.begin(tracing.QUERY)
    for _ in range(2):
        s = t.begin("leaf")
        t.end(s)
    t.end(q)
    v = t.begin("bench.verify")
    s = t.begin("leaf")
    t.end(s)
    t.end(v)
    spans = t.summarize()["spans"]
    assert spans["leaf"] == {"calls": 2, "self_s": 4.0, "total_s": 4.0}
    assert spans["bench.query"]["self_s"] == 3.0
    assert "bench.verify" not in spans


def test_wrapped_calls_nest_and_close_on_exceptions():
    t = tracing.Tracer()

    def inner(x):
        if x < 0:
            raise ValueError(x)
        return x + 1

    traced_inner = t.wrap("inner", inner)
    traced_outer = t.wrap("outer", lambda x: traced_inner(x) * 2)
    assert traced_outer(1) == 4
    with pytest.raises(ValueError):
        traced_outer(-1)
    names = [t.names[i] for i in t.name_ids]
    assert names == ["outer", "inner", "outer", "inner"]
    assert list(t.parents) == [-1, 0, -1, 2]
    assert all(e >= s for s, e in zip(t.starts, t.ends))
    assert t._stack == [-1]


def test_every_fmlab_binding_is_wrapped_and_restored():
    mods = tracing.fmlab_modules()
    originals = tracing.public_functions(mods)
    t = tracing.Tracer()
    undo = tracing.install(t)
    try:
        missed = [f"{mod.__name__}.{attr}" for mod in mods
                  for attr, obj in vars(mod).items()
                  if isinstance(obj, types.FunctionType) and obj in originals]
        assert missed == []
        for mod in mods:
            for attr, obj in vars(mod).items():
                if (isinstance(obj, types.FunctionType)
                        and obj.__module__.startswith("fmlab")
                        and not attr.startswith("_")):
                    span = f"{tracing.short_name(obj.__module__)}.{attr}"
                    assert hasattr(obj, "bench_span") or span in tracing.UNTRACED, span
        assert fmlab.indisc.TypeOracle.key.bench_span == tracing.ORACLE_KEY

        # calls that reach lower layers through from-import bindings
        root = t.begin(tracing.QUERY)
        # an empty graph is good, so every search and kappa run
        fmlab.is_good(workloads.structure(4, []), workloads.EDGE, 1, 2)
        G = fmlab.RGraph.of(7, 3, itertools.combinations(range(4), 3))
        fmlab.extract_homogeneous(G, 2, 3)
        t.end(root)
        seen = {t.names[i] for i in t.name_ids}
        for name in ("classify.is_good", "detect.find_k_independence",
                     "detect.find_cover_violation", "classify.kappa",
                     "classify.delta_star", tracing.ORACLE_KEY, "core.tp",
                     "core.evaluate", "util.search_budget",
                     "ramsey.extract_homogeneous", tracing.GREEDY,
                     tracing.GREEDY_KEY):
            assert name in seen, name
        assert t.delta_star_keys
        assert sum(t.outcomes["detect.find_k_independence"].values()) > 0
    finally:
        tracing.uninstall(undo)
    for mod in mods:
        assert not any(hasattr(obj, "bench_span") for obj in vars(mod).values())
    assert not hasattr(fmlab.indisc.TypeOracle.key, "bench_span")


def test_splitmix64_matches_published_outputs():
    rng = inputs.SplitMix64(0)
    assert [rng.next_u64() for _ in range(3)] == [
        0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]
    a = list(itertools.islice(inputs.item_seeds(5), 4))
    assert a == list(itertools.islice(inputs.item_seeds(5), 4))
    assert a != list(itertools.islice(inputs.item_seeds(6), 4))


@pytest.mark.parametrize("name,count", [("classify", 5), ("extract", 2), ("search", 16)])
def test_workload_items_pass_their_checks(name, count, tmp_path):
    wl = workloads.WORKLOADS[name]
    items = wl.build(3, count, str(tmp_path))
    for item in items:
        result = wl.run(item)
        assert wl.check(item, result) == []
        fmlab.emit_report(wl.report(item, result))


def test_search_check_rejects_budget_markers_and_false_certificates(tmp_path):
    wl = workloads.WORKLOADS["search"]
    item = wl.build(3, 1, str(tmp_path))[0]
    result = wl.run(item)
    assert wl.check(item, result) == []
    budget = dict(result, order_3=fmlab.BudgetExceeded(1))
    assert any("budget" in p for p in wl.check(item, budget))
    key = next(k for k in workloads.SEARCH_ORDER if result[k] is not None)
    assert wl.check(item, dict(result, **{key: None}))
    assert wl.check(item, dict(result, count=result["count"] + 1))


def test_extract_check_rejects_a_short_or_unordered_sequence(tmp_path):
    wl = workloads.WORKLOADS["extract"]
    item = wl.build(3, 1, str(tmp_path))[0]
    result = wl.run(item)
    assert wl.check(item, result) == []
    got = result[-1]
    short = fmlab.TupleSequence.of(list(got)[:1])
    assert wl.check(item, result[:-1] + [short])
    reordered = fmlab.TupleSequence.of(list(reversed(list(got))))
    assert wl.check(item, result[:-1] + [reordered])
