"""Checks of the benchmark itself: known-answer checker, input
generators, trace coverage and repeatable counts.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import json
import random
import sys
import time
from pathlib import Path

import quivalg
import run as bench_run
import spans
import workloads as wl

ROOT = Path(__file__).resolve().parent.parent


def small_plane(p=3, r=3, keep_x_power=True):
    return wl.quantum_plane_text(p, r, wl.Fraction(3, 2), keep_x_power=keep_x_power)


def test_wrong_expected_value_is_counted_in_failed_ratio():
    good = wl.build_case("plane-3x3", small_plane(), 9)
    wrong = wl.build_case("plane-3x3-wrong", small_plane(), 10)
    res = wl.run_pass([good, wrong])
    assert (res.attempted, res.failed) == (2, 1)
    assert res.failed / res.attempted == 0.5
    assert "dim=9 (known 10)" in res.failures[0]


def test_infinite_case_that_returns_is_counted_as_failed():
    # a finite plane dressed up as the infinite case returns normally
    finite = wl.not_finite_case("finite-plane", small_plane(), 8)
    infinite = wl.not_finite_case("infinite-plane", small_plane(keep_x_power=False), 8)
    res = wl.run_pass([finite, infinite])
    assert (res.attempted, res.failed) == (2, 1)
    assert "instead of raising NotFiniteDimensionalError" in res.failures[0]


def test_unexpected_error_is_counted_as_failed():
    def boom():
        raise ValueError("not an inconclusive error")

    case = wl.Case("boom", boom, raises=quivalg.NotFiniteDimensionalError)
    res = wl.run_pass([case])
    assert res.failed == 1 and "ValueError" in res.failures[0]


def test_dense_basis_is_the_same_module():
    jordan = wl.jordan_matrix(4)
    dense = wl.dense_basis_matrix(jordan, random.Random(5))
    assert dense != jordan
    assert dense == wl.dense_basis_matrix(jordan, random.Random(5))

    def ranks_of_powers(mat):
        out, power = [], mat
        for _ in range(4):
            out.append(quivalg.rank(quivalg.Matrix.from_rows(power)))
            power = wl._matmul(power, mat)
        return out

    # equal ranks of all powers of a nilpotent matrix: the same Jordan type
    assert ranks_of_powers(dense) == ranks_of_powers(jordan) == [6, 3, 1, 0]


def test_inputs_follow_the_seed():
    def texts(seed):
        rng = random.Random("quotients-%d" % seed)
        return [wl.commutative_grid_text(3, 3, rng), wl.reference_text(rng)]

    assert texts(1) == texts(1)
    assert texts(1) != texts(2)


def _small_cases():
    cases = [wl.auslander_case(3, "jordan", wl.module_text(wl.jordan_matrix(3), "t3"), 0)]
    dense = wl.dense_basis_matrix(wl.jordan_matrix(3), random.Random(1))
    cases.append(wl.auslander_case(3, "dense", wl.module_text(dense, "t3"), 0))
    cases.append(wl.build_case("plane-3x3", small_plane(), 9))
    cases.append(wl.not_finite_case("infinite", small_plane(keep_x_power=False), 8))
    return cases


def _traced(cases):
    tracer = spans.Tracer()
    tracer.install(sys.modules)
    try:
        unwrapped = tracer.unwrapped_bindings(sys.modules)
        res = tracer.span("bench.pass", wl.run_pass, cases)
    finally:
        tracer.uninstall()
    return tracer, unwrapped, res


def _bound(mod, attr):
    owner, leaf = spans._resolve(sys.modules, mod, attr)
    return getattr(owner, leaf)


def test_trace_coverage():
    before = {(mod, attr): _bound(mod, attr) for _, mod, attr in spans.TRACED}
    fraction_new = spans.Fraction.__dict__["__new__"]
    tracer, unwrapped, res = _traced(_small_cases())
    assert res.failed == 0, res.failures
    assert unwrapped == []
    # the wrapper also replaced imports such as quivalg.verify.minimize_relations
    assert tracer.wrappers["endquiver.minimize_relations"].__wrapped__ is quivalg.minimize_relations
    assert set(bench_run.EXERCISED["auslander"]) <= set(tracer.layers_seen())
    layers = tracer.aggregate()
    assert _coverage(tracer, unwrapped, layers)["ok"]
    assert layers["algebra.not_finite"] == 1
    assert layers["scalar.fraction_new.calls"] > 0
    # uninstall puts every original back
    assert {key: _bound(*key) for key in before} == before
    assert quivalg.verify.minimize_relations is before[("quivalg.endquiver", "minimize_relations")]
    assert spans.Fraction.__dict__["__new__"] is fraction_new


def _coverage(tracer, unwrapped, layers):
    traced = {"unwrapped": unwrapped, "layers_seen": tracer.layers_seen()}
    layers = dict(layers, **{"trace.run_s": layers["trace.root_s"]})
    return bench_run._coverage("auslander", traced, layers)


def test_time_outside_traced_functions_fails_coverage():
    def untraced_work():
        time.sleep(0.5)
        return {}

    cases = _small_cases() + [wl.Case("untraced", untraced_work)]
    tracer, unwrapped, res = _traced(cases)
    assert res.failed == 0, res.failures
    coverage = _coverage(tracer, unwrapped, tracer.aggregate())
    assert not coverage["ok"]
    assert coverage["untraced_share"] > bench_run.MAX_UNTRACED_SHARE


def test_counts_repeat_exactly():
    def counts():
        tracer, _, _ = _traced(_small_cases())
        layers = tracer.aggregate()
        return {k: v for k, v in layers.items() if not k.endswith("_s") and not k.endswith(".s")}

    first, second = counts(), counts()
    assert first == second
    assert first["scalar.fraction_new.calls"] > 0


def test_metric_lists_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(bench_run.END_TO_END.items())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == bench_run.per_layer_metrics()
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
