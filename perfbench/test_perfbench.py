"""Tests of the benchmark itself: seeded inputs, cold isolation, the
tracer and the output checks.  Run with ``python3 -m pytest perfbench``."""

import json
import os
import shutil
import subprocess
import sys

import pytest

import run
import tracer
import workloads
from workloads import Op, Workload

import sliceobs


def _noop_check(_):
    return []


def test_same_seed_gives_same_sweep_inputs():
    assert workloads.sweep_witnesses(7) == workloads.sweep_witnesses(7)
    assert (workloads.build("sweep", 7).inputs
            == workloads.build("sweep", 7).inputs)


def test_different_seeds_give_different_sweep_inputs():
    lists = {tuple(workloads.sweep_witnesses(seed)) for seed in range(10)}
    assert len(lists) == 10


@pytest.mark.parametrize("seed", range(5))
def test_sweep_witnesses_are_valid(seed):
    wit = workloads.sweep_witnesses(seed)
    assert len(wit) == len(workloads.SWEEP_N) * workloads.SWEEP_PER_N
    for n, s, theta in wit:
        assert n in workloads.SWEEP_N
        assert n < s < workloads.SWEEP_S_MAX
        assert s % n == 1 and workloads.is_prime(s)
        assert theta != 1 and pow(theta, n, s) == 1


def test_is_prime_agrees_with_trial_division():
    def slow(m):
        return m > 1 and all(m % d for d in range(2, int(m ** 0.5) + 1))
    assert [m for m in range(2000) if workloads.is_prime(m)] == \
        [m for m in range(2000) if slow(m)]


def _marker_pass(cold):
    """Run two operations: the first leaves state in a package module, the
    second reports whether it can see it.  Returns what the second saw."""
    seen = []

    def leave():
        sliceobs.report._perfbench_marker = True

    def look():
        return getattr(sliceobs.report, "_perfbench_marker", False)

    got = run.run_pass(Workload(cold, (
        Op("leave", 1, leave, lambda out: out, _noop_check),
        Op("look", 1, look, lambda out: out,
           lambda out: seen.append(out) or [])), None))
    assert not any(r["problems"] for r in got["records"])
    assert not hasattr(sliceobs.report, "_perfbench_marker")
    return seen == [True]


def test_cold_operations_do_not_see_earlier_state():
    assert not _marker_pass(cold=True)


def test_warm_operations_share_state_within_a_pass():
    assert _marker_pass(cold=False)


def test_cold_workloads_are_cold_and_sweep_is_warm():
    assert workloads.build("table", 0).cold
    assert workloads.build("exhaustive", 0).cold
    assert workloads.build("invariants", 0).cold
    assert not workloads.build("sweep", 0).cold


def test_failed_operation_is_counted():
    def boom():
        raise ValueError("boom")

    got = run.run_pass(Workload(True, (
        Op("boom", 1, boom, lambda out: out, _noop_check),), None))
    (rec,) = got["records"]
    assert rec["problems"] and "ValueError" in rec["problems"][0]


def test_install_rebinds_every_alias_and_uninstall_restores():
    det_gf = sliceobs.linalg.det_gf
    linking_form = sliceobs.blanchfield.linking_form
    tr = tracer.Tracer()
    replaced = tr.install(["linalg.det_gf", "blanchfield.linking_form",
                           "linalg.no_such_function"])
    try:
        wrapped = sliceobs.linalg.det_gf
        assert wrapped is not det_gf and wrapped.__wrapped__ is det_gf
        assert sliceobs.twisted.det_gf is wrapped
        assert sliceobs.det_gf is wrapped
        assert (sliceobs.report.linking_form
                is sliceobs.blanchfield.linking_form)
        assert sliceobs.metabolizers.linking_form.__wrapped__ is linking_form
        assert replaced >= 6
        sliceobs.twisted.det_gf([[1, 2], [3, 4]], 7)
        assert [sp[2] for sp in tr.spans] == ["linalg.det_gf"]
    finally:
        tr.uninstall()
    assert sliceobs.twisted.det_gf is det_gf
    assert sliceobs.report.linking_form is linking_form


def test_function_stats_self_and_total_time():
    # id, parent, name, op, start, end, arg
    spans = [[0, -1, "a.f", 0, 0.0, 10.0, 5],
             [1, 0, "a.g", 0, 1.0, 4.0, None],
             [2, 1, "a.f", 0, 2.0, 3.0, 5],
             [3, 0, "a.g", 0, 5.0, 6.0, None],
             [4, -1, "a.f", 1, 20.0, 21.0, 7]]
    stats = tracer.function_stats(spans)
    assert stats["a.f"]["calls"] == 3
    assert stats["a.f"]["total_s"] == 11.0        # the nested call is inside
    assert stats["a.f"]["self_s"] == 6.0 + 1.0 + 1.0
    assert stats["a.g"]["self_s"] == 2.0 + 1.0
    assert stats["a.f"]["args"] == {5, 7}


def _traced_calls():
    op = Op("n11", 2, lambda: sliceobs.obstruct(11), workloads._reports,
            _noop_check)
    got = run.run_pass(Workload(True, (op,), None),
                       ("linalg.det_gf", "linalg.det_bareiss",
                        "blanchfield.linking_form", "report.obstruct",
                        "twisted.twisted_polynomial", "ffpoly.factor"))
    stats = tracer.merge_stats(tracer.function_stats(s) for s in got["spans"])
    return {name: st["calls"] for name, st in stats.items()}


def test_two_traced_runs_give_identical_calls():
    first, second = _traced_calls(), _traced_calls()
    assert first == second
    # det_gf is reached only through the alias in twisted, linking_form
    # only through the alias in report
    assert first["linalg.det_gf"] > 0
    assert first["blanchfield.linking_form"] == 1
    assert first["report.obstruct"] == 1
    assert first["twisted.twisted_polynomial"] == 2


def test_table_check_is_byte_exact():
    op = workloads.build("table", 0).ops[0]
    text = workloads._expected_text("obstruct-n11.json")
    assert op.check((0, text)) == []
    assert op.check((0, text.replace("not slice", "inconclusive")))
    assert op.check((0, text + " "))
    assert op.check((1, text))


def test_sweep_check_recomputes_the_claims():
    n, s, theta = 11, 23, 2
    rows = [r.to_dict() for r in sliceobs.obstruct(n, s=s, theta=theta)]
    assert workloads.check_sweep_rows(rows, n, s, theta) == []
    bad = json.loads(json.dumps(rows))
    bad[0]["norm_obstructed"] = not bad[0]["norm_obstructed"]
    assert workloads.check_sweep_rows(bad, n, s, theta)
    bad = json.loads(json.dumps(rows))
    bad[1]["factors"][0][0] = (bad[1]["factors"][0][0] + 1) % s
    assert workloads.check_sweep_rows(bad, n, s, theta)
    bad = json.loads(json.dumps(rows))
    for row in bad:
        row["verdict"] = "inconclusive"
    assert workloads.check_sweep_rows(bad, n, s, theta)


def test_invariants_check():
    op = workloads.build("invariants", 0).ops[0]
    out = op.extract(op.call())
    assert op.check(out) == []
    h2, h3, h5, alex, pn = out
    assert op.check((h2, h3, h5[:-1] + [h5[-1] + 1], alex, pn))
    bumped = {e: c + (e == 0) for e, c in alex.items()}
    assert op.check((h2, h3, h5, bumped, pn))


def test_half_sum_unreachable():
    assert workloads.half_sum_unreachable([2, 2, 3, 3, 8])
    assert not workloads.half_sum_unreachable([1, 1, 2, 2])


def test_fails_without_the_program(tmp_path):
    shutil.copytree(workloads.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "table",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
