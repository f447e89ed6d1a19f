"""Tests of the benchmark's own machinery: self-time arithmetic, the
p_gcd classifier, wrapper install/uninstall, the host-speed scaling of
pace.py, and the agreement of BENCHMARK.json with the code that produces
its metrics.

    python3 -m pytest perfbench/tests -q
"""

import json
import os
from fractions import Fraction as F

from spans import Tracer, gcd_is_trivial, is_monomial, layer_metrics, self_times

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def test_self_time_subtracts_direct_children_only():
    # root [0, 10] holds a [1, 4] (which holds b [2, 3]) and c [5, 9]
    recs = [
        ["root", 0.0, 10.0, -1, "j", None],
        ["a", 1.0, 4.0, 0, "j", None],
        ["b", 2.0, 3.0, 1, "j", None],
        ["c", 5.0, 9.0, 0, "j", None],
    ]
    assert self_times(recs) == [3.0, 2.0, 1.0, 4.0]


def test_layer_metrics_sum_calls_and_self_time_per_name():
    recs = [
        ["mkengine.build_polynomial", 0.0, 10.0, -1, "j", None],
        ["mkengine.apply_qdiff", 1.0, 7.0, 0, "j", None],
        ["galg.ga_divexact", 2.0, 5.0, 1, "j", 4],
        ["galg.ga_divexact", 5.0, 6.0, 1, "j", 3],
        ["mkengine.apply_qdiff", 11.0, 12.0, -1, "j", None],
        ["scalars.p_gcd", 12.0, 12.5, -1, "j", 1],
        ["scalars.p_gcd", 13.0, 13.5, -1, "j", 0],
    ]
    m = layer_metrics(recs)
    assert m["galg.ga_divexact.calls"] == (2, "count")
    assert m["galg.ga_divexact.self_s"] == (4.0, "s")
    assert m["galg.ga_divexact.quotient_terms"] == (7, "count")
    assert m["mkengine.apply_qdiff.calls"] == (2, "count")
    assert m["mkengine.apply_qdiff.self_s"] == (3.0, "s")
    # only the apply_qdiff under build_polynomial is the self-check, whole span
    assert m["mkengine.selfcheck_s"] == (6.0, "s")
    assert m["mkengine.build_polynomial.self_s"] == (4.0, "s")
    assert m["scalars.p_gcd.monomial_share"] == (0.5, "ratio")
    assert m["qsp1.chain_res.calls"] == (0, "count")


def test_monomial_classifier():
    assert is_monomial((F(0), F(0), F(3)))
    assert is_monomial((F(-1),))
    assert not is_monomial((F(1), F(0), F(1)))
    assert not is_monomial(())
    assert gcd_is_trivial(((F(1), F(1)), (F(0), F(2))), None)
    assert gcd_is_trivial(((), (F(1), F(1))), None)
    assert not gcd_is_trivial(((F(1), F(1)), (F(1), F(0), F(1))), None)


def _references():
    from mkpolys import cli, galg, mkengine, roots, scalars
    return {
        "galg.ga_divexact": galg.ga_divexact,
        "mkengine.ga_divexact": mkengine.ga_divexact,
        "scalars.p_gcd": scalars.p_gcd,
        "scalars.scalar_to_series": scalars.scalar_to_series,
        "mkengine.scalar_to_series": mkengine.scalar_to_series,
        "GAElem.__mul__": galg.GAElem.__dict__["__mul__"],
        "GAElem.__rmul__": galg.GAElem.__dict__["__rmul__"],
        "TruncSeries.divide": scalars.TruncSeries.__dict__["divide"],
        "galg.weyl_group": galg.weyl_group,
        "mkengine.apply_qdiff": mkengine.apply_qdiff,
        "cli.main": cli.main,
    }


def test_install_wraps_every_reference_and_uninstall_restores_them():
    from mkpolys import galg, mkengine, roots

    before = _references()
    expected = mkengine.build_family(roots.satake_catalog("AI1", 1), 1, 4)
    tracer = Tracer()
    tracer.install()
    try:
        during = _references()
        for key, fn in during.items():
            assert fn is not before[key], key
        assert during["mkengine.ga_divexact"] is during["galg.ga_divexact"]
        assert during["GAElem.__rmul__"] is during["GAElem.__mul__"]
        tracer.job = "probe"
        traced = mkengine.build_family(roots.satake_catalog("AI1", 1), 1, 4)
    finally:
        tracer.uninstall()
    after = _references()
    for key, fn in before.items():
        assert after[key] is fn, key
    assert {lam: P.to_json() for lam, P in traced.items()} == \
        {lam: P.to_json() for lam, P in expected.items()}
    names = {rec[0] for rec in tracer.spans}
    assert {"mkengine.operator_action", "mkengine.apply_qdiff",
            "galg.ga_divexact", "scalars.p_gcd"} <= names
    assert all(rec[4] == "probe" for rec in tracer.spans)
    count = len(tracer.spans)
    galg.GAElem.unit(1) * galg.GAElem.unit(1)
    assert len(tracer.spans) == count


def test_benchmark_json_names_what_the_code_reports():
    import jobs
    import run

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(jobs.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    layer = [(k, unit) for k, (_, unit) in layer_metrics([]).items()]
    layer += [("trace.wall_s", "s"), ("trace.overhead_s", "s")]
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == layer


def test_golden_digests_cover_the_compute_jobs():
    import jobs

    with open(jobs.GOLDEN) as fh:
        golden = json.load(fh)
    assert sorted(golden) == sorted(jobs.compute_name(f, l) for f, l in jobs.COMPUTE_CASES)


def test_scale_turns_kernel_speed_into_reference_seconds():
    from pace import REF_KERNEL_S, scale

    # kernel at its reference time: measured seconds are reference seconds
    assert scale(2 / REF_KERNEL_S, 2) == 1.0
    # a host at half speed for the whole job: it counts half
    assert scale(3 / (2 * REF_KERNEL_S), 3) == 0.5
    # half the job at full speed, half at half speed: mean speed 3/4
    assert scale(1 / REF_KERNEL_S + 1 / (2 * REF_KERNEL_S), 2) == 0.75


def test_pacer_samples_on_the_timer_and_uninstall_restores_sigprof():
    import signal
    import time

    from pace import Pacer

    previous = signal.getsignal(signal.SIGPROF)
    pacer = Pacer(interval=0.005)
    pacer.install()
    try:
        end = time.process_time() + 0.2
        while time.process_time() < end:
            pass
    finally:
        pacer.uninstall()
    assert pacer.count > 0
    assert pacer.busy > 0 and pacer.inv_sum > 0
    assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGPROF) is previous
