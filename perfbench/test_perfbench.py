"""Tests of the benchmark itself: seeded generation, tracing transparency
and the correctness checker."""

import pytest

from siegelsums import acceptance, expsums, petersson, sp4
from siegelsums.matcore import HalfIntegralForm, IntMat2

from perfbench import tracing, workloads as wl
from perfbench.hostspeed import REF_CALIB_S, HostSpeed


@pytest.fixture(scope="module")
def refs():
    return wl.load_refs()


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_generator_is_seeded(name):
    w = wl.WORKLOADS[name]
    first = [w.round(7, i) for i in range(4)]
    assert first == [w.round(7, i) for i in range(4)]
    assert first != [w.round(8, i) for i in range(4)]
    assert len({repr(r) for r in first}) > 1  # rounds draw fresh inputs


def test_fit_rounds_take_one_pair_per_slot():
    w = wl.WORKLOADS["residue-fit"]
    for seed in (1, 2):
        for i in range(6):
            phis = sorted(wl._totient(abs(q1 * q2))
                          for _, q1, q2, _ in w.round(seed, i))
            assert phis == sorted(wl.FIT_SLOTS)


def _small_ops():
    f, g = HalfIntegralForm(1, 0, 1), HalfIntegralForm(1, 1, 2)
    return [
        ("K", f, g, IntMat2.scalar(3)),
        ("K", g, f, IntMat2(2, 1, 1, 3)),
        ("fit", 1, -3, 10),
        # rank-1 cut at c = 3 keeps this quick; rank-2 still builds tables
        ("h", f, g, petersson.SpectralParams(k=10, level=3, rank1_cutoff=3)),
    ]


def _run(ops):
    outs = []
    for op in ops:
        acceptance.clear_all_caches()
        outs.append(wl.run_op(op, threads=2))
    return outs


def test_tracing_is_transparent():
    ops = _small_ops()
    plain = _run(ops)
    originals = {(m, a): getattr(m, a)
                 for m, a, _, _ in tracing.wrap_targets(sp4, petersson, expsums)}
    tracer = tracing.Tracer()
    with tracer.installed(tracing.wrap_targets(sp4, petersson, expsums)):
        assert petersson.salie is not expsums.salie
        sp4.clear_caches()  # forwarded cache_clear on the wrapped coset_data
        assert sp4.coset_data.cache_info().currsize == 0
        traced = _run(ops)
    assert traced == plain
    for (module, attr), fn in originals.items():
        assert getattr(module, attr) is fn
    names = {s.name for s in tracer.spans}
    assert {"expsums.kloosterman", "sp4.coset_data", "expsums.salie",
            "lfun.dirichlet_l_vec", "petersson.h_fourier",
            "matcore.solve_integer_system"} <= names
    metrics = tracing.layer_metrics(tracer)
    assert metrics["sp4.coset_tables_built"] > 0
    assert metrics["expsums.salie_calls"] > 0
    assert all("hit" in s.extra for s in tracer.spans if s.name == "sp4.coset_data")
    assert all(t >= -1e-9 for t in tracer.self_times())


def test_checker_rejects_perturbed_outputs(refs):
    ops = _small_ops()
    outs = _run(ops[:3])
    for op, out in zip(ops, outs):
        assert wl.check(op, out, refs)
    k_op, k_out = ops[0], outs[0]
    bad = expsums.SumValue(k_out.value + 1e-6, k_out.terms, k_out.method)
    assert not wl.check(k_op, bad, refs)

    fit_op, (fit, sweep) = ops[2], outs[2]
    bumped = [petersson.ResidueReport(r.q1, r.q2, r.level, r.residue + 1e-6,
                                      r.imag_defect, r.radius, r.nodes)
              for r in sweep]
    assert not wl.check(fit_op, (fit, bumped), refs)
    assert not wl.check(fit_op, (fit, sweep[:-1]), refs)

    h_ref = refs["h"][wl.coeff_key((1, 1, 1), (1, 1, 2), 3)]
    h_op = ("h", HalfIntegralForm(1, 1, 1), HalfIntegralForm(1, 1, 2),
            petersson.SpectralParams(k=10, level=3))
    good = petersson.HCoefficient(complex(*h_ref["total"]), 0j, 0j, 0j,
                                  h_ref["tail_bound"])
    assert wl.check(h_op, good, refs)
    off = petersson.HCoefficient(good.total + 2 * good.tail_bound, 0j, 0j, 0j,
                                 good.tail_bound)
    assert not wl.check(h_op, off, refs)


def test_host_speed_scales_by_the_calibrations_around_an_interval():
    speed = HostSpeed()
    f = speed.factor()
    first, second = speed.samples
    assert f == pytest.approx(REF_CALIB_S / (0.5 * (first + second)))
    speed.factor()
    assert len(speed.samples) == 3
