"""The benchmark's per-layer tracer wraps package functions by name, and a
name it cannot find reads 0 instead of failing; every name must resolve.
Its counters read ``args[0]`` (mu) of ``engines.seq_sweep`` and the
``n_iter`` of ``engines.run``'s result, so the call forms must keep them, and
the drivers must evaluate alpha through ``model.inclusion_prob``, the name it
times."""

import importlib
import importlib.util
import os
import sys

from sscavi import engines, harness
from sscavi.model import Hyperparams, precompute
from sscavi.synth import GenSpec, make_dataset, replicate_seed

TRACER_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracer.py")


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_tracer_targets_resolve():
    tracer = _load_tracer()
    assert tracer.TARGETS
    for module_name, fn_name, layer in tracer.TARGETS:
        module = importlib.import_module(f"sscavi.{module_name}")
        assert callable(getattr(module, fn_name, None)), (module_name, fn_name, layer)


def test_tracer_counters_read_the_call_forms():
    tracer_module = _load_tracer()
    names = {module_name for module_name, _, _ in tracer_module.TARGETS}
    modules = {name: importlib.import_module(f"sscavi.{name}") for name in names}
    package = {name: dict(vars(module)) for name, module in sys.modules.items()
               if name == "sscavi" or name.startswith("sscavi.")}
    hyper, cfg, p = Hyperparams(pi=0.5, tau=1.0, sigma2=1.0), engines.RunConfig(), 10
    tracer = tracer_module.Tracer(modules)
    tracer.install()
    try:
        assert harness.spectral_replicate(60, p, 5, 0, hyper, cfg)["seq_converged"]
        # one parallel sweep certifies the fixed point, one more gives its residual
        assert tracer.totals["engines.par_sweep.calls"] == 2
        ds = make_dataset(GenSpec(n=60, p=p, s=5, seed=0))
        pre = precompute(ds, hyper)
        alphas = [tracer.totals["model.inclusion_prob.calls"]]
        trace = engines.run(pre, engines.Scheme(engines.SEQUENTIAL), cfg)
        alphas.append(tracer.totals["model.inclusion_prob.calls"])
        engines.fixed_point(pre, cfg)
        alphas.append(tracer.totals["model.inclusion_prob.calls"])
    finally:
        tracer.uninstall()
    totals = tracer.totals
    assert totals["engines.run.iterations"] == trace.n_iter
    # one alpha per iterate plus the entry alpha, in both drivers; fixed_point
    # iterates exactly as the sequential run does
    assert alphas[1] - alphas[0] == trace.n_iter + 1
    assert alphas[2] - alphas[1] == trace.n_iter + 1
    assert totals["engines.seq_sweep.calls"] > trace.n_iter
    assert totals["engines.seq_sweep.flops"] == 2 * p * p * totals["engines.seq_sweep.calls"]
    for name, attrs in package.items():
        module = sys.modules[name]
        assert all(getattr(module, attr) is value for attr, value in attrs.items()), name


def test_study_calls_the_swapped_replicate(tmp_path):
    # The benchmark times replicates by swapping its own callable in as
    # harness.spectral_replicate; the study must look the name up at each
    # call, not bind it early, or the benchmark records no latencies.
    calls = []
    original = harness.spectral_replicate

    def counting(n, p, s, seed, *args):
        calls.append((n, p, s, seed))
        return original(n, p, s, seed, *args)

    cfg = harness.StudyConfig(out_dir=str(tmp_path / "ss"), mode="spectral_study",
                              n=(60,), p=(8,), s=(2, 6), replications=2, master_seed=5,
                              panel="right", explicit_grids=frozenset({"n", "p", "s"}))
    harness.spectral_replicate = counting
    try:
        rows = harness.cmd_spectral_study(cfg)
    finally:
        harness.spectral_replicate = original
    assert calls == [(60, 8, s, replicate_seed(5, r)) for s in (2, 6) for r in range(2)]
    assert [tuple(row[1:4]) + (row[5],) for row in rows] == calls
