"""The benchmark's tracer against the package: every name it wraps exists,
the series operations it counts are the ones the package calls, and
``uninstall`` puts every original back."""

import importlib.util
from pathlib import Path

import twisted_bernoulli.cli  # noqa: F401  (imports every layer)
from twisted_bernoulli import bernoulli as bn
from twisted_bernoulli import exact
from twisted_bernoulli.characters import DirichletCharacter, enumerate_cyclic
from twisted_bernoulli.exact import RootOfUnity

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_existing_names_and_restores_every_original():
    tr = load_tracer()
    owners = tr.package_modules() + [exact.CycloElem, DirichletCharacter]
    before = [(owner, dict(vars(owner))) for owner in owners]
    for f in (bn.generating_series, bn._kernel_series, bn.numbers):
        f.cache_clear()
    tracer = tr.Tracer()
    try:
        tracer.install()  # AttributeError naming any traced name the package lacks
        bn.numbers(bn.twist_spec(enumerate_cyclic(5)[1], RootOfUnity(3, 1)), 3, 6)
    finally:
        tracer.uninstall()
    for owner, attrs in before:
        now = vars(owner)
        assert set(now) == set(attrs), owner
        changed = [name for name, obj in attrs.items() if now[name] is not obj]
        assert not changed, (owner, changed)
    calls = {name: rec[0] for name, rec in tracer.stats.items()}
    # one kernel quotient, F^(2) = F F and F^(3) = F^(2) F, seven numbers
    assert calls["powerseries.divide_cancel"] == 1
    assert calls["powerseries.series_invert"] == 1
    assert calls["powerseries.series_mul"] == 3
    assert calls["powerseries.egf_coefficient"] == 7
    assert calls["bernoulli.generating_series"] == 3


def test_single_calls_clear_the_caches_of_numbers_polynomials_and_characters():
    # the benchmark's single calls start cold by clearing every cache listed
    # here; one missing would let them time a warm cache
    caches = load_tracer().package_caches()
    for name in ("bernoulli.numbers", "bernoulli.polynomial", "characters.enumerate_cyclic"):
        assert "twisted_bernoulli." + name in caches, name
