"""Span tracing of the package from outside, by wrapping its functions.

``Tracer.install()`` replaces the traced functions and methods of
``twisted_bernoulli`` with wrappers that time every call; ``uninstall()``
puts the originals back.  No file of the package changes.

A span's *self* time is its duration minus the time of the spans it called.
Spans are aggregated as they close, per name (calls, total seconds, self
seconds), instead of being kept one by one: a sweep makes millions of kernel
calls.  Counts that the layers do not report themselves (element operations,
coordinate products, side builds, Riemann-sum terms, output bytes) are
computed at the same boundaries by small hooks.
"""

from __future__ import annotations

import functools
import sys
import time
from fractions import Fraction

PACKAGE = "twisted_bernoulli"

#: Side builders of the identities module, by identity tag.
SIDE_BUILDERS = {
    "theorem1": "_theorem1_side",
    "remark_m1": "_remark_m1_side",
    "corollary2": "_corollary2_side",
    "m1_numbers": "_m1_numbers_side",
    "theorem3": "_theorem3_side",
    "remark_2_11": "_remark_2_11_side",
    "corollary4": "_corollary4_side",
    "eq_2_12": "_eq_2_12_side",
}

#: Checkers of the identities module, by identity tag.
CHECKERS = {
    "eq_1_13": "check_eq_1_13",
    "theorem1": "check_theorem1",
    "remark_m1": "check_remark_m1",
    "corollary2": "check_corollary2",
    "m1_numbers": "check_m1_numbers",
    "theorem3": "check_theorem3",
    "remark_2_11": "check_remark_2_11",
    "corollary4": "check_corollary4",
    "eq_2_12": "check_eq_2_12",
    "power_sum_series_check": "check_power_sum_series",
}

KERNEL_FUNCTIONS = ("vmulmod", "cauchy_coeff", "normalize", "vadd", "vscale")

#: CycloElem methods traced as one "exact.elem" span.
ELEM_METHODS = (
    "__add__",
    "__radd__",
    "__sub__",
    "__rsub__",
    "__mul__",
    "__rmul__",
    "__truediv__",
    "__neg__",
    "__pow__",
)

#: lru caches whose hits and misses are reported, as (module, function).
CACHES = {
    "identities.affine_poly": ("identities", "_affine_poly"),
    "identities.bern_at": ("identities", "_bern_at"),
    "bernoulli.numbers": ("bernoulli", "numbers"),
    "bernoulli.power_sum": ("bernoulli", "power_sum"),
}


def package_modules() -> list:
    """Every imported module of the package, in a stable order."""
    return [sys.modules[name] for name in sorted(sys.modules) if name.split(".")[0] == PACKAGE]


def package_caches() -> dict:
    """Every functools.lru_cache at module level in the package, by dotted name.

    Call before ``Tracer.install()``: afterwards some names hold wrappers.
    """
    out = {}
    for mod in package_modules():
        for attr, obj in vars(mod).items():
            if hasattr(obj, "cache_clear") and hasattr(obj, "cache_info"):
                if getattr(obj, "__module__", None) == mod.__name__:
                    out[f"{mod.__name__}.{attr}"] = obj
    return out


class Tracer:
    """Wraps package functions; aggregates span times and counts per name."""

    def __init__(self):
        self.stats: dict[str, list] = {}
        self.counts: dict[str, int] = {
            "elem_ops": 0,
            "scalar_ops": 0,
            "coord_mults": 0,
            "side_builds": 0,
            "instances": 0,
            "trivial_instances": 0,
            "volkenborn_terms": 0,
            "output_bytes": 0,
        }
        self.side_keys: set = set()
        self._stack: list[float] = []
        self._patches: list[tuple] = []
        self._cache_base: dict[str, list] = {}
        self._caches: dict = {}

    # -- wrapping ---------------------------------------------------------

    def _record(self, name: str) -> list:
        return self.stats.setdefault(name, [0, 0.0, 0.0])

    def wrap(self, name: str, fn, pre=None, post=None):
        """A wrapper of fn that times each call as a span called name.

        ``pre(args, kwargs)`` runs before the call, ``post(result)`` after it;
        both update counts only.
        """
        rec = self._record(name)
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if pre is not None:
                pre(args, kwargs)
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dt
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - child
            if post is not None:
                post(result)
            return result

        functools.update_wrapper(wrapper, fn)
        return wrapper

    def wrap_generator(self, name: str, fn):
        """Like wrap, for a generator function: each step is one span."""
        rec = self._record(name)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            while True:
                stack.append(0.0)
                t0 = clock()
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    dt = clock() - t0
                    child = stack.pop()
                    if stack:
                        stack[-1] += dt
                    rec[1] += dt
                    rec[2] += dt - child
                rec[0] += 1
                yield item

        return wrapper

    def _patch(self, owner, attr: str, new):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _patch_function(self, module, attr: str, wrapper):
        """Replace module.attr, and every package-level import of the same object.

        The kernel backend modules are left alone so that only calls into the
        kernel API count, whichever backend is active.
        """
        orig = getattr(module, attr)
        for mod in package_modules():
            if mod.__name__.startswith(f"{PACKAGE}._kernel._"):
                continue
            for name, obj in list(vars(mod).items()):
                if obj is orig:
                    self._patch(mod, name, wrapper)

    # -- install / uninstall ------------------------------------------------

    def install(self):
        """Wrap every traced function of the package (imports it if needed)."""
        import twisted_bernoulli._kernel as kernel
        import twisted_bernoulli.bernoulli as bernoulli
        import twisted_bernoulli.characters as characters
        import twisted_bernoulli.cli as cli
        import twisted_bernoulli.exact as exact
        import twisted_bernoulli.identities as identities
        import twisted_bernoulli.powerseries as powerseries
        import twisted_bernoulli.volkenborn as volkenborn

        modules = {"identities": identities, "bernoulli": bernoulli}
        self._caches = {name: getattr(modules[m], f) for name, (m, f) in CACHES.items()}
        self._cache_base = {name: [0, 0] for name in CACHES}
        counts = self.counts

        # kernel: only the dispatching package attributes
        def vmulmod_pre(args, kwargs):
            counts["coord_mults"] += len(args[0]) ** 2

        def cauchy_pre(args, kwargs):
            counts["coord_mults"] += (args[4] + 1) * len(args[0][0]) ** 2

        pres = {"vmulmod": vmulmod_pre, "cauchy_coeff": cauchy_pre}
        for fname in KERNEL_FUNCTIONS:
            self._patch(kernel, fname, self.wrap(f"kernel.{fname}", getattr(kernel, fname), pres.get(fname)))

        # exact: element arithmetic, inverse, embedding of roots, norm, valuation
        elem_cls = exact.CycloElem

        def binary_pre(args, kwargs):
            if isinstance(args[1], elem_cls):
                counts["elem_ops"] += 1
            elif isinstance(args[1], (int, Fraction)):
                counts["scalar_ops"] += 1

        def unary_pre(args, kwargs):
            counts["elem_ops"] += 1

        for meth in ELEM_METHODS:
            pre = unary_pre if meth in ("__neg__", "__pow__") else binary_pre
            self._patch(elem_cls, meth, self.wrap("exact.elem", vars(elem_cls)[meth], pre))
        self._patch(elem_cls, "inverse", self.wrap("exact.inverse", elem_cls.inverse))
        for fname in ("as_cyclo", "norm", "padic_valuation"):
            self._patch_function(exact, fname, self.wrap(f"exact.{fname}", getattr(exact, fname)))

        # characters
        cls = characters.DirichletCharacter
        self._patch(cls, "value_at", self.wrap("characters.value_at", cls.value_at))

        # powerseries
        for fname in ("series_mul", "series_invert", "divide_cancel", "egf_coefficient"):
            self._patch_function(powerseries, fname, self.wrap(f"powerseries.{fname}", getattr(powerseries, fname)))

        # bernoulli
        for fname in ("generating_series", "numbers", "polynomial", "power_sum"):
            self._patch_function(bernoulli, fname, self.wrap(f"bernoulli.{fname}", getattr(bernoulli, fname)))

        # identities
        for tag, fname in SIDE_BUILDERS.items():
            self._patch_function(identities, fname, self.wrap(f"identities.side.{tag}", getattr(identities, fname), self._side_pre(tag)))
        for tag, fname in CHECKERS.items():
            self._patch_function(identities, fname, self.wrap(f"identities.check.{tag}", getattr(identities, fname)))

        def instance_pre(args, kwargs):
            desc = args[0]
            counts["instances"] += 1
            if "w1" in desc and desc["w1"] == desc["w2"]:
                counts["trivial_instances"] += 1

        self._patch_function(identities, "run_instance", self.wrap("identities.run_instance", identities.run_instance, instance_pre))
        self._patch_function(identities, "expand_grid", self.wrap_generator("identities.expand_grid", identities.expand_grid))
        for fname in ("report_to_record", "sweep"):
            self._patch_function(identities, fname, self.wrap(f"identities.{fname}", getattr(identities, fname)))

        # volkenborn
        def riemann_pre(args, kwargs):
            spec, p, level = args[:3]
            counts["volkenborn_terms"] += spec.d * p**level

        def shift_pre(args, kwargs):
            spec, p, _shift, level = args[:4]
            counts["volkenborn_terms"] += 2 * spec.d * p**level

        vk_pres = {"riemann_sum": riemann_pre, "shift_identity_check": shift_pre}
        for fname in ("riemann_sum", "convergence_check", "shift_identity_check"):
            self._patch_function(volkenborn, fname, self.wrap(f"volkenborn.{fname}", getattr(volkenborn, fname), vk_pres.get(fname)))

        # cli: serialization and output size
        for fname in ("_to_json_bytes", "_to_csv_bytes"):
            self._patch_function(cli, fname, self.wrap("cli.serialize", getattr(cli, fname)))

        def run_post(result):
            counts["output_bytes"] += len(result[1])

        self._patch_function(cli, "run", self.wrap("cli.run", cli.run, post=run_post))

    def uninstall(self):
        """Restore every original function and method."""
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    def _side_pre(self, tag: str):
        counts = self.counts
        keys = self.side_keys

        def pre(args, kwargs):
            counts["side_builds"] += 1
            keys.add((tag, args, tuple(sorted(kwargs.items()))))

        return pre

    # -- caches -------------------------------------------------------------

    def bank_cache_counts(self):
        """Add the traced caches' hits and misses so far to the totals.

        Call before clearing the caches, and once at the end.
        """
        for name, fn in self._caches.items():
            info = fn.cache_info()
            self._cache_base[name][0] += info.hits
            self._cache_base[name][1] += info.misses

    # -- output -------------------------------------------------------------

    def snapshot(self) -> dict:
        """JSON-ready aggregates: spans, counts and cache hits/misses."""
        counts = dict(self.counts)
        counts["side_builds_distinct"] = len(self.side_keys)
        return {
            "spans": {name: {"calls": c, "total_s": t, "self_s": s} for name, (c, t, s) in sorted(self.stats.items())},
            "counts": counts,
            "caches": {name: {"hits": h, "misses": m} for name, (h, m) in sorted(self._cache_base.items())},
        }
