"""Fraction-free arithmetic kernels for cyclotomic coordinate vectors.

The package re-exports the implementation in ``_pykernel``; callers use the
names below through the package.
"""

# A package over ``_pykernel`` because perfbench/tracer.py wraps these names and
# skips ``_kernel._*`` modules, so that only calls into the kernel API count.
from ._pykernel import BACKEND, cauchy_coeff, normalize, vadd, vmulmod, vscale
