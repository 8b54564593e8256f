"""No optional accelerator: ``skron_into`` is always None.

The package runs on numpy and scipy alone; numba is not a dependency, and
nothing in the package calls a compiled kernel.  The name is kept because
perfbench's host record reads ``genneg._kernels.skron_into``.
"""

skron_into = None
