"""Kernel backend: the pure-NumPy Bessel-family kernels.

`kernels` is the module the rest of the package calls; `BACKEND` names it
in run manifests.
"""

from . import _kernels_py

kernels = _kernels_py
BACKEND = "pure"
