"""arcmig: far-field scattering from arc-like cracks in 2-D and
multi-frequency subspace-migration imaging, with closed-form Bessel-kernel
validation and Newton shape refinement."""

from . import _blas, _heap  # noqa: F401  (fix the BLAS and heap policies at import)
from .backend import BACKEND

__version__ = "0.1.0"

__all__ = ["BACKEND", "__version__"]
