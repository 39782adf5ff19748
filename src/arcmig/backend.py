"""Names kept for perfbench: it imports `kernels` from here and reads
`arcmig.BACKEND`, which is set here.  This module goes once perfbench
imports `arcmig.kernels` (ROADMAP item 4).
"""

from . import kernels  # noqa: F401

BACKEND = "pure"
