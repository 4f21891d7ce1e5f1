"""The E1 kernel module under its historical alias.

Kept only for the benchmark: ``perfbench/run.py`` reads ``BACKEND`` in
``machine_info`` and ``per_layer``, and ``perfbench/tracing.py`` patches
and line-traces the loops of ``kernels``.  Nothing in the package imports
this module; a later change to the benchmark may drop it.
"""

from . import _kernels_py as kernels

BACKEND = "python"

__all__ = ["BACKEND", "kernels"]
