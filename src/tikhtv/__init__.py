"""Matrix-free solver for inverse problems whose models split into a
piecewise-constant part plus a smooth part, with automatic balancing of the
two regularizers driven by robust statistics of the model gradient.

The public names live in the submodules: ``tikhtv.operators``,
``tikhtv.kernels``, ``tikhtv.robust``, ``tikhtv.problems``, ``tikhtv.admm``
and ``tikhtv.cli``."""

__version__ = "0.1.0"
