"""Electromagnetic navigation control stack.

Library for magnetically actuated pendulum experiments: synthetic coil-array
models, torque/field current allocation, LQRI stabilization, closed-loop
simulation, and feasibility-margin workspace analysis.  The public surface
is the ``emnav`` command line and the submodules.
"""

__version__ = "0.1.0"
