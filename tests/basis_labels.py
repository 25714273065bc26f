"""Basis labels and the tau of a basis vector, kept as test references.

``qbnf.quantize`` assembles on column arrays and looks up no label.
These give the matrix row of a label (k, l), the labels of a cylinder
basis in row order, and the tau eigenvalue of the cylinder vector
(k, l) from the formula of the quantize module docstring, written apart
from the tau column that ``assemble_cylinder`` forms.
"""

import math


def cylinder_index(basis, k, l) -> int:
    return (k - basis.k_min) * (basis.levels + 1) + l


def cylinder_labels(basis):
    return [(k, l) for k in range(basis.k_min, basis.k_max + 1) for l in range(basis.levels + 1)]


def saddle_index(basis, k, l) -> int:
    return k * (basis.levels2 + 1) + l


def tau_value(basis, k, l) -> float:
    base = k + 0.5 * l if not basis.orientable else k
    return basis.h * base - basis.action / (2.0 * math.pi)
