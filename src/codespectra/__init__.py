"""Exact code-spectrum toolkit: finite fields, spectra of linear codes,
MacWilliams transforms, Gabidulin MRD constructions, LDGM ensembles and
concatenation design."""

from .gf import CycInt, FieldSpec, field_make
from .spectra import (
    CodeEnsemble,
    LinearCode,
    TypeVector,
    alpha,
    code_joint_spectrum,
    enumerate_types,
    image_spectrum,
    kernel_spectrum,
    rho,
    set_spectrum,
    space_spectrum,
    type_of,
)

__all__ = [
    "CycInt",
    "FieldSpec",
    "field_make",
    "CodeEnsemble",
    "LinearCode",
    "TypeVector",
    "alpha",
    "code_joint_spectrum",
    "enumerate_types",
    "image_spectrum",
    "kernel_spectrum",
    "rho",
    "set_spectrum",
    "space_spectrum",
    "type_of",
]
