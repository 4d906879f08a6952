"""Exact combinatorics of Seidel multiplication in quantum cohomology of G/P.

Everything is integer arithmetic over explicit lattice coordinates: root
systems and Weyl groups (rootsys, weyl), the extended affine Weyl group with
its parabolic factorizations (affine), an affine nil Hecke ring with its
coinvariant action (nilhecke, poly), and Schubert-basis classes with the
Chevalley and Seidel multiplication operators plus the affine-to-quantum
dictionary (qh). The suites module re-derives the identities these
implementations rely on from independent definitions.
"""

from .affine import ExtAffElt, hat_decompose, peterson_decompose, pi_P
from .qh import (
    QHClass,
    chevalley_multiply,
    psi_P,
    qh_from_json,
    qh_text,
    qh_to_json,
    seidel_element,
    seidel_multiply,
    sigma,
    unit_class,
)
from .rootsys import CATALOG, build_root_system
from .suites import RunConfig, SuiteResult, run_suites
from .weyl import from_word, parabolic, reduced_word

__all__ = [
    "CATALOG",
    "ExtAffElt",
    "QHClass",
    "RunConfig",
    "SuiteResult",
    "build_root_system",
    "chevalley_multiply",
    "from_word",
    "hat_decompose",
    "parabolic",
    "peterson_decompose",
    "pi_P",
    "psi_P",
    "qh_from_json",
    "qh_text",
    "qh_to_json",
    "reduced_word",
    "run_suites",
    "seidel_element",
    "seidel_multiply",
    "sigma",
    "unit_class",
]
