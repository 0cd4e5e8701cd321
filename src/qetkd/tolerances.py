"""All numerical tolerances in one place.

Every module compares against these defaults instead of scattering magic
numbers; tests import the same record so the suite and the library can
never drift apart.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    hermitian: float = 1e-12        # |A - A†| entrywise
    unit_norm: float = 1e-12        # state vectors and basis 3-vectors
    trace_one: float = 1e-10        # density matrices
    psd: float = 1e-10              # smallest admissible eigenvalue is -psd
    imaginary_residue: float = 1e-10
    commutator: float = 1e-10       # [P_A, H_B] Frobenius norm
    degenerate_gap: float = 1e-9    # level spacing, relative to max(1, max |E|)
    sign_zero: float = 1e-12        # |E| at or below this carries no sign in scans
    outcome: float = 1e-14          # an outcome this unlikely has no conditional state
    objective: float = 1e-12        # feedback-axis optimizer coefficient norm
    bisection: float = 1e-4         # perfbench's noise-scan p* check; scans solve p* exactly


TOL = Tolerances()
