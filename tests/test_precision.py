"""The float64 spectrum against 40-digit solves, with no float64 oracle.

``spec.spectrum`` of chain3 (at J = 0.7 and at the default coupling) and
of the two-site model is compared with mpmath's eigensolver at 40 digits
on the same Hamiltonian, built from the spec's terms by exact Kronecker
products.  Eigenvalues must agree within 1e-14 max(1, ||H||) and the
ground vector must overlap the 40-digit ground state to within 1e-13 of 1,
so a change of solver is held to the precision of the value itself rather
than to another float64 computation.
"""

import functools

import mpmath
import numpy as np
import pytest

from qetkd.models import chain3, two_site
from qetkd.noise import default_chain_coupling

DIGITS = 40
PAULI = {"X": [[0, 1], [1, 0]], "Y": [[0, -1j], [1j, 0]], "Z": [[1, 0], [0, -1]]}


def mp_term(factors, n):
    """A Pauli product on n sites as an exact mpmath matrix, site 0 most significant."""
    ops = dict(factors)
    out = mpmath.matrix([[1]])
    for site in range(n):
        op = mpmath.matrix(PAULI[ops[site]]) if site in ops else mpmath.eye(2)
        grown = mpmath.matrix(2 * out.rows, 2 * out.cols)
        for i in range(out.rows):
            for j in range(out.cols):
                for k in range(2):
                    for m in range(2):
                        grown[2 * i + k, 2 * j + m] = out[i, j] * op[k, m]
        out = grown
    return out


def mp_solve(spec):
    """(eigenvalues ascending, ground vector) of the spec's H at 40 digits."""
    d = 2 ** spec.n_sites
    h = mpmath.zeros(d, d)
    for t in spec.terms:
        h += mpmath.mpf(t.coefficient) * mp_term(t.factors, spec.n_sites)
    values, vectors = mpmath.eighe(h)
    order = sorted(range(d), key=lambda i: values[i])
    return [values[i] for i in order], [vectors[r, order[0]] for r in range(d)]


SPECS = {
    "chain3-0.7": lambda: chain3(0.7)[0],
    "chain3-default": lambda: chain3(default_chain_coupling())[0],
    "two-site": lambda: two_site(1.3, 0.4),
}


@functools.lru_cache(maxsize=None)
def solved(name):
    """(spec, its 40-digit eigenvalues ascending, its 40-digit ground vector)."""
    spec = SPECS[name]()
    with mpmath.workdps(DIGITS):
        return (spec, *mp_solve(spec))


@pytest.mark.parametrize("name", list(SPECS))
def test_values_match_forty_digits(name):
    spec, exact, _ = solved(name)
    with mpmath.workdps(DIGITS):
        scale = max(1, max(abs(e) for e in exact))  # ||H||, the largest |eigenvalue|
        error = max(abs(mpmath.mpf(float(g)) - e) for g, e in zip(spec.spectrum.values, exact))
        assert error <= 1e-14 * scale


@pytest.mark.parametrize("name", list(SPECS))
def test_ground_vector_overlap_is_one(name):
    spec, _, exact = solved(name)
    with mpmath.workdps(DIGITS):
        overlap = abs(mpmath.fsum(mpmath.conj(e) * mpmath.mpc(complex(g))
                                  for e, g in zip(exact, spec.spectrum.ground)))
        norm = mpmath.sqrt(mpmath.fsum(abs(e) ** 2 for e in exact))
        assert abs(overlap / norm - 1) <= 1e-13
