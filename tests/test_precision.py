"""The float64 spectrum against 40-digit solves, with no float64 oracle.

``spec.spectrum`` of chain3 (at J = 0.7 and at the default coupling) and
of the two-site model is compared with mpmath's eigensolver at 40 digits
on the same Hamiltonian, built from the spec's terms by exact Kronecker
products.  Eigenvalues must agree within 1e-14 max(1, ||H||) and the
ground vector must overlap the 40-digit ground state to within 1e-13 of 1,
so a change of solver is held to the precision of the value itself rather
than to another float64 computation.

``threshold_scan`` is held the same way at the chain3 scan cells nearest
zero, where a printed ``.12g`` cell carries digits below the float64
accuracy of the energy: each E_B is recomputed at 40 digits from the same
float inputs (coupling, p, axes), with the ground state, the excited
level and theta all solved at 40 digits.  The star6 scan cells that moved
when the star's marginals came to be read off its block vectors are held
the same way, with the 40-digit states solved in the hub (x) Dicke block.
"""

import functools
import math

import mpmath
import numpy as np
import pytest

from qetkd.models import chain3, star, two_site
from qetkd.noise import default_chain_coupling, threshold_scan
from qetkd.protocol import MeasurementBasis, prepare

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


def mp_sum(terms, n):
    """A sum of Pauli terms as an exact mpmath matrix on n sites."""
    out = mpmath.zeros(2 ** n, 2 ** n)
    for t in terms:
        out += mpmath.mpf(t.coefficient) * mp_term(t.factors, n)
    return out


def mp_solve(spec):
    """(eigenvalues ascending, ground vector) of the spec's H at 40 digits."""
    d = 2 ** spec.n_sites
    values, vectors = mpmath.eighe(mp_sum(spec.terms, spec.n_sites))
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


# ---------------------------------------------------------------------------
# threshold-scan cells near zero
# ---------------------------------------------------------------------------

def mp_trace(m):
    return mpmath.fsum(m[i, i] for i in range(m.rows))


def mp_axis(vector, site, n):
    """n . sigma at ``site`` for a unit 3-vector of floats or mpfs, exactly."""
    return sum((mpmath.mpf(c) * mp_term(((site, axis),), n)
                for c, axis in zip(vector, "XYZ") if c), mpmath.zeros(2 ** n, 2 ** n))


def mp_level(vectors, column):
    """One eigenvector column with its largest amplitude rotated real positive,
    the gauge of ``Spectrum.vectors``."""
    v = vectors.column(column)
    top = max(range(v.rows), key=lambda r: abs(v[r]))
    return v * (abs(v[top]) / v[top])


class MpChain:
    """The protocol on one model at working precision: the sender measures
    ``n`` at site 0, the receiver rotates about ``m`` at ``bob_site`` by the
    theta solved from the 40-digit ground state (``m`` None: the axis that
    maximizes eta)."""

    def __init__(self, spec, partition, n, m=None, bob_site=2):
        self.n_sites = k = spec.n_sites
        self.h = mp_sum(spec.terms, k)
        self.h_a, self.h_b = (mp_sum(partition.parts[label], k) for label in ("A", "B"))
        values, vectors = mpmath.eighe(self.h)
        order = sorted(range(len(values)), key=lambda i: values[i])
        self.ground, self.first = (mp_level(vectors, order[i]) for i in (0, 1))
        self.one = mpmath.eye(2 ** k)
        self.sigma = mp_axis(n, 0, k)
        rho = self.ground * self.ground.H
        if m is None:  # eta(m) = m . (i Tr[sigma [tau_j, H] rho])_j
            c = [mpmath.re(1j * mp_trace(self.sigma * self.commutator(tau, rho)))
                 for tau in (mp_term(((bob_site, axis),), k) for axis in "XYZ")]
            norm = mpmath.sqrt(mpmath.fsum(x ** 2 for x in c))
            m = [x / norm for x in c]
        self.tau = mp_axis(m, bob_site, k)
        xi = mpmath.re(mp_trace(self.tau * (self.h * self.tau - self.tau * self.h) * rho))
        eta = mpmath.re(1j * mp_trace(self.sigma * self.commutator(self.tau, rho)))
        self.theta = mpmath.atan2(eta, xi) / 2

    def commutator(self, tau, rho):
        """[tau, H] rho."""
        return (tau * self.h - self.h * tau) * rho

    def projector(self, b):
        return (self.one - (-1) ** b * self.sigma) / 2

    def rotation(self, sent):
        return (mpmath.cos(self.theta) * self.one
                - 1j * (-1) ** sent * mpmath.sin(self.theta) * self.tau)

    def e_bob(self, rho, flip=0):
        """The ensemble E_B of a unit-trace input at classical flip probability ``flip``."""
        total = -mp_trace(rho * self.h_b)
        for b in (0, 1):
            post = self.projector(b) * rho * self.projector(b)
            for sent, weight in ((b, 1 - flip), (1 - b, flip)):
                u = self.rotation(sent)
                total += weight * mp_trace(u * post * u.H * self.h_b)
        return mpmath.re(total)

    def decode(self, b, sent):
        """The energy the rotation for ``sent`` extracts after outcome ``b`` on |g>."""
        post = self.projector(b) * self.ground * self.ground.H * self.projector(b)
        u = self.rotation(sent)
        return mpmath.re((mp_trace(u * post * u.H * self.h_b) - mp_trace(post * self.h_b))
                         / mp_trace(post))

    def scan_e_bob(self, family, p, site=2, alpha=0.0):
        """E_B of a threshold-scan family at probability p, from its branch states."""
        p = mpmath.mpf(float(p))
        g = self.ground * self.ground.H
        if family == "classical_flip":
            return self.e_bob(g, p)
        if family == "excited_superposition":
            plus = (self.ground + mpmath.expj(float(alpha)) * self.first) / mpmath.sqrt(2)
            states = (g, self.first * self.first.H, plus * plus.H)
            c = mpmath.sqrt(p * (1 - p))
            return mpmath.fsum(w * self.e_bob(s) for w, s in zip((1 - p - c, p - c, 2 * c), states))
        if family == "excited_mixture":  # the first excited level is one vector here
            other = self.first * self.first.H
        else:
            flip = mp_term(((site, {"bit_flip": "X", "phase_flip": "Z"}[family]),), self.n_sites)
            other = flip * g * flip
        return (1 - p) * self.e_bob(g) + p * self.e_bob(other)


# (coupling, family, p): the six chain3 cells near zero whose printed .12g
# E_B moved by more than one unit when the solver changed summation order
NEAR_ZERO_CELLS = [
    (None, "classical_flip", 0.25),
    (None, "excited_superposition", 0.23),
    (None, "excited_mixture", 0.23),
    (1.0, "classical_flip", 0.25),
    (1.0, "bit_flip", 0.06),
    (1.0, "excited_mixture", 0.11),
]
GRID = np.linspace(0.0, 1.0, 101)  # the CLI's default grid


@functools.lru_cache(maxsize=None)
def chain_at(coupling):
    """(ctx, MpChain) of chain3 measured in X, the receiver rotating about Y."""
    spec, partition = chain3(default_chain_coupling() if coupling is None else coupling)
    ctx = prepare(spec, partition, MeasurementBasis.x(0))
    assert ctx.rule.vector == (0.0, 1.0, 0.0)
    with mpmath.workdps(DIGITS):
        return ctx, MpChain(spec, partition, (1.0, 0.0, 0.0), (0.0, 1.0, 0.0))


@pytest.mark.parametrize("coupling, family, p", NEAR_ZERO_CELLS)
def test_scan_cells_near_zero_match_forty_digits(coupling, family, p):
    ctx, exact = chain_at(coupling)
    kwargs = {"site": ctx.rule.site} if family == "bit_flip" else {}
    report = threshold_scan(ctx, family, GRID, **kwargs)
    i = int(np.flatnonzero(np.isclose(GRID, p))[0])
    with mpmath.workdps(DIGITS):
        want = exact.scan_e_bob(family, GRID[i], ctx.rule.site)
        assert abs(mpmath.mpf(report.e_bob[i]) - want) <= 1e-15
        assert abs(want) < 6e-5  # a cell far below ||H||, as named


# ---------------------------------------------------------------------------
# star cells read off the block marginal
# ---------------------------------------------------------------------------

def mp_kron(a, b):
    return mpmath.matrix([[a[i // 2, k // 2] * b[i % 2, k % 2] for k in range(4)]
                          for i in range(4)])


class MpStar:
    """star(N, J) at working precision in the hub (x) Dicke block, where its
    ground and first excited states lie, with the protocol of receiver B1:
    the sender measures X at the hub, the receiver rotates about Y.

    sum_k Z_k |D^n> = (N - 2n) |D^n> and sum_k X_k |D^n> = sqrt((n + 1)(N - n))
    |D^(n+1)> + sqrt(n (N - n + 1)) |D^(n-1)>.  A state's marginal on (hub,
    leaf 1) splits leaf 1 off each Dicke state, |D_N^n> = sqrt(C(N-1, n) /
    C(N, n)) |0>|D_(N-1)^n> + sqrt(C(N-1, n-1) / C(N, n)) |1>|D_(N-1)^(n-1)>;
    every operator of the round acts on that pair.
    """

    def __init__(self, n, j):
        self.n = n
        j = mpmath.mpf(j)
        d = n + 1
        h = mpmath.zeros(2 * d, 2 * d)
        for s in (0, 1):
            for k in range(d):
                h[s * d + k, s * d + k] = (1 - 2 * s) + (n - 2 * k)
                if k < n:
                    h[(1 - s) * d + k + 1, s * d + k] = h[s * d + k, (1 - s) * d + k + 1] = \
                        j * mpmath.sqrt((k + 1) * (n - k))
        values, vectors = mpmath.eighe(h)
        order = sorted(range(2 * d), key=lambda i: values[i])
        self.ground, self.first = (self.level(vectors, order[i]) for i in (0, 1))
        x, y, z = (mpmath.matrix(PAULI[a]) for a in "XYZ")
        one = mpmath.eye(2)
        self.h_b = j * mp_kron(x, x) + mp_kron(one, z)
        self.sigma, self.tau = mp_kron(x, one), mp_kron(one, y)
        rho = self.marginal(self.ground)
        comm = self.tau * self.h_b - self.h_b * self.tau
        xi = -mpmath.re(mp_trace(self.tau * comm * rho))
        eta = mpmath.re(1j * mp_trace(self.sigma * comm * rho))
        self.theta = mpmath.atan2(eta, xi) / 2

    def level(self, vectors, column):
        """A block eigenvector with its largest register amplitude, a[s, n] /
        sqrt(C(N, n)), rotated real positive: the gauge of ``Spectrum.vectors``."""
        v = vectors.column(column)
        top = max(range(v.rows),
                  key=lambda r: abs(v[r]) / mpmath.sqrt(math.comb(self.n, r % (self.n + 1))))
        return v * (abs(v[top]) / v[top])

    def marginal(self, a):
        n, d = self.n, self.n + 1
        c = [[a[s * d + r + b] * mpmath.sqrt(mpmath.mpf(math.comb(n - 1, r)) / math.comb(n, r + b))
              for r in range(n)] for s in (0, 1) for b in (0, 1)]
        return mpmath.matrix([[mpmath.fsum(u * mpmath.conj(v) for u, v in zip(c[i], c[k]))
                               for k in range(4)] for i in range(4)])

    def e_bob(self, rho):
        one = mpmath.eye(4)
        total = -mp_trace(rho * self.h_b)
        for b in (0, 1):
            p = (one - (-1) ** b * self.sigma) / 2
            u = mpmath.cos(self.theta) * one - 1j * (-1) ** b * mpmath.sin(self.theta) * self.tau
            total += mp_trace(u * p * rho * p * u.H * self.h_b)
        return mpmath.re(total)

    def scan_e_bob(self, family, p):
        p = mpmath.mpf(float(p))
        g, first = self.marginal(self.ground), self.marginal(self.first)
        if family == "excited_mixture":  # the first excited level is one vector here
            return (1 - p) * self.e_bob(g) + p * self.e_bob(first)
        plus = self.marginal((self.ground + self.first) / mpmath.sqrt(2))
        c = mpmath.sqrt(p * (1 - p))
        return mpmath.fsum(w * self.e_bob(s) for w, s in zip((1 - p - c, p - c, 2 * c),
                                                             (g, first, plus)))


# (family, p): the star6 cells, J = 1, whose printed .12g E_B moved by one unit
# when the marginals came to be read off the block vectors
STAR6_MOVED_CELLS = [
    ("excited_mixture", 0.32), ("excited_mixture", 0.64), ("excited_mixture", 0.86),
    ("excited_superposition", 0.33), ("excited_superposition", 0.34),
    ("excited_superposition", 0.38),
]


@functools.lru_cache(maxsize=None)
def star6():
    spec, partition = star(6, 1.0)
    ctx = prepare(spec, partition, MeasurementBasis.x(0), bob_label="B1")
    assert ctx.rule.vector == (0.0, 1.0, 0.0)
    with mpmath.workdps(DIGITS):
        return ctx, MpStar(6, 1.0)


@pytest.mark.parametrize("family, p", STAR6_MOVED_CELLS)
def test_star6_cells_match_forty_digits(family, p):
    ctx, exact = star6()
    report = threshold_scan(ctx, family, GRID)
    i = int(np.flatnonzero(np.isclose(GRID, p))[0])
    with mpmath.workdps(DIGITS):
        want = exact.scan_e_bob(family, GRID[i])
        assert abs(mpmath.mpf(report.e_bob[i]) - want) <= 1e-15
