"""Independent dense-matrix oracles for cross-checking the library.

Everything here is built from scratch with raw numpy Kronecker products
and never calls into the package, so a bug in the library cannot hide
behind a matching bug in the tests.
"""

import numpy as np

ID2 = np.eye(2, dtype=complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
SIGMA = {"X": SX, "Y": SY, "Z": SZ}


def embed(axis, site, n):
    ops = [ID2] * n
    ops[site] = SIGMA[axis]
    out = ops[0]
    for op in ops[1:]:
        out = np.kron(out, op)
    return out


def embed_op(op, site, n):
    """An arbitrary 2x2 operator at one site, by Kronecker products."""
    out = np.array([[1.0 + 0j]])
    for k in range(n):
        out = np.kron(out, op if k == site else ID2)
    return out


def two_site_matrix(k, h):
    return (2 * k * embed("X", 0, 2) @ embed("X", 1, 2)
            + h * (embed("Z", 0, 2) + embed("Z", 1, 2)))


def two_site_eigenvalues(k, h):
    """Block-diagonalization closed form: +-2 sqrt(h^2+k^2), +-2k."""
    root = np.hypot(h, k)
    return np.sort([-2 * root, -2 * k, 2 * k, 2 * root])


def chain3_matrix(j):
    h = j * (embed("X", 0, 3) @ embed("X", 1, 3) + embed("X", 1, 3) @ embed("X", 2, 3))
    return h + sum(embed("Z", i, 3) for i in range(3))


def star_matrix(n_parties, j):
    n = n_parties + 1
    h = sum(embed("Z", i, n) for i in range(n)) + 0j
    for k in range(1, n):
        h = h + j * embed("X", 0, n) @ embed("X", k, n)
    return h


def ground(h):
    evals, evecs = np.linalg.eigh(h)
    return evals, evecs[:, 0]


def theta_of(h, gs, e0, sigma_a, sigma_b):
    """(xi, eta, theta) with eta = <sA . i [sB, H]> and the principal branch."""
    h_sh = h - e0 * np.eye(h.shape[0])
    xi = np.real(gs.conj() @ sigma_b @ h_sh @ sigma_b @ gs)
    eta = np.real(gs.conj() @ sigma_a @ (1j * (sigma_b @ h_sh - h_sh @ sigma_b)) @ gs)
    return xi, eta, 0.5 * np.arctan2(eta, xi)


def protocol_energies(h_a, h_b, rho_in, sigma_a, sigma_b, theta, flip=False):
    """Direct density-matrix evolution; returns (E_A, E_B, per-outcome)."""
    dim = rho_in.shape[0]
    ref_a = np.real(np.trace(rho_in @ h_a))
    ref_b = np.real(np.trace(rho_in @ h_b))
    e_a = e_b = 0.0
    per = {}
    for b in (0, 1):
        proj = 0.5 * (np.eye(dim) - (-1.0) ** b * sigma_a)
        block = proj @ rho_in @ proj
        prob = np.real(np.trace(block))
        e_a += np.real(np.trace(block @ h_a))
        announced = b ^ 1 if flip else b
        u = np.cos(theta) * np.eye(dim) - 1j * (-1.0) ** announced * np.sin(theta) * sigma_b
        fed = u @ block @ u.conj().T
        energy = np.real(np.trace(fed @ h_b))
        e_b += energy
        per[b] = (prob, energy / prob - ref_b if prob > 1e-14 else 0.0)
    return e_a - ref_a, e_b - ref_b, per


def chain3_standard(j):
    """Bundle for the chain model with sender X0 and the paired receiver axis Y2."""
    h = chain3_matrix(j)
    evals, gs = ground(h)
    sigma_a = embed("X", 0, 3)
    sigma_b = embed("Y", 2, 3)
    h_a = embed("Z", 0, 3)
    h_b = j * embed("X", 1, 3) @ embed("X", 2, 3) + embed("Z", 2, 3)
    xi, eta, theta = theta_of(h, gs, evals[0], sigma_a, sigma_b)
    return {
        "h": h, "evals": evals, "gs": gs, "rho": np.outer(gs, gs.conj()),
        "sigma_a": sigma_a, "sigma_b": sigma_b, "h_a": h_a, "h_b": h_b,
        "xi": xi, "eta": eta, "theta": theta,
    }
