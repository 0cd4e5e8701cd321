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


def terms_matrix(terms, n):
    """Dense sum of Pauli terms, each read as its ``coefficient`` and its
    ``factors``, a tuple of (site, axis) pairs."""
    out = np.zeros((2 ** n, 2 ** n), dtype=complex)
    for t in terms:
        op = np.eye(2 ** n, dtype=complex)
        for site, axis in t.factors:
            op = op @ embed(axis, site, n)
        out += t.coefficient * op
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


def star_dicke_ground(n_parties, j):
    """(E_0, a) of the star in the hub (x) Dicke block, where the ground state lies.

    |D^n> is the uniform superposition of the leaf strings with n leaves in
    |1>, so sum_k Z_k |D^n> = (N - 2n) |D^n> and, counting the strings one
    flip reaches, sum_k X_k |D^n> = sqrt((n + 1)(N - n)) |D^(n+1)>
    + sqrt(n (N - n + 1)) |D^(n-1)>.  The ground state is
    sum a[s, n] |s>_hub |D^n>.
    """
    n = np.arange(n_parties + 1)
    up = np.sqrt((n[:-1] + 1) * (n_parties - n[:-1]))
    leaf_x = np.diag(up, -1) + np.diag(up, 1)
    leaf_z = np.diag(n_parties - 2.0 * n)
    h = (j * np.kron(SX.real, leaf_x) + np.kron(SZ.real, np.eye(n_parties + 1))
         + np.kron(np.eye(2), leaf_z))
    evals, evecs = np.linalg.eigh(h)
    return evals[0], evecs[:, 0].reshape(2, n_parties + 1)


def star_hub_leaf_marginal(n_parties, j):
    """4x4 reduced state of the star's ground state on (hub, one leaf), hub first.

    Splitting one leaf off a Dicke state,
    |D_N^n> = sqrt(n/N) |1>|D_(N-1)^(n-1)> + sqrt((N-n)/N) |0>|D_(N-1)^n>,
    and the rest's Dicke states are orthonormal.
    """
    _, a = star_dicke_ground(n_parties, j)
    rest = np.arange(n_parties)
    b = np.stack([a[:, :-1] * np.sqrt((n_parties - rest) / n_parties),
                  a[:, 1:] * np.sqrt((rest + 1) / n_parties)], axis=1)  # [hub, leaf, rest]
    b = b.reshape(4, n_parties)
    return b @ b.T


def spin_operators(two_j):
    """(J_x, J_y, J_z) of one spin j on |j, m>, m = j, j - 1, ..., -j, from
    J_z |j, m> = m |j, m> and J_+ |j, m> = sqrt(j (j + 1) - m (m + 1)) |j, m + 1>."""
    j = two_j / 2
    m = j - np.arange(two_j + 1)
    raise_ = np.zeros((two_j + 1, two_j + 1))
    for i in range(1, two_j + 1):  # |m_i> goes to |m_i + 1> = |m_(i-1)>
        raise_[i - 1, i] = np.sqrt(j * (j + 1) - m[i] * (m[i] + 1))
    lower = raise_.T
    return (raise_ + lower) / 2, (raise_ - lower) / 2j, np.diag(m)


def hub_coefficients(terms, hub):
    """C[a, b] of terms that each act on the hub, on one leaf, or on both:
    the summed coefficient of hub Pauli a times leaf Pauli b, with index 0
    for no factor and 1, 2, 3 for X, Y, Z.  Pass the hub's terms and the
    terms of one leaf."""
    c = np.zeros((4, 4))
    for t in terms:
        a = b = 0
        for site, axis in t.factors:
            if site == hub:
                a = "XYZ".index(axis) + 1
            else:
                b = "XYZ".index(axis) + 1
        c[a, b] += t.coefficient
    return c


def collective_block(c, two_j):
    """H_j = sum_ab C[a, b] sigma_a (x) 2 J_b of a hub and interchangeable
    leaves on hub (x) total leaf spin j, hub most significant, with sigma_0
    and 2 J_0 the identity: summed over the leaves, leaf Pauli b is 2 J_b."""
    spin = (np.eye(two_j + 1), *(2 * op for op in spin_operators(two_j)))
    hub = (ID2, SX, SY, SZ)
    return sum(c[a, b] * np.kron(hub[a], spin[b]) for a in range(4) for b in range(4))


def coupling_path_count(n_leaves, two_j):
    """Copies of spin j among N spin-1/2 leaves, counted as paths: the doubled
    spins 1 = 2j_1, 2j_2, ..., 2j_N = 2j of the leaves added one at a time,
    each step +-1 and none below 0, tallied step by step."""
    counts = {1: 1}
    for _ in range(n_leaves - 1):
        step = {}
        for t, c in counts.items():
            for u in (t - 1, t + 1):
                if u >= 0:
                    step[u] = step.get(u, 0) + c
        counts = step
    return counts.get(two_j, 0)


def star_marginal_energies(n_parties, j):
    """(E_A, E_B) of the X-basis star protocol for receiver 1, from the hub-leaf marginal.

    Every operator the round reads lives on (hub, leaf): X at the hub, Y at
    the leaf, H_A = Z_hub and H_B = J X_hub X_leaf + Z_leaf, which are also
    all the terms of H at the leaf.  (H - E_0)|gs> = 0 makes
    xi = <sB [H, sB]> and eta = <sA i [sB, H]> traces against the marginal.
    """
    rho = star_hub_leaf_marginal(n_parties, j)
    sigma_a, sigma_b = np.kron(SX, ID2), np.kron(ID2, SY)
    h_a = np.kron(SZ, ID2)
    h_b = j * np.kron(SX, SX) + np.kron(ID2, SZ)
    comm = sigma_b @ h_b - h_b @ sigma_b
    xi = -np.real(np.trace(rho @ sigma_b @ comm))
    eta = np.real(np.trace(rho @ sigma_a @ (1j * comm)))
    e_a, e_b, _ = protocol_energies(h_a, h_b, rho, sigma_a, sigma_b, 0.5 * np.arctan2(eta, xi))
    return e_a, e_b


def partial_trace(rho, keep):
    """Reduced density matrix on the ascending sites ``keep``: every other
    site traced out of the d x d ``rho``, highest site first."""
    n = rho.shape[0].bit_length() - 1
    t = rho.reshape((2,) * (2 * n))
    for site in sorted(set(range(n)) - set(keep), reverse=True):
        t = np.trace(t, axis1=site, axis2=site + t.ndim // 2)
    return t.reshape(2 ** len(keep), 2 ** len(keep))


def noisy_state(family, p, gs, level=None, site=None, alpha=0.0):
    """A noise family's input at p as one d x d matrix, mixed directly.

    ``gs`` is the ground vector and ``level`` the first excited level's
    eigenvectors as columns (excited families only); ``classical_flip``
    leaves the state alone.
    """
    n = len(gs).bit_length() - 1
    rho = np.outer(gs, gs.conj())
    if family == "classical_flip":
        return rho
    if family == "depolarize":
        return (1 - p) * rho + p * np.eye(2 ** n) / 2 ** n
    if family in ("bit_flip", "phase_flip"):
        s = embed("X" if family == "bit_flip" else "Z", site, n)
        return (1 - p) * rho + p * s @ rho @ s
    if family == "excited_mixture":
        return (1 - p) * rho + p * level @ level.conj().T / level.shape[1]
    psi = np.sqrt(1 - p) * gs + np.exp(1j * alpha) * np.sqrt(p) * level[:, 0]
    return np.outer(psi, psi.conj())


def trace_distance(a, b):
    """(1/2) ||a - b||_1 of two Hermitian matrices, from the eigenvalues of a - b."""
    return 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(a - b))))


def expectation(state, op):
    """<op> in a state vector or a density matrix (its real part)."""
    if state.ndim == 1:
        return float(np.real(state.conj() @ op @ state))
    return float(np.real(np.trace(state @ op)))


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


def conditional_energies(h_b, rho_in, sigma_a, sigma_b, theta):
    """Per-outcome probability prob[b] and decode[b, b']: the receiver's
    conditional energy change when the sender measured b and the receiver
    rotates for the announced bit b', by direct density-matrix evolution."""
    dim = rho_in.shape[0]
    prob = np.zeros(2)
    decode = np.zeros((2, 2))
    for b in (0, 1):
        proj = 0.5 * (np.eye(dim) - (-1.0) ** b * sigma_a)
        block = proj @ rho_in @ proj
        prob[b] = np.real(np.trace(block))
        if prob[b] <= 1e-14:
            continue
        before = np.real(np.trace(block @ h_b))
        for announced in (0, 1):
            u = np.cos(theta) * np.eye(dim) - 1j * (-1.0) ** announced * np.sin(theta) * sigma_b
            after = np.real(np.trace(u @ block @ u.conj().T @ h_b))
            decode[b, announced] = (after - before) / prob[b]
    return prob, decode


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
