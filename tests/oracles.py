"""Slow reference implementations of the divisor layer, for differential tests.

These are the dense-matrix algorithms the package used before the form was
stored as a tree: the O(n^3) product -(P^T P), a pivoting Gaussian
elimination for the envelope's active-set solves, and unloading from the
input divisor with no warm start.  They share no code with the fast paths
beyond the cluster's proximity matrix.
"""

from fractions import Fraction


def dense_form(cluster) -> tuple[tuple[int, ...], ...]:
    """-(P^T P) from the proximity matrix, one column dot product per entry."""
    p = cluster.proximity_matrix().entries
    n = len(p)
    return tuple(
        tuple(-sum(p[k][i] * p[k][j] for k in range(max(i, j), n)) for j in range(n))
        for i in range(n)
    )


def _dense_pairings(m, coeffs) -> list:
    n = len(m)
    return [sum(m[i][j] * coeffs[j] for j in range(n) if m[i][j] and coeffs[j]) for i in range(n)]


def _gauss_solve_active(m, delta, active: list[int]) -> list[Fraction]:
    """Solve (D . E_i) = 0 for i in ``active`` with D = delta off the set."""
    k = len(active)
    inactive = [j for j in range(len(delta)) if j not in set(active)]
    a = [[Fraction(m[i][j]) for j in active] for i in active]
    b = [
        -sum(Fraction(m[i][j]) * delta[j] for j in inactive if delta[j] != 0)
        for i in active
    ]
    for col in range(k):
        piv = next(r for r in range(col, k) if a[r][col] != 0)
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            b[col], b[piv] = b[piv], b[col]
        pivot = a[col][col]
        for r in range(col + 1, k):
            if a[r][col] == 0:
                continue
            factor = a[r][col] / pivot
            for c in range(col, k):
                a[r][c] -= factor * a[col][c]
            b[r] -= factor * b[col]
    x = [Fraction(0)] * k
    for r in range(k - 1, -1, -1):
        s = b[r] - sum(a[r][c] * x[c] for c in range(r + 1, k))
        x[r] = s / a[r][r]
    return x


def dense_envelope(cluster, delta) -> tuple[Fraction, ...]:
    """Nef envelope of the effective coefficients ``delta`` by dense solves."""
    m = dense_form(cluster)
    n = len(m)
    coeffs = list(delta)
    active: list[int] = []
    while True:
        if active:
            for i, value in zip(active, _gauss_solve_active(m, delta, active)):
                coeffs[i] = value
        pair = _dense_pairings(m, coeffs)
        violated = [i for i in range(n) if i not in active and pair[i] > 0]
        if not violated:
            return tuple(coeffs)
        active = sorted(active + violated)


def cold_unload(cluster, coeffs, select=None) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(closure coefficients, degree coefficients) by raising from ``coeffs``."""
    m = dense_form(cluster)
    n = len(m)
    coeffs = list(coeffs)
    pair = _dense_pairings(m, coeffs)
    while True:
        violated = [i for i in range(n) if pair[i] > 0]
        if not violated:
            return tuple(coeffs), tuple(-s for s in pair)
        i = violated[0] if select is None else select(violated)
        step = -(-pair[i] // -m[i][i])
        coeffs[i] += step
        for j in range(n):
            if m[i][j]:
                pair[j] += step * m[i][j]
