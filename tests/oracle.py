"""Independent reference solvers for resistive networks.

Deliberately primitive: a dense Gaussian elimination with partial pivoting
over plain Python lists, assembled straight from a component list, and a
dense solve refined with extended-precision residuals. They share no code
with the package solver; used only to cross-check its currents.

Component vocabulary:
    resistors : list of (node_a, node_b, ohms)
    fixed     : dict node -> volts (Dirichlet)
    injected  : dict node -> amps flowing into the node
    regulated : dict node -> (node_a, node_b, ohms, amps): a source at node
                injecting whatever current makes that resistor carry amps
                from node_a to node_b
"""

from __future__ import annotations

import numpy as np


def gaussian_solve(matrix, rhs):
    """Solve matrix @ x = rhs in place with partial pivoting."""
    n = len(rhs)
    a = [row[:] + [rhs[i]] for i, row in enumerate(matrix)]
    for col in range(n):
        pivot = max(range(col, n), key=lambda r: abs(a[r][col]))
        if abs(a[pivot][col]) < 1e-30:
            raise ZeroDivisionError("singular system")
        a[col], a[pivot] = a[pivot], a[col]
        inv = 1.0 / a[col][col]
        for r in range(col + 1, n):
            factor = a[r][col] * inv
            if factor == 0.0:
                continue
            for c in range(col, n + 1):
                a[r][c] -= factor * a[col][c]
    x = [0.0] * n
    for r in range(n - 1, -1, -1):
        s = a[r][n]
        for c in range(r + 1, n):
            s -= a[r][c] * x[c]
        x[r] = s / a[r][r]
    return x


def solve_nodes(resistors, fixed, injected=None):
    """Return node -> voltage for the given resistive network."""
    injected = injected or {}
    nodes = []
    for a, b, _ in resistors:
        for n in (a, b):
            if n not in nodes:
                nodes.append(n)
    for n in list(fixed) + list(injected):
        if n not in nodes:
            nodes.append(n)
    unknown = [n for n in nodes if n not in fixed]
    index = {n: i for i, n in enumerate(unknown)}
    size = len(unknown)
    g = [[0.0] * size for _ in range(size)]
    rhs = [injected.get(n, 0.0) for n in unknown]
    for a, b, ohms in resistors:
        cond = 1.0 / ohms
        if a in index and b in index:
            ia, ib = index[a], index[b]
            g[ia][ia] += cond
            g[ib][ib] += cond
            g[ia][ib] -= cond
            g[ib][ia] -= cond
        elif a in index:
            ia = index[a]
            g[ia][ia] += cond
            rhs[ia] += cond * fixed[b]
        elif b in index:
            ib = index[b]
            g[ib][ib] += cond
            rhs[ib] += cond * fixed[a]
    volts = gaussian_solve(g, rhs) if size else []
    out = dict(fixed)
    for n, i in index.items():
        out[n] = volts[i]
    return out


def branch_current(voltages, a, b, ohms):
    """Current flowing from node a to node b through the resistor."""
    return (voltages[a] - voltages[b]) / ohms


def refined_solve(resistors, fixed, injected=None, regulated=None):
    """Return node -> voltage and regulated node -> amps, as ``np.longdouble``.

    The nodal equations, with a row per regulated source that holds its
    resistor's current, are assembled in ``np.longdouble`` and solved by
    iterative refinement (Wilkinson; Higham, *Accuracy and Stability of
    Numerical Algorithms*, ch. 12): each of 10 steps solves for the
    correction in float64 against the residual formed in extended
    precision. The residual's rounding, about 1e-19 of the largest stamped
    current, times the resistance an unknown sees bounds what converges: on
    the 8x8 1 ohm/segment write drives the source currents settle within
    about 1e-15 of themselves by the third step, while the potential of a
    mesh half that only off switches hold settles to about 1e-10 V.
    """
    injected, regulated = injected or {}, regulated or {}
    nodes = {n: None for a, b, _ in resistors for n in (a, b)}
    nodes.update(dict.fromkeys(list(fixed) + list(injected) + list(regulated)))
    unknown = [n for n in nodes if n not in fixed]
    index = {n: i for i, n in enumerate(unknown)}
    size = len(unknown) + len(regulated)
    a = np.zeros((size, size), dtype=np.longdouble)
    rhs = np.zeros(size, dtype=np.longdouble)
    for n, amps in injected.items():
        rhs[index[n]] += amps
    for a_node, b_node, ohms in resistors:
        cond = 1 / np.longdouble(ohms)
        for here, there in ((a_node, b_node), (b_node, a_node)):
            if here not in index:
                continue
            a[index[here], index[here]] += cond
            if there in index:
                a[index[here], index[there]] -= cond
            else:
                rhs[index[here]] += cond * np.longdouble(fixed[there])
    for k, (n, (a_node, b_node, ohms, amps)) in enumerate(regulated.items()):
        row = len(unknown) + k
        a[index[n], row] -= 1  # the source's current flows into its node
        rhs[row] = amps
        for node, sign in ((a_node, 1), (b_node, -1)):
            if node in index:
                a[row, index[node]] += sign / np.longdouble(ohms)
            else:
                rhs[row] -= sign * np.longdouble(fixed[node]) / np.longdouble(ohms)
    low = a.astype(float)
    x = np.linalg.solve(low, rhs.astype(float)).astype(np.longdouble)
    for _ in range(10):
        x += np.linalg.solve(low, (rhs - a @ x).astype(float))
    volts = {n: np.longdouble(v) for n, v in fixed.items()}
    volts.update(zip(unknown, x[: len(unknown)]))
    return volts, dict(zip(regulated, x[len(unknown) :]))
