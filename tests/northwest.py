"""Reference north-west-corner staircase for tests.

``northwest_corner`` walks the staircase one arc at a time with a
remaining-mass loop over a dense cost matrix, so it is independent of
the cumulative-weight merge in :func:`otrepair.ot.solve_comonotone_1d`.
``comonotone_reference`` applies it to two 1-D measures on ascending
supports and returns the plan, the arcs and the potentials on the
measures' own index order.
"""
import numpy as np

from otrepair.ot import cost_matrix


def northwest_corner(a, b, C):
    """Staircase basis on input order: n + k - 1 arcs (i, j, flow), and
    its potentials (u, v) with u[i] + v[j] = C[i, j] on every arc, u[0] = 0.

    Degenerate zero-flow arcs are kept so the arc set always forms a
    spanning tree of the bipartite graph.  Each arc shares its row or its
    column with the arc before it, so each step fixes one new potential.
    """
    n, k = len(a), len(b)
    ra = a.astype(float).copy()
    rb = b.astype(float).copy()
    u = np.zeros(n)
    v = np.zeros(k)
    v[0] = C[0, 0]
    arcs = []
    i = j = 0
    while True:
        t = min(ra[i], rb[j])
        arcs.append((i, j, t))
        ra[i] -= t
        rb[j] -= t
        if i == n - 1 and j == k - 1:
            break
        if i < n - 1 and (j == k - 1 or ra[i] <= rb[j]):
            i += 1
            u[i] = C[i, j] - v[j]
        else:
            j += 1
            v[j] = C[i, j] - u[i]
    return arcs, u, v


def comonotone_reference(mu, nu):
    """(plan, arcs, (u, v), cost) of the staircase between 1-D measures,
    sorted stably by support value; arcs are (row, col) index pairs of
    the measures' own order."""
    order_r = np.argsort(mu.support[:, 0], kind="stable")
    order_c = np.argsort(nu.support[:, 0], kind="stable")
    C = cost_matrix(mu.support, nu.support)
    arcs, u_sorted, v_sorted = northwest_corner(
        mu.weights[order_r], nu.weights[order_c], C[np.ix_(order_r, order_c)]
    )
    plan = np.zeros((mu.n, nu.n))
    for i, j, f in arcs:
        plan[order_r[i], order_c[j]] += f
    u = np.empty(mu.n)
    v = np.empty(nu.n)
    u[order_r] = u_sorted
    v[order_c] = v_sorted
    pairs = [(int(order_r[i]), int(order_c[j])) for i, j, _ in arcs]
    return plan, pairs, (u, v), float(np.einsum("ij,ij->", plan, C))
