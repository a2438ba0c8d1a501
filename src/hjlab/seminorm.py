"""Parabolic Hölder seminorm family on grid cylinders.

Discrete seminorms: the continuum sup over point pairs is replaced by the sup
over active grid-node pairs of the same quotient (convergent from below under
refinement).  Every optimized evaluator has a naive double-loop oracle
(oracle_*) computing the identical arithmetic expression pair by pair; the two
agree bit-for-bit and tests assert exact equality.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import Cylinder, ScalarField, spacetime_integral

PAIR_BUDGET = 10 ** 8
_SAMPLE_PAIRS = 5 * 10 ** 6


@dataclass
class SeminormResult:
    value: float
    pair: tuple | None = None  # ((x, t), (x_bar, t_bar)) achieving the sup
    exact: bool = True
    degenerate: bool = False
    seed: int | None = None


@dataclass
class SeminormSet:
    classical: SeminormResult
    weighted: SeminormResult
    nl_space: SeminormResult
    nl_time: SeminormResult
    nl_combined: float


class _Nodes:
    """Flattened active nodes of a cylinder, level-major, spatial-lex order."""

    def __init__(self, u: ScalarField, Q: Cylinder | None, alpha=None, gamma=None):
        g = u.grid
        if Q is None:
            Q = g.cylinder()
        self.Q = Q
        sel = g.active.copy()
        tol = 1e-12
        for a in range(g.dim):
            ax = g.coords[..., a]
            sel &= (ax >= Q.xmin[a] - tol) & (ax <= Q.xmax[a] + tol)
        if Q.radius is not None:
            sel &= np.sum(g.coords ** 2, axis=-1) < Q.radius ** 2 + tol
        tsel = (g.ts >= Q.t0 - tol) & (g.ts <= Q.t1 + tol)
        sp_idx = np.argwhere(sel)
        xs = g.coords[sel]  # (m, dim)
        levels = np.nonzero(tsel)[0]

        m = len(sp_idx)
        n = m * len(levels)
        self.x = np.zeros((n, g.dim))
        self.t = np.zeros(n)
        self.v = np.zeros(n)
        self.level_of = np.zeros(n, dtype=np.int64)
        self.space_of = np.zeros(n, dtype=np.int64)
        for li, k in enumerate(levels):
            s = slice(li * m, (li + 1) * m)
            self.x[s] = xs
            self.t[s] = g.ts[k]
            self.v[s] = u.values[k][sel]
            self.level_of[s] = li
            self.space_of[s] = np.arange(m)
        self.n = n
        self.m_space = m
        self.n_levels = len(levels)

        # distances to the backward parabolic boundary of Q
        if Q.radius is not None:
            ds = Q.radius - np.sqrt(np.sum(self.x ** 2, axis=-1))
        else:
            margins = []
            for a in range(g.dim):
                margins.append(self.x[:, a] - Q.xmin[a])
                margins.append(Q.xmax[a] - self.x[:, a])
            ds = np.min(np.stack(margins), axis=0)
        ds = np.maximum(ds, 0.0)
        dtb = np.abs(Q.t1 - self.t)
        self.dist = ds + np.sqrt(dtb)
        if alpha is not None and gamma is not None:
            self.dist_alpha = ds ** alpha + dtb ** (alpha / gamma)
        else:
            self.dist_alpha = None

    def spatial_sep(self, i, j):
        if self.x.shape[1] == 1:
            return np.abs(self.x[i, 0] - self.x[j, 0])
        return np.sqrt(
            (self.x[i, 0] - self.x[j, 0]) ** 2 + (self.x[i, 1] - self.x[j, 1]) ** 2
        )


def _pair_value_classical(nodes, i, j, alpha, c=None):
    """Canonical per-pair expression; the oracle and the fast path both use it."""
    sep = nodes.spatial_sep(i, j) + np.sqrt(np.abs(nodes.t[i] - nodes.t[j]))
    q = np.abs(nodes.v[i] - nodes.v[j]) / sep ** alpha
    if c is None:
        return q
    return np.minimum(nodes.dist[i], nodes.dist[j]) ** c * q


def _pair_value_nl_space(nodes, i, j, alpha):
    q = np.abs(nodes.v[i] - nodes.v[j]) / nodes.spatial_sep(i, j) ** alpha
    return np.minimum(nodes.dist_alpha[i], nodes.dist_alpha[j]) * q


def _pair_value_nl_time(nodes, i, j, alpha, gamma):
    q = np.abs(nodes.v[i] - nodes.v[j]) / np.abs(nodes.t[i] - nodes.t[j]) ** (alpha / 2)
    return np.minimum(nodes.dist_alpha[i], nodes.dist_alpha[j]) ** (gamma / 2) * q


def _scan_best(values, ii, jj, best, best_ij):
    """First strict maximum in the supplied (lex-ordered) pair list."""
    if values.size == 0:
        return best, best_ij
    k = int(np.argmax(values))
    if values[k] > best:
        return float(values[k]), (int(ii[k]), int(jj[k]))
    return best, best_ij


def _enumerate_max(nodes, pair_fn, index_pairs):
    """Chunked vectorized sup over the given (i_array, j_array) pair stream."""
    best = -np.inf
    best_ij = None
    for ii, jj in index_pairs:
        vals = pair_fn(nodes, ii, jj)
        best, best_ij = _scan_best(vals, ii, jj, best, best_ij)
    return best, best_ij


def _all_pairs_stream(n, chunk_rows=None):
    """Yield (i, j) index arrays covering all i < j in lexicographic order."""
    if n < 2:
        return
    if chunk_rows is None:
        chunk_rows = max(1, int(4_000_000 // max(n, 1)))
    for i0 in range(0, n - 1, chunk_rows):
        i1 = min(i0 + chunk_rows, n - 1)
        ii_list, jj_list = [], []
        for i in range(i0, i1):
            jj = np.arange(i + 1, n, dtype=np.int64)
            ii_list.append(np.full(len(jj), i, dtype=np.int64))
            jj_list.append(jj)
        yield np.concatenate(ii_list), np.concatenate(jj_list)


def _sampled_pairs_stream(n, seed, n_samples=_SAMPLE_PAIRS):
    rng = np.random.default_rng(seed)
    done = 0
    while done < n_samples:
        k = min(1_000_000, n_samples - done)
        a = rng.integers(0, n, k)
        b = rng.integers(0, n, k)
        keep = a != b
        ii = np.minimum(a[keep], b[keep])
        jj = np.maximum(a[keep], b[keep])
        done += k
        yield ii, jj


def _result_from(nodes, best, best_ij, exact, seed=None):
    if best_ij is None:
        return SeminormResult(0.0, None, exact=exact, degenerate=True, seed=seed)
    i, j = best_ij
    pair = (
        (tuple(nodes.x[i]), float(nodes.t[i])),
        (tuple(nodes.x[j]), float(nodes.t[j])),
    )
    return SeminormResult(float(best), pair, exact=exact, seed=seed)


def _classical_scan(u, alpha, c, Q, pair_budget, seed):
    """Sup of the classical quotient, weighted by min boundary distance ^ c unless c is None."""
    if c is not None and c < 0:
        raise ValueError("c must be >= 0")
    if not (0 < alpha <= 1):
        raise ValueError("alpha must lie in (0, 1] (alpha=1 diagnostic only)")
    nodes = _Nodes(u, Q)
    if nodes.n < 2:
        return SeminormResult(0.0, None, degenerate=True)
    npairs = nodes.n * (nodes.n - 1) // 2
    fn = lambda nd, i, j: _pair_value_classical(nd, i, j, alpha, c=c)
    if npairs <= pair_budget:
        best, ij = _enumerate_max(nodes, fn, _all_pairs_stream(nodes.n))
        return _result_from(nodes, best, ij, exact=True)
    best, ij = _enumerate_max(nodes, fn, _sampled_pairs_stream(nodes.n, seed))
    return _result_from(nodes, best, ij, exact=False, seed=seed)


def holder_seminorm(u, alpha, Q=None, pair_budget=PAIR_BUDGET, seed=0):
    """Classical parabolic seminorm sup |du| / (|dx| + |dt|^(1/2))^alpha."""
    return _classical_scan(u, alpha, None, Q, pair_budget, seed)


def weighted_holder(u, alpha, c, Q=None, pair_budget=PAIR_BUDGET, seed=0):
    """Classical quotient weighted by min distance to the backward boundary ^ c."""
    return _classical_scan(u, alpha, c, Q, pair_budget, seed)


def _same_level_pairs(nodes):
    """All (i, j), i < j sharing a time level, level-major lex order."""
    m = nodes.m_space
    if m < 2:
        return
    local = [(i, j) for i in range(m - 1) for j in range(i + 1, m)]
    li = np.array([p[0] for p in local], dtype=np.int64)
    lj = np.array([p[1] for p in local], dtype=np.int64)
    for lev in range(nodes.n_levels):
        off = lev * m
        yield li + off, lj + off


def _same_space_pairs(nodes):
    """All (i, j), i < j sharing a spatial node; spatial-major lex order."""
    L = nodes.n_levels
    if L < 2:
        return
    local = [(a, b) for a in range(L - 1) for b in range(a + 1, L)]
    la = np.array([p[0] for p in local], dtype=np.int64)
    lb = np.array([p[1] for p in local], dtype=np.int64)
    m = nodes.m_space
    for s in range(m):
        yield la * m + s, lb * m + s


def nonlinear_space(u, alpha, gamma, Q=None):
    """Same-time quotient weighted by min d_alpha to the backward boundary."""
    if not (0 < alpha < 1):
        raise ValueError("alpha must lie in (0, 1)")
    nodes = _Nodes(u, Q, alpha=alpha, gamma=gamma)
    if nodes.m_space < 2:
        return SeminormResult(0.0, None, degenerate=True)
    fn = lambda nd, i, j: _pair_value_nl_space(nd, i, j, alpha)
    best, ij = _enumerate_max(nodes, fn, _same_level_pairs(nodes))
    return _result_from(nodes, best, ij, exact=True)


def nonlinear_time(u, alpha, gamma, Q=None):
    """Same-position quotient weighted by (min d_alpha)^(gamma/2)."""
    if not (0 < alpha < 1):
        raise ValueError("alpha must lie in (0, 1)")
    nodes = _Nodes(u, Q, alpha=alpha, gamma=gamma)
    if nodes.n_levels < 2:
        return SeminormResult(0.0, None, degenerate=True)
    fn = lambda nd, i, j: _pair_value_nl_time(nd, i, j, alpha, gamma)
    best, ij = _enumerate_max(nodes, fn, _same_space_pairs(nodes))
    return _result_from(nodes, best, ij, exact=True)


def nonlinear_combined(u, alpha, z, gamma, Q=None):
    """max(space part, (time part / z)^(2/gamma))."""
    if z <= 0:
        raise ValueError("z must be positive")
    s = nonlinear_space(u, alpha, gamma, Q)
    t = nonlinear_time(u, alpha, gamma, Q)
    return combine_nonlinear(s.value, t.value, z, gamma), s, t


def combine_nonlinear(space_value, time_value, z, gamma):
    return float(max(space_value, (time_value / z) ** (2.0 / gamma)))


def seminorm_set(u, alpha, gamma, z, c, Q=None, pair_budget=PAIR_BUDGET, seed=0):
    classical = holder_seminorm(u, alpha, Q, pair_budget, seed)
    weighted = weighted_holder(u, alpha, c, Q, pair_budget, seed)
    nl_s = nonlinear_space(u, alpha, gamma, Q)
    nl_t = nonlinear_time(u, alpha, gamma, Q)
    return SeminormSet(
        classical=classical,
        weighted=weighted,
        nl_space=nl_s,
        nl_time=nl_t,
        nl_combined=combine_nonlinear(nl_s.value, nl_t.value, z, gamma),
    )


# -- plain (unweighted) quotients used by the oscillation estimates ------------


def space_quotient(u, alpha, Q=None):
    """sup over same-time pairs of |du| / |dx|^alpha, no weight."""
    nodes = _Nodes(u, Q)
    if nodes.m_space < 2:
        return 0.0
    fn = lambda nd, i, j: np.abs(nd.v[i] - nd.v[j]) / nd.spatial_sep(i, j) ** alpha
    best, ij = _enumerate_max(nodes, fn, _same_level_pairs(nodes))
    return 0.0 if ij is None else float(best)


def time_quotient(u, alpha, Q=None):
    """sup over same-position pairs of |du| / |dt|^(alpha/2), no weight."""
    nodes = _Nodes(u, Q)
    if nodes.n_levels < 2:
        return 0.0
    fn = lambda nd, i, j: np.abs(nd.v[i] - nd.v[j]) / np.abs(nd.t[i] - nd.t[j]) ** (
        alpha / 2
    )
    best, ij = _enumerate_max(nodes, fn, _same_space_pairs(nodes))
    return 0.0 if ij is None else float(best)


# -- naive double-loop oracles --------------------------------------------------


def _oracle_scan(nodes, pairs, value_fn):
    # one pair at a time, but through the same array ufuncs as the fast path
    # (numpy scalar ** can differ from the array loop in the last ulp)
    best = -np.inf
    best_ij = None
    ii = np.zeros(1, dtype=np.int64)
    jj = np.zeros(1, dtype=np.int64)
    for i, j in pairs:
        ii[0] = i
        jj[0] = j
        val = value_fn(nodes, ii, jj)[0]
        if val > best:
            best = val
            best_ij = (i, j)
    return _result_from(nodes, best, best_ij, exact=True)


def _oracle_all_pairs(n):
    for i in range(n - 1):
        for j in range(i + 1, n):
            yield i, j


def _oracle_same_level(nodes):
    m = nodes.m_space
    for lev in range(nodes.n_levels):
        off = lev * m
        for i in range(m - 1):
            for j in range(i + 1, m):
                yield off + i, off + j


def _oracle_same_space(nodes):
    m = nodes.m_space
    for s in range(m):
        for a in range(nodes.n_levels - 1):
            for b in range(a + 1, nodes.n_levels):
                yield a * m + s, b * m + s


def oracle_classical(u, alpha, Q=None):
    nodes = _Nodes(u, Q)
    if nodes.n < 2:
        return SeminormResult(0.0, None, degenerate=True)
    return _oracle_scan(
        nodes,
        _oracle_all_pairs(nodes.n),
        lambda nd, i, j: _pair_value_classical(nd, i, j, alpha),
    )


def oracle_weighted(u, alpha, c, Q=None):
    nodes = _Nodes(u, Q)
    if nodes.n < 2:
        return SeminormResult(0.0, None, degenerate=True)
    return _oracle_scan(
        nodes,
        _oracle_all_pairs(nodes.n),
        lambda nd, i, j: _pair_value_classical(nd, i, j, alpha, c=c),
    )


def oracle_nl_space(u, alpha, gamma, Q=None):
    nodes = _Nodes(u, Q, alpha=alpha, gamma=gamma)
    if nodes.m_space < 2:
        return SeminormResult(0.0, None, degenerate=True)
    return _oracle_scan(
        nodes,
        _oracle_same_level(nodes),
        lambda nd, i, j: _pair_value_nl_space(nd, i, j, alpha),
    )


def oracle_nl_time(u, alpha, gamma, Q=None):
    nodes = _Nodes(u, Q, alpha=alpha, gamma=gamma)
    if nodes.n_levels < 2:
        return SeminormResult(0.0, None, degenerate=True)
    return _oracle_scan(
        nodes,
        _oracle_same_space(nodes),
        lambda nd, i, j: _pair_value_nl_time(nd, i, j, alpha, gamma),
    )


# -- parabolic Sobolev-type norms -----------------------------------------------


def hessian_frobenius_level(values: np.ndarray, dx: float) -> np.ndarray:
    """Frobenius norm of the full second-difference Hessian; rim entries 0."""
    out = np.zeros_like(values)
    nd = values.ndim
    inner = tuple([slice(1, -1)] * nd)
    acc = np.zeros_like(values[inner])
    for a in range(nd):
        sl_c = [slice(1, -1)] * nd
        sl_p = [slice(1, -1)] * nd
        sl_m = [slice(1, -1)] * nd
        sl_p[a] = slice(2, None)
        sl_m[a] = slice(0, -2)
        d2 = (values[tuple(sl_p)] - 2 * values[tuple(sl_c)] + values[tuple(sl_m)]) / dx ** 2
        acc += d2 ** 2
    if nd == 2:
        pp = values[2:, 2:]
        pm = values[2:, :-2]
        mp = values[:-2, 2:]
        mm = values[:-2, :-2]
        dxy = (pp - pm - mp + mm) / (4 * dx ** 2)
        acc += 2 * dxy ** 2
    out[inner] = np.sqrt(acc)
    return out


def w21q_norms(u: ScalarField, q: float, gamma: float, Qp: Cylinder) -> dict:
    """{'dt': ||du/dt||_q, 'hessian': ||D^2 u||_q, 'grad_gamma': || |Du|^g ||_q} on Qp."""
    g = u.grid
    full = g.cylinder()
    margin_x = 2 * g.dx - 1e-12
    margin_t = 2 * g.dt - 1e-12
    for a in range(g.dim):
        if Qp.xmin[a] < full.xmin[a] + margin_x or Qp.xmax[a] > full.xmax[a] - margin_x:
            raise ValueError("Qp must keep a 2-node spatial margin from the boundary")
    if Qp.t0 < full.t0 + margin_t or Qp.t1 > full.t1 - margin_t:
        raise ValueError("Qp must keep a 2-level temporal margin from the boundary")

    from .grid import gradient_level, time_derivative

    ut = time_derivative(u)
    hess = np.stack(
        [hessian_frobenius_level(u.values[k], g.dx) for k in range(g.n_levels)]
    )
    gradg = np.stack(
        [
            np.sqrt(np.sum(gradient_level(u.values[k], g.dx) ** 2, axis=-1)) ** gamma
            for k in range(g.n_levels)
        ]
    )

    def norm_of(stack):
        return spacetime_integral(g, np.abs(stack) ** q, Qp) ** (1.0 / q)

    return {"dt": norm_of(ut), "hessian": norm_of(hess), "grad_gamma": norm_of(gradg)}
