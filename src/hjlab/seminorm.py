"""Parabolic Hölder seminorm family on grid cylinders.

Discrete seminorms: the continuum sup over point pairs is replaced by the sup
over active grid-node pairs of the same quotient (convergent from below under
refinement).  Every optimized evaluator has a naive double-loop oracle
(oracle_*) computing the identical arithmetic expression pair by pair; the two
agree bit-for-bit, value and argmax pair, and tests assert exact equality.

Every seminorm is exact: no pair is ever sampled.  The classical and weighted
sups over all node pairs are found by a block branch-and-bound
(_BranchAndBound): a bound on a pair of node blocks covers every node pair
between them, so block pairs that cannot reach the best value are pruned and
only the node pairs of the others are evaluated.  Ties go, as in the oracles,
to the lexicographically first pair (i, j), i < j, in node order (level-major,
spatial-lex).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import Cylinder, ScalarField, spacetime_integral


@dataclass
class SeminormResult:
    value: float
    pair: tuple | None = None  # ((x, t), (x_bar, t_bar)) achieving the sup
    exact: bool = True  # every node pair is covered; no pair is ever sampled
    degenerate: bool = False
    pairs_evaluated: int = 0  # node pairs whose quotient was computed


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
        self.dx, self.dt = g.dx, g.dt

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
    """Chunked vectorized sup over the given (i_array, j_array) pair stream.

    Returns (sup, argmax pair, number of pairs evaluated).
    """
    best = -np.inf
    best_ij = None
    count = 0
    for ii, jj in index_pairs:
        vals = pair_fn(nodes, ii, jj)
        count += vals.size
        best, best_ij = _scan_best(vals, ii, jj, best, best_ij)
    return best, best_ij, count


def _result_from(nodes, best, best_ij, pairs_evaluated):
    if best_ij is None:
        return SeminormResult(0.0, None, degenerate=True, pairs_evaluated=pairs_evaluated)
    i, j = best_ij
    pair = (
        (tuple(nodes.x[i]), float(nodes.t[i])),
        (tuple(nodes.x[j]), float(nodes.t[j])),
    )
    return SeminormResult(float(best), pair, pairs_evaluated=pairs_evaluated)


# -- exact classical / weighted sup by block branch-and-bound --------------------

# Bounds are inflated by this factor so that they dominate the *rounded* pair
# values: the array power is not correctly rounded, so a node pair's computed
# quotient may exceed the same expression formed from the block gaps by an ulp.
_MARGIN = 1.0 + 1e-9
_LEAF_NODES = 16  # nodes per tile at the deepest depth
_BLOCK_BATCH = 1 << 14  # parent block pairs refined together
_PAIR_BATCH = 1 << 18  # node pairs evaluated together


def _spatial_order(nodes):
    """Spatial positions along a Z-order curve, so that a range of them is compact.

    In 1D this is the node order itself.
    """
    if nodes.x.shape[1] == 1:
        return np.arange(nodes.m_space)
    xs = nodes.x[: nodes.m_space]
    k = np.rint((xs - xs.min(axis=0)) / nodes.dx).astype(np.int64)
    key = np.zeros(nodes.m_space, dtype=np.int64)
    for bit in range(int(k.max()).bit_length()):
        for a in range(2):
            key |= ((k[:, a] >> bit) & 1) << (2 * bit + (1 - a))
    return np.argsort(key, kind="stable")


def _tile_rows(arr, lt, st, fill):
    """(levels, positions, ...) array -> (tiles, lt * st, ...), padded with fill.

    Tile (bl, bs) covers levels [bl*lt, (bl+1)*lt) and positions [bs*st, (bs+1)*st);
    its id is bl * n_space_tiles + bs.
    """
    L, m = arr.shape[:2]
    nl, ns = -(-L // lt), -(-m // st)
    pad = np.full((nl * lt, ns * st) + arr.shape[2:], fill, dtype=arr.dtype)
    pad[:L, :m] = arr
    pad = pad.reshape((nl, lt, ns, st) + arr.shape[2:]).swapaxes(1, 2)
    return pad.reshape((nl * ns, lt * st) + arr.shape[2:])


class _Tiles:
    """Summary of every tile at one depth of the block hierarchy."""

    def __init__(self, idx, v, dist, xs, ts, lt, st, n):
        L, m = idx.shape
        self.idx, self.lt, self.st = idx, lt, st
        self.nl, self.ns = -(-L // lt), -(-m // st)
        members = self.members()
        rows = np.arange(len(members))
        vmax = _tile_rows(v, lt, st, -np.inf)
        vmin = _tile_rows(v, lt, st, np.inf)
        self.imax = members[rows, np.argmax(vmax, axis=1)]
        self.imin = members[rows, np.argmin(vmin, axis=1)]
        self.vmax = vmax.max(axis=1)
        self.vmin = vmin.min(axis=1)
        self.dmax = _tile_rows(dist, lt, st, -np.inf).max(axis=1)
        # the two smallest node indices of each tile (n when there is no second)
        order = np.sort(np.where(members >= 0, members, n), axis=1)
        self.first = order[:, 0]
        self.second = order[:, 1] if lt * st > 1 else np.full(len(members), n)
        self.xlo = _tile_rows(xs[None], 1, st, np.inf).min(axis=1)
        self.xhi = _tile_rows(xs[None], 1, st, -np.inf).max(axis=1)
        self.tlo = _tile_rows(ts[:, None], lt, 1, np.inf).min(axis=1)
        self.thi = _tile_rows(ts[:, None], lt, 1, -np.inf).max(axis=1)

    def members(self):
        """Node indices of each tile, -1 padded: (tiles, lt * st)."""
        return _tile_rows(self.idx, self.lt, self.st, -1)


class _BranchAndBound:
    """Exact sup of the classical (c None) or weighted quotient over all node pairs.

    Tiles are ranges of levels x ranges of spatial positions (see
    _spatial_order).  Depth 0 is one tile; each deeper depth halves the tiles
    along levels or along positions, whichever spans the larger parabolic
    distance, down to _LEAF_NODES nodes.  For tiles A, B every node pair
    between them has a quotient at most

        max(vmax_A - vmin_B, vmax_B - vmin_A) / (boxgap + sqrt(tgap))^alpha

    times min(maxdist_A, maxdist_B)^c when weighted, because the parabolic
    separation is a metric.  Block pairs are refined depth first, highest
    bound first, in batches (so the frontier stays a few batches per depth),
    and at the deepest depth their node pairs are evaluated with
    _pair_value_classical, exactly as the oracles do.  A block pair is
    dropped when its bound is below the best value found, or equal to it and
    its lexicographically first pair comes after the best pair; so the result
    is the oracle's first strict maximum, value and pair.
    """

    def __init__(self, nodes, alpha, c):
        self.nodes, self.alpha, self.c = nodes, alpha, c
        self.best = -np.inf
        self.best_key = nodes.n * nodes.n  # i * n + j of the best pair
        self.evaluated = 0
        L, m, n = nodes.n_levels, nodes.m_space, nodes.n
        order = _spatial_order(nodes)
        idx = np.arange(L)[:, None] * m + order[None, :]
        v = nodes.v[idx]
        dist = nodes.dist[idx]
        xs = nodes.x[order]
        ts = nodes.t[::m]
        lt = 1 << (L - 1).bit_length()
        st = 1 << (m - 1).bit_length()
        dim = nodes.x.shape[1]
        self.depths = [_Tiles(idx, v, dist, xs, ts, lt, st, n)]
        self.split_levels = []
        while lt * st > _LEAF_NODES:
            time_extent = np.sqrt(lt * nodes.dt)
            space_extent = (st if dim == 1 else np.sqrt(st)) * nodes.dx
            split_levels = st == 1 or (lt > 1 and time_extent >= space_extent)
            if split_levels:
                lt //= 2
            else:
                st //= 2
            self.split_levels.append(split_levels)
            self.depths.append(_Tiles(idx, v, dist, xs, ts, lt, st, n))
        self.leaf_members = self.depths[-1].members()

    def run(self):
        root = np.zeros(1, dtype=np.int64)
        self._descend(0, root, root)
        n = self.nodes.n
        return self.best, divmod(int(self.best_key), n), self.evaluated

    def _alive(self, bound, key):
        return (bound > self.best) | ((bound == self.best) & (key < self.best_key))

    def _bound(self, T, a, b):
        la, sa = np.divmod(a, T.ns)
        lb, sb = np.divmod(b, T.ns)
        dv = np.maximum(T.vmax[a] - T.vmin[b], T.vmax[b] - T.vmin[a])
        gap = np.maximum(np.maximum(T.xlo[sb] - T.xhi[sa], T.xlo[sa] - T.xhi[sb]), 0.0)
        if gap.shape[1] == 1:
            space = gap[:, 0]
        else:
            space = np.sqrt(gap[:, 0] ** 2 + gap[:, 1] ** 2)
        tgap = np.maximum(np.maximum(T.tlo[lb] - T.thi[la], T.tlo[la] - T.thi[lb]), 0.0)
        den = (space + np.sqrt(tgap)) ** self.alpha
        with np.errstate(divide="ignore", invalid="ignore"):
            q = dv / den  # overlapping tiles: gap 0, bound inf
            q[dv == 0] = 0.0  # constant block pair: 0/0 is 0
            if self.c is not None:
                w = np.minimum(T.dmax[a], T.dmax[b]) ** self.c
                q = np.where(w == 0, 0.0, q * w)  # zero weight: 0 * inf is 0
        return q * _MARGIN

    def _first_key(self, T, a, b):
        """i * n + j of the lexicographically first pair between tiles a and b."""
        lo = np.minimum(T.first[a], T.first[b])
        hi = np.where(a == b, T.second[a], np.maximum(T.first[a], T.first[b]))
        return lo * self.nodes.n + hi

    def _offer(self, lo, hi):
        """Evaluate the node pairs (lo < hi) and keep the first strict maximum."""
        if lo.size == 0:
            return
        vals = _pair_value_classical(self.nodes, lo, hi, self.alpha, c=self.c)
        self.evaluated += vals.size
        top = vals.max()
        key = (lo * self.nodes.n + hi)[vals == top].min()
        if top > self.best or (top == self.best and key < self.best_key):
            self.best, self.best_key = float(top), key

    def _children(self, d, t):
        """Child tile ids of the tiles t, shape (len(t), 2); -1 where there is none."""
        T, C = self.depths[d], self.depths[d + 1]
        l, s = np.divmod(t, T.ns)
        k = np.arange(2)
        if self.split_levels[d]:
            cl, cs = 2 * l[:, None] + k, np.repeat(s[:, None], 2, axis=1)
        else:
            cl, cs = np.repeat(l[:, None], 2, axis=1), 2 * s[:, None] + k
        return np.where((cl < C.nl) & (cs < C.ns), cl * C.ns + cs, -1)

    def _descend(self, d, a, b):
        T = self.depths[d]
        bound = self._bound(T, a, b)
        key = self._first_key(T, a, b)
        order = np.lexsort((key, -bound))
        keep = order[self._alive(bound[order], key[order])]
        a, b, bound, key = a[keep], b[keep], bound[keep], key[keep]
        if d == len(self.depths) - 1:
            self._leaves(a, b, bound, key)
            return
        # the extreme nodes of each block pair give real pairs to raise the best early
        lo = np.concatenate([np.minimum(T.imax[a], T.imin[b]), np.minimum(T.imax[b], T.imin[a])])
        hi = np.concatenate([np.maximum(T.imax[a], T.imin[b]), np.maximum(T.imax[b], T.imin[a])])
        self._offer(lo[lo != hi], hi[lo != hi])
        C = self.depths[d + 1]
        for s in range(0, len(a), _BLOCK_BATCH):
            sl = slice(s, s + _BLOCK_BATCH)
            alive = self._alive(bound[sl], key[sl])
            pa, pb = a[sl][alive], b[sl][alive]
            ca = self._children(d, pa)[:, :, None]
            cb = self._children(d, pb)[:, None, :]
            ok = (ca >= 0) & (cb >= 0)
            self_pair = (pa == pb)[:, None, None]
            # a self pair splits into two child self pairs and one cross pair;
            # a child self pair of a single node holds no pair
            ok &= ~self_pair | ((ca <= cb) & ((ca != cb) | (C.second[ca] < self.nodes.n)))
            ca, cb = np.broadcast_arrays(ca, cb)
            if ok.any():
                self._descend(d + 1, ca[ok], cb[ok])

    def _leaves(self, a, b, bound, key):
        members = self.leaf_members
        width = members.shape[1]
        step = max(1, _PAIR_BATCH // (width * width))
        for s in range(0, len(a), step):
            sl = slice(s, s + step)
            alive = self._alive(bound[sl], key[sl])
            pa, pb = a[sl][alive], b[sl][alive]
            ii = members[pa][:, :, None]
            jj = members[pb][:, None, :]
            ok = (ii >= 0) & (jj >= 0) & ((pa != pb)[:, None, None] | (ii < jj))
            ii, jj = np.broadcast_arrays(ii, jj)
            ii, jj = ii[ok], jj[ok]
            self._offer(np.minimum(ii, jj), np.maximum(ii, jj))


def _classical_scan(u, alpha, c, Q):
    """Sup of the classical quotient, weighted by min boundary distance ^ c unless c is None."""
    if c is not None and c < 0:
        raise ValueError("c must be >= 0")
    if not (0 < alpha <= 1):
        raise ValueError("alpha must lie in (0, 1] (alpha=1 diagnostic only)")
    nodes = _Nodes(u, Q)
    if nodes.n < 2:
        return SeminormResult(0.0, None, degenerate=True)
    if not np.all(np.isfinite(nodes.v)):
        raise ValueError("field has non-finite values on the cylinder")
    best, ij, evaluated = _BranchAndBound(nodes, alpha, c).run()
    return _result_from(nodes, best, ij, evaluated)


def holder_seminorm(u, alpha, Q=None):
    """Classical parabolic seminorm sup |du| / (|dx| + |dt|^(1/2))^alpha."""
    return _classical_scan(u, alpha, None, Q)


def weighted_holder(u, alpha, c, Q=None):
    """Classical quotient weighted by min distance to the backward boundary ^ c."""
    return _classical_scan(u, alpha, c, Q)


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
    return _result_from(nodes, *_enumerate_max(nodes, fn, _same_level_pairs(nodes)))


def nonlinear_time(u, alpha, gamma, Q=None):
    """Same-position quotient weighted by (min d_alpha)^(gamma/2)."""
    if not (0 < alpha < 1):
        raise ValueError("alpha must lie in (0, 1)")
    nodes = _Nodes(u, Q, alpha=alpha, gamma=gamma)
    if nodes.n_levels < 2:
        return SeminormResult(0.0, None, degenerate=True)
    fn = lambda nd, i, j: _pair_value_nl_time(nd, i, j, alpha, gamma)
    return _result_from(nodes, *_enumerate_max(nodes, fn, _same_space_pairs(nodes)))


def nonlinear_combined(u, alpha, z, gamma, Q=None):
    """max(space part, (time part / z)^(2/gamma))."""
    if z <= 0:
        raise ValueError("z must be positive")
    s = nonlinear_space(u, alpha, gamma, Q)
    t = nonlinear_time(u, alpha, gamma, Q)
    return combine_nonlinear(s.value, t.value, z, gamma), s, t


def combine_nonlinear(space_value, time_value, z, gamma):
    return float(max(space_value, (time_value / z) ** (2.0 / gamma)))


def seminorm_set(u, alpha, gamma, z, c, Q=None):
    classical = holder_seminorm(u, alpha, Q)
    weighted = weighted_holder(u, alpha, c, Q)
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
    best, ij, _ = _enumerate_max(nodes, fn, _same_level_pairs(nodes))
    return 0.0 if ij is None else float(best)


def time_quotient(u, alpha, Q=None):
    """sup over same-position pairs of |du| / |dt|^(alpha/2), no weight."""
    nodes = _Nodes(u, Q)
    if nodes.n_levels < 2:
        return 0.0
    fn = lambda nd, i, j: np.abs(nd.v[i] - nd.v[j]) / np.abs(nd.t[i] - nd.t[j]) ** (
        alpha / 2
    )
    best, ij, _ = _enumerate_max(nodes, fn, _same_space_pairs(nodes))
    return 0.0 if ij is None else float(best)


# -- naive double-loop oracles --------------------------------------------------


def _oracle_scan(nodes, pairs, value_fn):
    # one pair at a time, but through the same array ufuncs as the fast path
    # (numpy scalar ** can differ from the array loop in the last ulp)
    best = -np.inf
    best_ij = None
    count = 0
    ii = np.zeros(1, dtype=np.int64)
    jj = np.zeros(1, dtype=np.int64)
    for i, j in pairs:
        ii[0] = i
        jj[0] = j
        val = value_fn(nodes, ii, jj)[0]
        count += 1
        if val > best:
            best = val
            best_ij = (i, j)
    return _result_from(nodes, best, best_ij, count)


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
