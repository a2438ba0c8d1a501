"""Parabolic Hölder seminorm family on grid cylinders.

Discrete seminorms: the continuum sup over point pairs is replaced by the sup
over active grid-node pairs of the same quotient (convergent from below under
refinement).  Each member is declared once, in MEMBERS: its pair family
(every node pair, the pairs on one level, or the pairs at one position), its
weight (none, or the distance of kind `d` or `d_alpha` to the backward
parabolic boundary) and that weight's exponent.  grid.Cylinder owns the
geometry: it selects the cylinder's nodes and gives their distances, which
_Nodes reads.  The members are classical and weighted (all pairs), nl_space
(one level) and nl_time (one position) of the paper, and the plain
space_quotient and time_quotient of the oscillation budgets.  One
pair expression (_pair_value) serves every member: the value difference over
the family's separation to the alpha, times min(w_i, w_j)^power when
weighted.

Every member is exact: no pair is ever sampled.  member_scan finds its sup
by one block branch-and-bound (_BranchAndBound): a bound on a pair of node
blocks covers every node pair between them, and only the node pairs of
block pairs whose bound is positive and reaches the best value are
evaluated.  oracle(name, ...) is the naive double loop over the same pairs;
the two agree bit-for-bit, value and argmax pair, and tests assert exact
equality.  Ties go to the first pair in the oracle's order: the
lexicographically first pair (i, j), i < j, in node order (level-major,
spatial-lex), except for the same-position family (nl_time, time_quotient),
whose pairs run position-major: the first position, then the first level
pair (a, b), a < b, at it.  So a zero sup goes to the family's first pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Callable, NamedTuple

import numpy as np

from .grid import Cylinder, Grid, ScalarField, gradient_level, quadrature_levels, spacetime_integral, time_derivative


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


class _Nodes:
    """Flattened active nodes of a cylinder, level-major, spatial-lex order.

    Q (g's whole cylinder for None) selects the nodes.  x and t are node-sized
    copies of each node's position and level time.  Reading xs[i % m] and
    ts[i // m] in the pair values instead gives the same bits, but slowed the
    benchmark's seminorm_scan commands from 61.5-63.8 to 69.5-73.7 ms and
    liouville-probe from 113-124 to 120-131 ms (medians of 9, 2 vCPUs).
    """

    def __init__(self, u: ScalarField, Q: Cylinder | None):
        g = u.grid
        self.Q = g.cylinder() if Q is None else Q
        sel = g.active & self.Q.holds(g.coords)
        levels = np.flatnonzero(self.Q.spans(g.ts))  # one run of levels
        self.xs, self.ts = g.coords[sel], g.ts[levels]  # (m, dim) positions, (L,) level times
        m, L = len(self.xs), len(levels)
        n = m * L
        self.x = np.tile(self.xs, (L, 1))
        self.t = np.repeat(self.ts, m)
        self.v = u.values[levels[0] : levels[-1] + 1][:, sel].reshape(n) if L else np.empty(0)
        self.n = n
        self.m_space = m
        self.n_levels = L
        self.dx, self.dt = g.dx, g.dt

    def weight(self, kind, alpha=None, gamma=None):
        """Each node's Q.distance of the kind "d" or "d_alpha" to the backward parabolic boundary, in node order.

        Q forms the spatial part once per position and the temporal part once
        per level, so the one node-sized array is the weight itself.
        """
        return self.Q.distance(self.xs, self.ts, kind, alpha, gamma).reshape(self.n)

    def spatial_sep(self, i, j):
        x = self.x.T  # one coordinate at a time: a 1-D gather is twice as fast as x[i, 0]
        if len(x) == 1:
            return np.abs(x[0][i] - x[0][j])
        return np.sqrt((x[0][i] - x[0][j]) ** 2 + (x[1][i] - x[1][j]) ** 2)


# Pair families: every node pair, the pairs on one level, the pairs at one position.
_ALL_PAIRS, _SAME_LEVEL, _SAME_POSITION = "all pairs", "same level", "same position"


class Member(NamedTuple):
    family: str  # the node pairs the sup runs over
    weight: str | None  # the _Nodes.weight kind whose minimum over the pair multiplies the quotient
    power: Callable[[float, float], float] | None  # that weight's exponent, from (gamma, c)


MEMBERS = {
    "classical": Member(_ALL_PAIRS, None, None),
    "weighted": Member(_ALL_PAIRS, "d", lambda gamma, c: c),
    "nl_space": Member(_SAME_LEVEL, "d_alpha", lambda gamma, c: 1.0),
    "nl_time": Member(_SAME_POSITION, "d_alpha", lambda gamma, c: gamma / 2),
    "space_quotient": Member(_SAME_LEVEL, None, None),
    "time_quotient": Member(_SAME_POSITION, None, None),
}


def _pair_value(nodes, i, j, family, alpha, weight=None, power=None):
    """Quotients of the node pairs (i, j); the oracle and the fast path both use it."""
    if family == _SAME_LEVEL:
        den = nodes.spatial_sep(i, j) ** alpha
    elif family == _SAME_POSITION:
        den = np.abs(nodes.t[i] - nodes.t[j]) ** (alpha / 2)
    else:
        den = (nodes.spatial_sep(i, j) + np.sqrt(np.abs(nodes.t[i] - nodes.t[j]))) ** alpha
    q = np.abs(nodes.v[i] - nodes.v[j]) / den
    if weight is None:
        return q
    return np.minimum(weight[i], weight[j]) ** power * q


def _result_from(nodes, best, best_ij, pairs_evaluated):
    i, j = best_ij
    pair = (
        (tuple(nodes.x[i]), float(nodes.t[i])),
        (tuple(nodes.x[j]), float(nodes.t[j])),
    )
    return SeminormResult(float(best), pair, pairs_evaluated=pairs_evaluated)


# -- exact sup over a pair family by block branch-and-bound ----------------------

# Bounds are inflated by this factor so that they dominate the *rounded* pair
# values: the array power is not correctly rounded, so a node pair's computed
# quotient may exceed the same expression formed from the block gaps by an ulp.
_MARGIN = 1.0 + 1e-9
_LEAF_NODES = 16  # nodes per tile at the deepest depth
_BLOCK_BATCH = 1 << 14  # parent block pairs refined together
# Node pairs evaluated together, and about the nodes a leaf summary reads
# together.  The best value rises after each chunk, so a small chunk prunes
# sooner, and its dozen index and value arrays stay near 128 KiB each.
_PAIR_BATCH = 1 << 14


def _spatial_order(nodes):
    """Spatial positions along a Z-order curve, so that a range of them is compact.

    In 1D this is the node order itself.
    """
    if nodes.x.shape[1] == 1:
        return np.arange(nodes.m_space)
    xs = nodes.xs
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


class _PositionMajor:
    """rank[i]: the places of the nodes i in the same-position family's order, (position, level)."""

    def __init__(self, m, L):
        self.m, self.L = m, L

    def __getitem__(self, i):
        return (i % self.m) * self.L + i // self.m


class _Tiles:
    """Summary of every tile at one depth of the block hierarchy.

    Tiles of lt levels x st positions, nl x ns of them; tile (bl, bs) has id
    bl * ns + bs.  vmax / vmin are the extreme values of a tile and dmax its
    largest weight (None without one).  tmax / tmin are their places in the
    tiled (level, position) order, l * m + s for level l and the s-th
    position of the spatial order, and ties go to the first, as np.argmax
    would give over the tile's members; imax / imin are the nodes there.
    count is the number of nodes a tile holds, its levels held x its
    positions held.  xlo, xhi (per position tile) and tlo, thi (per level
    tile) bound its coordinates.

    The leaf summary (no base) reads the node values, and the weights, a
    few level rows of tiles at a time, so it makes no node-sized array.
    Every other depth groups the tiles of the finer summary `base`, so it
    costs its number of tiles, not of nodes.
    """

    def __init__(self, search, lt, st, base=None):
        nodes, order = search.nodes, search.order
        L, m = nodes.n_levels, nodes.m_space
        self.lt, self.st = lt, st
        self.nl, self.ns = -(-L // lt), -(-m // st)
        if base is None:
            self._read_nodes(search)
        else:
            self._group(base)
        first_level, first_position = np.arange(0, L, lt), np.arange(0, m, st)
        xs = nodes.xs[order]
        self.xlo, self.xhi = np.minimum.reduceat(xs, first_position), np.maximum.reduceat(xs, first_position)
        self.tlo, self.thi = np.minimum.reduceat(nodes.ts, first_level), np.maximum.reduceat(nodes.ts, first_level)
        self.imax = self.tmax // m * m + order[self.tmax % m]
        self.imin = self.tmin // m * m + order[self.tmin % m]
        self.count = np.outer(np.minimum(lt, L - first_level), np.minimum(st, m - first_position)).ravel()

    def _read_nodes(self, search):
        nodes, order, weight = search.nodes, search.order, search.weight
        L, m = nodes.n_levels, nodes.m_space
        lt, st, nl, ns = self.lt, self.st, self.nl, self.ns
        self.vmax, self.vmin = np.empty(nl * ns), np.empty(nl * ns)
        self.tmax, self.tmin = np.empty(nl * ns, np.int64), np.empty(nl * ns, np.int64)
        self.dmax = None if weight is None else np.empty(nl * ns)
        step = max(1, _PAIR_BATCH // (lt * ns * st))  # level rows of tiles read together
        for r in range(0, nl, step):
            levels, tiles = slice(r * lt, (r + step) * lt), slice(r * ns, min(r + step, nl) * ns)
            bl, bs = np.divmod(np.arange(tiles.start, tiles.stop), ns)

            def read(arr, fill):
                return _tile_rows(arr.reshape(L, m)[levels][:, order], lt, st, fill)

            def place(at):  # member at of each tile -> its place
                i, j = np.divmod(at, st)
                return (bl * lt + i) * m + bs * st + j

            hi, lo = read(nodes.v, -np.inf), read(nodes.v, np.inf)
            self.vmax[tiles], self.tmax[tiles] = hi.max(axis=1), place(hi.argmax(axis=1))
            self.vmin[tiles], self.tmin[tiles] = lo.min(axis=1), place(lo.argmin(axis=1))
            if weight is not None:
                self.dmax[tiles] = read(weight, -np.inf).max(axis=1)

    def _group(self, base):
        kl, ks = self.lt // base.lt, self.st // base.st

        def rows(arr, fill):
            return _tile_rows(arr.reshape(base.nl, base.ns), kl, ks, fill)

        last = np.iinfo(np.int64).max
        vmax, vmin = rows(base.vmax, -np.inf), rows(base.vmin, np.inf)
        self.vmax, self.vmin = vmax.max(axis=1), vmin.min(axis=1)
        self.tmax = np.where(vmax == self.vmax[:, None], rows(base.tmax, last), last).min(axis=1)
        self.tmin = np.where(vmin == self.vmin[:, None], rows(base.tmin, last), last).min(axis=1)
        self.dmax = None if base.dmax is None else rows(base.dmax, -np.inf).max(axis=1)


class _BranchAndBound:
    """Exact sup of a pair quotient over one family of node pairs.

    `_pair_value` gives the quotients of the node pairs (i, j): a value
    difference over the family's parabolic separation raised to alpha, times
    min(weight_i, weight_j)^power when a weight is given.  Tiles are ranges of levels x
    ranges of spatial positions (see _spatial_order).  Depth 0 has one tile
    for all pairs, one per level for the same-level family and one per
    position for the same-position family; each deeper depth halves the tiles,
    along levels or positions, whichever spans the larger parabolic distance,
    for all pairs, and along the other axis for the restricted families, down
    to _LEAF_NODES nodes.  So the search starts from the self pairs of the
    depth-0 tiles, every tile pair it meets holds only pairs of the family,
    and its leaves evaluate every member pair without a family mask.  For
    tiles A, B every node pair between them has a quotient at most

        max(vmax_A - vmin_B, vmax_B - vmin_A) / max(boxgap + sqrt(tgap), floor)^alpha

    times min(maxweight_A, maxweight_B)^power, because the parabolic
    separation is a metric (on one level it is the spatial distance, at one
    position the square root of the time gap) and no family pair is closer
    than the family's floor.  Block pairs are refined depth first, highest
    bound first, in batches (so the frontier stays a few batches per depth),
    and at the deepest depth their node pairs are evaluated with _pair_value,
    exactly as the oracle does, _PAIR_BATCH pairs at a time.  A block pair
    is kept while its bound is positive and at least the best value found
    (bounds carry _MARGIN, so the block pair of a positive sup's first pair
    stays).  A bound of 0 (constant values or zero weight) means every pair
    in it has quotient 0, so dropping it changes no result and can only
    lower pairs_evaluated; with no positive value found, run returns 0 at
    the family's first pair, (0, 1) for all pairs and one level, (0, m) for
    one position, since every pair attains it.  Tied evaluated pairs keep
    the first in the family's order (_offer): lexicographic in the node
    indices (level-major), except for the same-position family, whose oracle
    runs position-major, (position, level, level), by _PositionMajor ranks.
    So the result is the oracle's first strict maximum, value and pair.
    """

    def __init__(self, nodes, family, alpha, weight=None, power=None):
        self.nodes, self.family = nodes, family
        self.alpha, self.weight, self.power = alpha, weight, power
        self.best = -np.inf
        self.best_key = nodes.n * nodes.n  # rank_i * n + rank_j of the best pair, for ties in _offer
        self.best_ij = None
        self.evaluated = 0
        # No two distinct nodes of a family are closer than this floor: dx on one
        # level, sqrt(dt) at one position.  All pairs could use min(dx, sqrt(dt)),
        # but then self pairs no longer sort first, and a 65 x 129 HJ solution
        # took 35% more pairs; so overlapping tiles keep an infinite bound there.
        self.floor = {
            _ALL_PAIRS: 0.0, _SAME_LEVEL: nodes.dx, _SAME_POSITION: np.sqrt(nodes.dt)
        }[family]
        L, m = nodes.n_levels, nodes.m_space
        self.order = _spatial_order(nodes)
        self.rank = _PositionMajor(m, L) if family == _SAME_POSITION else None  # None: the node index
        # the split schedule, root to leaves
        lt = 1 if family == _SAME_LEVEL else 1 << (L - 1).bit_length()
        st = 1 if family == _SAME_POSITION else 1 << (m - 1).bit_length()
        dim = nodes.x.shape[1]
        sizes = [(lt, st)]
        self.split_levels = []
        while lt * st > _LEAF_NODES:
            if family == _ALL_PAIRS:
                time_extent = np.sqrt(lt * nodes.dt)
                space_extent = (st if dim == 1 else np.sqrt(st)) * nodes.dx
                split_levels = st == 1 or (lt > 1 and time_extent >= space_extent)
            else:
                split_levels = family == _SAME_POSITION
            if split_levels:
                lt //= 2
            else:
                st //= 2
            self.split_levels.append(split_levels)
            sizes.append((lt, st))
        leaf = _Tiles(self, lt, st)
        self.depths = [_Tiles(self, lt, st, leaf) for lt, st in sizes[:-1]] + [leaf]

    def members(self, d, tiles=None):
        """Node indices of the tiles (all by default) at depth d, -1 padded: (tiles, lt * st)."""
        T, L, m = self.depths[d], self.nodes.n_levels, self.nodes.m_space
        if tiles is None:
            tiles = np.arange(T.nl * T.ns)
        bl, bs = np.divmod(tiles, T.ns)
        levels = bl[:, None, None] * T.lt + np.arange(T.lt)[:, None]
        positions = bs[:, None, None] * T.st + np.arange(T.st)
        nodes = levels * m + np.take(self.order, positions, mode="clip")
        return np.where((levels < L) & (positions < m), nodes, -1).reshape(len(tiles), T.lt * T.st)

    def run(self):
        """(sup, argmax pair (i, j) with i < j, node pairs evaluated)."""
        T = self.depths[0]
        roots = np.arange(T.nl * T.ns)
        self._descend(0, roots, roots)
        if self.best > 0:
            return self.best, self.best_ij, self.evaluated
        # a zero sup is attained by every pair, so the oracle keeps the family's first
        first = (0, self.nodes.m_space) if self.family == _SAME_POSITION else (0, 1)
        return 0.0, first, self.evaluated

    def _alive(self, bound):
        return (bound >= self.best) & (bound > 0)

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
        den = np.maximum(space + np.sqrt(tgap), self.floor) ** self.alpha
        with np.errstate(divide="ignore", invalid="ignore"):
            q = dv / den  # overlapping tiles of all pairs: gap 0, bound inf
            q[dv == 0] = 0.0  # constant block pair: 0/0 is 0
            if self.power is not None:
                w = np.minimum(T.dmax[a], T.dmax[b]) ** self.power
                q = np.where(w == 0, 0.0, q * w)  # zero weight: 0 * inf is 0
        return q * _MARGIN

    def _offer(self, ii, jj):
        """Evaluate the node pairs (ii, jj) and keep the first strict maximum."""
        if ii.size == 0:
            return
        # symmetric in i, j bit for bit
        vals = _pair_value(self.nodes, ii, jj, self.family, self.alpha, self.weight, self.power)
        self.evaluated += vals.size
        top = vals.max()
        if top < self.best:
            return
        top_at = np.flatnonzero(vals == top)
        lo = np.minimum(ii[top_at], jj[top_at])
        hi = np.maximum(ii[top_at], jj[top_at])
        rank = (lo, hi) if self.rank is None else (self.rank[lo], self.rank[hi])
        keys = rank[0] * self.nodes.n + rank[1]
        k = int(np.argmin(keys))
        if top > self.best or keys[k] < self.best_key:
            self.best, self.best_key = float(top), keys[k]
            self.best_ij = (int(lo[k]), int(hi[k]))

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
        order = np.argsort(-bound, kind="stable")
        keep = order[self._alive(bound[order])]
        a, b, bound = a[keep], b[keep], bound[keep]
        if d == len(self.depths) - 1:
            self._leaves(a, b, bound)
            return
        # the extreme nodes of each block pair give real pairs to raise the best early
        ii = np.concatenate([T.imax[a], T.imax[b]])
        jj = np.concatenate([T.imin[b], T.imin[a]])
        self._offer(ii[ii != jj], jj[ii != jj])
        C = self.depths[d + 1]
        for s in range(0, len(a), _BLOCK_BATCH):
            sl = slice(s, s + _BLOCK_BATCH)
            alive = self._alive(bound[sl])
            pa, pb = a[sl][alive], b[sl][alive]
            ca = self._children(d, pa)[:, :, None]
            cb = self._children(d, pb)[:, None, :]
            ok = (ca >= 0) & (cb >= 0)
            self_pair = (pa == pb)[:, None, None]
            # a self pair splits into two child self pairs and one cross pair;
            # a child self pair of a single node holds no pair
            ok &= ~self_pair | ((ca <= cb) & ((ca != cb) | (C.count[ca] > 1)))
            ca, cb = np.broadcast_arrays(ca, cb)
            if ok.any():
                self._descend(d + 1, ca[ok], cb[ok])

    def _leaves(self, a, b, bound):
        d = len(self.depths) - 1
        T = self.depths[d]
        width = T.lt * T.st
        # local (p, q) member pairs of a self pair (p < q) and of a cross pair
        own = np.triu_indices(width, 1)
        cross = np.divmod(np.arange(width * width), width)
        step = max(1, _PAIR_BATCH // (width * width))
        for s in range(0, len(a), step):
            sl = slice(s, s + step)
            alive = self._alive(bound[sl])
            pa, pb = a[sl][alive], b[sl][alive]
            same = pa == pb
            both = self.members(d, np.concatenate([pa, pb]))
            ma, mb = both[: len(pa)], both[len(pa) :]
            ii = np.concatenate([ma[same][:, own[0]].ravel(), ma[~same][:, cross[0]].ravel()])
            jj = np.concatenate([mb[same][:, own[1]].ravel(), mb[~same][:, cross[1]].ravel()])
            ok = (ii >= 0) & (jj >= 0)  # padding of the last tiles
            self._offer(ii[ok], jj[ok])


def _family_pairs(nodes, family):
    n, m, L = nodes.n, nodes.m_space, nodes.n_levels
    if family == _SAME_LEVEL:
        return L * (m * (m - 1) // 2)
    if family == _SAME_POSITION:
        return m * (L * (L - 1) // 2)
    return n * (n - 1) // 2


def _member(name, u, alpha, gamma, c, Q):
    """(nodes of Q, pair family, weight array, power) of a member, after its checks; non-finite values fail."""
    family, weight, power = MEMBERS[name]
    if weight == "d_alpha":
        if not (0 < alpha < 1):
            raise ValueError("alpha must lie in (0, 1)")
        if gamma is None:
            raise ValueError(f"{name} needs gamma")
    elif not (0 < alpha <= 1):
        raise ValueError("alpha must lie in (0, 1] (alpha=1 diagnostic only)")
    if weight == "d" and (c is None or c < 0):
        raise ValueError("c must be >= 0")
    nodes = _Nodes(u, Q)
    if not np.all(np.isfinite(nodes.v)):
        raise ValueError("field has non-finite values on the cylinder")
    if weight is None:
        return nodes, family, None, None
    return nodes, family, nodes.weight(weight, alpha, gamma), power(gamma, c)


def node_count(u: ScalarField, Q: Cylinder) -> int:
    """The number of active space-time nodes of u in Q, as every member selects them."""
    g = u.grid
    return int(np.count_nonzero(g.active & Q.holds(g.coords))) * int(np.count_nonzero(Q.spans(g.ts)))


def member_scan(name, u, alpha, gamma=None, c=None, Q=None):
    """Exact sup of a member's quotient on Q by branch-and-bound; degenerate when no pair."""
    nodes, family, weight, power = _member(name, u, alpha, gamma, c, Q)
    if _family_pairs(nodes, family) == 0:
        return SeminormResult(0.0, None, degenerate=True)
    search = _BranchAndBound(nodes, family, alpha, weight, power)
    return _result_from(nodes, *search.run())


def holder_seminorm(u, alpha, Q=None):
    """Classical parabolic seminorm sup |du| / (|dx| + |dt|^(1/2))^alpha."""
    return member_scan("classical", u, alpha, Q=Q)


def weighted_holder(u, alpha, c, Q=None):
    """Classical quotient weighted by min distance to the backward boundary ^ c."""
    return member_scan("weighted", u, alpha, c=c, Q=Q)


def nonlinear_space(u, alpha, gamma, Q=None):
    """Same-time quotient weighted by min d_alpha to the backward boundary."""
    return member_scan("nl_space", u, alpha, gamma, Q=Q)


def nonlinear_time(u, alpha, gamma, Q=None):
    """Same-position quotient weighted by (min d_alpha)^(gamma/2)."""
    return member_scan("nl_time", u, alpha, gamma, Q=Q)


def space_quotient(u, alpha, Q=None):
    """sup over same-time pairs of |du| / |dx|^alpha, no weight."""
    return member_scan("space_quotient", u, alpha, Q=Q).value


def time_quotient(u, alpha, Q=None):
    """sup over same-position pairs of |du| / |dt|^(alpha/2), no weight."""
    return member_scan("time_quotient", u, alpha, Q=Q).value


def combine_nonlinear(space_value, time_value, z, gamma):
    """max(space part, (time part / z)^(2/gamma))."""
    if z <= 0:
        raise ValueError("z must be positive")
    return float(max(space_value, (time_value / z) ** (2.0 / gamma)))


def seminorm_set(u, alpha, gamma, c, Q=None):
    """The four members on Q by the fast scans; combine_nonlinear joins the two nonlinear ones."""
    return SeminormSet(
        classical=holder_seminorm(u, alpha, Q),
        weighted=weighted_holder(u, alpha, c, Q),
        nl_space=nonlinear_space(u, alpha, gamma, Q),
        nl_time=nonlinear_time(u, alpha, gamma, Q),
    )


# -- naive double-loop oracle ---------------------------------------------------


def oracle(name, u, alpha, gamma=None, c=None, Q=None):
    """A member's sup by a double loop over its family's pairs, in the family's order."""
    nodes, family, weight, power = _member(name, u, alpha, gamma, c, Q)
    if _family_pairs(nodes, family) == 0:
        return SeminormResult(0.0, None, degenerate=True)
    m, L = nodes.m_space, nodes.n_levels
    if family == _SAME_LEVEL:
        pairs = ((k * m + i, k * m + j) for k in range(L) for i, j in combinations(range(m), 2))
    elif family == _SAME_POSITION:
        pairs = ((a * m + s, b * m + s) for s in range(m) for a, b in combinations(range(L), 2))
    else:
        pairs = combinations(range(nodes.n), 2)
    # one pair at a time, but through the same array ufuncs as the fast path
    # (numpy scalar ** can differ from the array loop in the last ulp)
    best, best_ij, count = -np.inf, None, 0
    ii = np.zeros(1, dtype=np.int64)
    jj = np.zeros(1, dtype=np.int64)
    for i, j in pairs:
        ii[0], jj[0] = i, j
        val = _pair_value(nodes, ii, jj, family, alpha, weight, power)[0]
        count += 1
        if val > best:
            best, best_ij = val, (i, j)
    return _result_from(nodes, best, best_ij, count)


# -- parabolic Sobolev-type norms -----------------------------------------------


def hessian_frobenius_level(values: np.ndarray, dx: float, dim: int | None = None) -> np.ndarray:
    """Frobenius norm of the full second-difference Hessian; rim entries 0.

    The last dim axes are space (all axes by default); a leading axis, such
    as the levels of a field, is carried along.  Each second difference is
    formed in one buffer and summed into the result, so two field-sized
    arrays are alive beside values.
    """
    nd = values.ndim
    space = range(nd - (nd if dim is None else dim), nd)
    lead = (slice(None),) * space.start
    inner = lead + (slice(1, -1),) * len(space)
    out = np.zeros_like(values)
    acc = out[inner]
    d2 = np.empty_like(acc)
    for a in space:
        sl_p = list(inner)
        sl_m = list(inner)
        sl_p[a] = slice(2, None)
        sl_m[a] = slice(0, -2)
        np.multiply(values[inner], 2, out=d2)
        np.subtract(values[tuple(sl_p)], d2, out=d2)
        d2 += values[tuple(sl_m)]
        d2 /= dx ** 2
        d2 *= d2
        acc += d2
    if len(space) == 2:
        pp = values[lead + (slice(2, None), slice(2, None))]
        pm = values[lead + (slice(2, None), slice(None, -2))]
        mp = values[lead + (slice(None, -2), slice(2, None))]
        mm = values[lead + (slice(None, -2), slice(None, -2))]
        np.subtract(pp, pm, out=d2)
        d2 -= mp
        d2 += mm
        d2 /= 4 * dx ** 2
        d2 *= d2
        d2 *= 2
        acc += d2
    np.sqrt(acc, out=acc)
    return out


def check_w21q_cylinder(g: Grid, Qp: Cylinder) -> None:
    """ValueError unless Qp keeps the 2-node spatial and 2-level temporal margins from g's cylinder that w21q_norms reads."""
    box_ok, span_ok = g.cylinder().keeps_margins(Qp, 2 * g.dx, 2 * g.dt)
    if not box_ok:
        raise ValueError("Qp must keep a 2-node spatial margin from the boundary")
    if not span_ok:
        raise ValueError("Qp must keep a 2-level temporal margin from the boundary")


def w21q_norms(u: ScalarField, q: float, gamma: float, Qp: Cylinder) -> dict:
    """{'dt': ||du/dt||_q, 'hessian': ||D^2 u||_q, 'grad_gamma': || |Du|^g ||_q} on Qp.

    Each integrand is formed by one stacked operator call on the levels of
    nonzero weight over Qp (grid.quadrature_levels), every node of each,
    and integrated by grid.spacetime_integral; du/dt reads one more level on
    each side.  A level's integrand has the bits it has in a stack of every
    level.  The stacks are built one at a time and worked on in place, so at
    most two stack-sized arrays are alive beside u.
    """
    g = u.grid
    check_w21q_cylinder(g, Qp)

    def norm_of(stack):
        np.abs(stack, out=stack)
        stack **= q
        return spacetime_integral(g, stack, Qp) ** (1.0 / q)

    levels = quadrature_levels(g, Qp)
    values = u.values[levels]

    def grad_gamma():
        grad = gradient_level(values, g.dx, g.dim)
        grad *= grad
        mag = np.sum(grad, axis=-1)
        del grad
        np.sqrt(mag, out=mag)
        mag **= gamma
        return mag

    return {
        "dt": norm_of(time_derivative(u, levels)),
        "hessian": norm_of(hessian_frobenius_level(values, g.dx, g.dim)),
        "grad_gamma": norm_of(grad_gamma()),
    }
