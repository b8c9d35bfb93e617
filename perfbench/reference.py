"""Independent reference oracles for checking the program's output.

Nothing here imports the program.  The graph Cheeger constant is computed
with numpy bit masks over all vertex subsets; the subspace Cheeger constant
with the rank identity

    h_F = (rank R_F - rank M_F) / dim F,

where R_F is the matrix of v -> (q(f_a, v))_a over a basis f_1..f_k of F and
M_F[(a, e), b] = q(f_a, f_b)_e is its restriction to F.  The program instead
builds the orthogonal complement C(F) and F + C(F) explicitly, so agreement
between the two is a real check.
"""

from __future__ import annotations

import itertools
import json
import sys
from fractions import Fraction

import numpy as np


def cycle_h(n: int) -> Fraction:
    """h(C_n) = 2 / floor(n/2): an arc of floor(n/2) vertices has 2 boundary vertices."""
    return Fraction(2, n // 2)


def path_h(n: int) -> Fraction:
    """h(P_n) = 1 / floor(n/2): an end segment of floor(n/2) vertices has 1 boundary vertex."""
    return Fraction(1, n // 2)


def max_degree(n: int, edges) -> int:
    deg = [0] * n
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    return max(deg) if deg else 0


def is_connected(n: int, edges) -> bool:
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = {0}
    stack = [0]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n


_LOW_BITS = 14


def graph_cheeger(n: int, edges) -> Fraction:
    """min |N(A) \\ A| / |A| over nonempty A with 2|A| <= n, for n >= 2.

    Subsets are swept in blocks of 2^14 low-bit masks so memory stays at a
    few hundred kilobytes whatever n is.
    """
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    low = min(n, _LOW_BITS)
    nb_low = np.zeros(1 << low, dtype=np.uint64)
    for i in range(low):
        nb_low[1 << i: 1 << (i + 1)] = nb_low[: 1 << i] | np.uint64(adj[i])
    masks_low = np.arange(1 << low, dtype=np.uint64)
    pop_low = np.bitwise_count(masks_low)
    half = n // 2
    best = [None] * (half + 1)
    for hi in range(1 << (n - low)):
        nb_hi = 0
        for j in range(n - low):
            if hi >> j & 1:
                nb_hi |= adj[low + j]
        mask_hi = np.uint64(hi << low)
        bnd = np.bitwise_count((nb_low | np.uint64(nb_hi)) & ~(masks_low | mask_hi))
        size = pop_low + hi.bit_count()
        for k in range(1, half + 1):
            sel = bnd[size == k]
            if sel.size:
                m = int(sel.min())
                if best[k] is None or m < best[k]:
                    best[k] = m
    return min(Fraction(best[k], k) for k in range(1, half + 1) if best[k] is not None)


def gaussian_binomial(n: int, k: int, p: int) -> int:
    num = den = 1
    for i in range(k):
        num *= p ** (n - i) - 1
        den *= p ** (k - i) - 1
    return num // den


def subspace_count(n: int, p: int) -> int:
    """Number of subspaces with 1 <= dim <= n/2: the full exhaustive scan."""
    return sum(gaussian_binomial(n, k, p) for k in range(1, n // 2 + 1))


def _batch_rank(a: np.ndarray, p: int) -> np.ndarray:
    """Rank over GF(p) of each matrix in a (batch, rows, cols) array."""
    a = a % p
    batch, n_rows, n_cols = a.shape
    rank = np.zeros(batch, dtype=np.int64)
    row_ix = np.arange(n_rows)
    inverse = np.array([0] + [pow(x, p - 2, p) for x in range(1, p)], dtype=np.int64)
    for col in range(n_cols):
        cand = (a[:, :, col] != 0) & (row_ix[None, :] >= rank[:, None])
        b = np.nonzero(cand.any(axis=1))[0]
        if not b.size:
            continue
        piv, top = cand[b].argmax(axis=1), rank[b]
        swap = a[b, piv].copy()
        a[b, piv] = a[b, top]
        pivot_row = (swap * inverse[swap[:, col]][:, None]) % p
        a[b, top] = pivot_row
        factors = a[b, :, col].copy()
        factors[np.arange(b.size), top] = 0
        a[b] = (a[b] - factors[:, :, None] * pivot_row[:, None, :]) % p
        rank[b] += 1
    return rank


def subspace_h(p: int, tensor, basis) -> Fraction:
    """h_F for the subspace spanned by ``basis`` (rows of length dim V)."""
    num = _numerators(p, np.array(tensor, dtype=np.int64), np.array([basis], dtype=np.int64))
    return Fraction(int(num[0]), len(basis))


def _numerators(p: int, tensor: np.ndarray, bases: np.ndarray) -> np.ndarray:
    """rank R_F - rank M_F for each basis in a (batch, k, n) array."""
    batch, k, n = bases.shape
    r = np.einsum("bai,ije->baej", bases, tensor).reshape(batch, -1, n) % p
    m = np.einsum("brj,bcj->brc", r, bases) % p
    return _batch_rank(r, p) - _batch_rank(m, p)


_CHUNK = 4096


def _profile_bases(n: int, p: int, pivots: tuple[int, ...]):
    """All RREF bases with the given pivot columns, fills in lexicographic
    order of the free entries (row-major), in chunks of at most 4096."""
    pivset = set(pivots)
    free = [(r, c) for r, pc in enumerate(pivots) for c in range(pc + 1, n) if c not in pivset]
    base = np.zeros((len(pivots), n), dtype=np.int64)
    for r, pc in enumerate(pivots):
        base[r, pc] = 1
    total = p ** len(free)
    for start in range(0, total, _CHUNK):
        idx = np.arange(start, min(total, start + _CHUNK), dtype=np.int64)
        chunk = np.repeat(base[None], idx.size, axis=0)
        for pos, (r, c) in enumerate(free):
            chunk[:, r, c] = idx // p ** (len(free) - 1 - pos) % p
        yield chunk


def subspace_cheeger_exhaustive(p: int, tensor):
    """(value, first minimizer, subspaces visited) over every subspace with
    1 <= dim <= n/2, in the canonical order: dimension ascending, pivot sets
    lexicographic, then fills of the free entries lexicographic.  The scan
    stops at the first zero, as h_F >= 0."""
    n = len(tensor)
    t = np.array(tensor, dtype=np.int64)
    best = minimizer = None
    visited = 0
    for k in range(1, n // 2 + 1):
        for pivots in itertools.combinations(range(n), k):
            for chunk in _profile_bases(n, p, pivots):
                num = _numerators(p, t, chunk)
                i = int(num.argmin())
                if best is None or Fraction(int(num[i]), k) < best:
                    best, minimizer = Fraction(int(num[i]), k), chunk[i].tolist()
                    if not best:
                        return best, minimizer, visited + i + 1
                visited += num.size
    return best, minimizer, visited


def _coordinate_subspaces(n: int):
    for k in range(1, n // 2 + 1):
        for combo in itertools.combinations(range(n), k):
            yield [[1 if j == c else 0 for j in range(n)] for c in combo]


def _first_minimum(p: int, tensor, subspaces):
    best = minimizer = None
    visited = 0
    for basis in subspaces:
        visited += 1
        h = subspace_h(p, tensor, basis)
        if best is None or h < best:
            best, minimizer = h, basis
            if not h:
                break
    return best, minimizer, visited


def subspace_cheeger_coordinate(p: int, tensor):
    """(value, first minimizing coordinate subspace, subspaces visited)."""
    return _first_minimum(p, tensor, _coordinate_subspaces(len(tensor)))


def solve(job: list):
    """Result of one reference job, in JSON form.

    ``["graph_cheeger", n, edges]`` gives h as a string;
    ``["subspace_exhaustive" | "subspace_coordinate", p, tensor]`` gives
    ``[h, minimizer rows, subspaces visited]``.
    """
    kind, *args = job
    if kind == "graph_cheeger":
        return str(graph_cheeger(*args))
    scan = {"subspace_exhaustive": subspace_cheeger_exhaustive,
            "subspace_coordinate": subspace_cheeger_coordinate}[kind]
    value, minimizer, visited = scan(*args)
    return [str(value), minimizer, visited]


if __name__ == "__main__":
    # Jobs arrive as a JSON list on stdin; results leave as a JSON list on stdout.
    json.dump([solve(job) for job in json.load(sys.stdin)], sys.stdout)
