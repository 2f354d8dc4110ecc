"""The all-node tail integral on uniform-k markets, kept as an independent
oracle for the closed-form segments of _UniformK.tail_integral: every live
k-segment of every threshold takes _TAIL_NODES Gauss-Legendre nodes, in one
call per block, and the profit density p is priced at every node, the cap
test ratio k > t included.  Patch it over _UniformK._tail_block to price J
the all-node way."""

import numpy as np

from remenu.quadrature import gauss_legendre
from remenu.type_space import _TAIL_NODES


def all_node_tail_block(dist, t: np.ndarray, slope: float, ratio: float, capped) -> np.ndarray:
    edges = dist._k_edges(t[:, None], ratio)
    lo, hi = edges[:, :-1], edges[:, 1:]
    # The tail is 0, 1 or strictly between throughout a segment: its middle
    # tells which.  Only live segments get nodes, only partial ones the tail.
    tail = dist.conditional_tail(0.5 * (lo + hi), t[:, None])
    live = (hi > lo) & (tail > 0.0)
    row = np.nonzero(live)[0]
    lo, hi, tail, t = lo[live], hi[live], tail[live], t[row]
    k, w = gauss_legendre(lo[:, None], hi[:, None], _TAIL_NODES)
    tk = np.repeat(t[:, None], _TAIL_NODES, axis=1)
    p = tk - slope * k
    cap = ratio * k > tk
    p[cap] = capped(k[cap], tk[cap])
    vals = p * w
    part = tail < 1.0
    if part.any():
        vals[part] *= dist.conditional_tail(k[part], tk[part])
    return np.bincount(row, vals.sum(axis=-1) * (1.0 / (dist.k_hi - dist.k_lo)), len(live))
