"""The block-by-block fusion product, kept as an oracle for `fusion.star`.

The library's `star` writes each product map's permutation and exponents
directly, at one modulus. The product here is built the way the library
once built it: per summand a Kronecker product of the two factors' maps,
then a scale by the mu phase, then one block matrix per (g, u). Each step
takes the lcm of its inputs' moduli, so the maps it returns can sit at
smaller moduli than the library's; MonomialMatrix equality compares them
at the lcm.
"""

from __future__ import annotations

from math import lcm
from typing import Dict, List, Sequence, Tuple

from transfusion.cyclotomic import MonomialMatrix
from transfusion.fusion import TwistedBundle


def kron(a: MonomialMatrix, b: MonomialMatrix) -> MonomialMatrix:
    """Kronecker product: row i*len(b) + k pairs row i of a with row k of b."""
    m = lcm(a.modulus, b.modulus)
    ea, eb = a.exps_at(m), b.exps_at(m)
    nb = len(b)
    return MonomialMatrix(
        [p * nb + q for p in a.perm for q in b.perm],
        [x + y for x in ea for y in eb],
        m,
    )


def stack(blocks: Sequence[Tuple[int, MonomialMatrix]]) -> MonomialMatrix:
    """Block matrix whose k-th band of rows is blocks[k][1], placed at
    column offset blocks[k][0]."""
    m = lcm(1, *(b.modulus for _, b in blocks))
    perm: List[int] = []
    exps: List[int] = []
    for c0, b in blocks:
        perm.extend(c0 + p for p in b.perm)
        exps.extend(b.exps_at(m))
    return MonomialMatrix(perm, exps, m)


def stacked_star(a: TwistedBundle, b: TwistedBundle) -> TwistedBundle:
    """The fusion product through kron, scale and stack, one block per
    summand and one offset table per target fiber."""
    ctx = a.context
    group = ctx.group
    n = group.order
    dims = [0] * n
    pairs: List[List[Tuple[int, int]]] = [[] for _ in range(n)]
    offsets: List[Dict[Tuple[int, int], int]] = [dict() for _ in range(n)]
    for g1 in range(n):
        if not a.dims[g1]:
            continue
        for g2 in range(n):
            if not b.dims[g2]:
                continue
            g = group.mult[g1][g2]
            offsets[g][(g1, g2)] = dims[g]
            pairs[g].append((g1, g2))
            dims[g] += a.dims[g1] * b.dims[g2]
    maps: Dict[Tuple[int, int], MonomialMatrix] = {}
    mu_t, m = ctx.mu_table, ctx.mu.modulus
    for g in range(n):
        if not dims[g]:
            continue
        for u in range(n):
            h = group.conjugate(g, u)
            blocks = []
            for g1, g2 in pairs[g]:
                block = kron(a.maps[(g1, u)], b.maps[(g2, u)])
                c0 = offsets[h][(group.conjugate(g1, u), group.conjugate(g2, u))]
                blocks.append((c0, block.scale(-mu_t[g1][g2][u], m)))
            maps[(g, u)] = stack(blocks)
    return TwistedBundle(context=ctx, dims=tuple(dims), maps=maps)
