"""Oracles for the fusion layer, kept out of the library.

`stacked_star` is the block-by-block fusion product, an oracle for
`fusion.star`. The library's `star` writes each product map's permutation
and exponents directly, at one modulus. The product here is built the way
the library once built it: per summand a Kronecker product of the two
factors' maps, then a scale by the mu phase, then one block matrix per
(g, u). Each step takes the lcm of its inputs' moduli, so the maps it
returns can sit at smaller moduli than the library's; MonomialMatrix
equality compares them at the lcm.

`kclass_star` is the product on character tables, a route to a product's
character that never builds a bundle. `DenseCharacterSolver` is the
character expansion as two dense matrix products over every key, an
oracle for the support-indexed `fusion.CharacterSolver`.
"""

from __future__ import annotations

from math import lcm
from typing import Dict, List, Optional, Sequence, Tuple

from transfusion.cyclotomic import (
    Cyclotomic,
    MonomialMatrix,
    as_cyclotomic,
    mat_mul,
    root,
    row_reduce,
)
from transfusion.fusion import TwistContext, TwistedBundle, character_gram
from transfusion.projrep import BasisError


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


def kclass_star(
    ctx: TwistContext,
    x: Dict[Tuple[int, int], Cyclotomic],
    y: Dict[Tuple[int, int], Cyclotomic],
) -> Dict[Tuple[int, int], Cyclotomic]:
    """Character-level product of two character tables over ctx.

    Only summands fixed by the conjugator contribute to a trace, so the
    value at (g, u) sums exp(-2 pi i mu(g1, g2; u)) x(g1, u) y(g2, u) over
    factorizations g1*g2 = g with g1 fixed by u (g2 is then fixed too).
    """
    group = ctx.group
    mu_t, m = ctx.mu_table, ctx.mu.modulus
    table = {}
    for g, u in ctx.char_keys:
        acc = as_cyclotomic(0)
        for g1 in group.elements():
            if group.conjugate(g1, u) != g1:
                continue
            g2 = group.mult[group.inv[g1]][g]
            acc = acc + root(-mu_t[g1][g2][u], m) * x[(g1, u)] * y[(g2, u)]
        table[(g, u)] = acc
    return table


class DenseCharacterSolver:
    """Exact expansion of character tables over a fixed basis, dense.

    One elimination of [Gram | R^H] leaves [I | Gram^-1 R^H], the left
    inverse of the character matrix R. Each expansion is that matrix times
    the table, re-checked against every key, so a table outside the span is
    always detected, never silently projected.
    """

    def __init__(self, ctx: TwistContext, tables: Sequence[Dict[Tuple[int, int], Cyclotomic]]):
        self.keys = ctx.char_keys
        rows, adjoint, gram = character_gram(ctx, tables)
        m = len(tables)
        red, pivots = row_reduce([list(g) + list(a) for g, a in zip(gram, adjoint)])
        if pivots != list(range(m)):
            raise BasisError("basis characters are linearly dependent")
        self._left = [row[m:] for row in red]
        self._rows = rows

    def expand(
        self, table: Dict[Tuple[int, int], Cyclotomic]
    ) -> Tuple[Optional[List[Cyclotomic]], List[Tuple[int, int]]]:
        """Coefficients over the basis, plus the keys where expansion fails.

        Returns (coeffs, []) when the table lies in the span; otherwise
        (None, the keys where the table differs from its orthogonal
        projection onto the span).
        """
        vec = [table[k] for k in self.keys]
        coeffs = [row[0] for row in mat_mul(self._left, [[x] for x in vec])]
        back = mat_mul(self._rows, [[c] for c in coeffs])
        bad = [self.keys[r] for r, row in enumerate(back) if row[0] != vec[r]]
        if bad:
            return None, bad
        return coeffs, []
