"""A small catalog of exactly-checkable instances.

Everything the test suite and the demo scripts sweep over lives here:
standard low-dimensional Lie algebras, validated setups built from the
invertible-cochain, Nijenhuis, Reynolds and r-matrix constructions, and
seeded random generators for operators and closed twisting cochains.
"""
from __future__ import annotations

import random
from fractions import Fraction
from typing import Iterable

from .exactlin import Matrix
from .liealg import (
    LieAlgebra,
    Representation,
    abelian,
    adjoint_rep,
    ce_differential,
    coadjoint_rep,
    lie_algebra,
    trivial_rep,
)
from .multilin import Cochain
from .operators import (
    Operator,
    TrbSetup,
    check_trb,
    gauge_transform,
    is_one_cocycle,
    nijenhuis_trb_setup,
    reynolds_from_derivation,
    reynolds_setup,
    setup_from_invertible_cochain,
    trb_setup,
)


def sl2() -> LieAlgebra:
    """Basis (e, f, h): [e,f] = h, [e,h] = -2e, [f,h] = 2f."""
    return lie_algebra(3, {(0, 1): (0, 0, 1), (0, 2): (-2, 0, 0), (1, 2): (0, 2, 0)})


def heisenberg(k: int = 1) -> LieAlgebra:
    """h_{2k+1}: [x_i, y_i] = z in the basis x_1..x_k, y_1..y_k, z; h3 is [e1, e2] = e3."""
    n = 2 * k + 1
    return lie_algebra(n, {(i, k + i): tuple(int(j == n - 1) for j in range(n)) for i in range(k)})


def affine_line() -> LieAlgebra:
    """The 2-dimensional nonabelian algebra [e1, e2] = e2."""
    return lie_algebra(2, {(0, 1): (0, 1)})


def named_algebras() -> list[tuple[str, LieAlgebra]]:
    return [
        ("sl2", sl2()),
        ("heisenberg", heisenberg()),
        ("affine", affine_line()),
        ("abelian2", abelian(2)),
        ("abelian3", abelian(3)),
    ]


def trb_instances() -> list[tuple[str, TrbSetup, Operator]]:
    """Named (setup, operator) pairs that pass the twisted Rota-Baxter check."""
    out: list[tuple[str, TrbSetup, Operator]] = []
    g_sl2, g_heis, g_aff = sl2(), heisenberg(), affine_line()

    out.append(("sl2-reynolds-id", reynolds_setup(g_sl2), Matrix.identity(3)))
    out.append(("heis-reynolds-zero", reynolds_setup(g_heis), Matrix.zero(3, 3)))

    d = Matrix.from_rows([[0, 0, 0], [0, 0, 0], [1, 0, 0]])
    out.append(("heis-reynolds-deriv", reynolds_setup(g_heis), reynolds_from_derivation(g_heis, d)))

    s, t = setup_from_invertible_cochain(g_aff, adjoint_rep(g_aff), Matrix.from_rows([[1, 1], [0, 1]]))
    out.append(("affine-hinv", s, t))
    s, t = setup_from_invertible_cochain(
        g_sl2, adjoint_rep(g_sl2), Matrix.from_rows([[1, 0, 1], [0, 2, 0], [0, 0, 3]])
    )
    out.append(("sl2-hinv", s, t))
    s, t = setup_from_invertible_cochain(g_heis, coadjoint_rep(g_heis), Matrix.from_rows([[1, 1, 0], [0, 1, 0], [1, 0, 2]]))
    out.append(("heis-coadj-hinv", s, t))

    s, t = nijenhuis_trb_setup(g_aff, Matrix.from_rows([[2, 0], [0, 3]]))
    out.append(("affine-nijenhuis", s, t))
    s, t = nijenhuis_trb_setup(g_sl2, Matrix.identity(3).scale(2))
    out.append(("sl2-nijenhuis-2id", s, t))
    s, t = nijenhuis_trb_setup(g_heis, Matrix.from_rows([[2, 0, 0], [0, 1, 0], [0, 0, 2]]))
    out.append(("heis-nijenhuis-diag", s, t))

    ab3 = abelian(3)
    s = trb_setup(ab3, trivial_rep(ab3, 2), None)
    out.append(("abelian-zero", s, Matrix.zero(3, 2)))

    # gauge transforms of the invertible-cochain instance
    base_name, base_s, base_t = out[3]
    b = _first_admissible_cocycle(base_s, base_t)
    if b is not None:
        out.append((f"{base_name}-gauged", base_s, gauge_transform(base_s, base_t, b)))
    return out


def sl2_single_entry_operators() -> list[tuple[str, TrbSetup, Operator]]:
    """The operators E_ij (one entry 1, i and j 1-based) on sl2 acting on itself with H = 0
    that pass the twisted Rota-Baxter check.

    Each is singular and induces a nonzero bracket and action, unlike the two
    singular operators of `trb_instances`, whose induced structures are zero.
    """
    g = sl2()
    setup = trb_setup(g, adjoint_rep(g), None)
    out = []
    for i in range(3):
        for j in range(3):
            t = Matrix(3, 3, [int((r, c) == (i, j)) for r in range(3) for c in range(3)])
            if check_trb(setup, t):
                out.append((f"sl2-rb-e{i + 1}{j + 1}", setup, t))
    return out


def heisenberg_ladder(rng: random.Random, ks: Iterable[int] = (1, 2, 3)) -> list[tuple[str, TrbSetup, Operator]]:
    """Two invertible operators on each h_{2k+1} acting on itself, labelled "h{2k+1} sparse" and
    "h{2k+1} dense".

    The sparse one is the Reynolds operator of the nilpotent derivation
    d(x_i) = y_i + z, d(y_i) = z (H = -[.,.]); the dense one is T = h^{-1}
    for a unit upper-triangular h with entries in -2..2 above the diagonal,
    drawn from `rng` row by row (H = -delta h).
    """
    out: list[tuple[str, TrbSetup, Operator]] = []
    for k in ks:
        g, n = heisenberg(k), 2 * k + 1
        d = [[0] * n for _ in range(n)]
        for i in range(k):
            d[k + i][i] = d[n - 1][i] = d[n - 1][k + i] = 1
        out.append((f"h{n} sparse", reynolds_setup(g), reynolds_from_derivation(g, Matrix.from_rows(d))))
        h = [[1 if i == j else rng.choice((-2, -1, 0, 1, 2)) if j > i else 0 for j in range(n)] for i in range(n)]
        out.append((f"h{n} dense", *setup_from_invertible_cochain(g, adjoint_rep(g), Matrix.from_rows(h))))
    return out


def _first_admissible_cocycle(setup: TrbSetup, t: Operator) -> Matrix | None:
    """A nonzero closed 1-cochain B with id + B.T invertible, if one exists."""
    delta1 = ce_differential(setup.algebra, setup.rep, 1)
    for vec in delta1.kernel_basis():
        b = _unflatten(vec, setup.module_dim, setup.dim)
        if b.is_zero():
            continue
        perturbed = Matrix.identity(setup.module_dim) + b @ t
        if perturbed.rank() == setup.module_dim and is_one_cocycle(setup, b):
            return b
    return None


def _unflatten(flat, rows: int, cols: int) -> Matrix:
    cochain = Cochain.from_vec(1, cols, rows, flat)
    return cochain.matrix


def random_operator(rng: random.Random, setup: TrbSetup, bound: int = 2) -> Operator:
    rows, cols = setup.operator_shape()
    return Matrix(rows, cols, [Fraction(rng.randint(-bound, bound)) for _ in range(rows * cols)])


def random_matrix(rng: random.Random, rows: int, cols: int, bound: int = 2) -> Matrix:
    return Matrix(rows, cols, [Fraction(rng.randint(-bound, bound)) for _ in range(rows * cols)])


def random_cocycle(rng: random.Random, algebra: LieAlgebra, rep: Representation, bound: int = 2) -> Cochain:
    """A random exact-rational 2-cocycle, sampled from the kernel of the differential."""
    delta2 = ce_differential(algebra, rep, 2)
    kernel = delta2.kernel_basis()
    m = rep.module_dim
    total = Cochain.zero(2, algebra.dim, m)
    for vec in kernel:
        c = rng.randint(-bound, bound)
        if c:
            total = total + Cochain.from_vec(2, algebra.dim, m, vec).scale(Fraction(c))
    return total


def random_setups(rng: random.Random, count: int) -> Iterable[TrbSetup]:
    """Validated setups with randomly sampled closed twisting cochains."""
    frames: list[tuple[LieAlgebra, Representation]] = []
    for _, g in named_algebras():
        frames.append((g, adjoint_rep(g)))
        frames.append((g, coadjoint_rep(g)))
        frames.append((g, trivial_rep(g, 2)))
    made = 0
    while made < count:
        g, rep = frames[rng.randrange(len(frames))]
        h = random_cocycle(rng, g, rep)
        yield trb_setup(g, rep, h)
        made += 1
