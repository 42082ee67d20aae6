#!/usr/bin/env python3
"""Cross-check exact elimination against a dense Fraction Gauss-Jordan.

    PYTHONPATH=src python scripts/rref_oracle_sweep.py --count 60 --seed 0

Each sample is one of three kinds of input:
- a Chevalley-Eilenberg structure (h3 and h5 on their adjoint and coadjoint
  modules, the corpus setups and their induced structures) moved by a
  random unit-triangular change of basis of the algebra and of the module,
  so its differentials are dense;
- a rank-deficient product (r x k)(k x c) with k below both sides;
- a zero-heavy matrix whose entries have denominators up to 2^61 - 1.

`Matrix.rref`, `Matrix.rank` and `Matrix.kernel_basis` of each matrix,
`Matrix.solve` of b = A y (y drawn) and, when the rank is below the row
count, of b + w for a nonzero w with w^T A = 0 (off the image, so no
solution), `Matrix.invert` of its leading square block (singular or not),
and `ce_cohomology_dims` of each structure, are compared with `oracle_rref`
below, which is written here and shares no code with the library's
elimination.  Shapes reach 50 x 50,
past the 6 x 9 of the hypothesis tests.  On each moved structure the two
forms of the differential are compared as well: `ce_differential_cochain`
of a drawn cochain of each degree 0-2 (its signed terms) against
`ce_differential` applied to the cochain's coordinates (its integer
columns).

Before the samples, `ce_cohomology_dims` is compared on fixed structures:
the induced structures of the Heisenberg ladder h3, h5 and h7
(`corpus.heisenberg_ladder`: a sparse Reynolds operator of a nilpotent
derivation, and a dense T = h^{-1} for a unit upper-triangular h drawn from
the seed) up to degree 2, and up to degree 3 for h3 and h5, and the induced
structures of the singular single-entry operators on sl2 acting on itself
with H = 0, up to degree 3.  On each, every degree n >= 1 also checks the
lemma `ce_cohomology_dims` rests on: the columns of delta^n outside the
pivots of the rref of the columns of delta^{n-1} have the rank of delta^n;
the dense h7 checks it in degree 3 as well.

On the operators the oracle finds invertible (the whole ladder), the two
routes of operator cohomology are compared as well: H = -delta(T^{-1})
exactly, the lemma behind the route; `ce_cohomology_dims` of g acting on M
equals the oracle-checked dimensions of the induced structure; and
`cohomology_of_t_dims`, which takes the (g, M) route for an invertible T,
equals both.  The sweep exits 1 at the first disagreement, a disagreement
of the two forms of the differential included, and 0 when every check
agrees.
"""
import argparse
import random
from fractions import Fraction

from twistrb import corpus
from twistrb.errors import SingularMatrix
from twistrb.exactlin import Matrix
from twistrb.liealg import (
    Representation,
    adjoint_rep,
    ce_cohomology_dims,
    ce_differential,
    ce_differential_cochain,
    coadjoint_rep,
    lie_algebra,
)
from twistrb.linfty import cohomology_of_t_dims, induced_structure
from twistrb.multilin import Cochain

WIDE = (2**61 - 1, 10**9 + 7, 2**64)


def oracle_rref(rows: list[list[Fraction]], width: int) -> tuple[list[list[Fraction]], tuple[int, ...]]:
    """Gauss-Jordan on dense Fraction lists: first nonzero pivot in column order, pivots scaled to 1."""
    m = [list(row) for row in rows]
    pivots: list[int] = []
    for c in range(width):
        r = len(pivots)
        p = next((i for i in range(r, len(m)) if m[i][c]), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        pv = m[r][c]
        m[r] = [x / pv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
    return m, tuple(pivots)


def unit_triangular(rng: random.Random, n: int) -> tuple[Matrix, Matrix]:
    """A random unit upper-triangular integer matrix and its inverse (from the oracle)."""
    p = [[1 if i == j else rng.choice((-2, -1, 0, 1, 2)) if j > i else 0 for j in range(n)] for i in range(n)]
    aug, _ = oracle_rref([[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(p)], 2 * n)
    return Matrix.from_rows(p), Matrix.from_rows([row[n:] for row in aug])


def moved(rng: random.Random, algebra, rep):
    """The structure in the basis given by the columns of P (algebra) and Q (module)."""
    n, m = algebra.dim, rep.module_dim
    p, p_inv = unit_triangular(rng, n)
    q, q_inv = unit_triangular(rng, m)
    table = {}
    for a in range(n):
        for b in range(a + 1, n):
            value = [Fraction(0)] * n
            for i in range(n):
                for j in range(n):
                    if p[i, a] and p[j, b]:
                        v = algebra.bracket.value_on_tuple((i, j))
                        value = [x + p[i, a] * p[j, b] * y for x, y in zip(value, v)]
            table[(a, b)] = p_inv.apply(value)
    action = []
    for a in range(n):
        rho = Matrix.zero(m, m)
        for i in range(n):
            if p[i, a]:
                rho = rho + rep.action[i].scale(p[i, a])
        action.append(q_inv @ rho @ q)
    return lie_algebra(n, table), Representation(m, tuple(action))


def structures():
    out = [(corpus.heisenberg(k), rep(corpus.heisenberg(k))) for k in (1, 2) for rep in (adjoint_rep, coadjoint_rep)]
    for _, setup, t in corpus.trb_instances():
        out.append((setup.algebra, setup.rep))
        out.append(induced_structure(setup, t))
    return out


def ladder(rng: random.Random):
    """(label, setup, operator, degree): the Heisenberg ladder and the singular single-entry
    operators on sl2 acting on itself with H = 0."""
    out = [(label, setup, t, 2 if label.startswith("h7") else 3) for label, setup, t in corpus.heisenberg_ladder(rng)]
    out += [(name, setup, t, 3) for name, setup, t in corpus.sl2_single_entry_operators()]
    return out


def oracle_rank(m: Matrix) -> int:
    return len(oracle_rref([list(m.row(i)) for i in range(m.rows)], m.cols)[1])


def oracle_dims(deltas: list[Matrix]) -> list[int]:
    ranks = [oracle_rank(d) for d in deltas]
    return [d.cols - r - prev for d, r, prev in zip(deltas, ranks, [0] + ranks)]


def complement_keeps_rank(prev: Matrix, delta: Matrix) -> bool:
    """rank of the columns of delta outside the pivots of the rref of prev's columns == rank delta."""
    _, pivots = oracle_rref([list(prev.col(j)) for j in range(prev.cols)], prev.rows)
    outside = [j for j in range(delta.cols) if j not in set(pivots)]
    return oracle_rank(Matrix.from_rows([[delta[i, j] for j in outside] for i in range(delta.rows)])) == oracle_rank(delta)


def ladder_disagreement(label: str, algebra, rep, n_max: int) -> str | None:
    deltas = [ce_differential(algebra, rep, n) for n in range(n_max + 1)]
    if ce_cohomology_dims(algebra, rep, n_max) != oracle_dims(deltas):
        return f"ce_cohomology_dims of {label} to degree {n_max}"
    for n in range(1, n_max + 1):
        if not complement_keeps_rank(deltas[n - 1], deltas[n]):
            return f"the rank of delta^{n} of {label} on a complement of the previous image"
    return None


def routes_disagreement(label: str, setup, t: Matrix, induced_dims: list[int]) -> str | None:
    """For an invertible T: H = -delta(T^{-1}), and both cohomology routes give `induced_dims`."""
    h = Cochain.from_matrix_map(t.invert())
    if setup.cocycle != -ce_differential_cochain(setup.algebra.bracket, setup.rep, h):
        return f"H = -delta(T^-1) on {label}"
    n_max = len(induced_dims) - 1
    if ce_cohomology_dims(setup.algebra, setup.rep, n_max) != induced_dims:
        return f"ce_cohomology_dims of (g, M) against the induced structure of {label} to degree {n_max}"
    if cohomology_of_t_dims(setup, t, n_max) != induced_dims:
        return f"cohomology_of_t_dims of {label} to degree {n_max}"
    return None


def entry(rng: random.Random, wide: bool) -> Fraction:
    if rng.random() < 0.4:
        return Fraction(0)
    if wide:
        return Fraction(rng.randint(-(2**64), 2**64), rng.choice((rng.randint(1, 2**61 - 1),) + WIDE))
    return Fraction(rng.randint(-5, 5), rng.randint(1, 3))


def random_matrix(rng: random.Random, rows: int, cols: int, wide: bool) -> Matrix:
    return Matrix(rows, cols, [entry(rng, wide) for _ in range(rows * cols)])


def forms_disagreement(rng: random.Random, algebra, rep, deltas: list[Matrix]) -> str | None:
    """delta_CE of a drawn cochain of each degree by its signed terms against the matrix of that degree."""
    for n, delta in enumerate(deltas):
        f = Cochain.from_vec(n, algebra.dim, rep.module_dim, [entry(rng, rng.random() < 0.5) for _ in range(delta.cols)])
        if ce_differential_cochain(algebra.bracket, rep, f).vec() != delta.apply(f.vec()):
            return f"ce_differential_cochain against ce_differential in degree {n}"
    return None


def oracle_kernel(form: list[list[Fraction]], pivots: tuple[int, ...], width: int) -> list[tuple[Fraction, ...]]:
    """One null vector per free column in column order, that free variable 1 and the others 0."""
    basis = []
    for free in range(width):
        if free not in pivots:
            v = [Fraction(0)] * width
            v[free] = Fraction(1)
            for r, c in enumerate(pivots):
                v[c] = -form[r][free]
            basis.append(tuple(v))
    return basis


def oracle_solve(rows: list[list[Fraction]], b: list[Fraction], width: int) -> tuple[Fraction, ...] | None:
    """The solution with every free variable 0, from the Gauss-Jordan of [A | b]; None when inconsistent."""
    form, pivots = oracle_rref([row + [x] for row, x in zip(rows, b)], width + 1)
    if width in pivots:
        return None
    x = [Fraction(0)] * width
    for r, c in enumerate(pivots):
        x[c] = form[r][width]
    return tuple(x)


def solved_disagreement(rng: random.Random, m: Matrix, rows: list[list[Fraction]], form, pivots) -> str | None:
    """kernel_basis, solve of b = A y and of a b off the image, and invert of the leading square block."""
    shape = f"{m.rows}x{m.cols}"
    if m.kernel_basis() != oracle_kernel(form, pivots, m.cols):
        return f"kernel_basis of a {shape} matrix"
    y = [entry(rng, rng.random() < 0.5) for _ in range(m.cols)]
    b = [sum((a * x for a, x in zip(row, y)), Fraction(0)) for row in rows]
    expected = oracle_solve(rows, b, m.cols)
    if expected is None or m.solve(b) != expected:
        return f"solve of b = A y on a {shape} matrix"
    if len(pivots) < m.rows:
        # b + w is off the image for a nonzero w with w^T A = 0: w . (b + w) = w . w
        t_form, t_pivots = oracle_rref([list(m.col(j)) for j in range(m.cols)], m.rows)
        w = oracle_kernel(t_form, t_pivots, m.rows)[0]
        off = [x + z for x, z in zip(b, w)]
        if oracle_solve(rows, off, m.cols) is not None or m.solve(off) is not None:
            return f"solve of a b off the image of a {shape} matrix"
    k = min(m.rows, m.cols)
    square = Matrix.from_rows([row[:k] for row in rows[:k]])
    aug, aug_pivots = oracle_rref([row[:k] + [Fraction(int(i == j)) for j in range(k)] for i, row in enumerate(rows[:k])], 2 * k)
    rank = sum(1 for c in aug_pivots if c < k)
    try:
        inverse = square.invert()
    except SingularMatrix as exc:
        if rank == k or str(exc) != f"rank {rank} < {k}":
            return f"invert of the leading {k}x{k} block of a {shape} matrix"
    else:
        if rank < k or inverse != Matrix.from_rows([row[k:] for row in aug]):
            return f"invert of the leading {k}x{k} block of a {shape} matrix"
    return None


def disagreement(rng: random.Random, m: Matrix) -> str | None:
    rows = [list(m.row(i)) for i in range(m.rows)]
    form, pivots = oracle_rref(rows, m.cols)
    expected = (Matrix(m.rows, m.cols, [x for row in form for x in row]), pivots)
    if m.rref() != expected:
        return f"rref of a {m.rows}x{m.cols} matrix"
    if m.rank() != len(pivots):
        return f"rank of a {m.rows}x{m.cols} matrix"
    return solved_disagreement(rng, m, rows, form, pivots)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--count", type=int, default=60)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    rng = random.Random(args.seed)
    print(f"seed: {args.seed}")

    structures_checked = ladder(random.Random(args.seed))  # its own stream, so the samples stay those of the seed
    invertible = 0
    for label, setup, t, n_max in structures_checked:
        induced = induced_structure(setup, t)
        problem = ladder_disagreement(label, *induced, n_max)
        if problem is None and t.rows == t.cols and oracle_rank(t) == t.rows:
            invertible += 1
            problem = routes_disagreement(label, setup, t, ce_cohomology_dims(*induced, n_max))
        if problem is not None:
            print(f"DISAGREEMENT: {problem}")
            return 1
    label, setup, t, _ = next(s for s in structures_checked if s[0] == "h7 dense")
    algebra, rep = induced_structure(setup, t)
    if not complement_keeps_rank(ce_differential(algebra, rep, 2), ce_differential(algebra, rep, 3)):
        print(f"DISAGREEMENT: the rank of delta^3 of {label} on a complement of the previous image")
        return 1
    print(f"{len(structures_checked)} ladder and sl2 structures agree with the dense Fraction oracle")
    print(f"{invertible} invertible operators agree on both cohomology routes")

    frames = structures()
    cochains = random.Random(f"cochains {args.seed}")  # its own stream, so the samples stay those of the seed
    solves = random.Random(f"solves {args.seed}")  # the same: the vectors y of b = A y
    largest, forms = (0, 0), 0
    for k in range(args.count):
        kind = k % 3
        if kind == 0:
            algebra, rep = moved(rng, *frames[rng.randrange(len(frames))])
            deltas = [ce_differential(algebra, rep, n) for n in range(3)]
            if ce_cohomology_dims(algebra, rep, 2) != oracle_dims(deltas):
                print(f"DISAGREEMENT in sample {k}: ce_cohomology_dims of a {algebra.dim}-dimensional algebra")
                return 1
            problem = forms_disagreement(cochains, algebra, rep, deltas)
            if problem is not None:
                print(f"DISAGREEMENT in sample {k}: {problem}")
                return 1
            forms += len(deltas)
            matrices = deltas
        elif kind == 1:
            r, c = rng.randint(7, 24), rng.randint(7, 24)
            inner = rng.randint(0, min(r, c) - 1)
            wide = rng.random() < 0.5
            matrices = [random_matrix(rng, r, inner, wide) @ random_matrix(rng, inner, c, wide)]
        else:
            matrices = [random_matrix(rng, rng.randint(7, 20), rng.randint(7, 20), True)]
        for m in matrices:
            problem = disagreement(solves, m)
            if problem is not None:
                print(f"DISAGREEMENT in sample {k}: {problem}")
                return 1
            largest = max(largest, (m.rows, m.cols), key=lambda s: s[0] * s[1])
    print(f"{args.count} samples agree with the dense Fraction oracle (largest {largest[0]}x{largest[1]}),")
    print("  on rref, rank, kernel_basis, solve and the invert of each leading square block")
    print(f"{forms} drawn cochains agree on both forms of the differential")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
