"""Expected answers computed apart from the timed path.

Everything here reads the instance documents as plain JSON and works on
plain `Fraction` lists and dicts: it imports nothing from `twistrb`.  The
Chevalley-Eilenberg differential is assembled directly from structure
constants as a sparse matrix (the library applies its differential to unit
vectors), and ranks are taken modulo two large primes (the library
eliminates over Q).  A rank modulo p never exceeds the rank over Q, so the
larger of the two is the rational rank unless both primes divide the same
minor; a wrong value can only show up as a gate failure, never hide one.
"""
from __future__ import annotations

import itertools
from fractions import Fraction

PRIMES = (2_305_843_009_213_693_951, 4_611_686_018_427_388_039)


def _key(k: str) -> tuple[int, ...]:
    return tuple(int(i) - 1 for i in k.strip("[]").split(","))


def matrix(rows) -> list[list[Fraction]]:
    return [[Fraction(x) for x in row] for row in rows]


def table(values: dict) -> dict[tuple[int, ...], list[Fraction]]:
    """Keyed vectors of a bracket or cochain section, 0-based keys."""
    return {_key(k): [Fraction(x) for x in v] for k, v in values.items()}


def skew(values: dict[tuple[int, int], list[Fraction]], out_dim: int, x, y) -> list[Fraction]:
    """The skew-bilinear map with values[(i, j)] on (e_i, e_j), i < j, at (x, y)."""
    out = [Fraction(0)] * out_dim
    for (i, j), v in values.items():
        c = x[i] * y[j] - x[j] * y[i]
        if c:
            out = [a + c * b for a, b in zip(out, v)]
    return out


class Structure:
    """A Lie algebra of dimension `dim` acting on a space of dimension `vdim`.

    `bracket[(i, j)]` (i < j) holds [e_i, e_j]; `action[i][r][c]` is the
    coefficient of v_r in e_i . v_c.
    """

    def __init__(self, dim, bracket, vdim, action):
        self.dim, self.bracket, self.vdim, self.action = dim, bracket, vdim, action

    @classmethod
    def from_document(cls, doc: dict) -> "Structure":
        lie = doc["lie_algebra"]
        rep = doc["representation"]
        action = [matrix(a) for a in rep["action"]]
        return cls(lie["dim"], table(lie.get("brackets", {})), rep["module_dim"], action)

    def br(self, x, y) -> list[Fraction]:
        return skew(self.bracket, self.dim, x, y)

    def act(self, x, v) -> list[Fraction]:
        out = [Fraction(0)] * self.vdim
        for i, c in enumerate(x):
            if c:
                a = self.action[i]
                for r in range(self.vdim):
                    s = sum((a[r][k] * v[k] for k in range(self.vdim) if v[k]), Fraction(0))
                    out[r] += c * s
        return out


def _sorted_sign(t):
    lst = list(t)
    if len(set(lst)) != len(lst):
        return None, 0
    inv = sum(1 for a, b in itertools.combinations(range(len(lst)), 2) if lst[a] > lst[b])
    return tuple(sorted(lst)), (-1) ** inv


def ce_matrix(s: Structure, n: int) -> tuple[list[dict[int, Fraction]], int]:
    """Rows of delta: C^n -> C^{n+1} as sparse dicts, plus the column count.

    Column (T, r) is the cochain sending the increasing tuple T to v_r; row
    (S, r) reads coordinate r on the increasing tuple S.
    """
    dom = list(itertools.combinations(range(s.dim), n))
    cod = list(itertools.combinations(range(s.dim), n + 1))
    col_of = {t: k for k, t in enumerate(dom)}
    vd = s.vdim
    rows: list[dict[int, Fraction]] = [dict() for _ in range(len(cod) * vd)]

    def add(row, col, c):
        d = rows[row]
        v = d.get(col, 0) + c
        if v:
            d[col] = v
        else:
            d.pop(col, None)

    for si, xs in enumerate(cod):
        for pos, xi in enumerate(xs):
            rest = xs[:pos] + xs[pos + 1 :]
            sign = -1 if pos % 2 else 1
            a = s.action[xi]
            for r in range(vd):
                for q in range(vd):
                    if a[q][r]:
                        add(si * vd + q, col_of[rest] * vd + r, sign * a[q][r])
        if n == 0:
            continue
        for a_pos, b_pos in itertools.combinations(range(n + 1), 2):
            inner = s.bracket.get((xs[a_pos], xs[b_pos]))
            if inner is None:
                continue
            rest = tuple(x for p, x in enumerate(xs) if p not in (a_pos, b_pos))
            sign = -1 if (a_pos + b_pos) % 2 else 1
            for k, c in enumerate(inner):
                if not c:
                    continue
                t, tsign = _sorted_sign((k,) + rest)
                if t is None:
                    continue
                for r in range(vd):
                    add(si * vd + r, col_of[t] * vd + r, sign * tsign * c)
    return rows, len(dom) * vd


def rank_mod(rows: list[dict[int, Fraction]], p: int) -> int:
    """Rank modulo p of a sparse rational matrix (denominators prime to p)."""
    work = []
    for row in rows:
        r = {}
        for c, v in row.items():
            x = v.numerator * pow(v.denominator, -1, p) % p
            if x:
                r[c] = x
        if r:
            work.append(r)
    pivots: dict[int, dict[int, int]] = {}
    for r in work:
        while r:
            lead = min(r)
            prow = pivots.get(lead)
            if prow is None:
                inv = pow(r[lead], -1, p)
                pivots[lead] = {c: v * inv % p for c, v in r.items()}
                break
            f = r[lead]
            for c, v in prow.items():
                x = (r.get(c, 0) - f * v) % p
                if x:
                    r[c] = x
                else:
                    r.pop(c, None)
    return len(pivots)


def rank(rows: list[dict[int, Fraction]]) -> int:
    return max(rank_mod(rows, p) for p in PRIMES)


def ce_dims(s: Structure, n_max: int) -> list[int]:
    """Cohomology dimensions in degrees 0..n_max."""
    dims, prev = [], 0
    for n in range(n_max + 1):
        rows, cols = ce_matrix(s, n)
        r = rank(rows)
        dims.append(cols - r - prev)
        prev = r
    return dims


def apply_rows(rows: list[dict[int, Fraction]], x) -> list[Fraction]:
    return [sum((v * x[c] for c, v in row.items()), Fraction(0)) for row in rows]


def flatten(values: dict[tuple[int, ...], list[Fraction]], dim: int, degree: int, vdim: int) -> list[Fraction]:
    """A cochain's coordinates in the (tuple, row) order used by `ce_matrix`."""
    out = []
    for t in itertools.combinations(range(dim), degree):
        out.extend(values.get(t, [Fraction(0)] * vdim))
    return out


# -- twisted Rota-Baxter data --------------------------------------------


class Setup:
    """(g, M, action, H) read from an instance document."""

    def __init__(self, doc: dict):
        self.g = Structure.from_document(doc)
        self.n, self.m = self.g.dim, self.g.vdim
        self.h = table(doc.get("cocycle_H", {}).get("values", {}))

    def twist(self, x, y) -> list[Fraction]:
        return skew(self.h, self.m, x, y)


def col(t, a) -> list[Fraction]:
    return [row[a] for row in t]


def apply(t, v) -> list[Fraction]:
    return [sum((x * y for x, y in zip(row, v) if y), Fraction(0)) for row in t]


def matmul(a, b) -> list[list[Fraction]]:
    return [[sum((a[i][k] * b[k][j] for k in range(len(b))), Fraction(0)) for j in range(len(b[0]))] for i in range(len(a))]


def unit(n: int, i: int) -> list[Fraction]:
    return [Fraction(int(k == i)) for k in range(n)]


def defect(s: Setup, coeffs: list, k: int, i: int, j: int) -> list[Fraction]:
    """Coefficient of t^k in [Tu, Tv] - T(Tu.v - Tv.u + H(Tu, Tv)) at (u_i, u_j).

    T = sum_a t^a coeffs[a]; coefficients past the list are zero, and k = 0
    with coeffs = [T] is the defining identity itself.
    """
    def c(a):
        return coeffs[a] if a < len(coeffs) else [[Fraction(0)] * s.m for _ in range(s.n)]

    ui, uj = unit(s.m, i), unit(s.m, j)
    out = [Fraction(0)] * s.n
    for a in range(k + 1):
        out = [x + y for x, y in zip(out, s.g.br(col(c(a), i), col(c(k - a), j)))]
        tb = c(k - a)
        inner = [x - y for x, y in zip(s.g.act(col(tb, i), uj), s.g.act(col(tb, j), ui))]
        for b in range(k + 1 - a):
            inner = [x + y for x, y in zip(inner, s.twist(col(c(b), i), col(c(k - a - b), j)))]
        out = [x - y for x, y in zip(out, apply(c(a), inner))]
    return out


def first_trb_violation(s: Setup, t):
    """The lexicographically first failing basis pair (1-based) and defect."""
    for i, j in itertools.combinations(range(s.m), 2):
        d = defect(s, [t], 0, i, j)
        if any(d):
            return (i + 1, j + 1), d
    return None


def induced(s: Setup, t) -> Structure:
    """(M, [.,.]_T) acting on g: the structure whose CE complex is d_T's."""
    basis_m = [unit(s.m, a) for a in range(s.m)]
    basis_g = [unit(s.n, x) for x in range(s.n)]
    bracket = {}
    for i, j in itertools.combinations(range(s.m), 2):
        tu, tv = col(t, i), col(t, j)
        v = [a - b + c for a, b, c in zip(s.g.act(tu, basis_m[j]), s.g.act(tv, basis_m[i]), s.twist(tu, tv))]
        if any(v):
            bracket[(i, j)] = v
    action = []
    for a in range(s.m):
        ta = col(t, a)
        cols = []
        for x in range(s.n):
            inner = [p + q for p, q in zip(s.g.act(basis_g[x], basis_m[a]), s.twist(basis_g[x], ta))]
            cols.append([p + q for p, q in zip(s.g.br(ta, basis_g[x]), apply(t, inner))])
        action.append([[cols[c][r] for c in range(s.n)] for r in range(s.n)])
    return Structure(s.m, bracket, s.n, action)


def order_defects(s: Setup, coeffs: list, orders: int) -> list[bool]:
    """Whether the t^k coefficient of the defining identity vanishes, k = 1..orders."""
    pairs = list(itertools.combinations(range(s.m), 2))
    return [not any(any(defect(s, coeffs, k, i, j)) for i, j in pairs) for k in range(1, orders + 1)]


def gcs_square_is_minus_id(doc: dict) -> bool:
    """J^2 = -id for J = [[N, T], [sigma, -S]] on g (+) M."""
    comp = doc["gcs_components"]
    nm, tm, sg, sm = (matrix(comp[k]) for k in ("N", "T", "sigma", "S"))
    rows = [a + b for a, b in zip(nm, tm)] + [a + [-x for x in b] for a, b in zip(sg, sm)]
    sq = matmul(rows, rows)
    return all(sq[i][j] == -(i == j) for i in range(len(sq)) for j in range(len(sq)))


def ns_from_trb(s: Setup, t) -> tuple[dict, dict]:
    """u circ v = T(u).v and u vee v = H(Tu, Tv), keyed by 1-based pairs."""
    basis_m = [unit(s.m, a) for a in range(s.m)]
    circ = {(i + 1, j + 1): s.g.act(col(t, i), basis_m[j]) for i in range(s.m) for j in range(s.m)}
    vee = {(i + 1, j + 1): s.twist(col(t, i), col(t, j)) for i, j in itertools.combinations(range(s.m), 2)}
    return circ, vee
