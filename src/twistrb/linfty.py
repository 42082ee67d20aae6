"""The governing graded structure on multilinear maps from the module to g.

Hom(wedge^p M, g) sits in degree p, so operators T : M -> g are the degree-1
elements.  Every bracket is a derived bracket (Voronov): the elements are
embedded as skew maps on g (+) M, nested into the graded bracket of skew maps
with the twisted semidirect bracket Delta = mu + H, and the result is
restricted back to maps M -> g (the projection P).  The binary bracket
preserves degree and the ternary bracket (which carries H) lowers it by one:

    [[P,Q]] = (-1)^{|P|} P[[Delta,P],Q],
    [[P,Q,R]] = (-1)^{|Q|+1} P[[[Delta,P],Q],R].

An operator satisfies the twisted Rota-Baxter identity exactly when its
Maurer-Cartan expression (1/2)[[T,T]] - (1/6)[[T,T,T]] vanishes, and

    d_T(f) = [[T, f]] - (1/2)[[T, T, f]]

is the differential of the operator's cohomology.  The same formulas hold on
degree-0 elements of g.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .errors import DimensionMismatch, InternalInconsistency
from .exactlin import Matrix, _from_table
from .liealg import (
    LieAlgebra,
    Representation,
    ce_cohomology_dims,
    ce_differential,
    ce_differential_cochain,
)
from .multilin import Cochain, _int_table, _tuple_index, bind, ext_basis, iter_unshuffles, tabulate
from .operators import (
    Operator,
    TrbSetup,
    check_trb,
    induced_action_matrices,
    induced_bracket_cochain,
    require_trb,
    twisted_semidirect_cochain,
)
from .report import CheckReport


def _check_element(setup: TrbSetup, p: Cochain) -> None:
    if p.source_dim != setup.module_dim or p.target_dim != setup.dim:
        raise DimensionMismatch("element does not live over this setup")


def zero_element(setup: TrbSetup, degree: int) -> Cochain:
    return Cochain.zero(degree, setup.module_dim, setup.dim)


def operator_element(setup: TrbSetup, t: Operator) -> Cochain:
    return Cochain.from_matrix_map(t)


# Every bracket below is a derived bracket: the graded bracket of skew
# multilinear maps on g (+) M, built from the insertion of one map into
# another, nested with Delta and the embedded elements, then restricted.  The
# paper's three-unshuffle-sum display of the binary bracket agrees with it in
# every degree, and the six-sum display of the ternary bracket whenever all
# arguments have degree >= 1 (the tests compare both); extended literally to
# degree-0 arguments, the six-sum display breaks the higher Jacobi identities.


def _insertion_terms(a, alpha: int, b, beta: int, constant, sign: int) -> list:
    """Signed terms of sign * (A o B) for A of degree alpha and B of degree beta, where (A o B)(v_*)
    is the sum over Sh(beta, alpha - 1) of sgn A(B(...), rest); slot k is v_k, and a degree-0 B
    enters as its constant vector."""
    terms = []
    for word, sgn in iter_unshuffles((beta, alpha - 1)):
        inner = (b, *word[:beta]) if beta else constant
        terms.append((sign * sgn, (a, inner, *word[beta:])))
    return terms


def _nr_maps(a: Cochain, b: Cochain) -> tuple:
    """The maps of `_nr_terms`: (A, B, then the constant vector of each of A and B of degree 0, else None)."""
    return (a, b, *(p.matrix.col(0) if p.degree == 0 else None for p in (a, b)))


def _nr_terms(maps: tuple, alpha: int, beta: int) -> list:
    """Signed terms of the graded bracket A o B - (-1)^{|A||B|} B o A of skew maps over `_nr_maps(A, B)`,
    A of degree alpha and B of degree beta, where the grading is arity minus one; slot k is v_k."""
    a, b, a0, b0 = maps
    odd = (alpha - 1) * (beta - 1) % 2
    return _insertion_terms(a, alpha, b, beta, b0, 1) + _insertion_terms(b, beta, a, alpha, a0, 1 if odd else -1)


def _projected_nr_terms(maps: tuple, alpha: int, beta: int) -> list:
    """P of the graded bracket of skew maps over (P, *`_nr_maps`(A, B))."""
    proj, *nr = maps
    return [(1, (proj, _nr_terms(tuple(nr), alpha, beta)))]


def nr_bracket(a: Cochain, b: Cochain) -> Cochain:
    """The graded bracket of skew maps (`_nr_terms`), tabulated on the basis tuples of its arity."""
    big = a.source_dim
    arity = a.degree + b.degree - 1
    terms = bind(_nr_terms, (a.degree, b.degree), _nr_maps(a, b))
    return Cochain(arity, big, big, tabulate(terms, ext_basis(big, arity), big))


def _embed(setup: TrbSetup, p: Cochain) -> Cochain:
    """View a map wedge^p M -> g as a skew map on g (+) M (g first): p's integer table,
    each column re-keyed by its tuple shifted past g."""
    n, m = setup.dim, setup.module_dim
    big, degree = n + m, p.degree
    columns, scale = _int_table(p.matrix)[:2]
    index, basis = _tuple_index(big, degree), ext_basis(m, degree)
    table = {index[tuple(i + n for i in basis[j])]: col for j, col in columns.items()}
    return Cochain(degree, big, big, _from_table(big, len(index), table, scale))


def _restrict(setup: TrbSetup, a: Cochain) -> Cochain:
    """Restrict inputs to M and project values to g; zero outside range: the columns of a's
    integer table on the tuples of M (shifted past g), cut to the g rows."""
    n, m = setup.dim, setup.module_dim
    columns, scale = _int_table(a.matrix)[:2]
    index, basis = _tuple_index(n + m, a.degree), ext_basis(m, a.degree)
    table = {}
    for j, t in enumerate(basis):
        col = columns.get(index[tuple(i + n for i in t)])
        if col:
            kept = {row: x for row, x in col.items() if row < n}
            if kept:
                table[j] = kept
    return Cochain(a.degree, m, n, _from_table(n, len(basis), table, scale))


def _derived(setup: TrbSetup, elements: Sequence[Cochain], head: Cochain | None = None) -> list[Cochain]:
    """P[head, e_1], P[[head, e_1], e_2], ...: one projection per element.

    `head` is a skew map on g (+) M and defaults to the twisted semidirect
    bracket Delta; each distinct element is checked and embedded once,
    before it is first bracketed in, so an element given again (T in
    `mc_defect`) brings back the one embedding and its integer table.
    Every bracket but the last is tabulated in full, since the next one
    reads it; the last is read only through P, so it is tabulated only on
    the tuples of M (shifted past g), through the projection onto g.
    """
    n, m = setup.dim, setup.module_dim
    raw = twisted_semidirect_cochain(setup) if head is None else head
    out, embedded = [], {}
    for k, e in enumerate(elements):
        lifted = embedded.get(id(e))
        if lifted is None:
            _check_element(setup, e)
            lifted = embedded[id(e)] = _embed(setup, e)
        if k + 1 < len(elements):
            raw = nr_bracket(raw, lifted)
            out.append(_restrict(setup, raw))
        else:
            arity = raw.degree + lifted.degree - 1
            proj = _from_table(n, n + m, {i: {i: 1} for i in range(n)}, 1)
            cases = [tuple(i + n for i in t) for t in ext_basis(m, arity)]
            terms = bind(_projected_nr_terms, (raw.degree, lifted.degree), (proj, *_nr_maps(raw, lifted)))
            out.append(Cochain(arity, m, n, tabulate(terms, cases, n)))
    return out


def bracket2(setup: TrbSetup, p: Cochain, q: Cochain) -> Cochain:
    """The degree-preserving bracket (-1)^{|P|} P[[Delta,P],Q]; on constants
    it is the bracket of g."""
    return _derived(setup, (p, q))[1].scale(Fraction((-1) ** p.degree))


def bracket3(setup: TrbSetup, p: Cochain, q: Cochain, r: Cochain) -> Cochain:
    """The degree-lowering ternary bracket (-1)^{|Q|+1} P[[[Delta,P],Q],R].

    Only H contributes, and the sign is pinned by [[T,T,T]](u,v) =
    -6 T(H(Tu,Tv)) and by the degree-0 formula used by the deformation
    differential.
    """
    return _derived(setup, (p, q, r))[2].scale(Fraction((-1) ** (q.degree + 1)))


def mc_defect(setup: TrbSetup, t: Operator) -> tuple[Cochain, CheckReport]:
    """(1/2)[[T,T]] - (1/6)[[T,T,T]], which is zero exactly when T passes
    check_trb, together with the check_trb report it is compared with.

    Both brackets come from one chain [Delta,T], [[Delta,T],T],
    [[[Delta,T],T],T].  The biconditional with the direct identity is checked
    on every call.
    """
    te = operator_element(setup, t)
    _, b2, b3 = _derived(setup, (te, te, te))
    defect = b2.scale(Fraction(-1, 2)) - b3.scale(Fraction(1, 6))
    direct = check_trb(setup, t)
    if defect.is_zero() != direct.ok:
        raise InternalInconsistency("Maurer-Cartan and direct verdicts disagree")
    return defect, direct


def d_t(setup: TrbSetup, t: Operator, f: Cochain) -> Cochain:
    """d_T(f) = [[T,f]] - (1/2)[[T,T,f]]; requires T to pass check_trb."""
    require_trb(setup, t)
    return d_t_unchecked(setup, t, f)


def d_t_unchecked(setup: TrbSetup, t: Operator, f: Cochain) -> Cochain:
    """-P[[Delta,T] + (1/2)[[Delta,T],T], f]; the f-independent part is formed once."""
    te = operator_element(setup, t)
    _check_element(setup, te)
    lifted = _embed(setup, te)
    once = nr_bracket(twisted_semidirect_cochain(setup), lifted)
    head = once + nr_bracket(once, lifted).scale(Fraction(1, 2))
    return -_derived(setup, (f,), head)[0]


def induced_structure(setup: TrbSetup, t: Operator) -> tuple[LieAlgebra, Representation]:
    """(M, [.,.]_T) acting on g, unvalidated: only meaningful when T passes check_trb."""
    algebra = LieAlgebra(setup.module_dim, induced_bracket_cochain(setup, t))
    return algebra, Representation(setup.dim, induced_action_matrices(setup, t))


def d_t_matrix(setup: TrbSetup, t: Operator, degree: int) -> Matrix:
    """Matrix of d_T on degree-`degree` elements in the flattened lex bases.

    Built as (-1)^degree delta_CE of the induced structure, which equals d_T
    for an operator passing check_trb (`compare_dt_ce` checks it per cochain).
    """
    delta = ce_differential(*induced_structure(setup, t), degree)
    return -delta if degree % 2 == 1 else delta


def compare_dt_ce(setup: TrbSetup, t: Operator, f: Cochain) -> bool:
    """d_T f = (-1)^n delta_CE f over the induced structure on M, exactly."""
    require_trb(setup, t)
    left = d_t_unchecked(setup, t, f)
    algebra, rep = induced_structure(setup, t)
    right = ce_differential_cochain(algebra.bracket, rep, f)
    if f.degree % 2 == 1:
        right = -right
    return left == right


def cohomology_of_t_dims(setup: TrbSetup, t: Operator, n_max: int) -> list[int]:
    """Dimensions of the operator's cohomology in degrees 0..n_max.

    Signs do not change ranks, so these are the Chevalley-Eilenberg
    dimensions of the induced structure (M, [.,.]_T) acting on g.

    When T is invertible they are those of g acting on M, whose differentials
    are far sparser.  With h = T^{-1}, [Tu,Tv] = T[u,v]_T makes T a Lie
    algebra isomorphism from (M, [.,.]_T) onto g; the identity at a = Tu,
    b = Tv reads H = -delta h; and the induced action moved along T becomes
    a . x = h^{-1}(a.h(x)), so h is a module isomorphism onto M and
    f -> h o f o h^{wedge n} an isomorphism of the two complexes.  One rank
    of T picks the route; a singular or non-square T keeps the induced one.
    """
    require_trb(setup, t)
    if t.rows == t.cols and t.rank() == t.rows:
        return ce_cohomology_dims(setup.algebra, setup.rep, n_max)
    return ce_cohomology_dims(*induced_structure(setup, t), n_max)


def twisted_bracket2(setup: TrbSetup, t: Operator, p: Cochain, q: Cochain) -> Cochain:
    """[[P,Q]]_T = [[P,Q]] - [[T,P,Q]] (the ternary bracket is unchanged)."""
    require_trb(setup, t)
    te = operator_element(setup, t)
    return bracket2(setup, p, q) - bracket3(setup, te, p, q)


def mc_defect_shifted(setup: TrbSetup, t: Operator, t_prime: Operator) -> Cochain:
    """d_T(T') + (1/2)[[T',T']]_T - (1/6)[[T',T',T']]; zero iff T+T' passes.

    The biconditional with check_trb on the sum is checked on every call.
    """
    require_trb(setup, t)
    te = operator_element(setup, t)
    tp = operator_element(setup, t_prime)
    lin = d_t_unchecked(setup, t, tp)
    quad = (bracket2(setup, tp, tp) - bracket3(setup, te, tp, tp)).scale(Fraction(1, 2))
    cub = bracket3(setup, tp, tp, tp).scale(Fraction(1, 6))
    defect = lin + quad - cub
    if defect.is_zero() != check_trb(setup, t + t_prime).ok:
        raise InternalInconsistency("shifted Maurer-Cartan and direct verdicts disagree")
    return defect


# -- higher Jacobi identities -------------------------------------------


def koszul_sign(degrees: Sequence[int], word: Sequence[int]) -> int:
    """Sign from commuting graded elements into the order given by `word`."""
    sign = 1
    for a in range(len(word)):
        for b in range(a + 1, len(word)):
            if word[a] > word[b] and degrees[word[a]] * degrees[word[b]] % 2 == 1:
                sign = -sign
    return sign


def _apply_l(setup: TrbSetup, args: Sequence[Cochain]) -> Cochain | None:
    """l_k for k = 2, 3; None for the absent l_1 and l_{k>=4}."""
    if len(args) == 2:
        return bracket2(setup, args[0], args[1])
    if len(args) == 3:
        return bracket3(setup, args[0], args[1], args[2])
    return None


def linfty_jacobi_defect(setup: TrbSetup, n: int, elements: Sequence[Cochain]) -> Cochain:
    """The n-th generalized Jacobi sum for (l_1 = 0, l_2, l_3); expected zero.

    Terms survive only for i, j in {2, 3} with i + j = n + 1; the sum runs
    over (i, n-i)-unshuffles with parity and Koszul signs on the graded
    arguments.
    """
    if len(elements) != n:
        raise DimensionMismatch(f"need {n} elements, got {len(elements)}")
    for e in elements:
        _check_element(setup, e)
    degrees = [e.degree for e in elements]
    out_deg = sum(degrees) - n + 3
    total = zero_element(setup, out_deg)
    for i in (2, 3):
        j = n + 1 - i
        if j not in (2, 3):
            continue
        outer_sign = (-1) ** (i * (j - 1))
        for word, sgn in iter_unshuffles((i, n - i)):
            inner = _apply_l(setup, [elements[k] for k in word[:i]])
            if inner.degree < 0:
                continue  # landed in the zero space
            rest = [elements[k] for k in word[i:]]
            term = _apply_l(setup, [inner, *rest])
            s = outer_sign * sgn * koszul_sign(degrees, word)
            total = total + term.scale(Fraction(s))
    return total
