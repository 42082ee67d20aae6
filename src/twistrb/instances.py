"""Parsing and serialization of instance documents.

One JSON document carries every section a command might need; commands pick
the sections they use and complain precisely about missing ones.  Basis
indices in files are 1-based ("[1,2]" keys, i < j for skew tables); scalars
are exact rationals written as JSON integers or "p"/"p/q" strings with q > 0,
and dimensions are positive JSON integers (not booleans).  Loading performs
type, shape and cross-dimension checks only; mathematical validation (Jacobi,
representation and cocycle axioms) belongs to the commands.  Every index
table (brackets, cochain values, vee, the bilinear maps) is read by
`_parse_table` and written by `_index_table`.

A scalar is read as an int when its value is integral ("-0", "007", "0/5"
and "4/2" included) and as a Fraction only otherwise; JSON integers stay
ints, and each distinct scalar string is parsed once per document.  A list
whose entries are all remembered strings is read by look-ups alone; any
other list is checked entry by entry.  Every matrix, cochain value table
and bilinear table is built as the table {column: {row: nonzero scalar}}
of `exactlin._from_scalars`, skipping rows of "0" strings, and the bracket
table keeps the parsed scalars, so an integer document reaches its integer
tables without forming a Fraction.  The public `parse_vector` returns
Fractions.
"""
from __future__ import annotations

import itertools
import json
import re
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Iterable, Sequence, Union

from .errors import InvalidStructure
from .exactlin import Matrix, Vector, _from_scalars, scalar_str, vector
from .multilin import Bilinear, Cochain, _tuple_index
from .nslie import AssocNs, NsLie
from .tgcs import LieGcsTriple


class MissingSection(InvalidStructure):
    """A command needs a section the document does not carry."""


_SCALAR = re.compile(r"(-?[0-9]+)(?:/(0*[1-9][0-9]*))?")

ParsedScalar = Union[int, Fraction]  # a parsed scalar: an int when integral, else a Fraction


def _is_int(x: Any) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _object(raw: Any, where: str) -> Mapping:
    if not isinstance(raw, Mapping):
        raise InvalidStructure(f"{where}: expected an object")
    return raw


def _section(data: Mapping, name: str) -> Mapping | None:
    raw = data.get(name)
    return None if raw is None else _object(raw, name)


def _positive_int(raw: Any, where: str) -> int:
    if not _is_int(raw) or raw < 1:
        raise InvalidStructure(f"{where} must be a positive integer")
    return raw


def _parse_key(key: str, arity: int, dim: int, where: str) -> tuple[int, ...]:
    try:
        idx = json.loads(key)
    except (ValueError, RecursionError) as exc:
        raise InvalidStructure(f"{where}: bad index key {key!r}") from exc
    if not isinstance(idx, list) or len(idx) != arity:
        raise InvalidStructure(f"{where}: key {key!r} must list {arity} indices")
    for i in idx:
        if not _is_int(i) or not (1 <= i <= dim):
            raise InvalidStructure(f"{where}: index {i} out of range 1..{dim} in {key!r}")
    return tuple(i - 1 for i in idx)


def parse_vector(raw: Sequence, length: int, where: str) -> Vector:
    """A list of exact scalars: integers, or strings "p" or "p/q" with q > 0, as Fractions."""
    return vector(_parse_vector(raw, length, where, {}))


def _parse_vector(raw: Sequence, length: int, where: str, seen: dict[str, ParsedScalar]) -> tuple[ParsedScalar, ...]:
    """The scalars of a list, each an int when its value is integral and a Fraction otherwise,
    remembering in `seen` the value of each scalar string it parses.

    A list of remembered strings only is read by look-ups in `seen`, in C;
    any other list is checked entry by entry.  `seen` is keyed by strings
    only, so a bool, a float or an int never passes for a remembered scalar
    it equals.  Every entry is checked before any is converted, as in a list
    read on its own.
    """
    if not isinstance(raw, list) or len(raw) != length:
        raise InvalidStructure(f"{where}: expected a list of {length} scalars")
    try:
        return tuple(map(seen.__getitem__, raw))
    except (KeyError, TypeError):  # an entry that is not a remembered string, or is unhashable
        pass
    new = {}
    for x in raw:
        if isinstance(x, str):
            if x in seen or x in new:
                continue
            match = _SCALAR.fullmatch(x)
            if match:
                new[x] = match
                continue
        elif _is_int(x):
            continue
        raise InvalidStructure(f'{where}: bad scalar {x!r} (expected an integer or "p/q")')
    try:
        for x, match in new.items():
            p, q = int(match[1]), int(match[2] or 1)
            seen[x] = Fraction(p, q) if p % q else p // q
    except ValueError:  # a numerator or denominator past Python's int-string digit limit
        raise InvalidStructure(f"{where}: a scalar has more digits than Python converts") from None
    return tuple([seen[x] if isinstance(x, str) else x for x in raw])


def parse_matrix(raw: Any, rows: int | None, cols: int | None, where: str) -> Matrix:
    return _parse_matrix(raw, rows, cols, where, {})


def _parse_matrix(raw: Any, rows: int | None, cols: int | None, where: str, seen: dict[str, ParsedScalar]) -> Matrix:
    """`parse_matrix`, with the scalar strings of `seen` as in `_parse_vector`: the rows are read
    in one pass into the table {column: {row: nonzero scalar}} of `exactlin._from_scalars`."""
    if not isinstance(raw, list) or not raw or not all(isinstance(r, list) for r in raw):
        raise InvalidStructure(f"{where}: expected a list of rows")
    r, c = len(raw), len(raw[0])
    if rows is not None and r != rows:
        raise InvalidStructure(f"{where}: expected {rows} rows, got {r}")
    if cols is not None and c != cols:
        raise InvalidStructure(f"{where}: expected {cols} columns, got {c}")
    table: dict[int, dict[int, ParsedScalar]] = {}
    for i, row in enumerate(raw):
        values = _parse_vector(row, c, where, seen)
        if row.count("0") == c:  # a row of "0" strings adds nothing to the table
            continue
        for j, x in enumerate(values):
            if x:
                if j in table:
                    table[j][i] = x
                else:
                    table[j] = {i: x}
    return _from_scalars(r, c, table)


def _parse_table(
    raw: Any, arity: int, dim: int, length: int, where: str, increasing: bool, seen: dict[str, ParsedScalar]
) -> dict[tuple[int, ...], tuple[ParsedScalar, ...]]:
    """An index table: keys list `arity` indices in 1..dim (strictly increasing
    if `increasing`), values `length` scalars, and no two keys name one tuple."""
    table = {}
    for key, vec in _object(raw, where).items():
        t = _parse_key(key, arity, dim, where)
        if increasing and any(a >= b for a, b in zip(t, t[1:])):
            raise InvalidStructure(f"{where}: key {key!r} must be strictly increasing")
        if t in table:
            raise InvalidStructure(f"{where}: key {key!r} names the same index tuple as an earlier key")
        table[t] = _parse_vector(vec, length, f"{where}[{key}]", seen)
    return table


def _parse_cochain(
    raw: Mapping, degree: int, source_dim: int, target_dim: int, where: str, seen: dict[str, ParsedScalar]
) -> Cochain:
    _object(raw, where)
    for field, expected in (("degree", degree), ("source_dim", source_dim), ("target_dim", target_dim)):
        if field in raw and (not _is_int(raw[field]) or raw[field] != expected):
            raise InvalidStructure(f"{where}: {field} must be {expected}, got {raw[field]}")
    values = _parse_table(raw.get("values", {}), degree, source_dim, target_dim, f"{where}.values", increasing=True, seen=seen)
    return _cochain(degree, source_dim, target_dim, values)


def _cochain(degree: int, source_dim: int, target_dim: int, values: dict[tuple[int, ...], tuple[ParsedScalar, ...]]) -> Cochain:
    """The cochain whose value on each basis tuple of an index table `_parse_table` checked is its list."""
    index = _tuple_index(source_dim, degree)
    table = _scalar_table(values, index.__getitem__)
    return Cochain(degree, source_dim, target_dim, _from_scalars(target_dim, len(index), table))


def _parse_bilinear(raw: Mapping, dim: int, where: str, seen: dict[str, ParsedScalar]) -> Bilinear:
    values = _parse_table(raw, 2, dim, dim, where, increasing=False, seen=seen)
    table = _scalar_table(values, lambda t: t[0] * dim + t[1])
    return Bilinear(dim, dim, _from_scalars(dim, dim * dim, table))


def _scalar_table(
    values: dict[tuple[int, ...], tuple[ParsedScalar, ...]], column: Callable[[tuple[int, ...]], int]
) -> dict[int, dict[int, ParsedScalar]]:
    """The table {column: {row: nonzero scalar}} of `exactlin._from_scalars` of an index table
    `_parse_table` has checked, each value the column `column` names of its index tuple."""
    table = {}
    for t, vec in values.items():
        nonzero = {i: x for i, x in enumerate(vec) if x}
        if nonzero:
            table[column(t)] = nonzero
    return table


@dataclass(frozen=True)
class InstanceDocument:
    """Parsed optional sections of one instance file."""

    lie_dim: int | None = None
    brackets: dict[tuple[int, ...], tuple[ParsedScalar, ...]] | None = None  # the parsed scalars
    module_dim: int | None = None
    action: tuple[Matrix, ...] | None = None
    cocycle_h: Cochain | None = None
    operator_t: Matrix | None = None
    operator_n: Matrix | None = None
    derivation_d: Matrix | None = None
    ns: NsLie | None = None
    assoc: AssocNs | None = None
    gcs: tuple[Matrix, Matrix, Matrix, Matrix] | None = None
    lie_gcs: LieGcsTriple | None = None
    deformation: tuple[Matrix, ...] | None = None
    psi: Cochain | None = None

    def require(self, *names: str) -> None:
        pretty = {
            "lie_algebra": self.lie_dim,
            "representation": self.action,
            "operator_T": self.operator_t,
            "operator_N": self.operator_n,
            "derivation_d": self.derivation_d,
            "ns_lie": self.ns,
            "assoc_ns": self.assoc,
            "gcs_components": self.gcs,
            "lie_gcs": self.lie_gcs,
            "deformation": self.deformation,
            "psi": self.psi,
            "cocycle_H": self.cocycle_h,
        }
        missing = [n for n in names if pretty.get(n) is None]
        if missing:
            raise MissingSection(f"missing section(s): {', '.join(missing)}")


def parse_instance(data: Mapping) -> InstanceDocument:
    if not isinstance(data, Mapping):
        raise InvalidStructure("instance document must be a JSON object")
    fields: dict[str, Any] = {}
    seen: dict[str, ParsedScalar] = {}  # the value of each scalar string read so far

    lie = _section(data, "lie_algebra")
    dim = None
    if lie is not None:
        dim = _positive_int(lie.get("dim"), "lie_algebra.dim")
        fields["lie_dim"] = dim
        raw_brackets = lie.get("brackets", {})
        fields["brackets"] = _parse_table(raw_brackets, 2, dim, dim, "lie_algebra.brackets", increasing=False, seen=seen)

    mod = _section(data, "module")
    m_dim = None
    if mod is not None:
        m_dim = _positive_int(mod.get("dim"), "module.dim")

    rep = _section(data, "representation")
    if rep is not None:
        if dim is None:
            raise InvalidStructure("representation needs a lie_algebra section")
        rep_dim = _positive_int(rep.get("module_dim", m_dim), "representation.module_dim")
        if m_dim is not None and rep_dim != m_dim:
            raise InvalidStructure("module.dim and representation.module_dim disagree")
        m_dim = rep_dim
        raw_action = rep.get("action")
        if not isinstance(raw_action, list) or len(raw_action) != dim:
            raise InvalidStructure(f"representation.action must list {dim} matrices")
        fields["action"] = tuple(
            _parse_matrix(a, m_dim, m_dim, f"representation.action[{k}]", seen)
            for k, a in enumerate(raw_action)
        )
    fields["module_dim"] = m_dim

    if "cocycle_H" in data:
        if dim is None or m_dim is None:
            raise InvalidStructure("cocycle_H needs lie_algebra and a module dimension")
        fields["cocycle_h"] = _parse_cochain(data["cocycle_H"], 2, dim, m_dim, "cocycle_H", seen)

    if "operator_T" in data:
        fields["operator_t"] = _parse_matrix(data["operator_T"], dim, m_dim, "operator_T", seen)
    if "operator_N" in data:
        fields["operator_n"] = _parse_matrix(data["operator_N"], dim, dim, "operator_N", seen)
    if "derivation_d" in data:
        fields["derivation_d"] = _parse_matrix(data["derivation_d"], dim, dim, "derivation_d", seen)

    ns = _section(data, "ns_lie")
    if ns is not None:
        ns_dim = _positive_int(ns.get("dim"), "ns_lie.dim")
        circ = _parse_bilinear(ns.get("circ", {}), ns_dim, "ns_lie.circ", seen)
        vee = _parse_table(ns.get("vee", {}), 2, ns_dim, ns_dim, "ns_lie.vee", increasing=True, seen=seen)
        fields["ns"] = NsLie(ns_dim, circ, _cochain(2, ns_dim, ns_dim, vee))

    assoc = _section(data, "assoc_ns")
    if assoc is not None:
        a_dim = _positive_int(assoc.get("dim"), "assoc_ns.dim")
        fields["assoc"] = AssocNs(
            a_dim,
            _parse_bilinear(assoc.get("prec", {}), a_dim, "assoc_ns.prec", seen),
            _parse_bilinear(assoc.get("succ", {}), a_dim, "assoc_ns.succ", seen),
            _parse_bilinear(assoc.get("box", {}), a_dim, "assoc_ns.box", seen),
        )

    gcs = _section(data, "gcs_components")
    if gcs is not None:
        if dim is None or m_dim is None:
            raise InvalidStructure("gcs_components needs lie_algebra and a module dimension")
        fields["gcs"] = (
            _parse_matrix(gcs.get("N"), dim, dim, "gcs_components.N", seen),
            _parse_matrix(gcs.get("T"), dim, m_dim, "gcs_components.T", seen),
            _parse_matrix(gcs.get("sigma"), m_dim, dim, "gcs_components.sigma", seen),
            _parse_matrix(gcs.get("S"), m_dim, m_dim, "gcs_components.S", seen),
        )

    lg = _section(data, "lie_gcs")
    if lg is not None:
        if dim is None:
            raise InvalidStructure("lie_gcs needs a lie_algebra section")
        fields["lie_gcs"] = LieGcsTriple(
            _parse_matrix(lg.get("N"), dim, dim, "lie_gcs.N", seen),
            _parse_matrix(lg.get("r"), dim, dim, "lie_gcs.r", seen),
            _parse_matrix(lg.get("sigma"), dim, dim, "lie_gcs.sigma", seen),
        )

    defo = _section(data, "deformation")
    if defo is not None:
        if dim is None or m_dim is None:
            raise InvalidStructure("deformation needs lie_algebra and a module dimension")
        coeffs = defo.get("coefficients")
        if not isinstance(coeffs, list) or not coeffs:
            raise InvalidStructure("deformation.coefficients must be a nonempty list")
        order = defo.get("order", len(coeffs))
        if not _is_int(order) or order != len(coeffs):
            raise InvalidStructure("deformation.order disagrees with coefficient count")
        fields["deformation"] = tuple(
            _parse_matrix(c, dim, m_dim, f"deformation.coefficients[{k}]", seen)
            for k, c in enumerate(coeffs)
        )

    if "psi" in data:
        if dim is None:
            raise InvalidStructure("psi needs a lie_algebra section")
        fields["psi"] = _parse_cochain(data["psi"], 3, dim, 1, "psi", seen)

    return InstanceDocument(**fields)


def unique_keys(pairs: list[tuple[str, Any]]) -> dict:
    """`object_pairs_hook` for `json.load`: a JSON object, refused when a key repeats.

    Without it the last value of a repeated key silently wins.  Raises
    ValueError, which the callers report as invalid input.
    """
    out = dict(pairs)
    if len(out) != len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise ValueError(f"key {key!r} appears twice in one object")
            seen.add(key)
    return out


def load_instance(path: str) -> InstanceDocument:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh, object_pairs_hook=unique_keys)
    except OSError as exc:
        raise InvalidStructure(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # also not UTF-8, an over-long integer, too deep or a repeated key
        raise InvalidStructure(f"{path} is not valid JSON: {exc}") from exc
    return parse_instance(data)


# -- serialization helpers ---------------------------------------------


def matrix_json(m: Matrix) -> list[list[str]]:
    return [[scalar_str(x) for x in m.row(i)] for i in range(m.rows)]


def vector_json(v) -> list[str]:
    return [scalar_str(x) for x in v]


def _index_table(tuples: Iterable[tuple[int, ...]], column: Callable[[tuple[int, ...]], Sequence]) -> dict:
    """The nonzero columns, in the order of `tuples`, keyed by their 1-based index tuple."""
    out = {}
    for t in tuples:
        col = column(t)
        if any(x != 0 for x in col):
            out[json.dumps([i + 1 for i in t], separators=(",", ""))] = vector_json(col)
    return out


def cochain_json(c: Cochain) -> dict:
    values = _index_table(c.basis_tuples(), c.value_on_basis)
    return {"degree": c.degree, "source_dim": c.source_dim, "target_dim": c.target_dim, "values": values}


def bilinear_json(b: Bilinear) -> dict:
    return _index_table(itertools.product(range(b.source_dim), repeat=2), lambda t: b.value_on_basis(*t))


def ns_json(ns: NsLie) -> dict:
    return {"dim": ns.dim, "circ": bilinear_json(ns.circ), "vee": cochain_json(ns.vee)["values"]}
