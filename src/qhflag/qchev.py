"""The small quantum cohomology ring QH*(G/B).

Schubert classes are indexed by Weyl elements; a QClass is a finite integer
combination of basis elements q^lambda sigma^w, with the q-multidegree
lambda recorded over all simple-root positions.

The full quantum product is computed in two stages:

1.  The classical (q = 0) ring is divisor-generated, so each sigma^v is
    expressed, degree by degree, over the classical Chevalley products
    sigma^x * sigma^{s_i} with l(x) = l(v) - 1: ``independent_inverse``
    picks the first independent ones and inverts them in one exact
    Gauss-Jordan pass.  Each expression, with its q-corrections, is
    stored once, as integers over a common denominator.
2.  sigma^u * sigma^v is evaluated by induction on l(v): replay the
    degree-(l(v)) pivot products quantum-mechanically on top of sigma^u and
    subtract the recursively computed q-carrying corrections, which involve
    strictly shorter Weyl elements by degree homogeneity.  The product is
    commutative, so the factors are first ordered with l(u) >= l(v) (ties
    by element index) and the recursion runs on the shorter factor; the
    memo holds one entry per unordered pair.

The recursion adds and scales integers only.  All coefficients are exact;
the final structure constants are asserted to be nonnegative integers
(they are genus-zero Gromov-Witten invariants) and degree-homogeneous.
Product computation is pure; the memo caches make repeated all-pairs
verification cheap.  Results are bit-identical regardless of call order.

JSON form of a QClass: a list of {"word": [...], "q": [...], "coeff": "c"}
objects, with Weyl elements serialized as reduced words.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .errors import CapExceededError, InternalConsistencyError, InvalidInputError
from .rootsys import RootSystem
from . import weyl
from .weyl import WeylElt

QDIGIT = 32  # per-coordinate cap on q exponents in the packed key


def int_exponents(lam: Iterable) -> Tuple[int, ...]:
    """Curve-class or q-multidegree exponents as a tuple of ints (no bools)."""
    lam = tuple(lam)
    if any(type(e) is not int for e in lam):
        raise InvalidInputError(f"exponents must be integers, got {lam}")
    return lam


def _term_order(kv) -> tuple:
    (w, lam), _ = kv
    return (w.length, sum(lam), lam, w.word())


class QClass:
    """Finite combination of basis elements q^lambda sigma^w."""

    __slots__ = ("rs", "terms")

    def __init__(self, rs: RootSystem, terms: Dict[Tuple[WeylElt, Tuple[int, ...]], object]):
        self.rs = rs
        self.terms = {k: v for k, v in terms.items() if v != 0}

    def __eq__(self, other):
        return (isinstance(other, QClass) and self.rs == other.rs
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.rs.key(), frozenset(self.terms.items())))

    def __add__(self, other: "QClass") -> "QClass":
        out = dict(self.terms)
        for k, v in other.terms.items():
            out[k] = out.get(k, 0) + v
        return QClass(self.rs, out)

    def __sub__(self, other: "QClass") -> "QClass":
        out = dict(self.terms)
        for k, v in other.terms.items():
            out[k] = out.get(k, 0) - v
        return QClass(self.rs, out)

    def scale(self, c) -> "QClass":
        return QClass(self.rs, {k: c * v for k, v in self.terms.items()})

    def q_shift(self, lam: Sequence[int]) -> "QClass":
        """Multiply by the monomial q^lam."""
        lam = tuple(lam)
        return QClass(self.rs, {
            (w, tuple(a + b for a, b in zip(mu, lam))): c
            for (w, mu), c in self.terms.items()})

    def coefficient(self, w: WeylElt, lam: Sequence[int]):
        return self.terms.get((w, tuple(lam)), 0)

    def classical_part(self) -> "QClass":
        zero = (0,) * self.rs.n
        return QClass(self.rs, {k: v for k, v in self.terms.items()
                                if k[1] == zero})

    def sorted_terms(self):
        """Terms ordered by (length, |lambda|, lambda, reduced word)."""
        return sorted(self.terms.items(), key=_term_order)

    def __repr__(self):
        return f"QClass({format_qclass(self)})"


def format_term(coeff, q: Iterable[Tuple[int, int]], w: WeylElt) -> str:
    """One basis term coeff*q^lambda*sigma^w, with q^lambda given as
    (simple index, exponent) pairs: '2*q1*q3^2*s[1,2]'.  A unit coefficient
    is omitted and sigma^1 prints only when nothing else does, as '1'."""
    factors = [] if coeff == 1 else [str(coeff)]
    factors += [f"q{j}" if e == 1 else f"q{j}^{e}" for j, e in q if e]
    if w.length or not factors:
        factors.append("s[%s]" % ",".join(map(str, w.word()))
                       if w.length else "1")
    return "*".join(factors)


def format_qclass(qc: QClass) -> str:
    """Human format: 'q1*q2 + q1*s[1,2]'; the unit class prints as '1'."""
    if not qc.terms:
        return "0"
    return " + ".join(format_term(c, enumerate(lam, start=1), w)
                      for (w, lam), c in qc.sorted_terms())


def qclass_to_json(qc: QClass) -> List[dict]:
    return [{"word": list(w.word()), "q": list(lam), "coeff": str(c)}
            for (w, lam), c in qc.sorted_terms()]


class QuantumFlagRing:
    """QH*(G/B) for one root system, with memoized exact products."""

    def __init__(self, rs: RootSystem, weyl_cap: int = weyl.WEYL_CAP):
        self.rs = rs
        self.n = rs.n
        self.elements: Tuple[WeylElt, ...] = weyl.enumerate_group(rs, cap=weyl_cap)
        self.index: Dict[WeylElt, int] = {w: i for i, w in enumerate(self.elements)}
        self.lengths: Tuple[int, ...] = tuple(w.length for w in self.elements)
        self.max_length = max(self.lengths)
        if self.max_length >= QDIGIT:
            raise CapExceededError(
                f"longest element has length {self.max_length}; the packed "
                f"q-exponent range caps products at length {QDIGIT - 1}")
        self.by_length: List[List[int]] = [[] for _ in range(self.max_length + 1)]
        for i, w in enumerate(self.elements):
            self.by_length[w.length].append(i)
        # Positive-root data for the Chevalley formula.
        self._chev_data = []
        for g in rs.positive_roots:
            gv = rs.coroot_of(g)
            self._chev_data.append((weyl.reflection(rs, g), gv,
                                    rs.two_rho_pairing(gv), self._pack(gv)))
        self._chev_rows: Dict[Tuple[int, int], tuple] = {}
        # v index -> (den, [(pivot k, den*coeff)], [(x' idx, qshift, den*coeff)])
        self._int_expr: Dict[int, tuple] = {}
        self._pivots: Dict[int, list] = {}    # degree -> [(i, x idx)]
        self._expr_built_upto = 1
        self._prod: Dict[Tuple[int, int], Dict[int, int]] = {}
        self._pivot_apps: Dict[Tuple[int, int], list] = {}
        self._qbase = QDIGIT ** self.n
        self._qkeys: Dict[int, Tuple[Tuple[int, ...], int]] = {}

    # -- packed term keys ----------------------------------------------------

    def _pack(self, lam: Sequence[int]) -> int:
        key = 0
        for e in reversed(lam):
            if not 0 <= e < QDIGIT:
                raise InternalConsistencyError(
                    f"q exponent {e} outside packing range")
            key = key * QDIGIT + e
        return key

    def _q_of(self, qkey: int) -> Tuple[Tuple[int, ...], int]:
        """The exponents lambda of a packed q-key, and its degree 2|lambda|."""
        hit = self._qkeys.get(qkey)
        if hit is None:
            lam, key = [], qkey
            for _ in range(self.n):
                key, e = divmod(key, QDIGIT)
                lam.append(e)
            hit = self._qkeys[qkey] = (tuple(lam), 2 * sum(lam))
        return hit

    def _term_key(self, widx: int, qkey: int) -> int:
        return widx * self._qbase + qkey

    def _from_packed(self, d: Dict[int, int]) -> QClass:
        """The QClass of a packed class, which must hold no zero terms."""
        qb, elements, q_of = self._qbase, self.elements, self._q_of
        qc = QClass.__new__(QClass)
        qc.rs = self.rs
        qc.terms = {(elements[k // qb], q_of(k % qb)[0]): v for k, v in d.items()}
        return qc

    # -- element helpers -----------------------------------------------------

    def element_from_word(self, word: Iterable[int]) -> WeylElt:
        return weyl.word_to_element(self.rs, word)

    def _idx(self, w: WeylElt) -> int:
        try:
            return self.index[w]
        except KeyError:
            raise InvalidInputError("Weyl element does not belong to this ring")

    # -- quantum Chevalley ----------------------------------------------------

    def _chev_row(self, i: int, widx: int) -> tuple:
        """Expansion of sigma^{w} * sigma^{s_i} as (widx', qshift, coeff)."""
        key = (i, widx)
        row = self._chev_rows.get(key)
        if row is None:
            w = self.elements[widx]
            lw = w.length
            out = []
            for sref, gv, tworho, qkey in self._chev_data:
                c = gv[i - 1]  # <chi_i, gamma^vee>
                if c == 0:
                    continue
                widx2 = self.index[weyl.multiply(w, sref)]
                l2 = self.lengths[widx2]
                if l2 == lw + 1:
                    out.append((widx2, 0, c))
                if l2 == lw + 1 - tworho:
                    out.append((widx2, qkey, c))
            row = tuple(out)
            self._chev_rows[key] = row
        return row

    def chevalley_product(self, u: WeylElt, i: int) -> QClass:
        """sigma^u * sigma^{s_i}: the two Chevalley sums, nothing else."""
        self.rs._check_index(i)
        return self._from_packed(
            self._chev_apply(i, {self._term_key(self._idx(u), 0): 1}))

    def _chev_apply(self, i: int, cls: Dict[int, int]) -> Dict[int, int]:
        """Right-multiply a packed class by sigma^{s_i} (quantum)."""
        qb = self._qbase
        out: Dict[int, int] = {}
        get = out.get
        for key, val in cls.items():
            widx, qkey = divmod(key, qb)
            for widx2, qshift, c in self._chev_row(i, widx):
                k2 = widx2 * qb + qkey + qshift
                out[k2] = get(k2, 0) + c * val
        return {k: v for k, v in out.items() if v}

    # -- divisor expressions ---------------------------------------------------

    def _build_expressions_upto(self, degree: int) -> None:
        """Express every sigma^v with l(v) <= degree over divisor pivots."""
        while self._expr_built_upto < degree:
            d = self._expr_built_upto + 1
            self._build_expressions_degree(d)
            self._expr_built_upto = d

    def _build_expressions_degree(self, d: int) -> None:
        basis = self.by_length[d]
        pos = {widx: row for row, widx in enumerate(basis)}
        m = len(basis)
        candidates = [(i, x) for x in self.by_length[d - 1]
                      for i in range(1, self.n + 1)]

        def columns():  # classical sigma^x * sigma^{s_i} over the degree-d basis
            for i, x in candidates:
                col = [0] * m
                for widx2, qshift, c in self._chev_row(i, x):
                    if qshift == 0:
                        col[pos[widx2]] += c
                yield col

        picked, inv = independent_inverse(columns(), m)
        if inv is None:
            raise InternalConsistencyError(
                f"degree {d}: divisor classes fail to span "
                f"({len(picked)} of {m})")
        pivots = self._pivots[d] = [candidates[k] for k in picked]
        for vpos, v in enumerate(basis):
            expr = [(k, inv[k][vpos]) for k in range(m) if inv[k][vpos]]
            den = lcm(*[t.denominator for _, t in expr])
            expr = [(k, t.numerator * (den // t.denominator)) for k, t in expr]
            corr: Dict[Tuple[int, int], int] = {}
            for k, a in expr:
                for widx2, qshift, c in self._chev_row(*pivots[k]):
                    if qshift:
                        key = (widx2, qshift)
                        corr[key] = corr.get(key, 0) + a * c
            self._int_expr[v] = (den, expr, [(w2, qs, a) for (w2, qs), a
                                             in sorted(corr.items()) if a])

    def _pivot_applications(self, ui: int, d: int) -> list:
        key = (ui, d)
        apps = self._pivot_apps.get(key)
        if apps is None:
            apps = [self._chev_apply(i, self._product(ui, x))
                    for i, x in self._pivots[d]]
            self._pivot_apps[key] = apps
        return apps

    # -- the quantum product -----------------------------------------------------

    def _product(self, ui: int, vi: int) -> Dict[int, int]:
        lu, lv = self.lengths[ui], self.lengths[vi]
        if (lu, ui) < (lv, vi):  # commutative: recurse on the shorter factor
            ui, vi, lu, lv = vi, ui, lv, lu
        if lv == 0:
            return {self._term_key(ui, 0): 1}
        key = (ui, vi)
        res = self._prod.get(key)
        if res is not None:
            return res
        if lv == 1:
            i = self.elements[vi].word()[0]
            res = self._chev_apply(i, {self._term_key(ui, 0): 1})
        else:
            self._build_expressions_upto(lv)
            den, expr, corr = self._int_expr[vi]
            acc: Dict[int, int] = {}
            get = acc.get
            apps = self._pivot_applications(ui, lv)
            for k, ct in expr:
                for kk, vv in apps[k].items():
                    acc[kk] = get(kk, 0) + ct * vv
            for x2, qshift, ct in corr:
                for kk, vv in self._product(ui, x2).items():
                    k2 = kk + qshift
                    acc[k2] = get(k2, 0) - ct * vv
            res = {}
            for kk, vv in acc.items():
                if vv == 0:
                    continue
                q, r = divmod(vv, den)
                if r:
                    raise InternalConsistencyError(
                        "non-integer quantum structure constant")
                if q < 0:
                    raise InternalConsistencyError(
                        "negative quantum structure constant")
                res[kk] = q
            self._check_homogeneity(res, lu + lv)
        self._prod[key] = res
        return res

    def _check_homogeneity(self, cls: Dict[int, int], degree: int) -> None:
        qb = self._qbase
        for key in cls:
            widx, qkey = divmod(key, qb)
            if self.lengths[widx] + self._q_of(qkey)[1] != degree:
                raise InternalConsistencyError(
                    "quantum product term violates degree homogeneity")

    def quantum_product(self, u: WeylElt, v: WeylElt) -> QClass:
        """sigma^u * sigma^v in QH*(G/B)."""
        return self._from_packed(self._product(self._idx(u), self._idx(v)))

    def classical_product(self, u: WeylElt, v: WeylElt) -> QClass:
        """Cup product: the q = 0 part of the quantum product."""
        return self.quantum_product(u, v).classical_part()

    def product_with_class(self, qc: QClass, v: WeylElt) -> QClass:
        """Linear extension (sum c q^mu sigma^x) * sigma^v; mu may be any
        integer vector, since it shifts exponents, not packed keys."""
        vi = self._idx(v)
        acc: Dict[Tuple[WeylElt, Tuple[int, ...]], object] = {}
        for (x, mu), c in qc.terms.items():
            for (w, lam), vv in self._from_packed(
                    self._product(self._idx(x), vi)).terms.items():
                key = (w, tuple(a + b for a, b in zip(lam, mu)))
                acc[key] = acc.get(key, 0) + c * vv
        return QClass(self.rs, acc)

    def structure_constant(self, u: WeylElt, v: WeylElt, w: WeylElt,
                           lam: Sequence[int]) -> int:
        """The coefficient of q^lam sigma^w in sigma^u * sigma^v."""
        lam = int_exponents(lam)
        if len(lam) != self.n or any(e < 0 for e in lam):
            raise InvalidInputError("q-multidegree must be nonnegative, length n")
        ui, vi, wi = self._idx(u), self._idx(v), self._idx(w)
        if max(lam) >= QDIGIT:  # homogeneity: no exponent exceeds l(w0) < QDIGIT
            return 0
        return self._product(ui, vi).get(self._term_key(wi, self._pack(lam)), 0)

    def multiplication_table(self, max_length: Optional[int] = None):
        """All pairwise products, deterministically ordered."""
        cap = self.max_length if max_length is None else max_length
        for u in self.elements:
            if u.length > cap:
                continue
            for v in self.elements:
                if v.length > cap:
                    continue
                yield u, v, self.quantum_product(u, v)


def independent_inverse(columns: Iterable[Sequence], m: int
                        ) -> Tuple[List[int], Optional[List[List[Fraction]]]]:
    """Keep the first m linearly independent vectors of ``columns`` (each
    of length m, read in order and only as far as needed) and invert them.

    Returns (picked positions, inv) with e_r = sum_k inv[k][r] * (k-th
    picked column), or inv = None when fewer than m columns are
    independent.  One exact Gauss-Jordan pass: each kept row is reduced to
    a unit vector and carries the combination of picked columns it equals.
    """
    picked: List[int] = []
    rows: List[list] = []  # [lead, reduced vector, combination]
    for pos, col in enumerate(columns):
        vec = list(col)
        steps = []
        for j, (lead, rvec, _) in enumerate(rows):
            f = vec[lead]
            if f:
                vec = [a - f * b if b else a for a, b in zip(vec, rvec)]
                steps.append((j, f))
        lead = next((r for r, a in enumerate(vec) if a), None)
        if lead is None:
            continue
        # Independent: vec = col - sum f_j row_j, so its combination is
        # e_k - sum f_j comb_j, scaled to make the lead 1.
        comb = [0] * m
        comb[len(picked)] = 1
        for j, f in steps:
            comb = [a - f * b if b else a for a, b in zip(comb, rows[j][2])]
        scale = 1 / Fraction(vec[lead])
        vec = [a * scale for a in vec]
        comb = [a * scale for a in comb]
        for row in rows:
            g = row[1][lead]
            if g:
                row[1] = [a - g * b if b else a for a, b in zip(row[1], vec)]
                row[2] = [a - g * b if b else a for a, b in zip(row[2], comb)]
        rows.append([lead, vec, comb])
        picked.append(pos)
        if len(picked) == m:
            break
    if len(picked) < m:
        return picked, None
    rows.sort(key=lambda row: row[0])  # the leads are now 0..m-1
    return picked, [list(c) for c in zip(*(comb for _, _, comb in rows))]
