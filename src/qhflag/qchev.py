"""The small quantum cohomology ring QH*(G/B).

Schubert classes are indexed by Weyl elements; a QClass is a finite integer
combination of basis elements q^lambda sigma^w, with the q-multidegree
lambda recorded over all simple-root positions.

The full quantum product is computed in two stages:

1.  The classical (q = 0) ring is divisor-generated, so each sigma^v,
    l(v) >= 1, is expressed, degree by degree, over the classical Chevalley
    products sigma^x * sigma^{s_i} with l(x) = l(v) - 1 (sigma^{s_i} is the
    pivot (i, e) itself), each a sparse column over the degree's basis:
    ``independent_inverse`` picks the first independent ones and inverts
    them in one sparse fraction-free integer Gauss-Jordan pass, checked
    exactly.  Each expression, with its q-corrections, is finished on its
    first read and stored once, as integers over its least common
    denominator, naming its pivots.
    Candidates are grouped by x, the x with the fewest classical terms over
    all i first, and within one x go sparsest column first (ties in element,
    then i, order): sparse pivots give short expressions to replay, and
    grouping by x keeps the recursion into sigma^u * sigma^x small.
2.  sigma^u * sigma^v is evaluated by induction on l(v), from the one base
    case sigma^u * sigma^e = sigma^u: replay on top of sigma^u the pivot
    products (i, x) that sigma^v's expression names, as the quantum
    sigma^u * sigma^x * sigma^{s_i}, and subtract the recursively computed
    q-carrying corrections, which involve strictly shorter Weyl elements by
    degree homogeneity.  The product is commutative, so the factors are
    first ordered with l(u) >= l(v) (ties by element index) and the
    recursion runs on the shorter factor, keeping u.  Each pivot product is
    applied straight into the sum of the product that reads it; none is
    stored.

The elimination and the recursion work in the integers.  All coefficients
are exact; the final structure constants are asserted to be nonnegative
integers (they are genus-zero Gromov-Witten invariants) and degree-
homogeneous.  Product computation is pure, and results are bit-identical
in any call order.  The memo holds one row per longer factor u, mapping v
to sigma^u * sigma^v (one entry per unordered pair, the identity factor
included); every product the recursion of row u reads is in row u.

Inside the ring a term q^lambda sigma^w is one integer key, (l(w)*D^n +
lambda in base D)*|W| + idx(w) with D = l(w0) + 1, and a stored class is
the flat tuple (key, coeff, key, coeff, ...).  Stored classes are
homogeneous of degree at most 2 l(w0), so |lambda| <= l(w0) < D, no digit
carries, and key order is canonical term order (``_canonical``).  D grows
with the group, so the packing caps neither the rank nor l(w0).  Equal
keys of stored classes are one int object, interned per ring.  The n
quantum Chevalley rows of one w are built together from integer keys: the
keys of all w s_gamma (``weyl.reflection_keys``) go through the ring's one
element index (key -> position), and no Weyl element is built or hashed.

JSON form of a QClass: a list of {"word": [...], "q": [...], "coeff": "c"}
read-only ``JsonTerm`` objects, with Weyl elements serialized as reduced
words; a served class's objects are interned per ring, one per (term,
coefficient), and shared by every product that holds that term, in one
read-only ``JsonList`` per stored class, shared by every serve of it.
"""

from __future__ import annotations

import threading
from itertools import repeat
from math import gcd
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .errors import InternalConsistencyError, InvalidInputError
from .rootsys import RootSystem
from . import weyl
from .weyl import WeylElt


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
    """Finite combination of basis elements q^lambda sigma^w.

    A class served by a ``QuantumFlagRing`` holds the memo's packed entry,
    already in canonical order, read through the ring's tables of decoded
    keys and JSON terms; ``terms`` is decoded on first read and then kept.
    """

    __slots__ = ("rs", "_terms", "_ring", "_packed")

    def __init__(self, rs: RootSystem, terms: Dict[Tuple[WeylElt, Tuple[int, ...]], object]):
        self.rs = rs
        self._terms = {k: v for k, v in terms.items() if v != 0}
        self._ring = self._packed = None

    @property
    def terms(self) -> Dict[Tuple[WeylElt, Tuple[int, ...]], object]:
        if self._terms is None:
            self._terms = dict(self._ring._term_list(self._packed))
        return self._terms

    def __eq__(self, other):
        if isinstance(other, QClass) and other._ring is self._ring is not None:
            return self._packed == other._packed  # one ring, one packing
        return (isinstance(other, QClass) and self.rs == other.rs
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.rs.key(), frozenset(self.terms.items())))

    def sorted_terms(self):
        """Terms ordered by (length, |lambda|, lambda, reduced word)."""
        if self._packed is not None:
            return self._ring._term_list(self._packed)
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
    terms = qc.sorted_terms()
    if not terms:
        return "0"
    return " + ".join(format_term(c, enumerate(lam, start=1), w)
                      for (w, lam), c in terms)


def _read_only(self, *args, **kwargs):
    raise TypeError("served JSON is shared and read-only; dict(term) and "
                    "list(terms) give editable copies")


def _filled(cls, *args, **kwargs):
    """A new ``JsonTerm`` or ``JsonList``, filled by its base class: its own
    ``__init__`` refuses, so nothing refills it once served."""
    obj = cls.__new__(cls)
    cls.__base__.__init__(obj, *args, **kwargs)
    return obj


class JsonTerm(dict):
    """One {"word", "q", "coeff"} object of ``qclass_to_json``, read-only:
    a served class's terms are shared by every product that holds them.
    ``copy``, ``copy.copy``, ``copy.deepcopy`` and pickle give plain dicts."""

    __slots__ = ()
    __init__ = __setitem__ = __delitem__ = __ior__ = _read_only
    clear = pop = popitem = setdefault = update = _read_only

    def __reduce__(self):
        return dict, (dict(self),)


class JsonList(list):
    """The ``qclass_to_json`` list of a served class, read-only: one per
    stored class, returned by every serve of it.  ``copy``, ``copy.copy``,
    ``copy.deepcopy`` and pickle give plain lists."""

    __slots__ = ()
    __init__ = __setitem__ = __delitem__ = __iadd__ = __imul__ = _read_only
    append = extend = insert = pop = remove = clear = reverse = sort = _read_only

    def __reduce__(self):
        return list, (list(self),)


def qclass_to_json(qc: QClass) -> List[JsonTerm]:
    """The JSON form of a class, one object per term in canonical order.

    "word" is the element's memoised ``w.word()`` and "q" the class's own
    lambda key: shared tuples, not copies.  A served class gets the ring's
    one ``JsonList`` of its interned terms, the same object on every call;
    any other class gets a fresh plain list of fresh terms.
    """
    if qc._packed is not None:
        return qc._ring._json_list(qc._packed)
    return [_filled(JsonTerm, word=w.word(), q=lam, coeff=str(c))
            for (w, lam), c in qc.sorted_terms()]


class _Expressions(dict):
    """The divisor expressions of a ring, each finished from ``raw`` on its
    first read: a round of G/P products reads few of the classes that each
    inverted degree writes to ``raw``, v idx -> ((den, comb), (pivots, each
    pivot's q terms as ((x' idx, qshift), coeff))."""

    def __init__(self):
        super().__init__()
        self.raw: Dict[int, tuple] = {}

    def __missing__(self, v: int) -> tuple:
        (den, comb), (pivots, quantum) = self.raw[v]
        corr: Dict[Tuple[int, int], int] = {}  # (x' idx, qshift) -> coeff
        for k, a in (comb := sorted(comb.items())):
            for key, c in quantum[k]:
                corr[key] = corr.get(key, 0) + a * c
        return self.setdefault(v, (den, [(pivots[k], a) for k, a in comb], [
            (*key, a) for key, a in sorted(corr.items()) if a]))


class QuantumFlagRing:
    """QH*(G/B) for one root system, with memoized exact products.
    ``index(w)`` is w's position in ``elements``, for w of this system only."""

    def __init__(self, rs: RootSystem, weyl_cap: int = weyl.WEYL_CAP):
        self.rs = rs
        self.n = rs.n
        self.elements: Tuple[WeylElt, ...] = weyl.enumerate_group(rs, cap=weyl_cap)
        self._key_index = {w.key: i for i, w in enumerate(self.elements)}
        self.lengths: Tuple[int, ...] = tuple(w.length for w in self.elements)
        self.max_length = max(self.lengths)
        self.by_length: List[List[int]] = [[] for _ in range(self.max_length + 1)]
        for i, w in enumerate(self.elements):
            self.by_length[w.length].append(i)
        # Packed term keys (module docstring): digit D, q range B = D^n.
        self._nw = len(self.elements)
        self._qdigit = self.max_length + 1
        self._qbase = self._qdigit ** self.n
        self._wkeys = tuple(l * self._qbase * self._nw + i
                            for i, l in enumerate(self.lengths))
        self._qkeys: Dict[int, Tuple[Tuple[int, ...], int]] = {}
        # key of a stored class -> (the ring's one int object for it, its
        # degree, (w, lambda)); (key, coeff) -> JSON term, class -> its list.
        self._keys: Dict[int, Tuple[int, int, tuple]] = {}
        self._json_terms: Dict[Tuple[int, int], JsonTerm] = {}
        self._json_lists: Dict[tuple, JsonList] = {}
        # Chevalley data per positive root gamma: <2 rho, gamma^vee>, its q
        # shift and the nonzero (i, <chi_i, gamma^vee>).
        self._chev_data = [(rs.two_rho_pairing(gv), self._pack(gv),
                            [(i, c) for i, c in enumerate(gv) if c])
                           for gv in map(rs.coroot_of, rs.positive_roots)]
        # i - 1 -> element index -> sigma^w * sigma^{s_i}, None until built
        self._chev_rows: List[List[Optional[tuple]]] = [
            [None] * self._nw for _ in range(self.n)]
        # degree -> pivots (i, x idx);
        # v idx -> (den, [(pivot, den*coeff)], [(x' idx, qshift, den*coeff)])
        self._pivots: Dict[int, List[Tuple[int, int]]] = {}
        self._int_expr = _Expressions()
        self._expr_built_upto = 0  # grows only, under _expr_lock
        self._expr_lock = threading.Lock()
        # u idx -> v idx -> sigma^u * sigma^v as (key, coeff, key, coeff, ...)
        self._prod: Dict[int, Dict[int, tuple]] = {}

    # -- packed term keys ----------------------------------------------------

    def _pack(self, lam: Sequence[int]) -> int:
        """The key shift of q^lam: lambda in base D, lambda_1 the most
        significant digit, times |W|."""
        key = 0
        for e in lam:
            if not 0 <= e < self._qdigit:
                raise InternalConsistencyError(
                    f"q exponent {e} outside packing range")
            key = key * self._qdigit + e
        return key * self._nw

    def _q_of(self, key: int) -> Tuple[Tuple[int, ...], int]:
        """The exponents lambda of a packed term key or q shift, and its
        degree 2|lambda|."""
        qkey, digit = key // self._nw % self._qbase, self._qdigit
        hit = self._qkeys.get(qkey)
        if hit is None:
            lam = tuple(qkey // digit ** j % digit for j in range(self.n - 1, -1, -1))
            hit = self._qkeys.setdefault(qkey, (lam, 2 * sum(lam)))
        return hit

    def _canonical(self, d: Dict[int, int], degree: int) -> tuple:
        """A packed class of the given degree as the flat tuple (key, coeff,
        key, coeff, ...) in canonical order, zero terms dropped, checked
        positive and homogeneous, each key interned in ``_keys``.

        Every class the ring stores, products and ``chevalley_product``, is
        homogeneous, so no digit of the packing (module docstring) carries.
        Within one class the length fixes |lambda|, and the element index
        orders each length by reduced word, so the integer order of the keys
        is the canonical order (length, |lambda|, lambda, reduced word)."""
        keys, out = self._keys, []
        for key in sorted(d):
            c = d[key]
            if c < 1:
                if c:
                    raise InternalConsistencyError(
                        "negative quantum structure constant")
                continue
            hit = keys.get(key)
            if hit is None:
                lam, qdeg = self._q_of(key)
                hit = keys.setdefault(key, (
                    key, key // (self._qbase * self._nw) + qdeg,
                    (self.elements[key % self._nw], lam)))
            if hit[1] != degree:
                raise InternalConsistencyError(
                    "quantum product term violates degree homogeneity")
            out += hit[0], c
        return tuple(out)

    def _from_packed(self, d: tuple) -> QClass:
        """The QClass of a stored class: it holds ``d``, in canonical order,
        and decodes its terms only when ``terms`` is read."""
        qc = QClass.__new__(QClass)
        qc.rs, qc._terms, qc._ring, qc._packed = self.rs, None, self, d
        return qc

    def _term_list(self, d: tuple) -> list:
        """The terms ((w, lambda), c) of a stored class, in its order."""
        keys, it = self._keys, iter(d)
        return [(keys[k][2], c) for k, c in zip(it, it)]

    def _json_list(self, d: tuple) -> JsonList:
        """The shared list of a stored class's interned JSON terms, in its
        order, built on the first serve."""
        hit = self._json_lists.get(d)
        if hit is None:
            get, it = self._json_terms.get, iter(d)
            terms = [get(kc) or self._json_of(kc) for kc in zip(it, it)]
            hit = self._json_lists.setdefault(d, _filled(JsonList, terms))  # sized exactly
        return hit

    def _json_of(self, kc: Tuple[int, int]) -> JsonTerm:
        """The interned JSON term of (packed key, coefficient)."""
        key, c = kc
        w, lam = self._keys[key][2]
        return self._json_terms.setdefault(
            kc, _filled(JsonTerm, word=w.word(), q=lam, coeff=str(c)))

    # -- element helpers -----------------------------------------------------

    def element_from_word(self, word: Iterable[int]) -> WeylElt:
        return weyl.word_to_element(self.rs, word)

    def index(self, w: WeylElt) -> int:
        if not isinstance(w, WeylElt) or (w.rs is not self.rs and w.rs != self.rs):
            raise InvalidInputError("Weyl element does not belong to this ring")
        return self._key_index[w.key]

    # -- quantum Chevalley ----------------------------------------------------

    def _chev_row(self, i: int, widx: int) -> tuple:
        """Expansion of sigma^{w} * sigma^{s_i} as (key delta, coeff): times
        q^mu, a term's key is that of q^mu sigma^w plus its delta.  The n
        rows of w are built together, from integer keys (module docstring)."""
        tables = self._chev_rows
        if tables[-1][widx] is None:
            lengths, wkeys, up = self.lengths, self._wkeys, self.lengths[widx] + 1
            base, rows = wkeys[widx], [[] for _ in range(self.n)]
            for widx2, (tworho, qkey, support) in zip(map(
                    self._key_index.__getitem__,
                    weyl.reflection_keys(self.elements[widx])), self._chev_data):
                drop = up - lengths[widx2]
                if drop == 0 or drop == tworho:
                    delta = wkeys[widx2] - base + (qkey if drop else 0)
                    for j, c in support:
                        rows[j].append((delta, c))
            for table, out in zip(tables, rows):  # row n last: with it, a
                table[widx] = tuple(out)  # racing reader finds all n
        return tables[i - 1][widx]

    def chevalley_product(self, u: WeylElt, i: int) -> QClass:
        """sigma^u * sigma^{s_i}: the two Chevalley sums, nothing else."""
        self.rs._check_index(i)
        ui = self.index(u)
        return self._from_packed(self._canonical(
            self._chev_apply(i, (self._wkeys[ui], 1), 1, {}), self.lengths[ui] + 1))

    def _chev_apply(self, i: int, cls: tuple, scale: int,
                    out: Dict[int, int]) -> Dict[int, int]:
        """Right-multiply a stored class by sigma^{s_i} (quantum), times
        ``scale``, added into ``out``."""
        nw, rows = self._nw, self._chev_rows[i - 1]
        get, it = out.get, iter(cls)
        for key, val in zip(it, it):
            val *= scale
            for delta, c in rows[key % nw] or self._chev_row(i, key % nw):
                k2 = key + delta
                out[k2] = get(k2, 0) + c * val
        return out

    # -- divisor expressions ---------------------------------------------------

    def _build_expressions_upto(self, degree: int) -> None:
        """Express every sigma^v with l(v) <= degree over divisor pivots, each
        degree once (under the lock, not taken once the counter is there)."""
        if self._expr_built_upto < degree:
            with self._expr_lock:
                for d in range(self._expr_built_upto + 1, degree + 1):
                    self._build_expressions_degree(d)
                    self._expr_built_upto = d

    def _build_expressions_degree(self, d: int) -> None:
        basis, wkeys, nw = self.by_length[d], self._wkeys, self._nw
        pos = {wkeys[widx]: row for row, widx in enumerate(basis)}  # q^0 keys
        cols, xsize = {}, {}  # classical sigma^x * sigma^{s_i}, sparse over the basis
        for x in self.by_length[d - 1]:
            base, xsize[x] = wkeys[x], 0
            self._chev_row(1, x)  # all n rows of x
            for i, table in enumerate(self._chev_rows, 1):
                col = cols[i, x] = {}
                for dk, c in table[x]:  # one term per x s_gamma: no key repeats
                    row = pos.get(base + dk)
                    if row is not None:
                        col[row] = c
                xsize[x] += len(col)
        candidates = sorted(cols, key=lambda ix: (xsize[ix[1]], ix[1], len(cols[ix])))
        picked, rows = independent_inverse(map(cols.get, candidates), len(basis))
        if rows is None:
            raise InternalConsistencyError(
                f"degree {d}: divisor classes fail to span "
                f"({len(picked)} of {len(basis)})")
        pivots = self._pivots[d] = [candidates[k] for k in picked]
        quantum = [[((k2 % nw, k2 - wkeys[k2 % nw]), c) for k2, c in (
            (wkeys[x] + dk, c) for dk, c in self._chev_rows[i - 1][x])
                    if k2 not in pos] for i, x in pivots]  # once per pivot
        self._int_expr.raw.update(zip(basis, zip(rows, repeat((pivots, quantum)))))

    # -- the quantum product -----------------------------------------------------

    def _product(self, ui: int, vi: int) -> tuple:
        lu, lv = self.lengths[ui], self.lengths[vi]
        if (lu, ui) < (lv, vi):  # commutative: recurse on the shorter factor
            ui, vi, lu, lv = vi, ui, lv, lu
        row = self._prod.get(ui) or self._prod.setdefault(ui, {})
        res = row.get(vi)
        if res is not None:
            return res
        acc: Dict[int, int] = {}
        if lv == 0:  # sigma^u * sigma^e = sigma^u
            acc[self._wkeys[ui]] = 1
        else:  # each x below is shorter than u: sigma^u * sigma^x is in row u
            self._build_expressions_upto(lv)
            den, expr, corr = self._int_expr[vi]
            for (i, x), ct in expr:
                self._chev_apply(i, row.get(x) or self._product(ui, x), ct, acc)
            get = acc.get
            for x2, qshift, ct in corr:
                it = iter(row.get(x2) or self._product(ui, x2))
                for kk, vv in zip(it, it):
                    k2 = kk + qshift
                    acc[k2] = get(k2, 0) - ct * vv
            if den != 1:
                for kk, vv in acc.items():
                    acc[kk], r = divmod(vv, den)
                    if r:
                        raise InternalConsistencyError(
                            "non-integer quantum structure constant")
        res = row[vi] = self._canonical(acc, lu + lv)
        return res

    def quantum_product(self, u: WeylElt, v: WeylElt) -> QClass:
        """sigma^u * sigma^v in QH*(G/B)."""
        return self._from_packed(self._product(self.index(u), self.index(v)))

    def product_with_class(self, qc: QClass, v: WeylElt) -> QClass:
        """Linear extension (sum c q^mu sigma^x) * sigma^v; mu may be any
        integer vector, since it shifts exponents, not packed keys."""
        self.index(v)  # a foreign v is an error even when qc is zero
        acc: Dict[Tuple[WeylElt, Tuple[int, ...]], object] = {}
        for (x, mu), c in qc.terms.items():
            for (w, lam), vv in self.quantum_product(x, v).sorted_terms():
                key = (w, tuple(a + b for a, b in zip(lam, mu)))
                acc[key] = acc.get(key, 0) + c * vv
        return QClass(self.rs, acc)

    def structure_constant(self, u: WeylElt, v: WeylElt, w: WeylElt,
                           lam: Sequence[int]) -> int:
        """The coefficient of q^lam sigma^w in sigma^u * sigma^v."""
        lam = int_exponents(lam)
        if len(lam) != self.n or any(e < 0 for e in lam):
            raise InvalidInputError("q-multidegree must be nonnegative, length n")
        ui, vi, wi = self.index(u), self.index(v), self.index(w)
        if max(lam) >= self._qdigit:  # homogeneity: no exponent exceeds l(w0)
            return 0
        key, it = self._wkeys[wi] + self._pack(lam), iter(self._product(ui, vi))
        return next((c for k, c in zip(it, it) if k == key), 0)

    def multiplication_table(self, max_length: Optional[int] = None):
        """All pairwise products, deterministically ordered."""
        if max_length is not None and max_length < 0:
            raise InvalidInputError(
                f"max length must be nonnegative, got {max_length}")
        cap = self.max_length if max_length is None else max_length
        short = [u for u in self.elements if u.length <= cap]
        return ((u, v, self.quantum_product(u, v)) for u in short for v in short)

    def stats(self) -> Dict[str, int]:
        """Sizes of the ring's lazy tables: set by what was asked, not when."""
        entries = [p for row in self._prod.values() for p in row.values()]
        return dict(
            memo_entries=len(entries), memo_terms=sum(map(len, entries)) // 2,
            chevalley_rows=sum(len(t) - t.count(None) for t in self._chev_rows),
            expression_degrees=len(self._pivots), interned_keys=len(self._keys),
            json_terms=len(self._json_terms), json_lists=len(self._json_lists))


def independent_inverse(columns: Iterable[Dict[int, int]], m: int) -> Tuple[
        List[int], Optional[List[Tuple[int, Dict[int, int]]]]]:
    """Keep the first m linearly independent sparse integer vectors {row in
    0..m-1: coefficient} of ``columns``, read in order and only as far as
    needed, and invert them without leaving the integers.

    Returns (picked positions, rows), rows[r] = (den_r, comb_r) with den_r *
    e_r = sum_k comb_r[k] * (k-th picked column) checked exactly, comb_r a
    sparse {k: coefficient}, den_r > 0 and gcd(den_r, comb_r) = 1; rows is
    None when fewer than m columns are independent.  One sparse fraction-free
    Gauss-Jordan pass (Bareiss): each kept row, keyed by its lead, is a
    reduced vector with the combination of picked columns it equals.  Kept
    rows vanish at each other's leads, so a column is eliminated (by
    cross-multiplying) only at the leads it touches; updated rows are made
    primitive with a positive lead."""
    picked, kept = [], []  # positions and columns picked
    rows: Dict[int, Tuple[dict, dict]] = {}  # lead -> (vector, combination)
    where: Dict[int, set] = {}  # row -> leads of kept rows maybe nonzero there
    basis, ints = frozenset(range(m)), {int}
    for pos, col in enumerate(columns):
        if not (col.keys() <= basis and set(map(type, col.values())) <= ints):
            raise InternalConsistencyError(
                f"column {pos} is not a sparse integer vector of length {m}")
        vec = {r: a for r, a in col.items() if a} if 0 in col.values() else dict(col)
        comb = {len(picked): 1}
        steps = []
        for r in vec.keys() & rows.keys():
            p, f = rows[r][0][r], vec[r]
            _combine(p, vec, f, rows[r][0])
            steps.append((p, f, r))
        if not vec:
            continue
        for p, f, r in steps:  # independent: the combination too
            _combine(p, comb, f, rows[r][1])
        lead = min(vec)
        _primitive(lead, vec, comb)
        updated = [lead]
        for r in where.pop(lead, ()):
            g = rows[r][0].get(lead)
            if g:
                _combine(vec[lead], rows[r][0], g, vec)
                _combine(vec[lead], rows[r][1], g, comb)
                _primitive(r, *rows[r])
                updated.append(r)
        for r in vec.keys() - {lead}:  # the updated rows may be nonzero here
            where.setdefault(r, set()).update(updated)
        rows[lead] = vec, comb
        picked.append(pos)
        kept.append(col)
        if len(picked) == m:
            break
    if len(picked) < m:
        return picked, None
    out = [(rows[r][0][r], rows[r][1]) for r in range(m)]
    for r, (den, comb) in enumerate(out):  # exact, whatever eliminated
        acc: Dict[int, int] = {}
        for k, a in comb.items():
            for r2, c in kept[k].items():
                acc[r2] = acc.get(r2, 0) + a * c
        if den < 1 or {r2: a for r2, a in acc.items() if a} != {r: den}:
            raise InternalConsistencyError(
                f"exact elimination: row {r} fails den * e_r = comb * columns")
    return picked, out


def _combine(p: int, vec: dict, f: int, other: dict) -> None:
    """vec <- p * vec - f * other, in place, zero entries dropped."""
    if p != 1:
        for k in vec:
            vec[k] *= p
    for k, b in other.items():
        a = vec.get(k, 0) - f * b
        if a:
            vec[k] = a
        else:
            vec.pop(k, None)


def _primitive(lead: int, vec: dict, comb: dict) -> None:
    """Divide the row by the gcd of its entries, signed to make its lead > 0."""
    g = gcd(*vec.values(), *comb.values()) * (-1 if vec[lead] < 0 else 1)
    if g != 1:
        for d in vec, comb:
            for k in d:
                d[k] //= g
