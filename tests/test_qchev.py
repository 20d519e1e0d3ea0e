import copy
import json
import operator
import pickle
import random
import sys
import threading
from fractions import Fraction
from math import gcd, lcm

import pytest

from qhflag.errors import InternalConsistencyError, InvalidInputError
from qhflag.pwlift import minimal_representatives, qhp_product
from qhflag.qchev import (JsonList, JsonTerm, QClass, QuantumFlagRing,
                          _term_order, format_qclass, independent_inverse,
                          qclass_to_json)
from qhflag.rootsys import build_root_system
from qhflag import qchev, weyl


@pytest.fixture(scope="module")
def a2_ring():
    return QuantumFlagRing(build_root_system("A", 2))


@pytest.fixture(scope="module")
def b2_ring():
    return QuantumFlagRing(build_root_system("B", 2))


def cls(ring, *terms):
    """Build the expected class from (word, qdeg, coeff) triples."""
    return QClass(ring.rs, {(ring.element_from_word(w), q): c
                            for w, q, c in terms})


# The fifteen well-known nontrivial Fl_3 products (all unordered pairs of
# non-identity classes); everything else is a unit row.
FL3_PRODUCTS = [
    ((1,), (1,), [((2, 1), (0, 0), 1), ((), (1, 0), 1)]),
    ((1,), (1, 2), [((1, 2, 1), (0, 0), 1)]),
    ((1,), (2, 1), [((2,), (1, 0), 1)]),
    ((2,), (2,), [((1, 2), (0, 0), 1), ((), (0, 1), 1)]),
    ((2,), (2, 1), [((1, 2, 1), (0, 0), 1)]),
    ((2,), (1, 2), [((1,), (0, 1), 1)]),
    ((1, 2), (1, 2, 1), [((2,), (1, 1), 1)]),
    ((1, 2), (1, 2), [((2, 1), (0, 1), 1)]),
    ((1,), (1, 2, 1), [((1, 2), (1, 0), 1), ((), (1, 1), 1)]),
    ((2, 1), (1, 2, 1), [((1,), (1, 1), 1)]),
    ((2, 1), (2, 1), [((1, 2), (1, 0), 1)]),
    ((2,), (1, 2, 1), [((2, 1), (0, 1), 1), ((), (1, 1), 1)]),
    ((1,), (2,), [((1, 2), (0, 0), 1), ((2, 1), (0, 0), 1)]),
    ((1, 2), (2, 1), [((), (1, 1), 1)]),
    ((1, 2, 1), (1, 2, 1), [((1, 2), (1, 1), 1), ((2, 1), (1, 1), 1)]),
]


@pytest.mark.parametrize("uw,vw,expect", FL3_PRODUCTS)
def test_fl3_products(a2_ring, uw, vw, expect):
    u = a2_ring.element_from_word(uw)
    v = a2_ring.element_from_word(vw)
    want = cls(a2_ring, *expect)
    for got in a2_ring.quantum_product(u, v), a2_ring.quantum_product(v, u):
        # a served class compares and hashes like the class built by hand
        assert got == want and want == got and hash(got) == hash(want)
        assert got.terms == want.terms


def test_fl3_full_table_is_exactly_these(a2_ring):
    rows = list(a2_ring.multiplication_table())
    assert len(rows) == 36
    listed = {}
    for uw, vw, expect in FL3_PRODUCTS:
        want = cls(a2_ring, *expect)
        listed[frozenset([uw, vw]) if uw != vw else frozenset([uw])] = want
    for u, v, qc in rows:
        if u.length == 0:
            assert qc == cls(a2_ring, (v.word(), (0,) * 2, 1))
        elif v.length == 0:
            assert qc == cls(a2_ring, (u.word(), (0,) * 2, 1))
        else:
            key = (frozenset([u.word(), v.word()]) if u != v
                   else frozenset([u.word()]))
            assert qc == listed[key]


def test_unit_laws(a2_ring):
    e = weyl.identity(a2_ring.rs)
    for w in a2_ring.elements:
        assert a2_ring.quantum_product(e, w).terms == {(w, (0, 0)): 1}
        assert a2_ring.quantum_product(w, e).terms == {(w, (0, 0)): 1}


def test_chevalley_product_examples(a2_ring):
    s1 = a2_ring.element_from_word([1])
    qc = a2_ring.chevalley_product(s1, 1)
    assert qc == cls(a2_ring, ((2, 1), (0, 0), 1), ((), (1, 0), 1))
    e = weyl.identity(a2_ring.rs)
    assert a2_ring.chevalley_product(e, 2).terms == {
        (a2_ring.element_from_word([2]), (0, 0)): 1}
    # Chevalley agrees with the general product for length-one factors.
    for u in a2_ring.elements:
        for i in (1, 2):
            si = a2_ring.element_from_word([i])
            assert a2_ring.chevalley_product(u, i) == a2_ring.quantum_product(u, si)


def test_structure_constants(a2_ring):
    s1 = a2_ring.element_from_word([1])
    s2 = a2_ring.element_from_word([2])
    s12 = a2_ring.element_from_word([1, 2])
    s21 = a2_ring.element_from_word([2, 1])
    assert a2_ring.structure_constant(s1, s1, s21, (0, 0)) == 1
    assert a2_ring.structure_constant(s2, s12, s1, (0, 1)) == 1
    # degree-inhomogeneous constants vanish
    assert a2_ring.structure_constant(s1, s1, s12, (1, 0)) == 0
    with pytest.raises(InvalidInputError):
        a2_ring.structure_constant(s1, s1, s21, (-1, 0))


@pytest.fixture(scope="module")
def b3_ring():
    return QuantumFlagRing(build_root_system("B", 3))


# Each entry point of the ring, called with x where it takes an element.
ENTRY_POINTS = {
    "index": lambda ring, x, s1: ring.index(x),
    "quantum_product": lambda ring, x, s1: ring.quantum_product(x, s1),
    "structure_constant": lambda ring, x, s1: ring.structure_constant(
        s1, s1, x, (0, 0, 0)),
    "chevalley_product": lambda ring, x, s1: ring.chevalley_product(x, 2),
    "product_with_class": lambda ring, x, s1: ring.product_with_class(
        ring.quantum_product(s1, s1), x),
}


@pytest.mark.parametrize("entry", list(ENTRY_POINTS))
@pytest.mark.parametrize("kind", ["list", "tuple", "None", "int", "C3", "twin"])
def test_ring_takes_only_elements_of_its_system(b3_ring, entry, kind):
    # A twin B3 system is equal to the ring's, so its elements are accepted
    # and read as the ring's own; anything else is one InvalidInputError.
    call, s1 = ENTRY_POINTS[entry], b3_ring.element_from_word([1])
    native = b3_ring.element_from_word([1, 2])
    if kind == "twin":
        twin = weyl.word_to_element(build_root_system("B", 3), [1, 2])
        assert twin.rs is not b3_ring.rs
        assert call(b3_ring, twin, s1) == call(b3_ring, native, s1)
        return
    x = {"list": [1, 2], "tuple": (1, 2), "None": None, "int": 3,
         "C3": weyl.word_to_element(build_root_system("C", 3), [1, 2])}[kind]
    with pytest.raises(InvalidInputError, match="does not belong to this ring"):
        call(b3_ring, x, s1)


@pytest.mark.parametrize("series,rank", [("A", 2), ("B", 2), ("A", 3),
                                         ("G", 2), ("B", 3), ("C", 3)])
def test_degree_homogeneity_and_positivity(series, rank):
    ring = QuantumFlagRing(build_root_system(series, rank))
    rs = ring.rs
    for u in ring.elements:
        for v in ring.elements:
            for (w, lam), c in ring.quantum_product(u, v).terms.items():
                assert isinstance(c, int) and c > 0
                assert w.length + rs.two_rho_pairing(lam) == u.length + v.length


class OrderedPairOracle:
    """sigma^u * sigma^v by the recursion on the second factor as given,
    memoized per ordered pair.

    It reads only the ring's divisor expressions (``_int_expr``, turned
    back into Fractions a/den, with the pivots (i, x) they name)
    and ``chevalley_product``, and sums QClass terms with Fraction
    coefficients, so it shares neither the canonical factor order nor the
    packed integer arithmetic of ``QuantumFlagRing._product``.
    Computing u*v and v*u here really multiplies in both orders.
    """

    def __init__(self, ring):
        self.ring = ring
        self.zero = (0,) * ring.n
        self.memo = {}

    def _unpack(self, qshift):
        # the key shift of q^lambda: lambda in base l(w0) + 1, lambda_1 the
        # most significant digit, times |W|
        digit = self.ring.max_length + 1
        qkey, lam = qshift // len(self.ring.elements), []
        for _ in range(self.ring.n):
            qkey, e = divmod(qkey, digit)
            lam.append(e)
        return lam[::-1]

    @staticmethod
    def _add(acc, qc, scale, shift):
        for (w, mu), c in qc.terms.items():
            k = (w, tuple(a + b for a, b in zip(mu, shift)))
            acc[k] = acc.get(k, 0) + scale * c

    def __call__(self, u, v):
        key = (u, v)
        if key in self.memo:
            return self.memo[key]
        ring = self.ring
        if v.length == 0 or u.length == 0:
            res = QClass(ring.rs, {(u if v.length == 0 else v, self.zero): 1})
        elif v.length == 1:
            res = ring.chevalley_product(u, v.word()[0])
        else:
            ring._build_expressions_upto(v.length)
            den, expr, corr = ring._int_expr[ring.index(v)]
            acc = {}
            for (i, x), a in expr:
                for (w, mu), c in self(u, ring.elements[x]).terms.items():
                    self._add(acc, ring.chevalley_product(w, i),
                              Fraction(a, den) * c, mu)
            for x2, qshift, a in corr:
                self._add(acc, self(u, ring.elements[x2]), -Fraction(a, den),
                          self._unpack(qshift))
            res = QClass(ring.rs, acc)
        self.memo[key] = res
        return res


@pytest.mark.parametrize("series,rank", [("A", 2), ("B", 2), ("G", 2),
                                         ("A", 3), ("B", 3), ("C", 3)])
def test_products_match_the_ordered_pair_oracle(series, rank):
    ring = QuantumFlagRing(build_root_system(series, rank))
    oracle = OrderedPairOracle(ring)
    for u in ring.elements:
        for v in ring.elements:
            assert oracle(u, v) == oracle(v, u) == ring.quantum_product(u, v)


def all_pairs(ring):
    return [(u, v) for u in ring.elements for v in ring.elements]


# sigma^u * sigma^v and sigma^v * sigma^u share one memo entry in the ring,
# so commutativity is checked against the oracle, which recurses on v * u's
# own second factor u.
@pytest.mark.parametrize("series,rank", [("A", 2), ("B", 2), ("A", 3), ("B", 3)])
def test_commutativity_exhaustive(series, rank):
    ring = QuantumFlagRing(build_root_system(series, rank))
    oracle = OrderedPairOracle(ring)
    for u, v in all_pairs(ring):
        assert ring.quantum_product(u, v) == oracle(v, u)


def test_commutativity_on_a_d4_sample():
    ring = QuantumFlagRing(build_root_system("D", 4))
    oracle = OrderedPairOracle(ring)
    for u, v in random.Random(15).sample(all_pairs(ring), 300):
        assert ring.quantum_product(u, v) == oracle(v, u)


def json_table(ring, pairs):
    """The JSON text of each product, keyed by the reduced words."""
    return {(u.word(), v.word()): json.dumps(
        qclass_to_json(ring.quantum_product(u, v))) for u, v in pairs}


@pytest.mark.parametrize("series,rank,entries", [("A", 3, 300),
                                                 ("B", 3, 1176)])
def test_memo_holds_one_entry_per_unordered_pair(series, rank, entries):
    ring = QuantumFlagRing(build_root_system(series, rank))
    for u, v in all_pairs(ring):
        ring.quantum_product(u, v)
    size = len(ring.elements)
    # Every unordered pair, squares and the identity factor included, is
    # stored once, in the row of its longer factor u (ties by index).
    stored = [(ui, vi) for ui, row in ring._prod.items() for vi in row]
    assert len(stored) == size * (size + 1) // 2 == entries
    assert all((ring.lengths[ui], ui) >= (ring.lengths[vi], vi)
               for ui, vi in stored)
    assert all(type(p) is tuple for row in ring._prod.values()
               for p in row.values())


def counted_applications(ring):
    """A list that grows by one on each Chevalley application of ``ring``."""
    calls, chev_apply = [], ring._chev_apply
    ring._chev_apply = lambda *args: calls.append(1) or chev_apply(*args)
    return calls


def test_products_apply_only_the_pivots_their_expressions_name():
    # Each product sigma^u * sigma^v with l(v) >= 1 applies sigma^{s_i} once
    # per pivot (i, x) that v's expression names, and nothing else does.
    ring = QuantumFlagRing(build_root_system("B", 4))
    calls = counted_applications(ring)
    par = (1, 2, 3)
    reps = minimal_representatives(ring.rs, par)
    for u in reps:
        for v in reps:
            qhp_product(ring, par, u, v)
    named = [len(ring._int_expr[vi][1]) for row in ring._prod.values()
             for vi in row if ring.lengths[vi]]
    assert len(calls) == sum(named) > 0


@pytest.fixture(scope="module")
def d4_tables():
    """A D4 ring after all pairs, and the JSON form of every product."""
    ring = QuantumFlagRing(build_root_system("D", 4))
    return ring, {(u, v): qclass_to_json(ring.quantum_product(u, v))
                  for u, v in all_pairs(ring)}


def test_d4_expressions_name_few_pivots(d4_tables):
    # Picking pivots sparsest x first keeps the expressions short, and with
    # them the pivot applications that all-pairs products replay.
    ring, _ = d4_tables
    sizes = [len(expr) for _, expr, _ in ring._int_expr.values()]
    assert (len(sizes), sum(sizes), max(sizes)) == (191, 372, 9)


# Chevalley applications of all pairs: one per pivot each product's
# expression names, in any call order.
CHEV_APPLICATIONS = {("A", 3): 376, ("B", 3): 1859, ("C", 3): 1859,
                     ("G", 2): 90, ("D", 4): 39370}


@pytest.mark.parametrize("series,rank", sorted(CHEV_APPLICATIONS))
def test_all_pairs_in_any_order_give_one_table_and_one_count(series, rank):
    rs = build_root_system(series, rank)
    tables = []
    pairs = all_pairs(QuantumFlagRing(rs))
    for order in (pairs, pairs[::-1],
                  random.Random(22).sample(pairs, len(pairs))):
        ring = QuantumFlagRing(rs)
        calls = counted_applications(ring)
        tables.append(json_table(ring, order))
        assert len(calls) == CHEV_APPLICATIONS[series, rank]
    assert tables[0] == tables[1] == tables[2]


def test_equal_keys_in_different_memo_entries_are_one_object(d4_tables):
    ring, _ = d4_tables
    first = {}
    for row in ring._prod.values():
        for entry in row.values():
            for key in entry[::2]:  # (key, coeff, key, coeff, ...)
                assert first.setdefault(key, key) is key
    assert len(first) == len(ring._keys) == 3452


def test_d4_stats_after_all_pairs(d4_tables):
    ring, _ = d4_tables
    assert ring.stats() == {
        "memo_entries": 18528, "memo_terms": 134422,
        "chevalley_rows": 768, "expression_degrees": 12,
        "interned_keys": 3452, "json_terms": 4730, "json_lists": 15329}


def test_stats_depend_only_on_what_was_asked():
    rs = build_root_system("B", 3)
    fresh = QuantumFlagRing(rs)
    assert set(fresh.stats().values()) == {0}
    pairs = all_pairs(fresh)
    tables = []
    for order in (pairs, pairs[::-1], random.Random(3).sample(pairs, len(pairs))):
        ring = QuantumFlagRing(rs)
        for u, v in order:
            ring.quantum_product(u, v)
        tables.append(ring.stats())
    assert tables[0] == tables[1] == tables[2]
    assert tables[0]["memo_entries"] == 1176
    assert tables[0]["json_terms"] == 0


@pytest.mark.parametrize("series,rank", [("A", 3), ("B", 3), ("C", 3),
                                         ("G", 2), ("D", 4)])
def test_pivots_come_grouped_by_x_sparsest_x_first(series, rank):
    ring = QuantumFlagRing(build_root_system(series, rank))
    ring._build_expressions_upto(ring.max_length)

    def x_size(x):  # classical terms of sigma^x * sigma^{s_i}, over all i
        return sum(not any(lam) for i in range(1, ring.n + 1)
                   for _, lam in ring.chevalley_product(ring.elements[x], i).terms)

    for d in range(1, ring.max_length + 1):
        xs = [x for _, x in ring._pivots[d]]
        sizes = [x_size(x) for x in xs]
        assert sizes == sorted(sizes)
        runs = [x for k, x in enumerate(xs) if k == 0 or xs[k - 1] != x]
        assert len(runs) == len(set(xs))


def test_products_hold_no_zero_coefficients():
    ring = QuantumFlagRing(build_root_system("B", 3))
    rng = random.Random(7)
    for u, v in all_pairs(ring):
        # the classical product's coefficients are among the quantum ones
        for qc in (ring.quantum_product(u, v),
                   ring.chevalley_product(u, rng.randint(1, 3))):
            assert 0 not in qc.terms.values()
    for u, v in rng.sample(all_pairs(ring), 100):
        w = ring.elements[rng.randrange(len(ring.elements))]
        qc = ring.product_with_class(ring.quantum_product(u, v), w)
        assert 0 not in qc.terms.values()
    assert all(0 not in res[1::2] for row in ring._prod.values()
               for res in row.values())


def test_products_do_not_depend_on_call_order():
    rs = build_root_system("B", 3)
    tables = []
    for seed, reads in ((11, 0), (12, 25)):
        ring = QuantumFlagRing(rs)
        pairs = all_pairs(ring)
        rng = random.Random(seed)
        for _ in range(reads):  # sparse reads first fill part of the memo
            u, v, w = (rng.choice(ring.elements) for _ in range(3))
            ring.structure_constant(u, v, w, (rng.randint(0, 1), 0, 1))
        rng.shuffle(pairs)
        tables.append(json_table(ring, pairs))
    assert tables[0] == tables[1]
    assert len(tables[0]) == 48 * 48


@pytest.mark.parametrize("series,rank,samples",
                         [("A", 2, 200), ("B", 2, 200), ("A", 3, 200),
                          ("B", 3, 200), ("G", 2, 200), ("C", 3, 200)])
def test_associativity_sampled(series, rank, samples):
    ring = QuantumFlagRing(build_root_system(series, rank))
    rng = random.Random(20260810)
    els = ring.elements
    for _ in range(samples):
        u, v, w = (els[rng.randrange(len(els))] for _ in range(3))
        left = ring.product_with_class(ring.quantum_product(u, v), w)
        right = ring.product_with_class(ring.quantum_product(v, w), u)
        assert left == right


def rank(vectors):
    """Rank by plain Fraction row reduction (test-only reference)."""
    rows = [[Fraction(a) for a in v] for v in vectors]
    r = 0
    for c in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        for i in range(r + 1, len(rows)):
            f = rows[i][c] / rows[r][c]
            rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        r += 1
    return r


def random_columns(rng, m, count, spanning):
    """Integer columns with zero, repeated and dependent ones mixed in; a
    non-spanning set keeps the last coordinate zero."""
    cols = []
    for _ in range(count):
        kind = rng.random()
        if kind < 0.15:
            col = [0] * m
        elif kind < 0.3 and cols:
            col = list(rng.choice(cols))
        elif kind < 0.45 and len(cols) >= 2:
            a, b = rng.sample(cols, 2)
            x, y = rng.randint(-3, 3), rng.randint(-3, 3)
            col = [x * p + y * q for p, q in zip(a, b)]
        else:
            col = [rng.choice((0, 0, 1, -1, 2, -3, 5)) for _ in range(m)]
        if not spanning:
            col[-1] = 0
        cols.append(col)
    return cols


def dense_independent_inverse(columns, m):
    """The dense fraction-free Gauss-Jordan pass (Bareiss) that
    ``independent_inverse`` replaced, kept as an oracle: columns are
    length-m lists and each combination comes back as a length-m list."""
    picked, rows = [], []  # rows: [lead, reduced vector, combination]
    for pos, col in enumerate(columns):
        vec, steps = list(col), []
        for j, (lead, rvec, _) in enumerate(rows):
            f = vec[lead]
            if f:
                p = rvec[lead]
                vec = [p * a - f * b for a, b in zip(vec, rvec)]
                steps.append((j, p, f))
        lead = next((r for r, a in enumerate(vec) if a), None)
        if lead is None:
            continue
        comb = [int(k == len(picked)) for k in range(m)]
        for j, p, f in steps:
            comb = [p * a - f * b for a, b in zip(comb, rows[j][2])]
        new = dense_primitive(lead, vec, comb)
        _, vec, comb = new
        for row in rows:
            g = row[1][lead]
            if g:
                p = vec[lead]
                row[:] = dense_primitive(
                    row[0], [p * a - g * b for a, b in zip(row[1], vec)],
                    [p * a - g * b for a, b in zip(row[2], comb)])
        rows.append(new)
        picked.append(pos)
        if len(picked) == m:
            break
    if len(picked) < m:
        return picked, None
    rows.sort(key=lambda row: row[0])
    return picked, [(vec[r], comb) for r, (_, vec, comb) in enumerate(rows)]


def dense_primitive(lead, vec, comb):
    g = gcd(*vec, *comb) if vec[lead] > 0 else -gcd(*vec, *comb)
    if g != 1:
        vec, comb = [a // g for a in vec], [a // g for a in comb]
    return [lead, vec, comb]


def sparse(col):
    return {r: a for r, a in enumerate(col) if a}


def dense(col, m):
    return [col.get(r, 0) for r in range(m)]


def assert_matches_dense(columns, m):
    """Sparse and dense elimination pick the same columns and return the
    same (den, combination) rows."""
    picked, rows = independent_inverse(iter(columns), m)
    want_picked, want_rows = dense_independent_inverse(
        [dense(col, m) for col in columns], m)
    assert picked == want_picked
    if want_rows is None:
        assert rows is None
    else:
        assert [(den, dense(comb, m)) for den, comb in rows] == want_rows
        assert all(a for _, comb in rows for a in comb.values())
    return picked


@pytest.fixture
def recorded_eliminations(monkeypatch):
    """Every (columns, m) a ring hands to ``independent_inverse``."""
    calls = []

    def record(columns, m):
        columns = list(columns)
        calls.append((columns, m))
        return independent_inverse(iter(columns), m)

    monkeypatch.setattr(qchev, "independent_inverse", record)
    return calls


@pytest.mark.parametrize("series,rank_", [
    ("A", 2), ("B", 2), ("G", 2), ("A", 3), ("B", 3), ("C", 3), ("A", 4),
    ("B", 4), ("C", 4), ("D", 4), ("F", 4)])
def test_sparse_elimination_matches_the_dense_oracle_on_every_degree(
        recorded_eliminations, series, rank_):
    ring = QuantumFlagRing(build_root_system(series, rank_))
    ring._build_expressions_upto(ring.max_length)
    assert len(recorded_eliminations) == ring.max_length
    for d, (columns, m) in enumerate(recorded_eliminations, 1):
        assert m == len(ring.by_length[d])
        picked = assert_matches_dense(columns, m)
        assert len(picked) == m


@pytest.mark.parametrize("seed", range(60))
def test_sparse_elimination_matches_the_dense_oracle_on_random_streams(seed):
    # Zero, repeated, dependent and (every fourth seed) non-spanning
    # columns; some sparse columns also carry explicit zero entries.
    rng = random.Random(1000 + seed)
    m = rng.randint(1, 10)
    cols = [sparse(col) for col in random_columns(
        rng, m, rng.randint(m, 4 * m + 4), seed % 4 != 0)]
    for col in cols:
        if rng.random() < 0.2:
            col[rng.randrange(m)] = 0
    assert_matches_dense(cols, m)


@pytest.mark.parametrize("seed", range(40))
def test_independent_inverse_matches_a_rank_scan(seed):
    rng = random.Random(seed)
    m = rng.randint(1, 6)
    spanning = seed % 4 != 0
    cols = random_columns(rng, m, rng.randint(m, 4 * m + 4), spanning)
    expected = []
    for pos, col in enumerate(cols):
        chosen = [cols[p] for p in expected]
        if len(expected) < m and rank(chosen + [col]) > len(expected):
            expected.append(pos)
    stream = iter(map(sparse, cols))
    picked, rows = independent_inverse(stream, m)
    assert picked == expected
    if not spanning:
        assert len(picked) < m
    if len(picked) < m:
        assert rows is None
        return
    # Columns after the m-th pick are never read.
    assert len(list(stream)) == len(cols) - 1 - picked[-1]
    assert len(rows) == m
    for r, (den, comb) in enumerate(rows):
        # den_r * e_r = sum_k comb_r[k] * (k-th picked column), exactly,
        # in lowest terms with a positive denominator; comb_r is sparse.
        assert all(type(x) is int for x in (den, *comb, *comb.values()))
        assert set(comb) <= set(range(m)) and 0 not in comb.values()
        assert den > 0 and gcd(den, *comb.values()) == 1
        for r2 in range(m):
            got = sum(a * cols[picked[k]][r2] for k, a in comb.items())
            assert got == (den if r2 == r else 0)


@pytest.mark.parametrize("planted", [{2: 1}, {-1: 1}, {0: Fraction(1)},
                                     {0: 1.0}, {0: True}, {"0": 1}])
def test_a_column_outside_the_basis_or_not_integer_is_refused(planted):
    # Without the check, a row index m would become a lead >= m and end in
    # a KeyError; a non-integer coefficient would leave the integers.
    columns = iter([{0: 1}, planted, {1: 1}])
    with pytest.raises(InternalConsistencyError, match="sparse integer vector"):
        independent_inverse(columns, 2)


def test_a_corrupted_combination_is_refused(monkeypatch):
    # A combination corrupted inside the elimination fails the final check
    # den_r * e_r = sum_k comb_r[k] * column_k, which reads only the columns.
    primitive = qchev._primitive

    def corrupt(lead, vec, comb):
        primitive(lead, vec, comb)
        comb[0] = comb.get(0, 0) + 1

    columns = [{0: 2, 1: 1}, {0: 1, 1: 3}]
    assert independent_inverse(iter(columns), 2)[1] == [(5, {0: 3, 1: -1}),
                                                       (5, {0: -1, 1: 2})]
    monkeypatch.setattr(qchev, "_primitive", corrupt)
    with pytest.raises(InternalConsistencyError, match="exact elimination"):
        independent_inverse(iter(columns), 2)
    with pytest.raises(InternalConsistencyError, match="exact elimination"):
        QuantumFlagRing(build_root_system("A", 3))._build_expressions_upto(3)


def fraction_expressions(ring, d):
    """Oracle for ``_pivots[d]`` and ``_int_expr`` over the length-d basis,
    by Fraction row reduction on the classical Chevalley products.

    Candidates sigma^x * sigma^{s_i} (l(x) = d-1) come grouped by x, the x
    with the fewest classical terms over all i first, and within one x the
    sparsest column first; ties keep element and then i order.  They are
    kept while they raise the rank; the kept ones are inverted by
    Gauss-Jordan on [M | I], and each sigma^v's coefficients are put over
    their lcm.
    """
    basis = [ring.elements[i] for i in ring.by_length[d]]
    m = len(basis)
    zero = (0,) * ring.n
    groups = []
    for x in ring.by_length[d - 1]:
        group = []
        for i in range(1, ring.n + 1):
            qc = ring.chevalley_product(ring.elements[x], i)
            col = [Fraction(qc.terms.get((v, zero), 0)) for v in basis]
            group.append((sum(1 for a in col if a), i, qc, col))
        groups.append((sum(g[0] for g in group), x,
                       sorted(group, key=lambda g: g[0])))
    groups.sort(key=lambda g: g[0])
    echelon = {}  # pivot coordinate -> row with a 1 there
    pivots, cols, quantum = [], [], []
    for _, x, group in groups:
        for _, i, qc, col in group:
            if len(pivots) == m:
                break
            vec = list(col)
            for c, row in echelon.items():
                if vec[c]:
                    vec = [a - vec[c] * b for a, b in zip(vec, row)]
            lead = next((c for c, a in enumerate(vec) if a), None)
            if lead is None:
                continue
            echelon[lead] = [a / vec[lead] for a in vec]
            pivots.append((i, x))
            cols.append(col)
            quantum.append({k: c for k, c in qc.terms.items() if k[1] != zero})
    assert len(pivots) == m
    aug = [[cols[k][r] for k in range(m)]
           + [Fraction(r == c) for c in range(m)] for r in range(m)]
    for c in range(m):
        piv = next(r for r in range(c, m) if aug[r][c])
        aug[c], aug[piv] = aug[piv], aug[c]
        aug[c] = [a / aug[c][c] for a in aug[c]]
        for r in range(m):
            if r != c and aug[r][c]:
                aug[r] = [a - aug[r][c] * b for a, b in zip(aug[r], aug[c])]
    exprs = {}
    for r, v in enumerate(basis):
        coeffs = [aug[k][m + r] for k in range(m)]  # e_r = sum_k coeffs[k] col_k
        den = lcm(*(a.denominator for a in coeffs))
        expr = [(k, int(a * den)) for k, a in enumerate(coeffs) if a]
        corr = {}
        for k, a in expr:
            for key, c in quantum[k].items():
                corr[key] = corr.get(key, 0) + a * c
        exprs[v] = (den, expr, {k: c for k, c in corr.items() if c})
    return pivots, exprs


@pytest.mark.parametrize("series,rank_", [("B", 3), ("C", 3), ("D", 4),
                                          ("B", 4)])
def test_integer_expressions_match_a_fraction_oracle(series, rank_):
    ring = QuantumFlagRing(build_root_system(series, rank_))
    ring._build_expressions_upto(ring.max_length)
    for d in range(1, ring.max_length + 1):
        pivots, exprs = fraction_expressions(ring, d)
        assert ring._pivots[d] == pivots
        for v, (den, expr, corr) in exprs.items():
            got_den, got_expr, got_corr = ring._int_expr[ring.index(v)]
            assert (got_den, got_expr) == (
                den, [(pivots[k], a) for k, a in expr])
            assert [(x2, qs) for x2, qs, _ in got_corr] == sorted(
                (x2, qs) for x2, qs, _ in got_corr)
            assert {(ring.elements[x2], ring._q_of(qs)[0]): a
                    for x2, qs, a in got_corr} == corr


@pytest.mark.parametrize("series,rank_", [("A", 3), ("B", 3), ("C", 3),
                                          ("G", 2)])
def test_divisor_expressions_reproduce_each_class(series, rank_):
    # sum_k (a_k/den) sigma^{x_k} * sigma^{s_i_k} is sigma^v plus the stored
    # q-corrections.
    ring = QuantumFlagRing(build_root_system(series, rank_))
    ring._build_expressions_upto(ring.max_length)
    zero = (0,) * ring.n
    checked = 0
    for vi, v in enumerate(ring.elements):
        if v.length < 1:
            continue
        den, expr, corr = ring._int_expr[vi]
        total = {}
        for (i, x), a in expr:
            for k, c in ring.chevalley_product(ring.elements[x], i).terms.items():
                total[k] = total.get(k, 0) + c * Fraction(a, den)
        assert {k: c for k, c in total.items() if c and k[1] == zero} == {
            (v, zero): 1}
        assert {k: c for k, c in total.items() if c and k[1] != zero} == {
            (ring.elements[x2], ring._q_of(qs)[0]): Fraction(a, den)
            for x2, qs, a in corr}
        checked += 1
    assert checked == sum(len(ring.by_length[d])
                          for d in range(1, ring.max_length + 1))


def qhp_table(ring, par, pairs):
    return {(u.word(), v.word()): sorted(
        (w.word(), exps, c)
        for (w, exps), c in qhp_product(ring, par, u, v).items())
        for u, v in pairs}


def test_threads_sharing_a_fresh_ring_agree_with_one_thread():
    # The shared ring sits on its own fresh system, so the threads also race
    # on its lift and W^P tables.  Each thread asks for all B3 pairs, and
    # the ring's table sizes depend only on what was asked.
    par = (1, 2)
    single = QuantumFlagRing(build_root_system("B", 3))
    expected = json_table(single, all_pairs(single))
    reps = minimal_representatives(single.rs, par)
    expected_qhp = qhp_table(single, par, [(u, v) for u in reps for v in reps])
    shared = QuantumFlagRing(build_root_system("B", 3))
    results, qhp_results, errors = {}, {}, []

    def work(seed):
        try:
            rng = random.Random(seed)
            pairs = all_pairs(shared)
            rng.shuffle(pairs)
            results[seed] = json_table(shared, pairs)
            own = minimal_representatives(shared.rs, par)
            qpairs = [(u, v) for u in own for v in own]
            rng.shuffle(qpairs)
            qhp_results[seed] = qhp_table(shared, par, qpairs)
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(seed,))
                   for seed in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert sorted(results) == sorted(qhp_results) == [0, 1, 2, 3]
    assert all(res == expected for res in results.values())
    assert len(expected) == 48 * 48
    assert all(res == expected_qhp for res in qhp_results.values())
    assert len(expected_qhp) == 8 * 8
    assert (shared.rs._cache["pw_lift"].keys()
            == single.rs._cache["pw_lift"].keys())
    assert shared.stats() == single.stats()


def test_stats_count_the_degrees_built_after_a_late_counter_write():
    # Two threads build degrees d and d + 1 on one ring; the one that built
    # d may write the counter last, which made the thread test above read
    # expression_degrees 8 against 9 on B3 now and then.
    ring = QuantumFlagRing(build_root_system("A", 2))
    ring._build_expressions_upto(3)
    ring._expr_built_upto = 2  # the late write of the thread that built 2
    assert ring.stats()["expression_degrees"] == 3


def test_concurrent_expression_builds_build_each_degree_once(monkeypatch):
    # One thread is paused inside degree 1 while another asks for degree 3.
    # The second waits for the first instead of building degree 1 again,
    # and the counter ends at 3 whichever thread writes last.
    ring = QuantumFlagRing(build_root_system("A", 3))
    built, inside, resume = [], threading.Event(), threading.Event()
    build = ring._build_expressions_degree

    def paused(d):
        built.append(d)
        if d == 1 and not inside.is_set():
            inside.set()
            resume.wait(timeout=60)
        build(d)

    monkeypatch.setattr(ring, "_build_expressions_degree", paused)
    first = threading.Thread(target=ring._build_expressions_upto, args=(1,))
    second = threading.Thread(target=ring._build_expressions_upto, args=(3,))
    first.start()
    assert inside.wait(timeout=60)
    second.start()
    second.join(timeout=0.5)  # time enough to rebuild degree 1 unlocked
    resume.set()
    for t in (first, second):
        t.join(timeout=60)
    assert not first.is_alive() and not second.is_alive()
    assert built == [1, 2, 3]
    assert ring._expr_built_upto == 3 and sorted(ring._pivots) == [1, 2, 3]


def test_product_with_class_shifts_exponents_not_packed_keys(a2_ring):
    s1 = a2_ring.element_from_word([1])
    assert a2_ring.quantum_product(s1, s1) == cls(
        a2_ring, ((), (1, 0), 1), ((2, 1), (0, 0), 1))
    # exponents far past any packing digit must not carry into q2
    high = cls(a2_ring, ((1,), (31, 0), 1))
    got = a2_ring.product_with_class(high, s1)
    assert format_qclass(got) == "q1^32 + q1^31*s[2,1]"
    assert got == cls(a2_ring, ((), (32, 0), 1), ((2, 1), (31, 0), 1))
    # a negative exponent is a plain shift, not a packing error
    low = cls(a2_ring, ((1,), (-1, 0), 1))
    assert a2_ring.product_with_class(low, s1) == cls(
        a2_ring, ((), (0, 0), 1), ((2, 1), (-1, 0), 1))


def test_structure_constant_beyond_the_packing_range_is_zero(a2_ring):
    s1 = a2_ring.element_from_word([1])
    one = weyl.identity(a2_ring.rs)
    assert a2_ring.structure_constant(s1, s1, one, (40, 0)) == 0
    assert a2_ring.structure_constant(s1, s1, one, (1, 0)) == 1


def test_structure_constants_are_the_coefficients_of_the_product():
    # Every B3 triple (u, v, w), at each lambda of sigma^u * sigma^v and at
    # lambda = 0: absent terms read 0.
    ring = QuantumFlagRing(build_root_system("B", 3))
    zero = (0,) * ring.n
    for u, v in all_pairs(ring):
        qc = ring.quantum_product(u, v)
        for lam in {lam for _, lam in qc.terms} | {zero}:
            for w in ring.elements:
                assert ring.structure_constant(u, v, w, lam) == qc.terms.get(
                    (w, lam), 0)


@pytest.mark.parametrize("lam", [(1.5, 0), (True, 0), (1.0, 0), (0, None)])
def test_structure_constant_rejects_non_integer_multidegree(a2_ring, lam):
    # (1.5, 0) used to read as a zero constant instead of an error.
    s1 = a2_ring.element_from_word([1])
    one = weyl.identity(a2_ring.rs)
    with pytest.raises(InvalidInputError, match="must be integers"):
        a2_ring.structure_constant(s1, s1, one, lam)


def test_classical_ring_matches_borel_dimensions():
    # q -> 0: the degree-d graded piece has one divisor-monomial expression
    # per length-d Weyl element (the elimination must reach full rank).
    for series, rank in [("A", 3), ("B", 3), ("G", 2)]:
        ring = QuantumFlagRing(build_root_system(series, rank))
        ring._build_expressions_upto(ring.max_length)
        for d in range(1, ring.max_length + 1):
            assert len(ring._pivots[d]) == len(ring.by_length[d])


def test_mult_table_b2_shape(b2_ring):
    rows = list(b2_ring.multiplication_table())
    assert len(rows) == 64
    rows1 = list(b2_ring.multiplication_table(max_length=1))
    assert len(rows1) == 9
    assert len(list(b2_ring.multiplication_table(max_length=0))) == 1
    with pytest.raises(InvalidInputError, match="nonnegative"):
        b2_ring.multiplication_table(max_length=-1)


def test_qclass_format_and_json(a2_ring):
    u = a2_ring.element_from_word([1])
    w0 = a2_ring.element_from_word([1, 2, 1])
    qc = a2_ring.quantum_product(u, w0)
    assert format_qclass(qc) == "q1*q2 + q1*s[1,2]"
    data = qclass_to_json(qc)
    assert data == [{"word": (), "q": (1, 1), "coeff": "1"},
                    {"word": (1, 2), "q": (1, 0), "coeff": "1"}]
    assert json.dumps(data) == ('[{"word": [], "q": [1, 1], "coeff": "1"}, '
                                '{"word": [1, 2], "q": [1, 0], "coeff": "1"}]')
    assert format_qclass(QClass(a2_ring.rs, {})) == "0"
    e = weyl.identity(a2_ring.rs)
    assert format_qclass(QClass(a2_ring.rs, {(e, (0, 0)): 1})) == "1"
    assert format_qclass(QClass(a2_ring.rs, {(e, (0, 0)): 3})) == "3"


def is_canonical(qc):
    return list(qc.terms.items()) == sorted(qc.terms.items(), key=_term_order)


@pytest.mark.parametrize("series,rank", [("A", 3), ("B", 3), ("C", 3),
                                         ("G", 2)])
def test_products_are_built_in_canonical_order(series, rank):
    ring = QuantumFlagRing(build_root_system(series, rank))
    for u, v in all_pairs(ring):
        qc = ring.quantum_product(u, v)
        assert qc._packed is not None and is_canonical(qc)
        assert is_canonical(QClass(ring.rs, {k: c for k, c in qc.terms.items()
                                             if not any(k[1])}))


def test_d4_products_are_built_in_canonical_order():
    ring = QuantumFlagRing(build_root_system("D", 4))
    rng = random.Random(4)
    for u, v in rng.sample(all_pairs(ring), 400):
        assert is_canonical(ring.quantum_product(u, v))
    # Chevalley products mix classical and q-shifted terms
    for u in ring.elements:
        assert is_canonical(ring.chevalley_product(u, rng.randint(1, 4)))


def test_e6_builds_past_the_old_length_cap():
    # l(w0) = 36: the packing digit is l(w0) + 1, so no length is refused.
    ring = QuantumFlagRing(build_root_system("E", 6), weyl_cap=51840)
    w0 = ring.elements[-1]
    assert (len(ring.elements), w0.length, ring.max_length) == (51840, 36, 36)
    for i in range(1, 7):
        qc = ring.chevalley_product(w0, i)
        assert qc._packed is not None and is_canonical(qc) and len(qc.terms) > 1
        assert all(w.length + ring.rs.two_rho_pairing(lam) == 37
                   for w, lam in qc.terms)
        assert any(max(lam) for _, lam in qc.terms)
        assert ring.quantum_product(w0, ring.element_from_word([i])) == qc


@pytest.mark.parametrize("planted", ["classical", "quantum"])
def test_a_term_of_the_wrong_degree_is_refused(planted):
    # Plant one term of the wrong degree in the row of s1 * s_1: every class
    # built from that row must fail the homogeneity check.
    ring = QuantumFlagRing(build_root_system("A", 2))
    s1 = ring.element_from_word([1])
    row = ring._chev_row(1, ring.index(s1))
    if planted == "classical":  # sigma^{w0}: degree 3, not 2
        delta = ring._wkeys[-1] - ring._wkeys[ring.index(s1)]
    else:  # q1 * sigma^{s1}: degree 3, not 2
        delta = ring._pack((1, 0))
    ring._chev_rows[0][ring.index(s1)] = row + ((delta, 1),)
    with pytest.raises(InternalConsistencyError, match="homogeneity"):
        ring.chevalley_product(s1, 1)
    with pytest.raises(InternalConsistencyError, match="homogeneity"):
        ring.quantum_product(s1, s1)


@pytest.mark.parametrize("planted,message", [("signs", "negative"),
                                             ("denominator", "non-integer")])
def test_a_wrong_divisor_expression_is_refused(planted, message):
    # Plant a wrong expression for one A3 class of degree 2: with its signs
    # flipped every structure constant of a product with it comes out
    # negative; over three times its denominator, a third of each one.
    ring = QuantumFlagRing(build_root_system("A", 3))
    ring._build_expressions_upto(2)
    vi = ring.by_length[2][0]
    den, expr, corr = ring._int_expr[vi]
    if planted == "signs":
        ring._int_expr[vi] = (den, [(rec, -a) for rec, a in expr],
                              [(x2, qs, -a) for x2, qs, a in corr])
    else:
        ring._int_expr[vi] = (3 * den, expr, corr)
    with pytest.raises(InternalConsistencyError, match=message):
        ring.quantum_product(ring.elements[-1], ring.elements[vi])


def test_divisor_classes_that_fail_to_span_are_refused():
    # Plant sigma^{s_1} as the row of sigma^e * sigma^{s_2}: the degree-1
    # pivots then span one class of two.
    ring = QuantumFlagRing(build_root_system("A", 2))
    e = ring.index(weyl.identity(ring.rs))
    ring._chev_rows[1][e] = ring._chev_row(1, e)
    s1 = ring.element_from_word([1])
    with pytest.raises(InternalConsistencyError, match="fail to span"):
        ring.quantum_product(s1, s1)


def test_unordered_class_serialises_like_the_product():
    ring = QuantumFlagRing(build_root_system("B", 3))
    qc = max((ring.quantum_product(u, v) for u, v in all_pairs(ring)),
             key=lambda qc: len(qc.terms))
    assert len(qc.terms) > 10
    backwards = QClass(ring.rs, dict(reversed(list(qc.terms.items()))))
    assert backwards._packed is None
    assert list(backwards.terms) != list(qc.terms)
    assert backwards.sorted_terms() == qc.sorted_terms()
    assert qclass_to_json(backwards) == qclass_to_json(qc)
    assert json.dumps(qclass_to_json(backwards)) == json.dumps(
        qclass_to_json(qc))
    # same term type on both paths; a built class gets a fresh, editable
    # plain list of fresh term objects, a served one the ring's JsonList
    fresh, interned = qclass_to_json(backwards), qclass_to_json(qc)
    assert {type(t) for t in fresh + interned} == {JsonTerm}
    assert type(fresh) is list and type(interned) is JsonList
    assert qclass_to_json(backwards) is not fresh
    fresh.append(fresh.pop(0))
    both = fresh + interned
    assert type(both) is list and len(both) == 2 * len(qc.terms)
    assert not set(map(id, fresh)) & set(map(id, interned))
    assert format_qclass(backwards) == format_qclass(qc)
    # a class built by hand sorts on the way out
    doubled = QClass(ring.rs, {k: 2 * c for k, c in backwards.terms.items()})
    assert doubled._packed is None
    assert qclass_to_json(doubled) == [dict(t, coeff=str(2 * int(t["coeff"])))
                                       for t in qclass_to_json(qc)]


def test_json_shares_the_words_and_q_keys():
    ring = QuantumFlagRing(build_root_system("B", 3))
    u = ring.element_from_word([2, 3, 1, 2])
    qc = ring.quantum_product(u, u)
    data = qclass_to_json(qc)
    assert len(data) == len(qc.terms)
    for entry, ((w, lam), c) in zip(data, qc.terms.items()):
        assert entry["word"] is w.word()
        assert entry["q"] is lam
        assert entry["coeff"] == str(c)
    # the term objects themselves are the ring's, shared between calls
    again = qclass_to_json(ring.quantum_product(u, u))
    assert list(map(id, again)) == list(map(id, data))
    built = qclass_to_json(QClass(ring.rs, qc.terms))
    assert built == data and not set(map(id, built)) & set(map(id, data))
    assert all(a["word"] is b["word"] and a["q"] is b["q"]
               for a, b in zip(built, data))


def test_served_classes_are_read_without_decoding(monkeypatch):
    ring = QuantumFlagRing(build_root_system("B", 3))
    u = ring.element_from_word([2, 3, 1, 2])
    v = ring.element_from_word([1, 2, 3])
    reads = []  # the first read of a served class's terms decodes them
    terms = QClass.terms
    monkeypatch.setattr(QClass, "terms", property(
        lambda qc: reads.append(qc) or terms.fget(qc)))
    qc = ring.quantum_product(u, v)
    assert qc._packed is not None and len(qclass_to_json(qc)) > 1
    format_qclass(qc)
    listed = qc.sorted_terms()
    assert ring.quantum_product(v, u).sorted_terms() == listed
    assert reads == []
    assert list(qc.terms.items()) == listed
    assert len(reads) == 1


def test_served_classes_compare_by_their_packed_entries(monkeypatch):
    ring = QuantumFlagRing(build_root_system("B", 3))
    twin = QuantumFlagRing(build_root_system("B", 3))
    pairs = list(all_pairs(ring))[::37]
    reads = []  # comparing two classes of one ring decodes neither
    terms = QClass.terms
    monkeypatch.setattr(QClass, "terms", property(
        lambda qc: reads.append(qc) or terms.fget(qc)))
    served = [ring.quantum_product(u, v) for u, v in pairs]
    for (u, v), qc in zip(pairs, served):
        assert qc == ring.quantum_product(v, u)
        assert sum(qc == other for other in served) == sum(
            qc._packed == other._packed for other in served)
    assert reads == []
    for (u, v), qc in zip(pairs, served):
        by_hand = QClass(ring.rs, dict(qc.sorted_terms()))
        other = twin.quantum_product(twin.element_from_word(u.word()),
                                     twin.element_from_word(v.word()))
        for a, b in ((qc, by_hand), (by_hand, qc), (qc, other), (other, qc)):
            assert a == b and hash(a) == hash(b)
        doubled = QClass(ring.rs, {k: 2 * c for k, c in by_hand.terms.items()})
        assert qc != doubled and doubled != qc
    others = [twin.quantum_product(*(twin.element_from_word(w.word())
                                     for w in pair)) for pair in pairs]
    verdicts = [(a == b, a.terms == b.terms) for a in served for b in others]
    assert all(x == y for x, y in verdicts) and not all(x for x, _ in verdicts)


def test_d4_products_share_their_json_terms(d4_tables):
    ring, tables = d4_tables
    served = [t for table in tables.values() for t in table]
    assert len(served) == 267408
    assert len({id(t) for t in served}) == len(ring._json_terms) == 4730
    for (u, v), table in tables.items():
        assert list(map(id, table)) == list(map(id, tables[v, u]))


def test_d4_products_share_one_json_list_per_stored_class(d4_tables):
    # 36,864 products, 18,528 memo entries, 15,329 distinct classes among
    # them: a list is keyed by the class's value, so equal products share it.
    ring, tables = d4_tables
    entries = [p for row in ring._prod.values() for p in row.values()]
    assert len(tables) == 36864 and len(entries) == 18528
    lists = {id(table): table for table in tables.values()}
    assert len(lists) == len(set(entries)) == len(ring._json_lists) == 15329
    assert all(type(table) is JsonList for table in lists.values())
    assert len({id(t) for table in lists.values() for t in table}) == 4730
    for (u, v), table in tables.items():
        assert table is tables[v, u]
        assert qclass_to_json(ring.quantum_product(u, v)) is table


def test_json_lists_are_read_only_and_copy_to_plain_lists(a2_ring):
    s1, s2 = a2_ring.element_from_word([1]), a2_ring.element_from_word([2])
    terms = qclass_to_json(a2_ring.quantum_product(s1, s2))
    assert qclass_to_json(a2_ring.quantum_product(s2, s1)) is terms
    want = [{"word": (1, 2), "q": (0, 0), "coeff": "1"},
            {"word": (2, 1), "q": (0, 0), "coeff": "1"}]
    text = json.dumps(want)
    mutations = [lambda t: operator.setitem(t, 0, {}),
                 lambda t: operator.setitem(t, slice(0, 1), []),
                 lambda t: operator.delitem(t, 0),
                 lambda t: operator.delitem(t, slice(None)),
                 lambda t: operator.iadd(t, [{}]),
                 lambda t: operator.imul(t, 2),
                 lambda t: t.append({}), lambda t: t.extend([{}]),
                 lambda t: t.insert(0, {}), lambda t: t.pop(),
                 lambda t: t.remove(t[0]), lambda t: t.clear(),
                 lambda t: t.reverse(), lambda t: t.sort(key=str)]
    for mutate in mutations:
        with pytest.raises(TypeError, match="read-only"):
            mutate(terms)
    assert terms == want and json.dumps(terms) == text
    copies = [list(terms), terms.copy(), terms[:], copy.copy(terms),
              copy.deepcopy(terms), pickle.loads(pickle.dumps(terms))]
    for plain in copies:
        assert type(plain) is list and plain == want
        plain.append(plain.pop(0))
    assert terms == want and json.dumps(terms) == text


def test_json_terms_are_read_only_and_copy_to_plain_dicts(a2_ring):
    s1 = a2_ring.element_from_word([1])
    term = qclass_to_json(a2_ring.quantum_product(s1, s1))[0]
    want = {"word": (), "q": (1, 0), "coeff": "1"}
    mutations = [lambda t: t.__setitem__("coeff", "2"),
                 lambda t: t.__delitem__("q"), lambda t: t.clear(),
                 lambda t: t.pop("word"), lambda t: t.popitem(),
                 lambda t: t.setdefault("x", 1), lambda t: t.update(x=1),
                 lambda t: t.__ior__({"x": 1})]
    for mutate in mutations:
        with pytest.raises(TypeError, match="read-only"):
            mutate(term)
    assert term == want
    copies = [term.copy(), dict(term), copy.copy(term), copy.deepcopy(term),
              pickle.loads(pickle.dumps(term))]
    for plain in copies:
        assert type(plain) is dict and plain == want
        plain["coeff"] = "2"
    assert term == want


def test_a_served_json_list_cannot_be_refilled_through_init():
    # list.__init__ empties and refills a list in place; on the ring's shared
    # list that would rewrite every later serve of the class.
    ring = QuantumFlagRing(build_root_system("A", 2))
    s1 = ring.element_from_word([1])
    terms = qclass_to_json(ring.quantum_product(s1, s1))
    want = [{"word": (), "q": (1, 0), "coeff": "1"},
            {"word": (2, 1), "q": (0, 0), "coeff": "1"}]
    assert terms == want
    for args in ([], [[{}]], [[]]):
        with pytest.raises(TypeError, match="read-only"):
            terms.__init__(*args)
    assert terms == want and type(terms) is JsonList
    assert qclass_to_json(ring.quantum_product(s1, s1)) is terms
    assert json.dumps(qclass_to_json(ring.quantum_product(s1, s1))) == json.dumps(want)


def test_a_served_json_term_cannot_be_refilled_through_init():
    ring = QuantumFlagRing(build_root_system("A", 2))
    s1 = ring.element_from_word([1])
    term = qclass_to_json(ring.quantum_product(s1, s1))[0]
    want = {"word": (), "q": (1, 0), "coeff": "1"}
    for args, kwargs in (((), {"coeff": "9"}), (({"q": (0, 0)},), {}), ((), {})):
        with pytest.raises(TypeError, match="read-only"):
            term.__init__(*args, **kwargs)
    assert term == want and list(term) == ["word", "q", "coeff"]
    # the shared term is the one every product holding q1 * sigma^e serves
    again = QuantumFlagRing(build_root_system("A", 2))
    assert qclass_to_json(ring.quantum_product(s1, s1))[0] is term
    assert qclass_to_json(again.quantum_product(
        again.element_from_word([1]), again.element_from_word([1])))[0] == want


class QuantumBruhatGraph:
    """Oracle for the quantum Chevalley rows: the quantum Bruhat graph of the
    system with Cartan matrix ``cartan`` (cartan[i][j] = <alpha_j,
    alpha_i^vee>), from root matrices alone, with nothing from ``qchev``.

    The roots come by reflection closure from the simple roots, and each
    coroot gamma^vee follows its root through the same reflections.  An
    element is its matrix on root coordinates (the images of the simple
    roots), l(w) counts the positive roots it sends negative, and
    <2 rho, gamma^vee> pairs gamma^vee with the sum of the positive roots.
    sigma^w * sigma^{s_i} sums <chi_i, gamma^vee> q^{d} sigma^{w s_gamma}
    over the edges w -> w s_gamma: d = 0 when l(w s_gamma) = l(w) + 1, and
    d = gamma^vee when l(w s_gamma) = l(w) + 1 - <2 rho, gamma^vee>.
    """

    def __init__(self, cartan):
        self.cartan, self.n = cartan, len(cartan)
        roots = [self.unit(i) for i in range(self.n)]
        self.coroot = {alpha: alpha for alpha in roots}
        for beta in roots:  # the list grows while it is read: the closure
            for i in range(self.n):
                gamma = self._reflect(i, beta, dual=False)
                if gamma not in self.coroot:
                    self.coroot[gamma] = self._reflect(i, self.coroot[beta], dual=True)
                    roots.append(gamma)
        self.positive = [g for g in roots if min(g) >= 0]
        self.gens = [self.reflection(alpha) for alpha in roots[:self.n]]
        two_rho = [sum(col) for col in zip(*self.positive)]
        self.two_rho = {g: self._pair(two_rho, self.coroot[g]) for g in self.positive}
        self.refl = {g: self.reflection(g) for g in self.positive}

    def unit(self, j):
        return tuple(int(k == j) for k in range(self.n))

    def _pair(self, beta, gv):
        """<beta, gamma^vee> for root coordinates beta, coroot coordinates gv."""
        return sum(gv[i] * self.cartan[i][j] * beta[j]
                   for i in range(self.n) for j in range(self.n))

    def _reflect(self, i, v, dual):
        cols = [row[i] for row in self.cartan] if dual else self.cartan[i]
        c = sum(a * b for a, b in zip(cols, v))
        return tuple(x - c * (k == i) for k, x in enumerate(v))

    def act(self, w, beta):
        return tuple(sum(b * col[k] for b, col in zip(beta, w))
                     for k in range(self.n))

    def times(self, w1, w2):
        return tuple(self.act(w1, col) for col in w2)

    def reflection(self, gamma):
        """s_gamma: alpha_j -> alpha_j - <alpha_j, gamma^vee> gamma."""
        gv = self.coroot[gamma]
        return tuple(tuple(a - self._pair(alpha, gv) * g
                           for a, g in zip(alpha, gamma))
                     for alpha in map(self.unit, range(self.n)))

    def element(self, word):
        w = tuple(map(self.unit, range(self.n)))
        for i in word:
            w = self.times(w, self.gens[i - 1])
        return w

    def length(self, w):
        return sum(min(self.act(w, beta)) < 0 for beta in self.positive)

    def rows(self, w):
        """i (1-based) -> {(matrix of w s_gamma, q-shift): coeff}."""
        up, zero = self.length(w) + 1, (0,) * self.n
        out = {i: {} for i in range(1, self.n + 1)}
        for gamma in self.positive:
            x = self.times(w, self.refl[gamma])
            drop, gv = up - self.length(x), self.coroot[gamma]
            if drop in (0, self.two_rho[gamma]):
                for i, c in enumerate(gv, 1):
                    if c:
                        out[i][x, gv if drop else zero] = c
        return out


def decoded_chevalley_row(ring, i, widx, matrix):
    """``ring._chev_row(i, w)`` as {(matrix of w', q-shift): coeff}."""
    out = {}
    for delta, c in ring._chev_row(i, widx):
        key = ring._wkeys[widx] + delta
        out[matrix[key % ring._nw], ring._q_of(key)[0]] = c
    return out


@pytest.mark.parametrize("series,rank,sample", [
    ("A", 1, None), ("A", 2, None), ("A", 3, None), ("A", 4, None),
    ("B", 2, None), ("B", 3, None), ("B", 4, None), ("C", 2, None),
    ("C", 3, None), ("C", 4, None), ("D", 4, None), ("G", 2, None),
    ("F", 4, 60)])
def test_chevalley_rows_are_the_quantum_bruhat_graph(series, rank, sample):
    # Every row sigma^w * sigma^{s_i} (a seeded sample of w on F4) against
    # an oracle that shares nothing with the ring but the Cartan matrix and
    # the reduced words that name its elements.
    ring = QuantumFlagRing(build_root_system(series, rank))
    qbg = QuantumBruhatGraph(ring.rs.cartan)
    assert len(qbg.positive) == len(ring.rs.positive_roots)
    matrix = [qbg.element(w.word()) for w in ring.elements]
    assert len(set(matrix)) == len(matrix)
    assert [qbg.length(m) for m in matrix] == list(ring.lengths)
    order = range(len(ring.elements))
    if sample:
        order = random.Random(30).sample(order, sample)
    for widx in order:
        want = qbg.rows(matrix[widx])
        for i in range(1, rank + 1):
            assert decoded_chevalley_row(ring, i, widx, matrix) == want[i], (
                series, rank, ring.elements[widx], i)
