import json
import random
import sys
import threading
from fractions import Fraction

import pytest

from qhflag.errors import InvalidInputError
from qhflag.pwlift import minimal_representatives, qhp_product
from qhflag.qchev import (QDIGIT, QClass, QuantumFlagRing, format_qclass,
                          independent_inverse, qclass_to_json)
from qhflag.rootsys import build_root_system
from qhflag import weyl


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
    assert a2_ring.quantum_product(u, v) == want
    assert a2_ring.quantum_product(v, u) == want


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


@pytest.mark.parametrize("series,rank", [("A", 2), ("B", 2), ("A", 3), ("B", 3)])
def test_commutativity_exhaustive(series, rank):
    ring = QuantumFlagRing(build_root_system(series, rank))
    for i, u in enumerate(ring.elements):
        for v in ring.elements[i + 1:]:
            assert ring.quantum_product(u, v) == ring.quantum_product(v, u)


class OrderedPairOracle:
    """sigma^u * sigma^v by the recursion on the second factor as given,
    memoized per ordered pair.

    It reads only the ring's divisor expressions (``_int_expr``, turned
    back into Fractions a/den, and ``_pivots``) and ``chevalley_product``,
    and sums QClass terms with Fraction coefficients, so it shares neither
    the canonical factor order nor the packed integer arithmetic of
    ``QuantumFlagRing._product``.
    Computing u*v and v*u here really multiplies in both orders.
    """

    def __init__(self, ring):
        self.ring = ring
        self.zero = (0,) * ring.n
        self.memo = {}

    def _unpack(self, qkey):
        lam = []
        for _ in range(self.ring.n):
            qkey, e = divmod(qkey, QDIGIT)
            lam.append(e)
        return lam

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
            den, expr, corr = ring._int_expr[ring.index[v]]
            pivots = ring._pivots[v.length]
            acc = {}
            for k, a in expr:
                i, x = pivots[k]
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


def json_table(ring, pairs):
    """The JSON text of each product, keyed by the reduced words."""
    return {(u.word(), v.word()): json.dumps(
        qclass_to_json(ring.quantum_product(u, v))) for u, v in pairs}


@pytest.mark.parametrize("series,rank,entries", [("A", 3, 276),
                                                 ("B", 3, 1128)])
def test_memo_holds_one_entry_per_unordered_pair(series, rank, entries):
    ring = QuantumFlagRing(build_root_system(series, rank))
    for u, v in all_pairs(ring):
        ring.quantum_product(u, v)
    size = len(ring.elements)
    # Products with the identity are not stored; every other unordered
    # pair, squares included, is stored once.
    assert len(ring._prod) == (size - 1) * size // 2 == entries
    assert all(ring.lengths[ui] >= ring.lengths[vi]
               for ui, vi in ring._prod)
    assert all(d <= ring.lengths[ui] for ui, d in ring._pivot_apps)


def test_products_hold_no_zero_coefficients():
    ring = QuantumFlagRing(build_root_system("B", 3))
    rng = random.Random(7)
    for u, v in all_pairs(ring):
        for qc in (ring.quantum_product(u, v), ring.classical_product(u, v),
                   ring.chevalley_product(u, rng.randint(1, 3))):
            assert 0 not in qc.terms.values()
    for u, v in rng.sample(all_pairs(ring), 100):
        w = ring.elements[rng.randrange(len(ring.elements))]
        qc = ring.product_with_class(ring.quantum_product(u, v), w)
        assert 0 not in qc.terms.values()
    assert all(0 not in res.values() for res in ring._prod.values())


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
    stream = iter(cols)
    picked, inv = independent_inverse(stream, m)
    assert picked == expected
    if not spanning:
        assert len(picked) < m
    if len(picked) < m:
        assert inv is None
        return
    # Columns after the m-th pick are never read.
    assert len(list(stream)) == len(cols) - 1 - picked[-1]
    for r in range(m):
        for r2 in range(m):
            got = sum(inv[k][r] * cols[p][r2] for k, p in enumerate(picked))
            assert got == (r == r2)
    assert all(isinstance(x, Fraction) for row in inv for x in row)


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
        if v.length < 2:
            continue
        den, expr, corr = ring._int_expr[vi]
        pivots = ring._pivots[v.length]
        total = QClass(ring.rs, {})
        for k, a in expr:
            i, x = pivots[k]
            total = total + ring.chevalley_product(ring.elements[x], i).scale(
                Fraction(a, den))
        assert total.classical_part().terms == {(v, zero): 1}
        assert (total - total.classical_part()).terms == {
            (ring.elements[x2], ring._q_of(qs)[0]): Fraction(a, den)
            for x2, qs, a in corr}
        checked += 1
    assert checked == sum(len(ring.by_length[d])
                          for d in range(2, ring.max_length + 1))


def qhp_table(ring, par, pairs):
    return {(u.word(), v.word()): sorted(
        (w.word(), exps, c)
        for (w, exps), c in qhp_product(ring, par, u, v).items())
        for u, v in pairs}


def test_threads_sharing_a_fresh_ring_agree_with_one_thread():
    # The shared ring sits on its own fresh system, so the threads also race
    # on its lift and W^P tables.
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


def test_product_with_class_shifts_exponents_not_packed_keys(a2_ring):
    s1 = a2_ring.element_from_word([1])
    square = a2_ring.quantum_product(s1, s1)
    # an exponent sum of QDIGIT must not carry into q2
    high = cls(a2_ring, ((1,), (QDIGIT - 1, 0), 1))
    got = a2_ring.product_with_class(high, s1)
    assert format_qclass(got) == "q1^32 + q1^31*s[2,1]"
    assert got == square.q_shift((QDIGIT - 1, 0))
    # a negative exponent is a plain shift, not a packing error
    low = cls(a2_ring, ((1,), (-1, 0), 1))
    assert a2_ring.product_with_class(low, s1) == square.q_shift((-1, 0))


def test_structure_constant_beyond_the_packing_range_is_zero(a2_ring):
    s1 = a2_ring.element_from_word([1])
    one = weyl.identity(a2_ring.rs)
    assert a2_ring.structure_constant(s1, s1, one, (40, 0)) == 0
    assert a2_ring.structure_constant(s1, s1, one, (1, 0)) == 1


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
        for d in range(2, ring.max_length + 1):
            assert len(ring._pivots[d]) == len(ring.by_length[d])


def test_classical_product_is_q0_part(b2_ring):
    s1 = b2_ring.element_from_word([1])
    s2 = b2_ring.element_from_word([2])
    qc = b2_ring.classical_product(s1, s2)
    assert all(lam == (0, 0) for (_, lam) in qc.terms)
    full = b2_ring.quantum_product(s1, s2)
    assert qc.terms == {k: v for k, v in full.terms.items() if k[1] == (0, 0)}


def test_mult_table_b2_shape(b2_ring):
    rows = list(b2_ring.multiplication_table())
    assert len(rows) == 64
    rows1 = list(b2_ring.multiplication_table(max_length=1))
    assert len(rows1) == 9


def test_qclass_format_and_json(a2_ring):
    u = a2_ring.element_from_word([1])
    w0 = a2_ring.element_from_word([1, 2, 1])
    qc = a2_ring.quantum_product(u, w0)
    assert format_qclass(qc) == "q1*q2 + q1*s[1,2]"
    data = qclass_to_json(qc)
    assert data == [{"word": [], "q": [1, 1], "coeff": "1"},
                    {"word": [1, 2], "q": [1, 0], "coeff": "1"}]
    assert format_qclass(QClass(a2_ring.rs, {})) == "0"
    e = weyl.identity(a2_ring.rs)
    assert format_qclass(QClass(a2_ring.rs, {(e, (0, 0)): 1})) == "1"
    assert format_qclass(QClass(a2_ring.rs, {(e, (0, 0)): 3})) == "3"


def test_qclass_algebra(a2_ring):
    u = a2_ring.element_from_word([1])
    qc = a2_ring.quantum_product(u, u)
    two = qc + qc
    assert two == qc.scale(2)
    assert (two - qc) == qc
    shifted = qc.q_shift((0, 2))
    assert shifted.coefficient(a2_ring.element_from_word([2, 1]), (0, 2)) == 1
