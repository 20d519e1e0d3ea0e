import random
import sys
import threading
from itertools import product as iproduct

import pytest

from qhflag.errors import InternalConsistencyError, InvalidInputError
from qhflag.grading import (OrderedParabolic, canonical_order,
                            connected_components, is_a_chain,
                            ordered_parabolic)
from qhflag.pwlift import minimal_representatives, pw_lift
from qhflag.rootsys import build_root_system
from qhflag import weyl
from qhflag.weyl import identity, word_to_element


@pytest.fixture(scope="module")
def a2_op():
    return canonical_order(build_root_system("A", 2), (1,))


# --- canonical orders -------------------------------------------------------

CANONICAL = [
    ("A", 3, (1, 2), (1, 2)),
    ("A", 3, (2, 3), (3, 2)),     # the full-chain end must come first
    ("A", 4, (2, 3), (2, 3)),     # interior tie broken lexicographically
    ("B", 3, (1, 2), (1, 2)),
    ("B", 3, (2, 3), (2, 3)),
    ("C", 3, (2, 3), (2, 3)),
    ("B", 4, (2, 3), (2, 3)),
    ("D", 4, (2, 3), (3, 2)),     # fork end first
    ("D", 4, (2, 3, 4), (3, 2, 4)),
    ("D", 4, (1, 2, 3), (1, 2, 3)),
    ("D", 5, (2, 3, 4), (2, 3, 4)),
    ("D", 5, (2, 3, 4, 5), (2, 3, 4, 5)),
    ("F", 4, (1, 2), (1, 2)),
    ("F", 4, (3, 4), (4, 3)),
    ("F", 4, (2, 3), (3, 2)),
    ("F", 4, (1, 2, 3), (1, 2, 3)),
    ("F", 4, (2, 3, 4), (4, 3, 2)),
    ("E", 6, (2, 4), (2, 4)),
    ("E", 6, (2, 4, 3), (3, 4, 2)),
    ("E", 6, (2, 4, 5), (5, 4, 2)),
    ("E", 8, (2, 3, 4, 5), (5, 4, 2, 3)),
    ("E", 8, (1, 2, 3, 4, 5, 6), (6, 5, 4, 3, 1, 2)),
]


@pytest.mark.parametrize("series,rank,par,expect", CANONICAL)
def test_canonical_orders(series, rank, par, expect):
    rs = build_root_system(series, rank)
    assert canonical_order(rs, par).order == expect


def test_rank_one_is_identity_order():
    rs = build_root_system("G", 2)
    assert canonical_order(rs, (1,)).order == (1,)
    assert canonical_order(rs, (2,)).order == (2,)


def test_canonical_order_rejections():
    a3 = build_root_system("A", 3)
    with pytest.raises(InvalidInputError, match="disconnected"):
        canonical_order(a3, (1, 3))
    with pytest.raises(InvalidInputError, match="proper"):
        canonical_order(a3, (1, 2, 3))
    with pytest.raises(InvalidInputError, match="proper"):
        canonical_order(a3, ())


def test_ordered_parabolic_validation():
    a4 = build_root_system("A", 4)
    with pytest.raises(InvalidInputError, match="chain"):
        OrderedParabolic(a4, (1, 3, 2))
    with pytest.raises(InvalidInputError, match="repeated"):
        OrderedParabolic(a4, (1, 1))
    with pytest.raises(InvalidInputError, match="disconnected"):
        OrderedParabolic(a4, (1, 3))
    # non-canonical but structurally valid orders are accepted
    assert OrderedParabolic(a4, (2, 1)).sigma == 2
    assert OrderedParabolic(a4, (2, 1, 3)).sigma == 3


def test_ordered_parabolic_resolves_the_order():
    a3 = build_root_system("A", 3)
    assert ordered_parabolic(a3, (2, 1)).order == canonical_order(a3, (1, 2)).order
    assert ordered_parabolic(a3, (1, 2), (2, 1)).order == (2, 1)
    with pytest.raises(InvalidInputError,
                       match=r"order \(1, 3\) must permute the parabolic \(1, 2\)"):
        ordered_parabolic(a3, (1, 2), (1, 3))
    with pytest.raises(InvalidInputError, match="out of range"):
        ordered_parabolic(a3, (1, 5))


def test_every_produced_order_validates():
    from itertools import combinations
    for series, rank in [("A", 4), ("B", 4), ("C", 4), ("D", 5),
                         ("F", 4), ("E", 6), ("E", 7)]:
        rs = build_root_system(series, rank)
        seen = 0
        for size in range(1, rs.n):
            for par in combinations(range(1, rs.n + 1), size):
                if len(connected_components(rs, par)) != 1:
                    continue
                op = canonical_order(rs, par)
                assert tuple(sorted(op.order)) == par
                seen += 1
        assert seen > 0


# --- gradings of Weyl elements ----------------------------------------------

def test_table1_weyl_gradings(a2_op):
    rs = a2_op.rs
    vals = {(): (0, 0), (1,): (1, 0), (2,): (0, 1), (1, 2): (0, 2),
            (2, 1): (1, 1), (1, 2, 1): (1, 2)}
    for word, expect in vals.items():
        assert a2_op.gr_weyl(word_to_element(rs, word)) == expect


def test_gr_weyl_two_routes_agree_many_orders():
    # gr_weyl internally computes the chain decomposition and the
    # inversion-layer counts and raises if they disagree; drive it broadly.
    cases = [("A", 3, (1, 2)), ("A", 3, (2, 1)), ("B", 3, (1, 2)),
             ("C", 3, (1, 2)), ("B", 3, (2, 3)), ("A", 4, (1, 2, 3)),
             ("A", 4, (2, 1, 3)), ("D", 4, (3, 2, 4)), ("G", 2, (1,))]
    for series, rank, order in cases:
        rs = build_root_system(series, rank)
        op = OrderedParabolic(rs, order)
        for w in weyl.enumerate_group(rs):
            g = op.gr_weyl(w)
            assert sum(g) == w.length


@pytest.mark.parametrize("route", ["inversions", "decomposition"])
def test_gr_weyl_catches_one_route_off_by_one(monkeypatch, route):
    # A mutation check of the cross-check: either route off by one on a
    # single element makes gr_weyl raise there, and only there.
    rs = build_root_system("B", 3)
    op = OrderedParabolic(rs, (1, 2))
    target = word_to_element(rs, (3, 2, 1, 2))
    assert target not in op._grw
    if route == "inversions":
        count = op._inversions_per_layer
        monkeypatch.setattr(op, "_inversions_per_layer", lambda w: tuple(
            x + (w is target and k == 0) for k, x in enumerate(count(w))))
    else:
        decompose, s1 = weyl._full_decomposition, weyl.simple_reflection(rs, 1)
        monkeypatch.setattr(weyl, "_full_decomposition", lambda w, order: [
            weyl.multiply(v, s1) if w is target and k == 0 else v
            for k, v in enumerate(decompose(w, order))])
    for w in weyl.enumerate_group(rs):
        if w is target:
            with pytest.raises(InternalConsistencyError, match="disagree"):
                op.gr_weyl(w)
        else:
            assert sum(op.gr_weyl(w)) == w.length


def test_gr_weyl_rejects_an_element_of_another_system():
    op = canonical_order(build_root_system("A", 3), (1, 2))
    for series in ("B", "C"):
        w = word_to_element(build_root_system(series, 3), (1, 2, 3))
        with pytest.raises(InvalidInputError, match="another root system"):
            op.gr_weyl(w)


# --- gradings of quantum variables ------------------------------------------

def test_table1_q_gradings(a2_op):
    assert a2_op.gr_q(1) == (2, 0)
    assert a2_op.gr_q(2) == (-1, 3)


@pytest.mark.parametrize("lam", [(1,), (1, 0, 0, 1)])
def test_lambda_of_the_wrong_length_is_rejected(lam):
    op = canonical_order(build_root_system("A", 3), (1, 2))
    # A right-length lambda is stored first; a list and a tuple share it.
    assert op.gr_q_lambda([1, 0, 0]) == op.gr_q_lambda((1, 0, 0)) == op.gr_q(1)
    for grade in (op.gr_q_lambda, lambda x: op.gr(identity(op.rs), x)):
        with pytest.raises(InvalidInputError, match="one entry per simple root"):
            grade(lam)


@pytest.mark.parametrize("lam", [(0.5, 0, 0), ("1", 0, 0), (True, 0, 0),
                                 (1.0, 0, 0), (False, 0, 0), (0.0, 0, 0)])
def test_lambda_entries_must_be_integers(lam):
    # Rejected whether or not an equal int lambda is stored: the zero lambda
    # is stored while the q-gradings are built, (1, 0, 0) by the loop.
    op = canonical_order(build_root_system("A", 3), (1, 2))
    for stored in ((0, 0, 0), (1, 0, 0)):
        op.gr_q_lambda(stored)
        for grade in (op.gr_q_lambda, lambda x: op.gr(identity(op.rs), x)):
            with pytest.raises(InvalidInputError, match="must be integers"):
                grade(lam)


# --- the per-lambda table -----------------------------------------------------

TABLE_CASES = [("A", 3, (1, 2)), ("B", 3, (1, 2)), ("C", 3, (1, 2)),
               ("G", 2, (1,))]


def summed_gr(op, w, lam):
    """gr_weyl(w) + sum_k lam_k gr(q_k), summed here rather than tabulated."""
    g = list(op.gr_weyl(w))
    for k, b in enumerate(lam, start=1):
        for i, y in enumerate(op.gr_q(k)):
            g[i] += b * y
    return tuple(g)


@pytest.mark.parametrize("series,rank,par", TABLE_CASES)
def test_gr_matches_the_summed_oracle_in_either_order(series, rank, par):
    rs = build_root_system(series, rank)
    cases = [(w, lam) for w in weyl.enumerate_group(rs)
             for lam in iproduct(range(-2, 4), repeat=rank)]
    oracle = canonical_order(rs, par)
    expect = [summed_gr(oracle, w, lam) for w, lam in cases]
    forward, backward = canonical_order(rs, par), canonical_order(rs, par)
    assert [forward.gr(w, lam) for w, lam in cases] == expect
    assert [backward.gr(w, lam) for w, lam in reversed(cases)] == expect[::-1]


@pytest.mark.parametrize("series,rank,par", [("A", 2, (1,))] + TABLE_CASES)
def test_graded_basis_is_the_filtered_oracle(series, rank, par):
    # graded-iso's lemma41 search, on a box of 1 instead of 6.
    rs = build_root_system(series, rank)
    op = canonical_order(rs, par)
    box, s = 1, op.sigma
    elements = weyl.enumerate_group(rs)
    lams = list(iproduct(range(-box, box + 4), repeat=rank))

    def keep(h):
        return all(0 <= x <= box for x in h)

    expect = {}
    for w in elements:
        for lam in lams:
            g = summed_gr(op, w, lam)
            if not any(g[s:]) and keep(g[:s]):
                expect.setdefault(g[:s], []).append((w, lam))
    assert expect
    got = op.graded_basis(elements, lams, s, keep)
    assert list(got.items()) == list(expect.items())


def test_threads_sharing_one_table_agree_with_one_thread():
    rs = build_root_system("B", 3)
    cases = [(w, lam) for w in weyl.enumerate_group(rs)
             for lam in iproduct(range(-1, 3), repeat=3)]
    alone = canonical_order(rs, (1, 2))
    expect = {c: alone.gr(*c) for c in cases}
    shared = canonical_order(rs, (1, 2))
    results = [None] * 4
    barrier = threading.Barrier(4)

    def work(k):
        order = cases[:]
        random.Random(k).shuffle(order)
        barrier.wait()
        results[k] = {c: shared.gr(*c) for c in order}

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert results == [expect] * 4


def test_table1_mixed_gradings(a2_op):
    rs = a2_op.rs
    s1 = word_to_element(rs, (1,))
    assert a2_op.gr(s1, (2, 1)) == (4, 3)
    assert a2_op.gr(identity(rs), (1, 1)) == (1, 3)
    assert a2_op.gr(identity(rs), (0, 0)) == (0, 0)


def test_chain_interior_closed_form():
    # gr(q_j) = (1-j) e_{j-1} + (1+j) e_j along the chain.
    a4 = build_root_system("A", 4)
    op = canonical_order(a4, (1, 2, 3))
    assert op.gr_q(1) == (2, 0, 0, 0)
    assert op.gr_q(2) == (-1, 3, 0, 0)
    assert op.gr_q(3) == (0, -2, 4, 0)
    # the lift behind gr(q_j) inside the chain: (u_{j-1}^{(j-1)}, alpha_j)
    lift = pw_lift(a4, (1,), a4.simple_coroot(2))
    assert lift.lambda_B == (0, 1, 0, 0)
    assert lift.omega_factor == word_to_element(a4, (1,))
    lift = pw_lift(a4, (1, 2), a4.simple_coroot(3))
    assert lift.lambda_B == (0, 0, 1, 0)
    assert lift.omega_factor == word_to_element(a4, (1, 2))
    lift = pw_lift(a4, (), a4.simple_coroot(1))
    assert lift.omega_factor == identity(a4)


def test_attached_node_closed_forms():
    # end-node attachments for each Cartan shape, against the closed forms
    r3 = build_root_system("A", 3)
    op = canonical_order(r3, (1, 2))
    assert op.gr_q(3) == (0, -2, 4)              # single bond at alpha_r
    a4 = build_root_system("A", 4)
    op = canonical_order(a4, (2, 3))
    assert op.gr_q(1) == (-1, -1, 4)             # single bond at alpha_1
    assert op.gr_q(4) == (0, -2, 4)
    b3 = build_root_system("B", 3)
    op = canonical_order(b3, (1, 2))
    assert op.gr_q(3) == (0, -4, 6)              # double bond, short outside
    c3 = build_root_system("C", 3)
    op = canonical_order(c3, (1, 2))
    assert op.gr_q(3) == (0, -2, 4)              # double bond, long outside
    d4 = build_root_system("D", 4)
    op = canonical_order(d4, (1, 2, 4))
    assert op.order == (1, 2, 4)
    assert op.gr_q(3) == (0, -2, -2, 6)          # fork above alpha_{r-1}
    a3 = build_root_system("A", 3)
    op = canonical_order(a3, (1,))
    assert op.gr_q(3) == (0, 2)                  # detached node
    g2 = build_root_system("G", 2)
    assert canonical_order(g2, (1,)).gr_q(2) == (-1, 3)
    assert canonical_order(g2, (2,)).gr_q(1) == (-3, 5)


def test_fork_above_r_minus_2_closed_form():
    # r = 5 inside E6: the branch node sits above position r - 2.
    e6 = build_root_system("E", 6)
    op = canonical_order(e6, (1, 3, 4, 5, 6))
    assert op.order == (6, 5, 4, 3, 1)
    assert op.gr_q(2) == (0, 0, -3, -3, -3, 11)


def test_rank_one_closed_form():
    # r = 1: gr(q_j) = (a, -a+2) with a = <alpha_1, alpha_j^vee>.
    for series, rank in [("A", 2), ("A", 3), ("B", 2), ("B", 3), ("C", 3),
                         ("G", 2), ("D", 4), ("F", 4)]:
        rs = build_root_system(series, rank)
        for p in range(1, rs.n + 1):
            op = canonical_order(rs, (p,))
            for j in range(1, rs.n + 1):
                a = rs.pairing(rs.simple_root(p), rs.simple_coroot(j))
                if j == p:
                    assert op.gr_q(j) == (2, 0)
                else:
                    assert op.gr_q(j) == (a, -a + 2)
            # consequence for arbitrary lambda
            lam = tuple((k % 3) for k in range(rs.n))
            g = op.gr_q_lambda(lam)
            a = rs.pairing(rs.simple_root(p), lam)
            assert g == (a, rs.two_rho_pairing(lam) - a)


def test_total_degree_identity():
    # |gr(q^lam w)| = l(w) + <2 rho, lam> over a box.
    b3 = build_root_system("B", 3)
    op = canonical_order(b3, (1, 2))
    for w in weyl.enumerate_group(b3):
        for lam in iproduct(range(3), repeat=3):
            assert sum(op.gr(w, lam)) == w.length + b3.two_rho_pairing(lam)


def test_top_window_nonnegative():
    # gr_{[r+1, r+1]}(q^lam w) >= 0 for every polynomial basis element.
    a3 = build_root_system("A", 3)
    op = canonical_order(a3, (1, 2))
    for w in weyl.enumerate_group(a3):
        for lam in iproduct(range(3), repeat=3):
            assert op.gr(w, lam)[op.r] >= 0
    # ... and it vanishes on the parabolic block W_P x Z^P
    b3 = build_root_system("B", 3)
    op = canonical_order(b3, (1, 2))
    for w in weyl.enumerate_group(b3, indices=(1, 2)):
        for lam in iproduct(range(3), range(3), (0,)):
            assert op.gr(w, lam)[op.r] == 0


# --- unique graded representatives ------------------------------------------

def test_unique_basis_element_examples(a2_op):
    rs = a2_op.rs
    assert a2_op.unique_basis_element((0,)) == (identity(rs), (0, 0))
    assert a2_op.unique_basis_element((2,)) == (identity(rs), (1, 0))
    assert a2_op.unique_basis_element((1,)) == (word_to_element(rs, (1,)), (0, 0))


@pytest.mark.parametrize("d", [(1.5, 0), (True, 0), ("1", 0)])
def test_unique_basis_element_rejects_non_integers(d):
    op = canonical_order(build_root_system("A", 3), (1, 2))
    with pytest.raises(InvalidInputError, match="integers"):
        op.unique_basis_element(d)


def test_unique_basis_element_roundtrip_boxes():
    for series, rank, par in [("A", 3, (1, 2)), ("B", 3, (1, 2)),
                              ("A", 4, (1, 2, 3))]:
        rs = build_root_system(series, rank)
        op = canonical_order(rs, par)
        s = op.sigma
        for d in iproduct(range(-2, 7), repeat=s):
            w, lam = op.unique_basis_element(d)
            assert op.gr(w, lam) == tuple(d) + (0,) * (op.r + 1 - s)
            if all(x >= 0 for x in d):
                assert all(x >= 0 for x in lam)


def test_unique_basis_element_uniqueness_bruteforce():
    a3 = build_root_system("A", 3)
    op = canonical_order(a3, (1, 2))
    hits = {}
    for w in weyl.enumerate_group(a3):
        for lam in iproduct(range(-4, 7), repeat=3):
            g = op.gr(w, lam)
            if g[2] == 0 and all(0 <= x <= 4 for x in g[:2]):
                hits.setdefault(g[:2], set()).add((w, lam))
    for d in iproduct(range(5), repeat=2):
        assert hits[d] == {op.unique_basis_element(d)}


# --- semigroup closure -------------------------------------------------------

def semigroup_witness(op, reps, x):
    """Constructive witness with grading == x for x in Z_{>=0}^{r+1}
    (chain subsets): peel the top coordinate with an outside quantum
    variable and a minimal representative, then use the unique graded
    representative on the rest."""
    outside = next(j for j in range(1, op.rs.n + 1) if j not in op.position)
    d = op.gr_q(outside)
    a, b = divmod(x[op.r], d[op.r])
    v = next(w for w in reps if w.length == b)
    rest = tuple(x[k] - a * d[k] for k in range(op.sigma))
    w, lam = op.unique_basis_element(rest)
    lam = list(lam)
    lam[outside - 1] += a
    return weyl.multiply(v, w), tuple(lam)


def test_semigroup_closure_constructive():
    # gr(q^lam u) + gr(q^mu v) is the grading of a polynomial basis element:
    # reduce to gr(u) + gr(v) (componentwise >= 0) and shift the q part.
    for series, rank, par in [("A", 2, (1,)), ("A", 3, (1, 2)), ("B", 3, (1, 2))]:
        rs = build_root_system(series, rank)
        op = canonical_order(rs, par)
        reps = minimal_representatives(rs, par)
        elements = weyl.enumerate_group(rs)
        for u in elements:
            for v in elements:
                x = tuple(a + b for a, b in zip(op.gr_weyl(u), op.gr_weyl(v)))
                w, tau = semigroup_witness(op, reps, x)
                assert op.gr(w, tau) == x
                assert all(t >= 0 for t in tau)
                # arbitrary q parts then shift by additivity
                lam = tuple(1 if k % 2 else 0 for k in range(rs.n))
                full = tuple(a + b for a, b in zip(
                    x, op.gr_q_lambda(tuple(2 * c for c in lam))))
                shifted = tuple(t + 2 * c for t, c in zip(tau, lam))
                assert op.gr(w, shifted) == full


def test_components_and_chain_helpers():
    d4 = build_root_system("D", 4)
    assert connected_components(d4, (1, 3, 4)) == [(1,), (3,), (4,)]
    assert is_a_chain(d4, (1, 2, 3))
    assert not is_a_chain(d4, (1, 2, 3, 4))
    assert not is_a_chain(d4, (1, 3))
