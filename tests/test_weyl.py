import functools
import itertools
import sys
import threading
import time

import pytest

from qhflag.errors import CapExceededError, InvalidInputError
from qhflag.rootsys import build_root_system
from qhflag import weyl
from qhflag.weyl import (enumerate_group, full_decomposition, identity,
                         inversion_set, longest_element, multiply,
                         parabolic_decompose, reflection, simple_reflection,
                         word_to_element, WeylElt)


# -- the action on roots and coroots ------------------------------------------
# Read off an element's permutation of the numbered roots.  The library needs
# only the coroot matrix (WeylElt.cmat); these serve the oracles below and
# tests/test_rootsys.py.

@functools.lru_cache(maxsize=None)
def _coroot_index(table):
    return {c: k for k, c in enumerate(table.coroots)}


def _act(w, vectors, index, v, what):
    k = index.get(tuple(v))
    if k is None:
        raise InvalidInputError(f"{tuple(v)} is not a {what}")
    return vectors[w.perm[k]]


def apply_root(w, beta):
    """w(beta) for a root beta."""
    return _act(w, w._table.roots, w._table.index, beta, "root")


def apply_coroot(w, lam):
    """w(lam) for a coroot lam."""
    return _act(w, w._table.coroots, _coroot_index(w._table), lam, "coroot")


def rmat_of(w):
    """Action on the root lattice; column j is w(alpha_j)."""
    return tuple(zip(*map(w._table.roots.__getitem__, w.key)))


def reflect_coroot(rs, i, lam):
    """s_i(lam) on the coroot lattice."""
    # <alpha_i, lam> = sum_j lam_j * cartan[j][i-1]
    c = sum(lam[j] * rs.cartan[j][i - 1] for j in range(rs.n))
    if c == 0:
        return tuple(lam)
    return tuple(lam[k] - (c if k == i - 1 else 0) for k in range(rs.n))


@pytest.fixture(scope="module")
def a2():
    return build_root_system("A", 2)


@pytest.fixture(scope="module")
def a3():
    return build_root_system("A", 3)


def test_simple_relations(a2):
    s1 = simple_reflection(a2, 1)
    s2 = simple_reflection(a2, 2)
    assert multiply(s1, s1) == identity(a2)
    assert multiply(multiply(s1, s2), s1) == multiply(multiply(s2, s1), s2)
    assert word_to_element(a2, [1, 2, 1]).length == 3


def test_lengths_are_inversion_counts(a3):
    for w in enumerate_group(a3):
        assert w.length == len(inversion_set(w))
        assert (w.length == 0) == (inversion_set(w) == frozenset())


def test_multiply_by_generator_changes_length_by_one(a3):
    for w in enumerate_group(a3):
        for i in range(1, 4):
            assert abs(multiply(w, simple_reflection(a3, i)).length - w.length) == 1


def test_inversion_sets_direct_oracle(a2):
    # Oracle: apply w to each positive root directly.
    s1 = simple_reflection(a2, 1)
    assert inversion_set(s1) == frozenset({(1, 0)})
    s1s2 = word_to_element(a2, [1, 2])
    expect = {g for g in a2.positive_roots
              if not a2.is_positive_root(apply_root(s1s2, g))}
    assert inversion_set(s1s2) == frozenset(expect) == {(0, 1), (1, 1)}


def test_reflection_examples(a2):
    assert reflection(a2, (1, 0)) == simple_reflection(a2, 1)
    assert reflection(a2, (1, 1)) == word_to_element(a2, [1, 2, 1])
    b2 = build_root_system("B", 2)
    # Derived: count inversions of s_{alpha_1+alpha_2} by brute force.
    r = reflection(b2, (1, 1))
    brute = sum(1 for g in b2.positive_roots
                if not b2.is_positive_root(apply_root(r, g)))
    assert r.length == brute == 3
    with pytest.raises(InvalidInputError):
        reflection(a2, (0, -1))


def test_reflection_is_involution_fixing_hyperplane(a2):
    for gamma in a2.positive_roots:
        r = reflection(a2, gamma)
        assert multiply(r, r) == identity(a2)
        assert apply_root(r, gamma) == tuple(-c for c in gamma)


def test_enumerate_counts(a2, a3):
    assert len(enumerate_group(a2)) == 6
    assert len(enumerate_group(a3)) == 24
    assert len(enumerate_group(build_root_system("B", 3))) == 48
    assert len(enumerate_group(build_root_system("G", 2))) == 12
    assert [w.word() for w in enumerate_group(a2, indices=(1,))] == [(), (1,)]


def test_enumerate_cap(a3):
    with pytest.raises(CapExceededError, match="cap 10"):
        enumerate_group(a3, cap=10)


def test_enumerate_cap_blocks_e6_by_default():
    e6 = build_root_system("E", 6)
    with pytest.raises(CapExceededError, match="cap 2000"):
        enumerate_group(e6)


def test_parabolic_decompose_examples(a2):
    s1s2 = word_to_element(a2, [1, 2])
    v, u = parabolic_decompose(s1s2, (1,))
    assert (v, u) == (s1s2, identity(a2))
    s2s1 = word_to_element(a2, [2, 1])
    v, u = parabolic_decompose(s2s1, (1,))
    assert v == word_to_element(a2, [2]) and u == word_to_element(a2, [1])
    w = word_to_element(a2, [1, 2, 1])
    assert parabolic_decompose(w, ()) == (w, identity(a2))


def test_parabolic_decompose_exhaustive_properties(a3):
    ind = (1, 2)
    wp = set(enumerate_group(a3, indices=ind))
    for w in enumerate_group(a3):
        v, u = parabolic_decompose(w, ind)
        assert multiply(v, u) == w
        assert u in wp
        assert weyl.is_minimal_representative(v, ind)
        assert v.length + u.length == w.length
        # idempotent and unique: re-decomposing v gives (v, 1)
        assert parabolic_decompose(v, ind) == (v, identity(a3))
        # uniqueness: no other (v', u') with the same properties
        others = [(v2, u2) for u2 in wp
                  for v2 in [multiply(w, u2.inverse())]
                  if weyl.is_minimal_representative(v2, ind)
                  and v2.length + u2.length == w.length]
        assert others == [(v, u)]


def test_longest_elements(a2):
    assert longest_element(a2, (1,)) == simple_reflection(a2, 1)
    w0 = longest_element(a2)
    assert w0 == word_to_element(a2, [1, 2, 1]) and w0.length == 3
    b3 = build_root_system("B", 3)
    assert longest_element(b3).length == 9
    assert longest_element(b3, ()).length == 0


def test_relative_longest_element_is_chain_product():
    # In an A-chain parabolic, omega_P omega_{P~} for P~ = P minus alpha_k
    # is the descending product u_k^(r) ... u_k^(k).
    a4 = build_root_system("A", 4)
    order = (1, 2, 3)
    for k in (1, 2, 3):
        tilde = tuple(i for i in order if i != k)
        rel = multiply(longest_element(a4, order), longest_element(a4, tilde))
        word = []
        for m in range(len(order), k - 1, -1):
            word.extend(range(m - k + 1, m + 1))
        assert rel == word_to_element(a4, word)


def test_full_decomposition_examples(a2):
    w0 = word_to_element(a2, [1, 2, 1])
    parts = full_decomposition(w0, (1,))
    assert parts == [word_to_element(a2, [1]), word_to_element(a2, [1, 2])]
    assert full_decomposition(identity(a2), (1,)) == [identity(a2)] * 2


@pytest.mark.parametrize("family,rank,order", [("A", 4, (2, 3, 1)),
                                               ("B", 3, (3, 2)),
                                               ("F", 4, (1, 2))])
def test_full_decomposition_chains_parabolic_decompose(family, rank, order):
    # The public parabolic_decompose, prefix by prefix, is the oracle.
    rs = build_root_system(family, rank)
    for w in enumerate_group(rs):
        parts, rem = [], w
        for j in range(len(order), 0, -1):
            v, rem = parabolic_decompose(rem, order[:j])
            parts.append(v)
        assert full_decomposition(w, order) == [rem] + parts[::-1]


def test_full_decomposition_checks_its_order(a2):
    with pytest.raises(InvalidInputError, match="out of range"):
        full_decomposition(word_to_element(a2, [2, 1]), (1, 3))


def test_full_decomposition_layer_lengths(a3):
    # Derived cross-check: l(v_j) equals the inversion count in layer j.
    order = (1, 2)
    layers = []
    prev = frozenset()
    for j in (1, 2):
        cur = frozenset(a3.positive_roots_within(order[:j]))
        layers.append(cur - prev)
        prev = cur
    layers.append(frozenset(a3.positive_roots) - prev)
    for w in enumerate_group(a3):
        parts = full_decomposition(w, order)
        inv = inversion_set(w)
        assert [p.length for p in parts] == [len(inv & lay) for lay in layers]
        assert sum(p.length for p in parts) == w.length


@pytest.mark.parametrize("family,rank", [("A", 3), ("B", 3), ("G", 2), ("F", 4)])
def test_inversion_counter_matches_inversion_sets(family, rank):
    rs = build_root_system(family, rank)
    roots = rs.positive_roots
    groups = [roots[::2], roots[1::3], (), roots]
    count = weyl.inversion_counter(rs, groups)
    for w in enumerate_group(rs):
        inv = inversion_set(w)
        assert count(w) == tuple(len(inv & set(g)) for g in groups)


@pytest.mark.parametrize("family,rank", [("A", 1), ("A", 3), ("B", 3),
                                         ("G", 2)])
def test_times_reflections_is_w_times_each_reflection(family, rank):
    rs = build_root_system(family, rank)
    for w in enumerate_group(rs):
        assert weyl.times_reflections(w) == tuple(
            multiply(w, reflection(rs, g)) for g in rs.positive_roots)


def test_times_reflections_interns_products_not_reached_yet():
    # On a fresh E6 nothing past a few words is interned: the products come
    # from the composition, and equal the ones built one at a time.
    rs = build_root_system("E", 6)
    w = word_to_element(rs, [1, 3, 4, 5, 6, 2, 4, 3])
    got = weyl.times_reflections(w)
    assert got == tuple(multiply(w, reflection(rs, g)) for g in rs.positive_roots)
    assert all(x is y for x, y in zip(got, weyl.times_reflections(w)))


def test_reduced_words(a2):
    assert identity(a2).word() == ()
    assert simple_reflection(a2, 1).word() == (1,)
    assert word_to_element(a2, [1, 2, 1]).word() == (1, 2, 1)
    assert word_to_element(a2, [2, 1, 2]).word() == (1, 2, 1)
    for w in enumerate_group(build_root_system("B", 3)):
        word = w.word()
        assert len(word) == w.length
        assert word_to_element(w.rs, word) == w


def test_exchange_property_exhaustive():
    # If l(w s_gamma) < l(w) then w(gamma) is a negative root;
    # and l(w s_j) = l(w) - 1 iff w(alpha_j) < 0.
    for series, rank in [("A", 2), ("B", 2), ("A", 3), ("B", 3)]:
        rs = build_root_system(series, rank)
        for w in enumerate_group(rs):
            for gamma in rs.positive_roots:
                if multiply(w, reflection(rs, gamma)).length < w.length:
                    assert not rs.is_positive_root(apply_root(w, gamma))
            for j in range(1, rs.n + 1):
                drops = multiply(w, simple_reflection(rs, j)).length == w.length - 1
                assert drops == (not rs.is_positive_root(
                    apply_root(w, rs.simple_root(j))))


def test_chain_product_identities():
    # u_{[i,j]} u_{[k,m]} product rules, exhaustively for m <= 4.
    a4 = build_root_system("A", 4)

    def u(i, j):
        return word_to_element(a4, range(i, j + 1)) if i <= j else identity(a4)

    m = 4
    for i in range(1, m + 1):
        for j in range(i, m + 1):
            for k in range(1, m + 1):
                left = multiply(u(i, j), u(k, m))
                if k >= j + 2:
                    assert left == multiply(u(k, m), u(i, j))
                elif k == j + 1:
                    assert left == u(i, m)
                elif i <= k <= j:
                    assert left == multiply(u(k + 1, m), u(i, j - 1))
                else:
                    assert left == multiply(u(k, m), u(i - 1, j - 1))


def test_system_mismatch_rejected(a2, a3):
    with pytest.raises(InvalidInputError, match="different systems"):
        multiply(identity(a2), identity(a3))


def test_action_is_on_roots_and_coroots():
    w = word_to_element(build_root_system("B", 2), [1, 2])
    with pytest.raises(InvalidInputError, match="not a root"):
        apply_root(w, (2, 2))
    with pytest.raises(InvalidInputError, match="not a coroot"):
        apply_coroot(w, (0, 0))


def test_inverse(a3):
    for w in enumerate_group(a3):
        assert multiply(w, w.inverse()) == identity(a3)


# -- matrix oracle -----------------------------------------------------------
# The element as a pair of integer matrices (root and coroot lattice), built
# from its reduced word with the root system's simple reflections only.

def _columns_of_word(reflect, n, word):
    """Images of the n unit vectors under s_{word[0]} ... s_{word[-1]}."""
    cols = []
    for j in range(n):
        v = tuple(1 if k == j else 0 for k in range(n))
        for i in reversed(word):
            v = reflect(i, v)
        cols.append(v)
    return tuple(zip(*cols))


def _mat_vec(a, v):
    return tuple(sum(a[i][k] * v[k] for k in range(len(v)))
                 for i in range(len(a)))


def _greedy_word(rs, rmat):
    """Lowest-right-descent word of the element acting by ``rmat``."""
    letters = []
    while True:
        j = next((j for j in range(1, rs.n + 1)
                  if not rs.is_positive_root(_mat_vec(rmat, rs.simple_root(j)))),
                 None)
        if j is None:
            return tuple(reversed(letters))
        letters.append(j)
        sj = _columns_of_word(rs.reflect_root, rs.n, (j,))
        rmat = tuple(tuple(sum(rmat[r][k] * sj[k][c] for k in range(rs.n))
                           for c in range(rs.n)) for r in range(rs.n))


@pytest.mark.parametrize("series,rank,order", [
    ("A", 3, 24), ("B", 3, 48), ("C", 3, 48), ("D", 4, 192), ("G", 2, 12),
    ("F", 4, 1152)])
def test_matrix_oracle(series, rank, order):
    rs = build_root_system(series, rank)
    group = enumerate_group(rs)
    assert len(group) == order
    roots = rs.positive_roots + tuple(tuple(-c for c in g)
                                      for g in rs.positive_roots)
    rmats = set()
    for w in group:
        word = w.word()
        rmat = _columns_of_word(rs.reflect_root, rs.n, word)
        cmat = _columns_of_word(functools.partial(reflect_coroot, rs), rs.n,
                                word)
        rmats.add(rmat)
        assert (rmat_of(w), w.cmat) == (rmat, cmat)
        assert _greedy_word(rs, rmat) == word
        assert word_to_element(rs, word) is w
        inv = frozenset(g for g in rs.positive_roots
                        if not rs.is_positive_root(_mat_vec(rmat, g)))
        assert inversion_set(w) == inv
        assert w.length == len(inv) == len(word)
        for g in roots:
            assert apply_root(w, g) == _mat_vec(rmat, g)
            gv = rs.coroot_of(g)
            assert apply_coroot(w, gv) == _mat_vec(cmat, gv)
    assert len(rmats) == order


def test_e6_enumerates_with_raised_cap():
    e6 = build_root_system("E", 6)
    group = enumerate_group(e6, cap=60000)
    assert len(group) == 51840
    assert group[-1].length == 36 == longest_element(e6).length
    assert group[-1] is longest_element(e6)


def test_f4_enumeration_builds_each_element_once(monkeypatch):
    built = []
    init = WeylElt.__init__

    def counting_init(self, *args):
        built.append(1)
        init(self, *args)

    monkeypatch.setattr(WeylElt, "__init__", counting_init)
    group = enumerate_group(build_root_system("F", 4))
    assert len(group) == len(built) == 1152


def test_enumeration_is_cached_and_cap_still_applies():
    rs = build_root_system("A", 3)
    with pytest.raises(CapExceededError, match="cap 10"):
        enumerate_group(rs, cap=10)
    group = enumerate_group(rs)  # the capped run left nothing behind
    assert len(group) == 24
    assert enumerate_group(rs, cap=24) is group
    assert enumerate_group(rs, indices=[3, 2, 1, 1]) is group
    with pytest.raises(CapExceededError) as later:
        enumerate_group(rs, cap=10)
    with pytest.raises(CapExceededError) as fresh:
        enumerate_group(build_root_system("A", 3), cap=10)
    assert str(later.value) == str(fresh.value)


def test_equal_systems_share_element_equality():
    b3, other = build_root_system("B", 3), build_root_system("B", 3)
    for w, x in zip(enumerate_group(b3), enumerate_group(other)):
        assert w == x and hash(w) == hash(x) and w is not x
        assert multiply(w, x) == multiply(x.inverse(), w.inverse()).inverse()
    assert identity(b3) != identity(build_root_system("A", 3))


def test_concurrent_enumeration_shares_canonical_elements(monkeypatch):
    # Each thread first enumerates a different rank-3 parabolic subgroup of
    # a fresh B4, so the threads race to intern the elements they share; a
    # pause in every construction widens the window between the lookup of
    # an element and its insertion.
    init = WeylElt.__init__

    def slow_init(self, *args):
        time.sleep(1e-4)
        init(self, *args)

    monkeypatch.setattr(WeylElt, "__init__", slow_init)
    rs = build_root_system("B", 4)
    results = [None] * 4
    barrier = threading.Barrier(4)

    def work(k):
        barrier.wait()
        sub = enumerate_group(rs, indices=[i for i in range(1, 5) if i != k + 1])
        results[k] = (sub, enumerate_group(rs))

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
    full = results[0][1]
    assert len(full) == 384
    canonical = {w: w for w in full}
    for sub, group in results:
        assert group == full
        assert all(canonical[w] is w for w in sub + group)


# -- oracles for reflections, enumeration and words ------------------------------
# The earlier algorithms, kept as oracles: the pairing sweep for s_gamma, and
# a breadth-first search with a seen set, sorted by (length, greedy word).

SYSTEMS = [("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3), ("B", 4),
           ("C", 3), ("D", 4), ("G", 2), ("F", 4)]


def _sweep_reflection(rs, gamma):
    """The permutation of s_gamma: beta -> beta - <beta, gamma^vee> gamma."""
    table = weyl._table(rs)
    gv = rs.coroot_of(gamma)
    return tuple(
        table.index[tuple(b - rs.pairing(beta, gv) * g
                          for b, g in zip(beta, gamma))]
        for beta in table.roots)


def _greedy_word_oracle(w):
    """word(w) = word(w s_j) + (j,) for the lowest right descent j."""
    word = []
    while w.length:
        j = next(i for i in range(1, w.rs.n + 1) if w.descends_right(i))
        word.append(j)
        w = multiply(w, simple_reflection(w.rs, j))
    return tuple(reversed(word))


def _bfs_enumeration(rs, indices):
    gens = [simple_reflection(rs, i) for i in indices]
    seen = {identity(rs)}
    frontier = [identity(rs)]
    while frontier:
        frontier = [x for x in {multiply(w, s) for w in frontier for s in gens}
                    if x not in seen]
        seen.update(frontier)
    return sorted(seen, key=lambda w: (w.length, _greedy_word_oracle(w)))


@pytest.mark.parametrize("series,rank", SYSTEMS + [("E", 6)])
def test_reflections_match_the_pairing_sweep(series, rank):
    rs = build_root_system(series, rank)
    for gamma in reversed(rs.positive_roots):  # highest first: a cold cache
        assert reflection(rs, gamma).perm == _sweep_reflection(rs, gamma)


@pytest.mark.parametrize("series,rank", SYSTEMS)
def test_enumeration_matches_the_sorted_search(series, rank):
    rs = build_root_system(series, rank)
    group = enumerate_group(rs)
    oracle = _bfs_enumeration(build_root_system(series, rank),
                              range(1, rank + 1))
    assert [w.key for w in group] == [w.key for w in oracle]
    for w in group:
        assert w.word() == _greedy_word_oracle(w)


def test_every_parabolic_enumeration_of_b4_matches_the_sorted_search():
    for size in range(5):
        for ind in itertools.combinations(range(1, 5), size):
            rs = build_root_system("B", 4)
            group = enumerate_group(rs, indices=ind)
            oracle = _bfs_enumeration(build_root_system("B", 4), ind)
            assert [w.key for w in group] == [w.key for w in oracle]
            assert all(w.word() == _greedy_word_oracle(w) for w in group)


def test_words_do_not_depend_on_which_group_is_enumerated_first():
    full_first = build_root_system("F", 4)
    words = {w.key: w.word() for w in enumerate_group(full_first)}
    for ind in [(1, 2), (2, 3, 4), (1, 3)]:
        rs = build_root_system("F", 4)
        sub = enumerate_group(rs, indices=ind)
        assert all(w.word() == words[w.key] for w in sub)
        assert {w.key: w.word() for w in enumerate_group(rs)} == words
