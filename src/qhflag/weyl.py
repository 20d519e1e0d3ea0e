"""Exact Weyl group arithmetic over a fixed root system.

Each system numbers its 2N roots once (``rs.positive_roots`` in order, then
their negatives) and a Weyl element is the permutation it induces on them.
An element is fixed by the images of the simple roots, so it is interned per
system under that key: a product is a permutation composition plus one dict
lookup, and lengths, descents and inversion sets are read from the signs of
the images.  The per-system table in ``rs._cache`` fills lazily (E8 is never
tabulated) and only through ``dict.setdefault``, so threads racing on one
system share one canonical element.  Elements are immutable apart from the
memoized reduced word.  ``enumerate_group`` builds each element x = w s_i
once, from its canonical parent w (i is x's lowest right descent), and
writes its reduced word ``w.word() + (i,)`` then.  Reflections are built by
conjugation.

Weyl elements serialize as reduced words: arrays of 1-based simple indices.
"""

from __future__ import annotations

from itertools import islice
from operator import itemgetter
from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from .errors import CapExceededError, InternalConsistencyError, InvalidInputError
from .rootsys import Root, RootSystem

Perm = Tuple[int, ...]
Matrix = Tuple[Tuple[int, ...], ...]

WEYL_CAP = 2000


class _Table:
    """Root numbering, generators and interned elements of one system."""

    def __init__(self, rs: RootSystem):
        self.rs = rs
        pos = rs.positive_roots
        self.npos = len(pos)
        self.roots = pos + tuple(tuple(-c for c in g) for g in pos)
        self.index = {g: k for k, g in enumerate(self.roots)}  # root -> index
        self.coroots = tuple(map(rs.coroot_of, self.roots))    # same numbering
        # Indices of the simple roots; an element's key is their images.
        self.simple = tuple(self.index[rs.simple_root(i)]
                            for i in range(1, rs.n + 1))
        self.intern: Dict[Perm, "WeylElt"] = {}
        self.groups: Dict[Tuple[int, ...], Tuple["WeylElt", ...]] = {}
        self.identity = _intern(self, tuple(range(len(self.roots))))
        self.gens = tuple(
            _intern(self, tuple(self.index[rs.reflect_root(i, g)]
                                for g in self.roots))
            for i in range(1, rs.n + 1))
        self.reflections = dict(zip(map(self.roots.__getitem__, self.simple),
                                    self.gens))  # root -> s_root, filled lazily
        self.reflection_getter: Optional[Callable] = None  # ``reflection_keys``


def _table(rs: RootSystem) -> _Table:
    return rs._cache.get("weyl") or rs._cache.setdefault("weyl", _Table(rs))


def _intern(table: _Table, perm: Perm) -> "WeylElt":
    """The canonical element with root permutation ``perm``."""
    key = tuple(map(perm.__getitem__, table.simple))
    return (table.intern.get(key)
            or table.intern.setdefault(key, WeylElt(table, perm, key)))


class WeylElt:
    """One Weyl group element: a permutation of the root indices.

    ``key`` holds the indices of the images of the simple roots; equality
    and hashing use it.  Build elements through the functions of this
    module, which return the interned instance.
    """

    __slots__ = ("rs", "perm", "key", "length", "_table", "_word", "_hash")

    def __init__(self, table: _Table, perm: Perm, key: Perm):
        self.rs = table.rs
        self.perm = perm
        self.key = key
        npos = table.npos
        self.length = sum(map(npos.__le__, perm[:npos]))
        self._table = table
        self._word: Optional[Tuple[int, ...]] = None if self.length else ()
        self._hash = hash((self.rs.key(), key))

    def __eq__(self, other):
        return self is other or (isinstance(other, WeylElt)
                                 and self.key == other.key
                                 and self.rs == other.rs)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return "W[%s]" % ",".join(map(str, self.word()))

    @property
    def cmat(self) -> Matrix:
        """Action on the coroot lattice; column j is w(alpha_j^vee)."""
        return tuple(zip(*map(self._table.coroots.__getitem__, self.key)))

    def inverse(self) -> "WeylElt":
        inv = [0] * len(self.perm)
        for k, image in enumerate(self.perm):
            inv[image] = k
        return _intern(self._table, tuple(inv))

    def descends_right(self, i: int) -> bool:
        """True iff l(w s_i) = l(w) - 1, i.e. w(alpha_i) is negative."""
        self.rs._check_index(i)
        return self.key[i - 1] >= self._table.npos

    def word(self) -> Tuple[int, ...]:
        """Reduced word, greedy lowest-descent-first (deterministic):
        word(w) = word(w s_j) + (j,) for the lowest right descent j of w."""
        if self._word is None:
            j = next(i for i, k in enumerate(self.key, 1) if k >= self._table.npos)
            self._word = multiply(self, self._table.gens[j - 1]).word() + (j,)
        return self._word


def identity(rs: RootSystem) -> WeylElt:
    return _table(rs).identity


def simple_reflection(rs: RootSystem, i: int) -> WeylElt:
    rs._check_index(i)
    return _table(rs).gens[i - 1]


def multiply(w1: WeylElt, w2: WeylElt) -> WeylElt:
    """Group product w1 * w2 (w2 acts first)."""
    if w1.rs is not w2.rs and w1.rs != w2.rs:
        raise InvalidInputError("cannot multiply elements of different systems")
    p1 = w1.perm
    return (w1._table.intern.get(tuple(map(p1.__getitem__, w2.key)))
            or _intern(w1._table, tuple(map(p1.__getitem__, w2.perm))))


def word_to_element(rs: RootSystem, word: Iterable[int]) -> WeylElt:
    w = identity(rs)
    for i in word:
        w = multiply(w, simple_reflection(rs, i))
    return w


def reflection(rs: RootSystem, gamma: Root) -> WeylElt:
    """The reflection s_gamma for a positive root gamma (cached per root)."""
    gamma = tuple(gamma)
    if not rs.is_positive_root(gamma):
        raise InvalidInputError(f"{gamma} is not a positive root")
    table = _table(rs)
    return _reflection(table, table.index[gamma])


def _reflection(table: _Table, k: int) -> WeylElt:
    """s_gamma for the positive root gamma of index k: cached (simple roots
    from the start), else s_i s_beta s_i, beta = s_i(gamma) of lower index."""
    r = table.reflections.get(table.roots[k])
    if r is None:
        s = next(s for s in table.gens if s.perm[k] < k)
        r = multiply(multiply(s, _reflection(table, s.perm[k])), s)
        if r.perm[k] != k + table.npos:
            raise InternalConsistencyError("reflection does not negate its root")
        r = table.reflections.setdefault(table.roots[k], r)
    return r


def reflection_keys(w: WeylElt) -> Iterable[Perm]:
    """The keys of w s_gamma for every positive root gamma, in
    ``rs.positive_roots`` order, all from one composition (an iterator)."""
    table = w._table
    if table.reflection_getter is None:  # the keys of all s_gamma, joined, and
        table.reflection_getter = itemgetter(*sum(  # 0, so A1 gets a tuple too
            (_reflection(table, k).key for k in range(table.npos)), ()), 0)
    images = iter(table.reflection_getter(w.perm))
    return islice(zip(*[images] * len(w.key)), table.npos)


def times_reflections(w: WeylElt) -> Tuple[WeylElt, ...]:
    """w s_gamma for every positive root gamma, in ``rs.positive_roots``
    order: the elements of ``reflection_keys``."""
    table = w._table
    out = tuple(map(table.intern.get, reflection_keys(w)))
    return out if all(out) else tuple(  # some product is not interned yet
        x or multiply(w, _reflection(table, k)) for k, x in enumerate(out))


def inversion_set(w: WeylElt) -> FrozenSet[Root]:
    """Positive roots sent to negative roots by w; size equals l(w)."""
    npos = w._table.npos
    return frozenset(w._table.roots[k] for k in range(npos) if w.perm[k] >= npos)


def inversion_counter(rs: RootSystem, groups: Sequence[Iterable[Root]]
                      ) -> Callable[[WeylElt], Tuple[int, ...]]:
    """The map w -> (|inversion_set(w) & group| for each group of positive
    roots), for elements w of ``rs``; it reads signs, building no sets."""
    table = _table(rs)
    npos, ks = table.npos, [tuple(map(table.index.__getitem__, g)) for g in groups]
    return lambda w: tuple(sum(map(npos.__le__, map(w.perm.__getitem__, k)))
                           for k in ks)


def _cap_error(cap: int) -> CapExceededError:
    return CapExceededError(f"Weyl enumeration exceeds cap {cap} "
                            f"(raise the cap explicitly to proceed)")


def enumerate_group(rs: RootSystem, indices: Optional[Iterable[int]] = None,
                    cap: int = WEYL_CAP) -> Tuple[WeylElt, ...]:
    """All elements of the parabolic subgroup W_{P'} (whole group if None).

    Deterministic output, sorted by (length, reduced word).  Refuses with
    CapExceededError as soon as more than ``cap`` elements are found.  A
    complete enumeration is cached per system and index set.
    """
    ind = rs.check_parabolic(range(1, rs.n + 1) if indices is None else indices)
    table = _table(rs)
    group = table.groups.get(ind)
    if group is not None:
        if len(group) > cap:
            raise _cap_error(cap)
        return group
    npos = table.npos
    group = [table.identity]
    for w in group:  # a queue: read in order while it grows, layer by layer
        p = w.perm
        for i in ind:
            s = table.gens[i - 1]
            # Keep x = w s_i iff i is the lowest j with x(alpha_j) < 0.
            if p[s.key[i - 1]] < npos or any(p[k] >= npos for k in s.key[:i - 1]):
                continue
            x = multiply(w, s)
            x._word = x._word or w._word + (i,)  # x has length >= 1
            group.append(x)
            if len(group) > cap:
                raise _cap_error(cap)
    return table.groups.setdefault(ind, tuple(group))


def is_minimal_representative(w: WeylElt, indices: Iterable[int]) -> bool:
    """True iff w is the minimal-length element of w W_{P'}."""
    return not any(w.descends_right(i) for i in w.rs.check_parabolic(indices))


def parabolic_decompose(w: WeylElt, indices: Iterable[int]) -> Tuple[WeylElt, WeylElt]:
    """Write w = v u with u in W_{P'} and v minimal in v W_{P'}.

    Lengths add: l(w) = l(v) + l(u).
    """
    return _strip(w, w.rs.check_parabolic(indices))


def _strip(w: WeylElt, ind: Sequence[int]) -> Tuple[WeylElt, WeylElt]:
    """``parabolic_decompose`` over already checked simple indices: strip
    right descents s_i, i in ``ind``, read from the signs of w's key."""
    npos, gens = w._table.npos, w._table.gens
    v, u, k = w, w._table.identity, 0
    while k < len(ind):  # strip the lowest descent left, then scan again
        i = ind[k]
        if v.key[i - 1] < npos:
            k += 1
        else:
            v, u, k = multiply(v, gens[i - 1]), multiply(gens[i - 1], u), 0
    if v.length + u.length != w.length:
        raise InternalConsistencyError("parabolic decomposition lost length")
    return v, u


def longest_element(rs: RootSystem, indices: Optional[Iterable[int]] = None) -> WeylElt:
    """Longest element of W_{P'}, by greedy length ascent (no enumeration)."""
    ind = rs.check_parabolic(range(1, rs.n + 1) if indices is None else indices)
    x = identity(rs)
    while j := next((i for i in ind if not x.descends_right(i)), 0):
        x = multiply(x, simple_reflection(rs, j))
    if x.length != len(rs.positive_roots_within(ind)):
        raise InternalConsistencyError("longest element has wrong length")
    return x


def full_decomposition(w: WeylElt, order: Sequence[int]) -> List[WeylElt]:
    """The unique decomposition w = v_{r+1} ... v_1 along an ordered chain.

    ``order`` lists the parabolic simple indices alpha_1, ..., alpha_r; the
    chain is Delta_j = {order[0..j-1]} and v_j is the minimal representative
    in W_{P_j} of v_j W_{P_{j-1}}.  Returns [v_1, ..., v_{r+1}].
    """
    order = tuple(order)
    w.rs.check_parabolic(order)
    return _full_decomposition(w, order)


def _full_decomposition(w: WeylElt, order: Tuple[int, ...]) -> List[WeylElt]:
    """``full_decomposition`` along an already checked order."""
    parts: List[WeylElt] = [w] * (len(order) + 1)
    for j in range(len(order), 0, -1):
        parts[j], parts[0] = _strip(parts[0], order[:j])
    total = w._table.identity
    for v in reversed(parts):
        total = multiply(total, v)
    if total != w or sum(v.length for v in parts) != w.length:
        raise InternalConsistencyError("chain decomposition failed to recompose")
    return parts
