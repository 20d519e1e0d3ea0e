"""Grading maps attached to an ordered parabolic subset.

An OrderedParabolic carries a connected proper subset of simple roots
together with a linear order (alpha_1, ..., alpha_r) whose prefixes
Delta_j = {alpha_1, ..., alpha_j} are single-bond chains ending at alpha_j
(for j up to sigma; sigma = r when the subset is an A-chain, r - 1
otherwise).  The grading map sends a basis element q^lambda sigma^w of
QH*(G/B) to a vector in Z^{r+1}, compared lexicographically:

* gr(w) records the lengths of the factors of the chain decomposition of w
  (equivalently, the inversion counts in the successive root layers; both
  are computed and must agree);
* gr of each quantum variable is defined by a recursion through the
  comparison lift of the previous chain level;
* gr is additive in lambda.

Canonical orders are produced by matching the subset against a finite list
of labelled presentations of the ambient diagram (one list per Cartan
type), mirroring the fibration-compatible choices; ties between equivalent
presentations are broken deterministically (lowest case first, then
lexicographically smallest index tuple).

All values are cached in immutable tables per OrderedParabolic; everything
here is pure and safe for concurrent reads.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from .errors import InternalConsistencyError, InvalidInputError
from .rootsys import RootSystem
from . import pwlift, weyl
from .weyl import WeylElt

Grading = Tuple[int, ...]


def grading_add(a: Grading, b: Grading) -> Grading:
    return tuple(x + y for x, y in zip(a, b))


def _add_q(g: Grading, lam: Iterable[Tuple[int, int]],
           grq: Dict[int, Grading]) -> Grading:
    """g + sum_k b_k gr(q_k), over (simple index k, exponent b_k) pairs."""
    for k, b in lam:
        if b:
            g = tuple(x + b * y for x, y in zip(g, grq[k]))
    return g


def _q_grading(lift: "pwlift.PWLift", parabolic: Sequence[int], coord: int,
               gr_weyl, grq: Dict[int, Grading]) -> Grading:
    """gr(q_idx) from the lift of alpha_idx^vee over ``parabolic``:
    (l(omega) + 2 + 2 sum a) e_coord - gr(omega) - sum_i a_i gr(q_i), with
    a_i the parabolic coordinates of lambda_B and coord 0-based."""
    a = [(i, lift.lambda_B[i - 1]) for i in parabolic]
    head = lift.length + 2 + 2 * sum(ai for _, ai in a)
    g = tuple((head if k == coord else 0) - x
              for k, x in enumerate(gr_weyl(lift.omega_factor)))
    return _add_q(g, ((i, -ai) for i, ai in a), grq)


# ---------------------------------------------------------------------------
# Dynkin-diagram helpers
# ---------------------------------------------------------------------------

def connected_components(rs: RootSystem, indices: Iterable[int]) -> List[Tuple[int, ...]]:
    """Connected components of the sub-diagram, each sorted ascending."""
    todo = set(rs.check_parabolic(indices))
    comps = []
    while todo:
        seed = min(todo)
        comp = {seed}
        frontier = [seed]
        while frontier:
            i = frontier.pop()
            for j in list(todo - comp):
                if rs.adjacent(i, j):
                    comp.add(j)
                    frontier.append(j)
        comps.append(tuple(sorted(comp)))
        todo -= comp
    return comps


def is_connected(rs: RootSystem, indices: Iterable[int]) -> bool:
    return len(connected_components(rs, indices)) == 1


def is_a_chain(rs: RootSystem, indices: Iterable[int]) -> bool:
    """True iff the sub-diagram is a connected single-bond path."""
    ind = rs.check_parabolic(indices)
    if not ind:
        return False
    if not is_connected(rs, ind):
        return False
    degs = []
    for i in ind:
        nb = [j for j in ind if rs.adjacent(i, j)]
        if any(rs.bond(i, j) != 1 for j in nb):
            return False
        degs.append(len(nb))
    return all(d <= 2 for d in degs) and degs.count(1) == (2 if len(ind) > 1 else 0)


# ---------------------------------------------------------------------------
# Canonical orders
# ---------------------------------------------------------------------------

# Each presentation relabels the ambient diagram as positions 1..n.  A valid
# match places the ordered subset on consecutive circle positions
# o+1..o+r, subject to a per-case condition on (o, r, kappa = o + r).


def _presentations(rs: RootSystem):
    """Yield (case, beta, circles, cond) for the ambient diagram.

    ``beta`` maps 0-based position to a 1-based simple index (entries may
    be absent for the smaller E ranks), ``circles`` is the set of 1-based
    positions available to the subset, ``cond(o, r, kappa)`` gates the
    placement.
    """
    n = rs.n
    s = rs.series
    if s == "A":
        ident = tuple(range(1, n + 1))
        rev = tuple(range(n, 0, -1))
        for beta in (ident, rev):
            yield 1, beta, frozenset(range(1, n + 1)), \
                lambda o, r, k: k <= n - 1
    elif s in ("B", "C"):
        ident = tuple(range(1, n + 1))
        yield 1, ident, frozenset(range(1, n + 1)), \
            lambda o, r, k: k <= n - 1
    elif s == "D":
        ident = tuple(range(1, n + 1))
        swap = tuple(range(1, n - 1)) + (n, n - 1)
        for beta in (ident, swap):
            yield 2, beta, frozenset(range(1, n)), \
                lambda o, r, k: k <= n - 2 or (r >= 3 and k == n - 1)
        tail = tuple(range(n - 3, 0, -1))
        for beta in ((n - 1, n - 2, n) + tail, (n, n - 2, n - 1) + tail):
            yield 3, beta, frozenset({1, 2, 3}), \
                lambda o, r, k: o == 0 and k <= 3
    elif s == "E":
        # One labelling scheme for each case, inherited from the largest
        # E-diagram; positions whose node exceeds n are unusable.
        schemes = [
            (4, (8, 7, 6, 5, 4, 3, 1, 2), frozenset(range(1, 8)),
             lambda o, r, k: k <= 5 or (r >= 3 and k == 6) or (r >= 5 and k == 7)),
            (5, (1, 3, 4, 2, 5, 6, 7, 8), frozenset({1, 2, 3, 4}),
             lambda o, r, k: k <= 3 or (r >= 3 and k == 4)),
            (6, (1, 3, 4, 5, 6, 7, 8, 2), frozenset({1, 2, 3, 4}),
             lambda o, r, k: o == 0 and k == 4 and r == 4),
            (7, (8, 7, 6, 5, 4, 2, 3, 1), frozenset(range(1, 7)),
             lambda o, r, k: k == 6 and r >= 3),
            (8, (2, 4, 5, 6, 7, 8, 3, 1), frozenset({1, 2}),
             lambda o, r, k: o == 0 and k == 2),
        ]
        for case, beta, circles, cond in schemes:
            yield case, beta, circles, cond
    elif s == "F":
        yield 9, (1, 2, 3, 4), frozenset({1, 2}), lambda o, r, k: o == 0 and k == 2
        yield 10, (4, 3, 2, 1), frozenset({1, 2}), lambda o, r, k: o == 0 and k == 2
    # G2 never reaches the table: a proper connected subset has rank 1.


def _placements(rs: RootSystem, target: FrozenSet[int], width: int):
    """All (case, order, extra_node) placements of ``target`` on a run of
    ``width`` circle positions, with the position after the run recorded."""
    n_nodes = rs.n
    out = []
    for case, beta, circles, cond in _presentations(rs):
        positions = {idx: p + 1 for p, idx in enumerate(beta) if idx <= n_nodes}
        if not all(i in positions for i in target):
            continue
        pos = sorted(positions[i] for i in target)
        if pos[-1] - pos[0] + 1 != width or len(pos) != width:
            continue
        o = pos[0] - 1
        kappa = pos[-1]
        if not all(p in circles for p in pos):
            continue
        if not cond(o, width, kappa):
            continue
        order = tuple(beta[p - 1] for p in range(o + 1, kappa + 1))
        extra = beta[kappa] if kappa < len(beta) and beta[kappa] <= n_nodes else None
        out.append((case, order, extra))
    return out


def canonical_order(rs: RootSystem, indices: Iterable[int]) -> "OrderedParabolic":
    """The canonical linear order on a connected proper parabolic subset."""
    ind = rs.check_parabolic(indices)
    r = len(ind)
    if not 1 <= r < rs.n:
        raise InvalidInputError(
            f"parabolic subset must be proper and nonempty (got {ind})")
    if not is_connected(rs, ind):
        raise InvalidInputError(
            f"parabolic subset {ind} is disconnected; order its components "
            "separately (reducible grading)")
    if r == 1:
        return OrderedParabolic(rs, ind)
    target = frozenset(ind)
    if is_a_chain(rs, ind):
        cands = [(case, order) for case, order, _ in _placements(rs, target, r)
                 if frozenset(order) == target]
        if not cands:
            raise InternalConsistencyError(
                f"no presentation covers the A-chain {ind} in {rs.name}")
        cands.sort(key=lambda co: (co[0], co[1]))
        return OrderedParabolic(rs, cands[0][1])
    # Not an A-chain: order the unique A-chain part first, removed node last.
    if r == 2:
        if rs.series in ("B", "C"):
            return OrderedParabolic(rs, (rs.n - 1, rs.n))
        if rs.series == "F":
            return OrderedParabolic(rs, (3, 2))
        raise InvalidInputError(
            f"rank-2 non-chain subset {ind} unsupported in type {rs.series}")
    sigma = r - 1
    cands = []
    for alpha in ind:
        rest = target - {alpha}
        if not is_a_chain(rs, tuple(sorted(rest))):
            continue
        for case, order, extra in _placements(rs, rest, sigma):
            if frozenset(order) == rest and extra == alpha:
                full = order + (alpha,)
                # The table prefers its last D-inside-E case when both match.
                pref = 0 if case == 7 else 1
                cands.append((pref, case, full))
    if not cands:
        raise InternalConsistencyError(
            f"no presentation covers the subset {ind} in {rs.name}")
    cands.sort(key=lambda c: (c[0], c[1], c[2]))
    return OrderedParabolic(rs, cands[0][2])


# ---------------------------------------------------------------------------
# OrderedParabolic and the grading map
# ---------------------------------------------------------------------------

class OrderedParabolic:
    """A connected proper parabolic subset with a validated linear order."""

    def __init__(self, rs: RootSystem, order: Sequence[int]):
        self.rs = rs
        self.order = tuple(order)
        self.r = len(self.order)
        if len(set(self.order)) != self.r:
            raise InvalidInputError("order contains repeated indices")
        rs.check_parabolic(self.order)
        if not 1 <= self.r < rs.n:
            raise InvalidInputError(
                "parabolic subset must be proper and nonempty")
        if not is_connected(rs, self.order):
            raise InvalidInputError(f"subset {sorted(self.order)} is disconnected")
        self.is_a_type = is_a_chain(rs, self.order)
        self.sigma = self.r if self.is_a_type else self.r - 1
        for j in range(2, self.sigma + 1):
            prefix = self.order[:j]
            if not is_a_chain(rs, prefix):
                raise InvalidInputError(
                    f"prefix {prefix} is not a single-bond chain")
            deg = sum(1 for i in prefix[:-1] if rs.adjacent(prefix[-1], i))
            if deg != 1:
                raise InvalidInputError(
                    f"{prefix[-1]} is not an end node of the prefix {prefix}")
        self.position = {idx: j + 1 for j, idx in enumerate(self.order)}
        # Root layers R^+_{P_k} \ R^+_{P_{k-1}} for the inversion formula.
        self.layers: List[FrozenSet] = []
        prev: FrozenSet = frozenset()
        for j in range(1, self.r + 1):
            cur = frozenset(rs.positive_roots_within(self.order[:j]))
            self.layers.append(cur - prev)
            prev = cur
        self.layers.append(frozenset(rs.positive_roots) - prev)
        self._grw: Dict[WeylElt, Grading] = {}
        self._grq: Dict[int, Grading] = {}
        self._build_q_table()

    # -- construction of the q-grading table --------------------------------

    def _build_q_table(self) -> None:
        self._grq[self.order[0]] = (2,) + (0,) * self.r
        for j in range(2, self.r + 1):
            idx = self.order[j - 1]
            self._grq[idx] = self._gr_q_recursive(idx, self.order[:j - 1], j)
        for idx in self.rs.complement(self.order):
            self._grq[idx] = self._gr_q_recursive(idx, self.order, self.r + 1)

    def _gr_q_recursive(self, idx: int, parabolic: Tuple[int, ...],
                        level: int) -> Grading:
        rs = self.rs
        lift = pwlift.pw_lift(rs, parabolic, rs.simple_coroot(idx))
        if lift.lambda_B[idx - 1] != 1 or any(
                lift.lambda_B[k - 1] for k in rs.complement(parabolic)
                if k != idx):
            raise InternalConsistencyError("comparison lift left the level")
        return _q_grading(lift, parabolic, level - 1, self.gr_weyl, self._grq)

    # -- gradings ------------------------------------------------------------

    def gr_q(self, idx: int) -> Grading:
        """Grading of the quantum variable q_idx (1-based simple index)."""
        self.rs._check_index(idx)
        return self._grq[idx]

    def gr_weyl(self, w: WeylElt) -> Grading:
        """Grading of a Weyl element, computed two independent ways."""
        g = self._grw.get(w)
        if g is None:
            parts = weyl.full_decomposition(w, self.order)
            via_dec = tuple(p.length for p in parts)
            inv = weyl.inversion_set(w)
            via_inv = tuple(len(inv & layer) for layer in self.layers)
            if via_dec != via_inv:
                raise InternalConsistencyError(
                    f"decomposition and inversion gradings disagree on {w!r}")
            g = via_dec
            self._grw[w] = g
        return g

    def gr(self, w: WeylElt, lam: Optional[Sequence[int]] = None) -> Grading:
        """Grading of the basis element q^lam sigma^w."""
        g = self.gr_weyl(w)
        if lam is None:
            return g
        if len(lam) != self.rs.n:
            raise InvalidInputError("lambda must have one entry per simple root")
        return _add_q(g, enumerate(lam, start=1), self._grq)

    def gr_q_lambda(self, lam: Sequence[int]) -> Grading:
        """Grading of the monomial q^lam."""
        return _add_q((0,) * (self.r + 1), enumerate(lam, start=1), self._grq)

    # -- chain elements and graded representatives ---------------------------

    def u_elt(self, i: int, m: int) -> WeylElt:
        """u_i^(m): the descending product s_{m-i+1} ... s_m of ordered roots."""
        if not 0 <= i <= m <= self.r:
            raise InvalidInputError("u_i^(m) needs 0 <= i <= m <= r")
        word = [self.order[k - 1] for k in range(m - i + 1, m + 1)]
        return weyl.word_to_element(self.rs, word)

    def unique_basis_element(self, d: Sequence[int]) -> Tuple[WeylElt, Tuple[int, ...]]:
        """The unique (w, lambda) whose grading is d on the first sigma
        coordinates and zero beyond them."""
        s = self.sigma
        if len(d) != s:
            raise InvalidInputError(f"expected a vector of length sigma={s}")
        a = [0] * (s + 2)  # 1-based, a[s+1] stays 0
        b = [0] * (s + 1)
        for i in range(s, 0, -1):
            a[i], b[i] = divmod(d[i - 1] + i * a[i + 1], i + 1)
        w = weyl.identity(self.rs)
        for i in range(s, 0, -1):
            w = weyl.multiply(w, self.u_elt(b[i], i))
        lam = [0] * self.rs.n
        for i in range(1, s + 1):
            lam[self.order[i - 1] - 1] = a[i]
        lam_t = tuple(lam)
        got = self.gr(w, lam_t)
        if got != tuple(d) + (0,) * (self.r + 1 - s):
            raise InternalConsistencyError(
                f"graded representative of {tuple(d)} reproduced {got}")
        return w, lam_t


# ---------------------------------------------------------------------------
# Reducible parabolic subsets
# ---------------------------------------------------------------------------

class ReducibleGrading:
    """Grading map for a parabolic subset with several components.

    The value lives in Z^{M+1} (M = sum of component ranks): one block of
    coordinates per component, in listed order, plus a final coordinate for
    the quotient direction.  Restriction to a single component reproduces
    the connected grading.
    """

    def __init__(self, rs: RootSystem, components: Sequence[OrderedParabolic]):
        self.rs = rs
        self.components = tuple(components)
        seen = set()
        for op in self.components:
            if op.rs != rs:
                raise InvalidInputError("component order on a different system")
            if not op.is_a_type and op is not self.components[-1]:
                raise InvalidInputError(
                    "at most one non-chain component, and it must come last")
            if seen & set(op.order):
                raise InvalidInputError("components overlap")
            seen |= set(op.order)
        if len(seen) >= rs.n:
            raise InvalidInputError("parabolic subset must be proper")
        self.indices = tuple(sorted(seen))
        self.m = len(self.components)
        self.ranks = tuple(op.r for op in self.components)
        self.M = sum(self.ranks)
        self.offsets = []
        off = 0
        for rk in self.ranks:
            self.offsets.append(off)
            off += rk
        self._grq: Dict[int, Grading] = {}
        self._grw: Dict[WeylElt, Grading] = {}
        self._build()

    def _embed(self, k: int, vec: Grading) -> Grading:
        """Embed the first r_k coordinates of a component grading."""
        rk = self.ranks[k]
        if any(vec[rk:]):
            raise InternalConsistencyError("component grading leaks upward")
        out = [0] * (self.M + 1)
        for i in range(rk):
            out[self.offsets[k] + i] = vec[i]
        return tuple(out)

    def _build(self) -> None:
        rs = self.rs
        for k, op in enumerate(self.components):
            for idx in op.order:
                self._grq[idx] = self._embed(k, op.gr_q(idx))
        for idx in rs.complement(self.indices):
            lift = pwlift.pw_lift(rs, self.indices, rs.simple_coroot(idx))
            self._grq[idx] = _q_grading(lift, self.indices, self.M,
                                        self.gr_weyl, self._grq)

    def gr_q(self, idx: int) -> Grading:
        return self._grq[idx]

    def gr_weyl(self, w: WeylElt) -> Grading:
        g = self._grw.get(w)
        if g is not None:
            return g
        rs = self.rs
        v_top, u = weyl.parabolic_decompose(w, self.indices)
        vec = [0] * (self.M + 1)
        vec[self.M] = v_top.length
        vec = tuple(vec)
        # Split u over the commuting component subgroups via its word.
        letters = u.word()
        for k, op in enumerate(self.components):
            part = [i for i in letters if i in op.position]
            uk = weyl.word_to_element(rs, part)
            vec = grading_add(vec, self._embed(k, op.gr_weyl(uk)))
        self._grw[w] = vec
        return vec

    def gr(self, w: WeylElt, lam: Optional[Sequence[int]] = None) -> Grading:
        g = self.gr_weyl(w)
        if lam is None:
            return g
        return _add_q(g, enumerate(lam, start=1), self._grq)


def reducible_grading(rs: RootSystem, indices: Iterable[int]) -> ReducibleGrading:
    """Canonical reducible grading: canonical order on each component,
    components sorted by smallest index with a non-chain component last."""
    comps = connected_components(rs, indices)
    ordered = sorted(comps, key=lambda c: (0 if is_a_chain(rs, c) else 1, c))
    ops = [canonical_order(rs, c) for c in ordered]
    return ReducibleGrading(rs, ops)
