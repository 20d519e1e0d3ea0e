"""Exhaustive desk-scale verification suites with structured reports.

Each suite checks one family of structural claims about the graded quantum
product (filtration bound, dominance inequality for Chevalley terms, ideal
and quotient structure, graded-piece isomorphisms, lift gradings, or the
conjectural closed form for quantum-variable gradings) over a concrete
root system and ordered parabolic, and returns a Report listing every
failure with a replayable witness.  Every case is evaluated and counted,
but its name and witness text are built only when it fails or is the case
being replayed.

Reports are deterministic functions of (setup, seed) apart from the wall
time.  One context per run: ``run_suites`` builds the root system, grading
and ring once, and its suites only read them.  Products are identical in
any call order, so no report depends on the suites run before it.  The
conjecture suite is informational and never gates a build.

JSON report schema, keys in this order:
    {suite, system, parabolic, order, total, passes,
     failures: [{case, lhs, rhs}], elapsed_ms, informational, extra}
with suite-specific counters in the ``extra`` object.  ``elapsed_ms`` times
the suite alone: the first to ask for a product in a run pays for it.
"""

from __future__ import annotations

import contextlib
import random
import time
from itertools import product
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

from .errors import InvalidInputError
from . import pwlift, weyl
from .grading import grading_add, is_a_chain, ordered_parabolic
from .qchev import QClass, QuantumFlagRing, format_qclass, format_term
from .rootsys import RootSystem, parabolic_subsystem, parse_system_id
from .weyl import WeylElt

THEOREM_SUITES = ("filtration", "key-lemma", "ideal-quotient", "graded-iso",
                  "psi-grading", "basics")
CONJECTURE_SUITES = ("referee-conjecture",)
ALL_SUITES = THEOREM_SUITES + CONJECTURE_SUITES
# graded-iso's lemma41 bound on graded coordinates, and the sample counts of
# basics' associativity and psi-grading's multiplicativity cases.
_GRADING_BOX, _ASSOC_SAMPLES, _PSI_SAMPLES = 6, 200, 100
# graded-iso searches W x (the lambda range)^n; the cap on that lambda box,
# 16^5, admits every rank up to 5.
_LAMBDA_RANGE, _LAMBDA_BOX_CAP = range(-_GRADING_BOX, _GRADING_BOX + 4), 16 ** 5
# The suites that enumerate the q-box (max_q + 1)^|complement|, and its cap:
# 4^7 admits the default max_q = 3 on every proper parabolic up to rank 8.
_QBOX_SUITES, _QBOX_CAP = {"graded-iso", "psi-grading"}, 4 ** 7

# Case text: a string, or a zero-argument callable that builds it on demand.
Text = Union[str, Callable[[], str]]


def _text(t: Text) -> str:
    return t() if callable(t) else t


class _SetupFields(NamedTuple):
    system: str
    parabolic: Tuple[int, ...]
    order: Optional[Tuple[int, ...]] = None
    max_weyl: int = weyl.WEYL_CAP
    max_q: int = 3
    seed: int = 0


class VerificationSetup(_SetupFields):
    """Parameters for one suite run, read-only; each build checks ``max_q``."""

    __slots__ = ()
    _make = classmethod(lambda cls, iterable: cls(*iterable))  # _replace's build

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.max_q < 0:
            raise InvalidInputError(f"max-q must be nonnegative, got {self.max_q}")
        return self


def _json_copy(obj):
    """A copy of a JSON value that shares no list or dict with it."""
    if isinstance(obj, dict):
        return {k: _json_copy(v) for k, v in obj.items()}
    return [_json_copy(v) for v in obj] if isinstance(obj, list) else obj


class Report:
    """Outcome of one suite: counts plus replayable failure witnesses."""

    def __init__(self, suite: str, system: str, parabolic: List[int],
                 order: List[int]):
        self.suite, self.system = suite, system
        self.parabolic, self.order = parabolic, order
        self.total = self.passes = self.elapsed_ms = 0
        self.failures: List[Dict[str, str]] = []
        self.informational = suite in CONJECTURE_SUITES
        self.extra: Dict[str, object] = {}

    @property
    def ok(self) -> bool:
        return not self.failures

    def record(self, case: Text, ok: bool, lhs: Text = "",
               rhs: Text = "") -> None:
        """Count one case.  ``case``, ``lhs`` and ``rhs`` are strings or
        zero-argument callables returning one; the callables run only when
        ``ok`` is false, so a passing case builds no witness text."""
        self.total += 1
        if ok:
            self.passes += 1
        else:
            self.failures.append({"case": _text(case), "lhs": _text(lhs),
                                  "rhs": _text(rhs)})

    def to_json_obj(self) -> dict:
        """The fields in schema order, sharing no list or dict with the report."""
        return _json_copy({
            "suite": self.suite, "system": self.system, "parabolic": self.parabolic,
            "order": self.order, "total": self.total, "passes": self.passes,
            "failures": self.failures, "elapsed_ms": self.elapsed_ms,
            "informational": self.informational, "extra": self.extra})


class _Context:
    """The system, grading and ring of one run, shared by its suites; the
    first all-pairs suite builds the ring and pays for its product table.
    Each term's grading is computed once per run, in ``gr``."""

    def __init__(self, setup: VerificationSetup):
        self.setup = setup
        self.rs = parse_system_id(setup.system)
        self.op = ordered_parabolic(self.rs, setup.parabolic, setup.order)
        self.parabolic = tuple(sorted(self.op.order))
        self.comp = self.rs.complement(self.parabolic)
        self._ring: Optional[QuantumFlagRing] = None
        self._gr: Dict[Tuple[WeylElt, Tuple[int, ...]], Tuple[int, ...]] = {}

    @property
    def ring(self) -> QuantumFlagRing:
        if self._ring is None:
            self._ring = QuantumFlagRing(self.rs, weyl_cap=self.setup.max_weyl)
        return self._ring

    def gr(self, term: Tuple[WeylElt, Tuple[int, ...]]) -> Tuple[int, ...]:
        """The grading of a term (w, lam), read from this run's table."""
        g = self._gr.get(term)
        if g is None:
            g = self._gr[term] = self.op.gr(*term)
        return g

    def pairs(self, only_case: Optional[str], tag: str, us: Sequence[WeylElt],
              vs: Optional[Sequence[WeylElt]] = None):
        """(u, v, case, u*v) for each wanted case ``f"{tag}u=...;v=..."`` of
        us x vs, u-major, vs the ring's elements unless given.  The product
        is read only for a wanted case, so a replay reads none before it."""
        ring = self.ring
        for u in us:
            for v in ring.elements if vs is None else vs:
                case = lambda: f"{tag}u={self.word(u)};v={self.word(v)}"
                if _want(only_case, case):
                    yield u, v, case, ring.quantum_product(u, v)

    def word(self, w: WeylElt) -> str:
        return "[%s]" % ",".join(map(str, w.word()))

    def term_str(self, w: WeylElt, lam: Sequence[int]) -> str:
        return format_term(1, enumerate(lam, start=1), w)


def _want(only_case: Optional[str], case: Text) -> bool:
    """Whether to evaluate a case; its name is built only when replaying."""
    return only_case is None or only_case == _text(case)


# ---------------------------------------------------------------------------
# individual suites
# ---------------------------------------------------------------------------

def _filtration(ctx: _Context, rep: Report, only_case: Optional[str]) -> None:
    """Every term of every Schubert product respects the grading bound."""
    for u, v, case, qc in ctx.pairs(only_case, "", ctx.ring.elements):
        bound = grading_add(ctx.op.gr_weyl(u), ctx.op.gr_weyl(v))
        bad = [(w, lam, g) for (w, lam), _ in qc.sorted_terms()
               if not (g := ctx.gr((w, lam))) <= bound]
        rep.record(case, not bad,
                   lhs=lambda: "; ".join(f"gr({ctx.term_str(w, lam)})={g}"
                                         for w, lam, g in bad),
                   rhs=lambda: f"bound={bound}")
    rep.extra["pairs"] = rep.total


def _key_lemma(ctx: _Context, rep: Report, only_case: Optional[str]) -> None:
    """Dominance of Chevalley terms: for every u, positive root gamma and
    index i pairing nontrivially with gamma^vee, whichever length hypothesis
    applies forces gr(u s_gamma) (resp. gr(q^{gamma^vee} u s_gamma)) to stay
    <= gr(u) + gr(s_i).  All u s_gamma of one u come from one composition,
    ``weyl.times_reflections(u)``, in the order of ``rs.positive_roots``."""
    rs, op = ctx.rs, ctx.op
    elements = weyl.enumerate_group(rs, cap=ctx.setup.max_weyl)
    # (gamma, <2 rho, gv>, gr(q^gv), support of gv), gv = gamma^vee;
    # gr(q^gv u s_gamma) = gr(u s_gamma) + gr(q^gv), as gr is affine in lambda.
    roots = [(gamma, rs.two_rho_pairing(gv), op.gr_q_lambda(gv),
              [i for i, c in enumerate(gv, 1) if c])
             for gamma in rs.positive_roots for gv in [rs.coroot_of(gamma)]]
    gr_simple = [op.gr_weyl(weyl.simple_reflection(rs, i))
                 for i in range(1, rs.n + 1)]
    # One set of case texts, reading the loop's variables when called.
    case = lambda: f"u={ctx.word(u)};gamma={gamma};i={i};part={part}"
    lhs = lambda: (f"gr(u*s_gamma)={g}" if part == "a"
                   else f"gr(q^gv*u*s_gamma)={g}")
    rhs = lambda: f"bound={bound}"
    vacuous = 0
    for u in elements:
        gu = op.gr_weyl(u)
        bounds = [grading_add(gu, gs) for gs in gr_simple]
        for usg, (gamma, tworho, gq, support) in zip(
                weyl.times_reflections(u), roots, strict=True):
            if usg.length == u.length + 1:
                part, g = "a", op.gr_weyl(usg)
            elif usg.length == u.length + 1 - tworho:
                part, g = "b", grading_add(op.gr_weyl(usg), gq)
            else:
                vacuous += 1
                continue
            for i in support:
                bound = bounds[i - 1]
                if _want(only_case, case):
                    rep.record(case, g <= bound, lhs=lhs, rhs=rhs)
    rep.extra["vacuous"] = vacuous


def _ideal_and_quotient(ctx: _Context, rep: Report,
                        only_case: Optional[str]) -> None:
    """(a) The span of positively-graded basis elements is an ideal.
    (b) Quotient structure constants equal those of the flag ring built
    directly on the parabolic subsystem."""
    rs, op, ring, par = ctx.rs, ctx.op, ctx.ring, ctx.parabolic
    rtop = op.r  # index of the quotient coordinate in gr, 0-based
    wps = weyl.enumerate_group(rs, indices=par, cap=ctx.setup.max_weyl)
    wp = set(wps)  # for membership; wps is in (length, word) order

    outside = [u for u in ring.elements if u not in wp]
    for u, v, case, qc in ctx.pairs(only_case, "ideal:", outside):
        bad = [t for t, _ in qc.sorted_terms() if ctx.gr(t)[rtop] <= 0]
        rep.record(case, not bad,
                   lhs=lambda: "; ".join(ctx.term_str(*t) for t in bad),
                   rhs="last grading coordinate > 0")

    sub, index_map = parabolic_subsystem(rs, par)
    sub_ring = QuantumFlagRing(sub, weyl_cap=ctx.setup.max_weyl)

    def to_sub(w: WeylElt) -> WeylElt:
        return sub_ring.element_from_word([index_map[i] for i in w.word()])

    for u, v, case, qc in ctx.pairs(only_case, "quotient:", wps, wps):
        retained = {(to_sub(w), tuple(lam[i - 1] for i in par)): c  # par sorted
                    for (w, lam), c in qc.sorted_terms()
                    if w in wp and all(e == 0 or k in par for k, e in enumerate(lam, 1))}
        direct = dict(sub_ring.quantum_product(to_sub(u), to_sub(v)).sorted_terms())
        rep.record(case, retained == direct,
                   lhs=lambda: format_qclass(QClass(sub, retained)),
                   rhs=lambda: format_qclass(QClass(sub, direct)))


def _psi_grading(ctx: _Context, rep: Report, only_case: Optional[str]) -> None:
    """Lifts of pure quantum classes have zero grading below the top
    coordinate and nonnegative lifted exponents."""
    rs, op, comp = ctx.rs, ctx.op, ctx.comp
    for exps in product(range(ctx.setup.max_q + 1), repeat=len(comp)):
        lam_p = {j: e for j, e in zip(comp, exps) if e}
        case = lambda: "lamP=" + ",".join(f"{j}:{e}"
                                          for j, e in sorted(lam_p.items()))
        if not _want(only_case, case):
            continue
        w, lam_b = pwlift.psi_map(rs, ctx.parabolic, weyl.identity(rs), lam_p)
        window = ctx.gr((w, lam_b))[:op.r]
        ok = all(x == 0 for x in window) and all(x >= 0 for x in lam_b)
        rep.record(case, ok,
                   lhs=lambda: f"gr_r={window}; lambda_B={lam_b}",
                   rhs="gr_r=0 and lambda_B >= 0")


def _referee_conjecture(ctx: _Context, rep: Report,
                        only_case: Optional[str]) -> None:
    """Instance check of the conjectured inversion-layer formula for the
    grading of quantum variables.  Informational: never gates a build."""
    rs, op = ctx.rs, ctx.op
    verdicts = []
    layer_sums = [tuple(map(sum, zip((0,) * rs.n, *layer)))
                  for layer in op.layers]
    for gamma in rs.positive_roots:
        case = lambda: f"gamma={gamma}"
        gv = rs.coroot_of(gamma)
        lhs = op.gr_q_lambda(gv)
        rhs = tuple(rs.pairing(tot, gv) for tot in layer_sums)
        agree = lhs == rhs
        verdicts.append({"gamma": list(gamma), "gr_q": list(lhs),
                         "conjecture": list(rhs), "agree": agree})
        if _want(only_case, case):
            rep.record(case, agree, lhs=lambda: f"gr(q^gv)={lhs}",
                       rhs=lambda: f"layer formula={rhs}")
    rep.extra["verdicts"] = verdicts


def _graded_iso(ctx: _Context, rep: Report, only_case: Optional[str]) -> None:
    """Graded-piece structure: unique graded representatives, their
    multiplicative normalization, lift multiplicativity into the top graded
    piece, and agreement of the subquotient with QH*(G/P)."""
    rs, op, comp = ctx.rs, ctx.op, ctx.comp
    s = op.sigma
    box = _GRADING_BOX

    # (a) uniqueness of graded representatives on the box, by brute search.
    reps_by_grading = op.graded_basis(
        weyl.enumerate_group(rs, cap=ctx.setup.max_weyl),
        list(product(_LAMBDA_RANGE, repeat=rs.n)), s,
        lambda h: all(0 <= x <= box for x in h))
    in_box = {d: op.unique_basis_element(d)
              for d in product(range(box + 1), repeat=s)}
    for d, (w, lam) in in_box.items():
        case = lambda: f"lemma41:d={d}"
        if _want(only_case, case):
            hits = reps_by_grading.get(d, [])
            ok = hits == [(w, lam)] and all(x >= 0 for x in lam)
            rep.record(
                case, ok,
                lhs=lambda: f"representatives={[(ctx.word(x), m) for x, m in hits]}",
                rhs=lambda: f"exactly ({ctx.word(w)}, {lam})")

    # (b) graded representatives multiply by grading addition inside the box.
    ring = ctx.ring
    for a, (wa, la) in sorted(in_box.items()):
        for b, (wb, lb) in sorted(in_box.items()):
            case = lambda: f"gradedprod:a={a};b={b}"
            if not _want(only_case, case):
                continue
            target = tuple(x + y for x, y in zip(a, b))
            wc, lc = op.unique_basis_element(target)
            goal = tuple(x - y - z for x, y, z in zip(lc, la, lb))
            prod = dict(ring.quantum_product(wa, wb).sorted_terms())
            lead = prod.pop((wc, goal), 0)
            gtar = target + (0,) * (op.r + 1 - s)
            # gr is affine in lambda: gr(w, lam + la + lb) = gr(w, lam) + shift.
            shift = op.gr_q_lambda(tuple(x + y for x, y in zip(la, lb)))
            others_ok = all(grading_add(ctx.gr(t), shift) < gtar for t in prod)
            rep.record(
                case, lead == 1 and others_ok,
                lhs=lambda: f"leading coefficient={lead}; dominated={others_ok}",
                rhs="coefficient 1, other terms strictly below")

    # (c)+(d) top graded piece vs QH*(G/P), through the lift.  For a chain
    # subset this is a theorem and gates the suite; otherwise the same
    # comparison is the conjectural subalgebra statement and is reported
    # in ``extra`` without gating.
    reps = pwlift.minimal_representatives(rs, ctx.parabolic,
                                          cap=ctx.setup.max_weyl)
    qbox = list(product(range(ctx.setup.max_q + 1), repeat=len(comp)))
    # Pair k is side[k // n] + side[k % n]: the sample never lists all pairs.
    side = [(u, lp) for u in reps for lp in qbox]
    n, ks, regime = len(side), range(len(side) ** 2), "exhaustive"
    if len(ks) > _PSI_SAMPLES * 4:
        ks = random.Random(ctx.setup.seed).sample(ks, _PSI_SAMPLES)
        regime = "sampled"
    rep.extra["psi_regime"] = f"{regime}:{len(ks)}"
    pairs = [side[k // n] + side[k % n] for k in ks]

    def lamp_dict(exps):
        return {j: e for j, e in zip(comp, exps) if e}

    def psi_mult_check(u, lp, v, mp):
        wu, lu = pwlift.psi_map(rs, ctx.parabolic, u, lamp_dict(lp))
        wv, lv = pwlift.psi_map(rs, ctx.parabolic, v, lamp_dict(mp))
        top = {}
        closure_ok = True
        for (w, lam), c in ring.quantum_product(wu, wv).sorted_terms():
            lam = tuple(x + y + z for x, y, z in zip(lam, lu, lv))
            g = ctx.gr((w, lam))
            if all(x == 0 for x in g[:op.r]):
                top[(w, lam)] = c
            elif not g < (0,) * (op.r + 1):
                closure_ok = False
        gp = pwlift.qhp_product(ring, ctx.parabolic, u, v)
        expected = {}
        for (w, exps), c in gp.items():
            tot = lamp_dict([x + y + z for x, y, z in zip(exps, lp, mp)])
            ww, ll = pwlift.psi_map(rs, ctx.parabolic, w, tot)
            expected[(ww, ll)] = c
        def listed(terms):
            return sorted((ctx.term_str(*k), c) for k, c in terms.items())
        return (top == expected and closure_ok,
                lambda: f"top window={listed(top)}; closure={closure_ok}",
                lambda: f"psi of G/P product={listed(expected)}")

    if op.is_a_type:
        for u, lp, v, mp in pairs:
            case = lambda: (f"psi-mult:u={ctx.word(u)};lamP={lp};"
                            f"v={ctx.word(v)};muP={mp}")
            if not _want(only_case, case):
                continue
            ok, lhs, rhs = psi_mult_check(u, lp, v, mp)
            rep.record(case, ok, lhs=lhs, rhs=rhs)

        m = _projective_space_model(rs, ctx.parabolic, reps)
        if m is not None:
            rep.extra["model"] = f"projective space P^{m}"
            model_text = lambda d: str(sorted((ctx.word(w), e, c)
                                              for (w, e), c in d.items()))
            for a in range(m + 1):
                for b in range(m + 1):
                    case = lambda: f"model:a={a};b={b}"
                    if not _want(only_case, case):
                        continue
                    got = pwlift.qhp_product(ring, ctx.parabolic,
                                             reps[a], reps[b])
                    if a + b <= m:
                        expect = {(reps[a + b], (0,)): 1}
                    else:
                        expect = {(reps[a + b - m - 1], (1,)): 1}
                    rep.record(case, got == expect,
                               lhs=lambda: model_text(got),
                               rhs=lambda: model_text(expect))
        else:
            rep.extra["model"] = "none"
    else:
        # Conjectural for non-chain subsets: verdicts only, never gating.
        agree, mismatches = 0, []
        for u, lp, v, mp in pairs:
            ok, lhs, rhs = psi_mult_check(u, lp, v, mp)
            if ok:
                agree += 1
            else:
                mismatches.append({
                    "case": (f"u={ctx.word(u)};lamP={lp};"
                             f"v={ctx.word(v)};muP={mp}"),
                    "lhs": lhs(), "rhs": rhs()})
        rep.extra["subalgebra_conjecture"] = {
            "agree": agree, "disagree": len(mismatches),
            "mismatches": mismatches[:20]}


def _projective_space_model(rs: RootSystem, parabolic, reps):
    """m when G/P is the projective space P^m: type A with the complement a
    single end node of the chain."""
    ok = (rs.series == "A" and rs.complement(parabolic) in ((1,), (rs.n,))
          and sorted(w.length for w in reps) == list(range(rs.n + 1)))
    return rs.n if ok else None


def _basics(ctx: _Context, rep: Report, only_case: Optional[str]) -> None:
    """Reflection-length bound, leading-term shape of parabolic Chevalley
    products, the classical filtration after q -> 0, and ring sanity
    (commutativity, sampled associativity, homogeneity, positivity).

    The ring stores one product per unordered pair, so the commutativity
    cases are structural: both sides read the same memo entry.  The real
    commutativity check is the ordered-pair recursion in
    tests/test_qchev.py, which multiplies each pair in both orders."""
    rs, op, ring = ctx.rs, ctx.op, ctx.ring

    for gamma in rs.positive_roots:
        case = lambda: f"lengthbound:gamma={gamma}"
        if not _want(only_case, case):
            continue
        l = weyl.reflection(rs, gamma).length
        bound = rs.two_rho_pairing(rs.coroot_of(gamma)) - 1
        rep.record(case, l <= bound, lhs=lambda: f"l(s_gamma)={l}",
                   rhs=lambda: f"<= {bound}")

    reps = pwlift.minimal_representatives(rs, ctx.parabolic,
                                          cap=ctx.setup.max_weyl)
    for u in reps:
        for j in range(1, op.r + 1):
            idx = op.order[j - 1]
            case = lambda: f"leading:u={ctx.word(u)};j={j}"
            if not _want(only_case, case):
                continue
            sj = weyl.simple_reflection(rs, idx)
            usj = weyl.multiply(u, sj)
            target = op.gr_weyl(usj)
            prod = dict(ring.quantum_product(u, sj).sorted_terms())
            lead = prod.pop((usj, (0,) * rs.n), 0)
            rest_ok = all(ctx.gr(t) < target for t in prod)
            rep.record(case, lead == 1 and rest_ok,
                       lhs=lambda: f"coefficient={lead}; dominated={rest_ok}",
                       rhs="coefficient 1, all other terms strictly below")

    elements = ring.elements
    for ui, u in enumerate(elements):
        for _, v, case, qc in ctx.pairs(only_case, "commutativity:", [u], elements[ui:]):
            rep.record(case, qc == ring.quantum_product(v, u),
                       lhs="product(u,v)", rhs="product(v,u)")
        for _, v, case, qc in ctx.pairs(only_case, "classical-filtration:", [u]):
            bound = grading_add(op.gr_weyl(u), op.gr_weyl(v))
            bad = [w for (w, lam), c in qc.sorted_terms()
                   if not any(lam) and not op.gr_weyl(w) <= bound]
            rep.record(case, not bad, lhs=lambda: "; ".join(map(ctx.word, bad)),
                       rhs=lambda: f"bound={bound}")
        for _, v, case, qc in ctx.pairs(only_case, "positivity:", [u]):
            bad = [(w, lam, c) for (w, lam), c in qc.sorted_terms()
                   if not (isinstance(c, int) and c > 0 and w.length
                           + rs.two_rho_pairing(lam) == u.length + v.length)]
            rep.record(case, not bad,
                       lhs=lambda: "; ".join(f"{ctx.term_str(w, lam)}:{c}"
                                             for w, lam, c in bad),
                       rhs="integer, positive, homogeneous")

    rng = random.Random(ctx.setup.seed)
    for t in range(_ASSOC_SAMPLES):
        u, v, w = (elements[rng.randrange(len(elements))] for _ in range(3))
        case = lambda: (f"associativity:{t}:u={ctx.word(u)};v={ctx.word(v)};"
                        f"w={ctx.word(w)}")
        if not _want(only_case, case):
            continue
        left = ring.product_with_class(ring.quantum_product(u, v), w)
        right = ring.product_with_class(ring.quantum_product(v, w), u)
        rep.record(case, left == right, lhs="(u*v)*w", rhs="u*(v*w)")


# Suite bodies record their cases into a Report that run_suite prepares.
SUITES: Dict[str, Callable[[_Context, Report, Optional[str]], None]] = {
    "filtration": _filtration,
    "key-lemma": _key_lemma,
    "ideal-quotient": _ideal_and_quotient,
    "graded-iso": _graded_iso,
    "psi-grading": _psi_grading,
    "referee-conjecture": _referee_conjecture,
    "basics": _basics,
}


def _applies(name: str, rs: RootSystem, parabolic: Sequence[int]) -> bool:
    """psi-grading reads the grading of a chain; the rest run on any subset."""
    return name != "psi-grading" or is_a_chain(rs, parabolic)


def select_suites(spec: str, rs: RootSystem,
                  parabolic: Sequence[int]) -> List[str]:
    """The suites a comma-separated ``spec`` names, all checked before any
    runs; ``all`` stands for every suite that applies to the parabolic."""
    if spec == "all":
        return [name for name in ALL_SUITES if _applies(name, rs, parabolic)]
    names = [s.strip() for s in spec.split(",")]
    for name in names:
        if name not in SUITES:
            raise InvalidInputError(
                f"unknown suite {name!r}; valid: {', '.join(ALL_SUITES)}")
        if not _applies(name, rs, parabolic):
            raise InvalidInputError(
                f"{name} requires the parabolic subset to be a chain")
    return names


class _Replayed(Exception):
    """A replay's case is recorded: the suite has nothing left to run."""


class _ReplayReport(Report):
    """Ends its suite at the first record, the one case ``_want`` admits."""

    def record(self, *args, **kwargs) -> None:
        super().record(*args, **kwargs)
        raise _Replayed


def run_suites(spec: str, setup: VerificationSetup,
               only_case: Optional[str] = None) -> List[Report]:
    """Run the suites ``spec`` names, as ``select_suites`` reads it, on one
    shared context, refusing first a q-box or lambda box above its cap that
    one of them enumerates; with ``only_case``, each suite stops at that case."""
    ctx = _Context(setup)
    names, k = select_suites(spec, ctx.rs, ctx.parabolic), len(ctx.comp)
    if _QBOX_SUITES & set(names) and (setup.max_q + 1) ** k > _QBOX_CAP:
        raise InvalidInputError(f"max-q {setup.max_q} gives a q-box of "
                                f"(max-q + 1)^{k} points; the cap is {_QBOX_CAP}")
    if "graded-iso" in names and len(_LAMBDA_RANGE) ** ctx.rs.n > _LAMBDA_BOX_CAP:
        raise InvalidInputError(f"graded-iso's lambda box has {len(_LAMBDA_RANGE)}^"
                                f"{ctx.rs.n} points; the cap is {_LAMBDA_BOX_CAP}")
    reports = []
    for name in names:
        t0 = time.monotonic()
        rep = (Report if only_case is None else _ReplayReport)(
            name, ctx.rs.name, list(ctx.parabolic), list(ctx.op.order))
        with contextlib.suppress(_Replayed):
            SUITES[name](ctx, rep, only_case)
        rep.elapsed_ms = int((time.monotonic() - t0) * 1000)
        reports.append(rep)
    return reports


def run_suite(name: str, setup: VerificationSetup,
              only_case: Optional[str] = None) -> Report:
    """One suite on a context of its own."""
    if name not in SUITES:  # "all" and lists are for run_suites
        raise InvalidInputError(f"unknown suite {name!r}")
    (rep,) = run_suites(name, setup, only_case)
    return rep


def replay_case(name: str, setup: VerificationSetup, case: str) -> Report:
    """Re-run a single case from a report; the verdict must reproduce.
    The suite stops once the case is recorded, so it builds the names of
    the cases before it only, and ``extra`` holds what was set by then."""
    rep = run_suite(name, setup, only_case=case)
    if rep.total == 0:
        raise InvalidInputError(f"case {case!r} not found in suite {name}")
    return rep
