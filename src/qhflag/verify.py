"""Exhaustive desk-scale verification suites with structured reports.

Each suite checks one family of structural claims about the graded quantum
product (filtration bound, dominance inequality for Chevalley terms, ideal
and quotient structure, graded-piece isomorphisms, lift gradings, or the
conjectural closed form for quantum-variable gradings) over a concrete
root system and ordered parabolic, and returns a Report listing every
failure with a replayable witness.

Reports are deterministic functions of (setup, seed) apart from the wall
time.  Suites are independent: each call builds fresh root-system, Weyl,
and ring objects and shares no mutable state, so results cannot depend on
scheduling.  The conjecture suite is informational and never gates a
build.

JSON report schema:
    {suite, system, parabolic, order, total, passes,
     failures: [{case, lhs, rhs}], elapsed_ms}
plus an ``extra`` object for suite-specific counters.
"""

from __future__ import annotations

import random
import time
from dataclasses import asdict, dataclass, field
from itertools import product
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .errors import InvalidInputError
from . import pwlift, weyl
from .grading import OrderedParabolic, canonical_order, grading_add, is_a_chain
from .qchev import QClass, QuantumFlagRing, format_qclass, format_term
from .rootsys import RootSystem, parabolic_subsystem, parse_system_id
from .weyl import WeylElt

THEOREM_SUITES = ("filtration", "key-lemma", "ideal-quotient", "graded-iso",
                  "psi-grading", "basics")
CONJECTURE_SUITES = ("referee-conjecture",)
ALL_SUITES = THEOREM_SUITES + CONJECTURE_SUITES


@dataclass(frozen=True)
class VerificationSetup:
    """Parameters for one suite run."""

    system: str
    parabolic: Tuple[int, ...]
    order: Optional[Tuple[int, ...]] = None
    max_weyl: int = weyl.WEYL_CAP
    max_q: int = 3
    grading_box: int = 6
    seed: int = 0
    assoc_samples: int = 200
    psi_samples: int = 100

    def __post_init__(self):
        for name in ("max_q", "grading_box", "assoc_samples", "psi_samples"):
            if getattr(self, name) < 0:
                raise InvalidInputError(
                    f"{name.replace('_', '-')} must be nonnegative, "
                    f"got {getattr(self, name)}")


@dataclass
class Report:
    """Outcome of one suite: counts plus replayable failure witnesses."""

    suite: str
    system: str
    parabolic: List[int]
    order: List[int]
    total: int = 0
    passes: int = 0
    failures: List[Dict[str, str]] = field(default_factory=list)
    elapsed_ms: int = 0
    informational: bool = False
    extra: Dict[str, object] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.failures

    def record(self, case: str, ok: bool, lhs: str = "", rhs: str = "") -> None:
        self.total += 1
        if ok:
            self.passes += 1
        else:
            self.failures.append({"case": case, "lhs": lhs, "rhs": rhs})

    def to_json_obj(self) -> dict:
        return asdict(self)  # the fields in schema order


class _Context:
    """Fresh per-suite objects; nothing here is shared between runs."""

    def __init__(self, setup: VerificationSetup):
        self.setup = setup
        self.rs = parse_system_id(setup.system)
        par = self.rs.check_parabolic(setup.parabolic)
        if setup.order is not None:
            if tuple(sorted(setup.order)) != par:
                raise InvalidInputError("explicit order must permute the parabolic")
            self.op = OrderedParabolic(self.rs, tuple(setup.order))
        else:
            self.op = canonical_order(self.rs, par)
        self.parabolic = par
        self._ring: Optional[QuantumFlagRing] = None

    @property
    def ring(self) -> QuantumFlagRing:
        if self._ring is None:
            self._ring = QuantumFlagRing(self.rs, weyl_cap=self.setup.max_weyl)
        return self._ring

    def word(self, w: WeylElt) -> str:
        return "[%s]" % ",".join(map(str, w.word()))

    def term_str(self, w: WeylElt, lam: Sequence[int]) -> str:
        return format_term(1, enumerate(lam, start=1), w)


def _want(only_case: Optional[str], case: str) -> bool:
    return only_case is None or only_case == case


# ---------------------------------------------------------------------------
# individual suites
# ---------------------------------------------------------------------------

def _filtration(ctx: _Context, rep: Report, only_case: Optional[str]) -> None:
    """Every term of every Schubert product respects the grading bound."""
    op, ring = ctx.op, ctx.ring
    for u in ring.elements:
        gu = op.gr_weyl(u)
        for v in ring.elements:
            case = f"u={ctx.word(u)};v={ctx.word(v)}"
            if not _want(only_case, case):
                continue
            bound = grading_add(gu, op.gr_weyl(v))
            bad = []
            for (w, lam), c in ring.quantum_product(u, v).terms.items():
                g = op.gr(w, lam)
                if not g <= bound:
                    bad.append((ctx.term_str(w, lam), g))
            rep.record(case, not bad,
                       lhs="; ".join(f"gr({t})={g}" for t, g in bad),
                       rhs=f"bound={bound}")
    rep.extra["pairs"] = rep.total


def _key_lemma(ctx: _Context, rep: Report, only_case: Optional[str]) -> None:
    """Dominance of Chevalley terms: for every u, positive root gamma and
    index i pairing nontrivially with gamma^vee, whichever length hypothesis
    applies forces gr(u s_gamma) (resp. gr(q^{gamma^vee} u s_gamma)) to stay
    <= gr(u) + gr(s_i)."""
    rs, op = ctx.rs, ctx.op
    elements = weyl.enumerate_group(rs, cap=ctx.setup.max_weyl)
    roots = []  # (gamma, s_gamma, gamma^vee, <2 rho, gamma^vee>)
    for gamma in rs.positive_roots:
        gv = rs.coroot_of(gamma)
        roots.append((gamma, weyl.reflection(rs, gamma), gv, rs.two_rho_pairing(gv)))
    gr_simple = [op.gr_weyl(weyl.simple_reflection(rs, i))
                 for i in range(1, rs.n + 1)]
    vacuous = 0
    for u in elements:
        gu = op.gr_weyl(u)
        bounds = [grading_add(gu, g) for g in gr_simple]
        uword = ctx.word(u)
        for gamma, sg, gv, tworho in roots:
            usg = weyl.multiply(u, sg)
            part_a = usg.length == u.length + 1
            part_b = usg.length == u.length + 1 - tworho
            if not (part_a or part_b):
                vacuous += 1
                continue
            for i, bound in enumerate(bounds, 1):
                if gv[i - 1] == 0:
                    continue
                if part_a:
                    case = f"u={uword};gamma={gamma};i={i};part=a"
                    if _want(only_case, case):
                        g = op.gr_weyl(usg)
                        rep.record(case, g <= bound,
                                   lhs=f"gr(u*s_gamma)={g}", rhs=f"bound={bound}")
                if part_b:
                    case = f"u={uword};gamma={gamma};i={i};part=b"
                    if _want(only_case, case):
                        g = op.gr(usg, gv)
                        rep.record(case, g <= bound,
                                   lhs=f"gr(q^gv*u*s_gamma)={g}",
                                   rhs=f"bound={bound}")
    rep.extra["vacuous"] = vacuous


def _ideal_and_quotient(ctx: _Context, rep: Report,
                        only_case: Optional[str]) -> None:
    """(a) The span of positively-graded basis elements is an ideal.
    (b) Quotient structure constants equal those of the flag ring built
    directly on the parabolic subsystem."""
    rs, op, ring = ctx.rs, ctx.op, ctx.ring
    par = ctx.parabolic
    rtop = op.r  # index of the quotient coordinate in gr, 0-based
    wp = set(weyl.enumerate_group(rs, indices=par, cap=ctx.setup.max_weyl))

    for u in ring.elements:
        if u in wp:
            continue
        for v in ring.elements:
            case = f"ideal:u={ctx.word(u)};v={ctx.word(v)}"
            if not _want(only_case, case):
                continue
            bad = []
            for (w, lam), c in ring.quantum_product(u, v).terms.items():
                if op.gr(w, lam)[rtop] <= 0:
                    bad.append(ctx.term_str(w, lam))
            rep.record(case, not bad,
                       lhs="; ".join(bad), rhs="last grading coordinate > 0")

    sub, index_map = parabolic_subsystem(rs, par)
    sub_ring = QuantumFlagRing(sub)
    rev = {v: k for k, v in index_map.items()}

    def to_sub(w: WeylElt) -> WeylElt:
        return sub_ring.element_from_word([index_map[i] for i in w.word()])

    wp_sorted = sorted(wp, key=WeylElt.sort_key)
    for u in wp_sorted:
        for v in wp_sorted:
            case = f"quotient:u={ctx.word(u)};v={ctx.word(v)}"
            if not _want(only_case, case):
                continue
            retained = {}
            for (w, lam), c in ring.quantum_product(u, v).terms.items():
                if w in wp and all(lam[k] == 0 or (k + 1) in par
                                   for k in range(rs.n)):
                    sub_lam = tuple(lam[rev[j] - 1] for j in
                                    range(1, sub.n + 1))
                    retained[(to_sub(w), sub_lam)] = c
            direct = sub_ring.quantum_product(to_sub(u), to_sub(v)).terms
            rep.record(case, retained == dict(direct),
                       lhs=format_qclass(QClass(sub, retained)),
                       rhs=format_qclass(QClass(sub, dict(direct))))


def _psi_grading(ctx: _Context, rep: Report, only_case: Optional[str]) -> None:
    """Lifts of pure quantum classes have zero grading below the top
    coordinate and nonnegative lifted exponents."""
    rs, op = ctx.rs, ctx.op
    comp = rs.complement(op.order)
    for exps in product(range(ctx.setup.max_q + 1), repeat=len(comp)):
        lam_p = {j: e for j, e in zip(comp, exps) if e}
        case = "lamP=" + ",".join(f"{j}:{e}" for j, e in sorted(lam_p.items()))
        if not _want(only_case, case):
            continue
        w, lam_b = pwlift.psi_map(rs, ctx.parabolic, weyl.identity(rs), lam_p)
        window = op.gr(w, lam_b)[:op.r]
        ok = all(x == 0 for x in window) and all(x >= 0 for x in lam_b)
        rep.record(case, ok,
                   lhs=f"gr_r={window}; lambda_B={lam_b}",
                   rhs="gr_r=0 and lambda_B >= 0")


def _referee_conjecture(ctx: _Context, rep: Report,
                        only_case: Optional[str]) -> None:
    """Instance check of the conjectured inversion-layer formula for the
    grading of quantum variables.  Informational: never gates a build."""
    rs, op = ctx.rs, ctx.op
    verdicts = []
    layer_sums = []
    for layer in op.layers:
        tot = [0] * rs.n
        for beta in layer:
            tot = [a + b for a, b in zip(tot, beta)]
        layer_sums.append(tuple(tot))
    for gamma in rs.positive_roots:
        case = f"gamma={gamma}"
        gv = rs.coroot_of(gamma)
        lhs = op.gr_q_lambda(gv)
        rhs = tuple(rs.pairing(tot, gv) for tot in layer_sums)
        agree = lhs == rhs
        verdicts.append({"gamma": list(gamma), "gr_q": list(lhs),
                         "conjecture": list(rhs), "agree": agree})
        if _want(only_case, case):
            rep.record(case, agree, lhs=f"gr(q^gv)={lhs}",
                       rhs=f"layer formula={rhs}")
    rep.extra["verdicts"] = verdicts


def _graded_iso(ctx: _Context, rep: Report, only_case: Optional[str]) -> None:
    """Graded-piece structure: unique graded representatives, their
    multiplicative normalization, lift multiplicativity into the top graded
    piece, and agreement of the subquotient with QH*(G/P)."""
    rs, op = ctx.rs, ctx.op
    s = op.sigma
    box = ctx.setup.grading_box

    # (a) uniqueness of graded representatives on the box, by brute search.
    reps_by_grading: Dict[tuple, list] = {}
    all_w = weyl.enumerate_group(rs, cap=ctx.setup.max_weyl)
    lam_box = list(product(range(-box, box + 4), repeat=rs.n))
    in_box = {}
    for w in all_w:
        gw = op.gr_weyl(w)
        for lam in lam_box:
            g = op.gr(w, lam) if any(lam) else gw
            if any(g[s:]):
                continue
            head = g[:s]
            if all(0 <= x <= box for x in head):
                reps_by_grading.setdefault(head, []).append((w, lam))

    for d in product(range(box + 1), repeat=s):
        case = f"lemma41:d={d}"
        if _want(only_case, case):
            w, lam = op.unique_basis_element(d)
            hits = reps_by_grading.get(d, [])
            ok = (w, lam) in hits and len(hits) == 1 and (
                all(x >= 0 for x in lam))
            rep.record(case, ok,
                       lhs=f"representatives={[(ctx.word(x), m) for x, m in hits]}",
                       rhs=f"exactly ({ctx.word(w)}, {lam})")
        in_box[d] = op.unique_basis_element(d)

    # (b) graded representatives multiply by grading addition inside the box.
    ring = ctx.ring
    for a, (wa, la) in sorted(in_box.items()):
        for b, (wb, lb) in sorted(in_box.items()):
            case = f"gradedprod:a={a};b={b}"
            if not _want(only_case, case):
                continue
            target = tuple(x + y for x, y in zip(a, b))
            wc, lc = op.unique_basis_element(target)
            goal = tuple(x - y - z for x, y, z in zip(lc, la, lb))
            prod = ring.quantum_product(wa, wb)
            lead = prod.coefficient(wc, goal) if all(x >= 0 for x in goal) else 0
            gtar = target + (0,) * (op.r + 1 - s)
            others_ok = all(
                op.gr(w, tuple(x + y + z for x, y, z in zip(lam, la, lb))) < gtar
                for (w, lam) in prod.terms if (w, lam) != (wc, goal))
            rep.record(case, lead == 1 and others_ok,
                       lhs=f"leading coefficient={lead}; dominated={others_ok}",
                       rhs="coefficient 1, other terms strictly below")

    # (c)+(d) top graded piece vs QH*(G/P), through the lift.  For a chain
    # subset this is a theorem and gates the suite; otherwise the same
    # comparison is the conjectural subalgebra statement and is reported
    # in ``extra`` without gating.
    reps = pwlift.minimal_representatives(rs, ctx.parabolic,
                                          cap=ctx.setup.max_weyl)
    comp = rs.complement(op.order)
    qbox = list(product(range(ctx.setup.max_q + 1), repeat=len(comp)))
    pairs = [(u, lp, v, mp) for u in reps for lp in qbox
             for v in reps for mp in qbox]
    if len(pairs) > max(ctx.setup.psi_samples, 1) * 4:
        rng = random.Random(ctx.setup.seed)
        pairs = rng.sample(pairs, max(ctx.setup.psi_samples, 1))
        rep.extra["psi_regime"] = f"sampled:{len(pairs)}"
    else:
        rep.extra["psi_regime"] = f"exhaustive:{len(pairs)}"

    def lamp_dict(exps):
        return {j: e for j, e in zip(comp, exps) if e}

    def psi_mult_check(u, lp, v, mp):
        wu, lu = pwlift.psi_map(rs, ctx.parabolic, u, lamp_dict(lp))
        wv, lv = pwlift.psi_map(rs, ctx.parabolic, v, lamp_dict(mp))
        shift = tuple(x + y for x, y in zip(lu, lv))
        prod = ring.quantum_product(wu, wv).q_shift(shift)
        top = {}
        closure_ok = True
        for (w, lam), c in prod.terms.items():
            g = op.gr(w, lam)
            if all(x == 0 for x in g[:op.r]):
                top[(w, lam)] = c
            elif not g < (0,) * (op.r + 1):
                closure_ok = False
        gp = pwlift.qhp_product(ring, ctx.parabolic, u, v)
        expected = {}
        for (w, exps), c in gp.items():
            tot = {j: e for j, e in zip(comp, exps) if e}
            for src in (lp, mp):
                for j, e in zip(comp, src):
                    tot[j] = tot.get(j, 0) + e
            ww, ll = pwlift.psi_map(rs, ctx.parabolic, w, tot)
            expected[(ww, ll)] = c
        lhs = (f"top window={sorted((ctx.term_str(*k), c) for k, c in top.items())}"
               f"; closure={closure_ok}")
        rhs = (f"psi of G/P product="
               f"{sorted((ctx.term_str(*k), c) for k, c in expected.items())}")
        return top == expected and closure_ok, lhs, rhs

    if op.is_a_type:
        for u, lp, v, mp in pairs:
            case = (f"psi-mult:u={ctx.word(u)};lamP={lp};"
                    f"v={ctx.word(v)};muP={mp}")
            if not _want(only_case, case):
                continue
            ok, lhs, rhs = psi_mult_check(u, lp, v, mp)
            rep.record(case, ok, lhs=lhs, rhs=rhs)

        model = _projective_space_model(rs, ctx.parabolic, reps)
        if model is not None:
            m, q_j = model
            rep.extra["model"] = f"projective space P^{m}"
            for a in range(m + 1):
                for b in range(m + 1):
                    case = f"model:a={a};b={b}"
                    if not _want(only_case, case):
                        continue
                    got = pwlift.qhp_product(ring, ctx.parabolic,
                                             reps[a], reps[b])
                    if a + b <= m:
                        expect = {(reps[a + b], (0,)): 1}
                    else:
                        expect = {(reps[a + b - m - 1], (1,)): 1}
                    rep.record(case, got == expect,
                               lhs=str(sorted((ctx.word(w), e, c)
                                              for (w, e), c in got.items())),
                               rhs=str(sorted((ctx.word(w), e, c)
                                              for (w, e), c in expect.items())))
        else:
            rep.extra["model"] = "none"
    else:
        # Conjectural for non-chain subsets: verdicts only, never gating.
        agree = 0
        mismatches = []
        for u, lp, v, mp in pairs:
            ok, lhs, rhs = psi_mult_check(u, lp, v, mp)
            if ok:
                agree += 1
            else:
                mismatches.append({
                    "case": (f"u={ctx.word(u)};lamP={lp};"
                             f"v={ctx.word(v)};muP={mp}"),
                    "lhs": lhs, "rhs": rhs})
        rep.extra["subalgebra_conjecture"] = {
            "agree": agree, "disagree": len(mismatches),
            "mismatches": mismatches[:20]}


def _projective_space_model(rs: RootSystem, parabolic, reps):
    """(m, q index) when G/P is a projective space: type A with the
    complement a single end node of the chain."""
    if rs.series != "A":
        return None
    comp = rs.complement(parabolic)
    if len(comp) != 1 or comp[0] not in (1, rs.n):
        return None
    if sorted(w.length for w in reps) != list(range(rs.n + 1)):
        return None
    return rs.n, comp[0]


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
        case = f"lengthbound:gamma={gamma}"
        if not _want(only_case, case):
            continue
        l = weyl.reflection(rs, gamma).length
        bound = rs.two_rho_pairing(rs.coroot_of(gamma)) - 1
        rep.record(case, l <= bound, lhs=f"l(s_gamma)={l}", rhs=f"<= {bound}")

    reps = pwlift.minimal_representatives(rs, ctx.parabolic,
                                          cap=ctx.setup.max_weyl)
    for u in reps:
        for j in range(1, op.r + 1):
            idx = op.order[j - 1]
            case = f"leading:u={ctx.word(u)};j={j}"
            if not _want(only_case, case):
                continue
            sj = weyl.simple_reflection(rs, idx)
            usj = weyl.multiply(u, sj)
            target = op.gr_weyl(usj)
            prod = ring.quantum_product(u, sj)
            lead = prod.coefficient(usj, (0,) * rs.n)
            rest_ok = all(op.gr(w, lam) < target
                          for (w, lam) in prod.terms
                          if (w, lam) != (usj, (0,) * rs.n))
            rep.record(case, lead == 1 and rest_ok,
                       lhs=f"coefficient={lead}; dominated={rest_ok}",
                       rhs="coefficient 1, all other terms strictly below")

    elements = ring.elements
    zero = (0,) * rs.n
    for ui, u in enumerate(elements):
        gu = op.gr_weyl(u)
        for v in elements[ui:]:
            case = f"commutativity:u={ctx.word(u)};v={ctx.word(v)}"
            if _want(only_case, case):
                rep.record(case,
                           ring.quantum_product(u, v) == ring.quantum_product(v, u),
                           lhs="product(u,v)", rhs="product(v,u)")
        for v in elements:
            case = f"classical-filtration:u={ctx.word(u)};v={ctx.word(v)}"
            if not _want(only_case, case):
                continue
            bound = grading_add(gu, op.gr_weyl(v))
            bad = [ctx.word(w) for (w, lam), c
                   in ring.quantum_product(u, v).classical_part().terms.items()
                   if not op.gr_weyl(w) <= bound]
            rep.record(case, not bad, lhs="; ".join(bad), rhs=f"bound={bound}")
        for v in elements:
            case = f"positivity:u={ctx.word(u)};v={ctx.word(v)}"
            if not _want(only_case, case):
                continue
            bad = []
            for (w, lam), c in ring.quantum_product(u, v).terms.items():
                homook = w.length + rs.two_rho_pairing(lam) == u.length + v.length
                if not (isinstance(c, int) and c > 0 and homook):
                    bad.append(f"{ctx.term_str(w, lam)}:{c}")
            rep.record(case, not bad, lhs="; ".join(bad),
                       rhs="integer, positive, homogeneous")

    rng = random.Random(ctx.setup.seed)
    for t in range(ctx.setup.assoc_samples):
        u, v, w = (elements[rng.randrange(len(elements))] for _ in range(3))
        case = (f"associativity:{t}:u={ctx.word(u)};v={ctx.word(v)};"
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


def _check_suite(name: str, rs: RootSystem, parabolic: Sequence[int]) -> None:
    if name not in SUITES:
        raise InvalidInputError(
            f"unknown suite {name!r}; valid: {', '.join(ALL_SUITES)}")
    if not _applies(name, rs, parabolic):
        raise InvalidInputError(
            f"{name} requires the parabolic subset to be a chain")


def select_suites(spec: str, rs: RootSystem,
                  parabolic: Sequence[int]) -> List[str]:
    """The suites a comma-separated ``spec`` names, all checked before any
    runs; ``all`` stands for every suite that applies to the parabolic."""
    if spec == "all":
        return [name for name in ALL_SUITES if _applies(name, rs, parabolic)]
    names = [s.strip() for s in spec.split(",")]
    for name in names:
        _check_suite(name, rs, parabolic)
    return names


def run_suite(name: str, setup: VerificationSetup,
              only_case: Optional[str] = None) -> Report:
    t0 = time.monotonic()
    ctx = _Context(setup)
    _check_suite(name, ctx.rs, ctx.parabolic)
    rep = Report(name, setup.system, list(ctx.parabolic), list(ctx.op.order),
                 informational=name in CONJECTURE_SUITES)
    SUITES[name](ctx, rep, only_case)
    rep.elapsed_ms = int((time.monotonic() - t0) * 1000)
    return rep


def replay_case(name: str, setup: VerificationSetup, case: str) -> Report:
    """Re-run a single case from a report; the verdict must reproduce."""
    rep = run_suite(name, setup, only_case=case)
    if rep.total == 0:
        raise InvalidInputError(f"case {case!r} not found in suite {name}")
    return rep
