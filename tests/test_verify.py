import hashlib
import json
import sys

import pytest

from qhflag import verify, weyl
from qhflag.errors import InvalidInputError
from qhflag.grading import OrderedParabolic
from qhflag.qchev import QuantumFlagRing
from qhflag.rootsys import parse_system_id
from qhflag.verify import (ALL_SUITES, Report, THEOREM_SUITES,
                           VerificationSetup, replay_case, run_suite,
                           run_suites, select_suites)


def setup_for(system, parabolic, **kw):
    return VerificationSetup(system=system, parabolic=parabolic, **kw)


def text(t):
    """A case name or witness as recorded: a string, or built on demand."""
    return t() if callable(t) else t


def sha256_json(obj):
    return hashlib.sha256(json.dumps(obj).encode()).hexdigest()


def record_stream(monkeypatch):
    """Spy on Report.record: the list of every [case, ok, lhs, rhs] recorded,
    with the text built for passing cases too."""
    cases = []
    record = Report.record

    def spy(self, case, ok, lhs="", rhs=""):
        cases.append([text(case), ok, text(lhs), text(rhs)])
        record(self, case, ok, lhs, rhs)

    monkeypatch.setattr(Report, "record", spy)
    return cases


SMALL = [("A2", (1,)), ("A2", (2,)), ("B2", (1,)), ("G2", (1,)), ("G2", (2,))]


@pytest.mark.parametrize("system,par", SMALL)
@pytest.mark.parametrize("suite", ["filtration", "key-lemma", "psi-grading",
                                   "referee-conjecture"])
def test_small_systems_pass(system, par, suite):
    rep = run_suite(suite, setup_for(system, par))
    assert rep.ok, rep.failures[:3]
    assert rep.passes == rep.total > 0


def test_filtration_counts():
    rep = run_suite("filtration", setup_for("A2", (1,)))
    assert rep.total == 36
    rep = run_suite("filtration", setup_for("A3", (1, 2)))
    assert rep.total == 576


def test_key_lemma_counts_vacuous_cases():
    rep = run_suite("key-lemma", setup_for("A2", (1,)))
    assert rep.ok
    assert rep.extra["vacuous"] > 0


def test_key_lemma_report_is_unchanged_b3(monkeypatch):
    # The key-lemma output on B3/(1,2) as the straightforward per-(u, gamma,
    # i) evaluation produced it: the JSON report without its wall time, and
    # a digest of the ordered stream of every recorded case.
    cases = record_stream(monkeypatch)
    rep = run_suite("key-lemma", setup_for("B3", (1, 2))).to_json_obj()
    del rep["elapsed_ms"]
    assert rep == {"suite": "key-lemma", "system": "B3", "parabolic": [1, 2],
                   "order": [1, 2], "total": 372, "passes": 372,
                   "failures": [], "informational": False,
                   "extra": {"vacuous": 192}}
    assert sha256_json(cases) == (
        "a22e9694cad61d29e65ad7ace0f347c69678975774d8a8b09a2bf6aa927e86ba")


# The stream of every recorded case, text included, and the report without
# its wall time, as the suites produced them when they formatted every
# case's text eagerly.  B3/(2,3) is off a chain, so its graded-iso reports
# psi-mult mismatches in ``extra`` instead of gating.
CASE_STREAM_SHA256 = [
    ("A3", (1, 2), "filtration",
     "c8f0b0f86f8cd8932785789e7bbe1e7fed0926721195d686d5df926c6de5c4d3",
     "bf197e540b32964cf196c7c6a4f19461f8cc3e85bdcacf7f28cff8a799e096f2"),
    ("A3", (1, 2), "key-lemma",
     "b067d5f46e19332c0abd570e15181808f0b5c17c7bc64f15cca9c2c399179eb7",
     "b0ed3daa1f00ed442af585b787e0629b060d32b119249642ee770760f05ce84e"),
    ("A3", (1, 2), "ideal-quotient",
     "653bdeee4e957f16942329b86ec7f4b5e703140837d61dea5ebfeff08a19bd2f",
     "70ecd79d20689de5a30d9d202e80e9342eab271f17a076889dbdd3d01122e426"),
    ("A3", (1, 2), "graded-iso",
     "76f52aa852d9ddb5e11d65805d4c123c37debff96334542c4be542bc8a91e2d9",
     "2a0ef75463778eb72de7dc79b3638afb66a8627c9c2c5ca0abe707b506a5588b"),
    ("A3", (1, 2), "psi-grading",
     "e3c6552f6a2798fca8e0df9e2a6c3b13faae2bda4edb18ce7bd5b210702c5df8",
     "cd407f2b3d61eeb2aa237efd849c1dbc9893cf53b457f57910b32969455bbea6"),
    ("A3", (1, 2), "basics",
     "733537ea3a2733f5842f3f9bb61e6fef427a9c05ac2433fe598ddd2325058455",
     "5d5371c4cc1580f33181622cdcd84d6b22da55943ef6d0ca5cc91ff90e9d91b8"),
    ("A3", (1, 2), "referee-conjecture",
     "43385a1bcf594ecda8f8146e00047dd825f3c967d0e2e3cfd960bf351391a1b1",
     "9b1fe586120b9577f88f693b6d6657471e528fba9500fef283a80f32b4f945f1"),
    ("B3", (2, 3), "graded-iso",
     "3ef79512130bce87fd5d782dbb11488404ac921d7798e0d13e40c9ad0f1aa3ef",
     "2119c4115e6f70e7adc3ee61abcc1eb1ee96379dc374f8ce81c77b04c68add17"),
]


@pytest.mark.parametrize("system,par,suite,stream,report", CASE_STREAM_SHA256,
                         ids=[f"{s}-{p}-{n}" for s, p, n, _, _
                              in CASE_STREAM_SHA256])
def test_case_text_is_unchanged(monkeypatch, system, par, suite, stream,
                                report):
    cases = record_stream(monkeypatch)
    rep = run_suite(suite, setup_for(system, par)).to_json_obj()
    del rep["elapsed_ms"]
    assert sha256_json(cases) == stream
    assert sha256_json(rep) == report


def text_spies(monkeypatch):
    """The lists of text callables that ``_text`` runs and of the elements
    that ``ctx.word`` spells, filled as the suites build case text."""
    built, words = [], []
    resolve, word = verify._text, verify._Context.word

    def counted_text(t):
        if callable(t):
            built.append(t)
        return resolve(t)

    def counted_word(self, w):
        words.append(w)
        return word(self, w)

    monkeypatch.setattr(verify, "_text", counted_text)
    monkeypatch.setattr(verify._Context, "word", counted_word)
    return built, words


def test_passing_key_lemma_builds_no_text(monkeypatch):
    # Every case is evaluated and counted, but a passing case builds neither
    # its name nor its witnesses: no text callable runs, no word is spelled.
    built, words = text_spies(monkeypatch)
    setup = setup_for("B3", (1, 2))
    rep = run_suite("key-lemma", setup)
    assert rep.ok and rep.total == rep.passes == 372
    assert (built, words) == ([], [])
    # Replaying builds names to find the case, and only then; it stops at
    # the case, the fifth of the suite.
    assert replay_case("key-lemma", setup,
                       "u=[1];gamma=(0, 1, 0);i=2;part=a").total == 1
    assert len(built) == 5 and words


def test_passing_pairwise_suites_build_no_text(monkeypatch):
    # The suites that walk ctx.pairs build a case's name and witnesses only
    # when it fails, as key-lemma does.
    built, words = text_spies(monkeypatch)
    reps = run_suites("filtration,ideal-quotient,basics", setup_for("A3", (1, 2)))
    assert all(rep.ok for rep in reps)
    assert [rep.total for rep in reps] == [576, 468, 1666]
    assert (built, words) == ([], [])


def test_each_term_is_graded_once_per_run(monkeypatch):
    # Every term the pairwise suites grade is read from the run's table:
    # OrderedParabolic.gr runs once per distinct (w, lambda).
    calls = []
    gr = OrderedParabolic.gr

    def spy(self, w, lam):
        calls.append((w, tuple(lam)))
        return gr(self, w, lam)

    monkeypatch.setattr(OrderedParabolic, "gr", spy)
    reps = run_suites("filtration,ideal-quotient,basics", setup_for("A3", (1, 2)))
    assert all(rep.ok for rep in reps)
    assert len(calls) == len(set(calls)) == 147


def test_key_lemma_loop_composes_no_u_s_gamma_itself(monkeypatch):
    # All u s_gamma of one u come from weyl.times_reflections(u), one
    # composition over interned elements: neither the (u, gamma) loop nor
    # times_reflections under it calls weyl.multiply.
    callers = []
    multiply = weyl.multiply

    def counted(w1, w2):
        callers.append(sys._getframe(1).f_code.co_name)
        return multiply(w1, w2)

    monkeypatch.setattr(weyl, "multiply", counted)
    rep = run_suite("key-lemma", setup_for("B3", (1, 2)))
    assert rep.ok and rep.total == 372
    assert callers  # gr_weyl's decompositions still multiply
    assert callers.count("_key_lemma") == callers.count("times_reflections") == 0


def bump_grading(monkeypatch, coord=0, sign=1):
    """A wrong grading: coordinate ``coord`` of gr(w) moves by ``sign`` times
    (sum of w's reduced word) mod 3, which fails many cases of several suites."""
    gr_weyl = OrderedParabolic.gr_weyl

    def bumped(self, w):
        g = list(gr_weyl(self, w))
        g[coord] += sign * (sum(w.word()) % 3)
        return tuple(g)

    monkeypatch.setattr(OrderedParabolic, "gr_weyl", bumped)


# The (coord, sign) of each suite's bump, else (0, 1).  The ideal claim is
# that the last coordinate stays positive, so its bump lowers that one.
FORCED_BUMPS = {"ideal-quotient": (-1, -1)}

# Failure lists under bump_grading on A3/(1,2), as the suites produced them
# when they formatted every case's text eagerly (ideal-quotient: as each
# pair loop read its own products and graded every term afresh).
FORCED_FAILURES_SHA256 = [
    ("key-lemma", 18,
     "2ace870de32678e2c6c94a57b8ac56cf0da2c48dfe8d54e33376079e26d684f1"),
    ("filtration", 82,
     "25083c2b52c6396d3ae78ac879a9b8a72c2b53081d7421736f1c1651e2701027"),
    ("basics", 26,
     "30742364364ee97fc5b1691baf09d3eadb98934cde4f0674a3bf823a7036cda4"),
    ("ideal-quotient", 40,
     "9b9813d3ca1ec4c4f757d3edcd23a0869f76bb19f304bb8ba3d40ee2bcf4714f"),
]


@pytest.mark.parametrize("suite,count,digest", FORCED_FAILURES_SHA256,
                         ids=[s for s, _, _ in FORCED_FAILURES_SHA256])
def test_forced_failures_keep_their_text_and_replay(monkeypatch, suite, count,
                                                    digest):
    bump_grading(monkeypatch, *FORCED_BUMPS.get(suite, (0, 1)))
    setup = setup_for("A3", (1, 2))
    rep = run_suite(suite, setup)
    assert len(rep.failures) == count
    assert rep.passes == rep.total - count
    assert sha256_json(rep.failures) == digest
    for failure in rep.failures:
        single = replay_case(suite, setup, failure["case"])
        assert single.total == 1
        assert single.failures == [failure]


def test_every_ring_and_enumeration_honours_max_weyl(monkeypatch):
    # ideal-quotient also builds a ring on the parabolic subsystem.
    rings, caps = [], []
    init, enumerate_group = QuantumFlagRing.__init__, weyl.enumerate_group

    def ring_spy(self, rs, weyl_cap=weyl.WEYL_CAP):
        rings.append(weyl_cap)
        init(self, rs, weyl_cap)

    def enumerate_spy(rs, indices=None, cap=weyl.WEYL_CAP):
        caps.append(cap)
        return enumerate_group(rs, indices, cap)

    monkeypatch.setattr(QuantumFlagRing, "__init__", ring_spy)
    monkeypatch.setattr(weyl, "enumerate_group", enumerate_spy)
    setup = setup_for("A3", (1, 2), max_weyl=30)
    for suite in ALL_SUITES:
        assert run_suite(suite, setup).total > 0
    assert len(rings) == 5  # ideal-quotient builds two
    assert set(rings) == set(caps) == {30}
    # A shared run builds the G/B ring once, plus the subsystem ring.
    rings.clear()
    assert all(rep.total > 0 for rep in run_suites("all", setup))
    assert rings == [30, 30]
    # key-lemma enumerates W and builds no ring.
    rings.clear()
    assert run_suites("key-lemma", setup)[0].total > 0
    assert rings == []
    assert set(caps) == {30}


def json_without_time(rep):
    obj = rep.to_json_obj()
    del obj["elapsed_ms"]
    return json.dumps(obj)


@pytest.mark.parametrize("system,par", [("A3", (1, 2)), ("B3", (1, 2)),
                                        ("B3", (2, 3))])
@pytest.mark.parametrize("reverse", [False, True], ids=["default", "reversed"])
def test_shared_run_reports_equal_per_suite_reports(system, par, reverse):
    # B3/(1,2) carries graded-iso failures; B3/(2,3) is off a chain.
    setup = setup_for(system, par)
    names = select_suites("all", parse_system_id(system), par)
    if reverse:
        names.reverse()
    shared = run_suites(",".join(names), setup)
    assert [rep.suite for rep in shared] == names
    for rep in shared:
        assert json_without_time(rep) == json_without_time(
            run_suite(rep.suite, setup))
    failing = {rep.suite for rep in shared if not rep.ok}
    assert failing == ({"graded-iso"} if system == "B3" else set())


def test_reports_name_the_parsed_system():
    setup = setup_for(" b3", (1, 2))
    assert run_suite("referee-conjecture", setup).system == "B3"
    assert [rep.system for rep in run_suites("key-lemma,basics", setup)] == [
        "B3", "B3"]


# The A3/(1) graded-iso report (elapsed_ms dropped) and the names of its 100
# sampled psi-mult cases, in order, as the suite made them when it listed
# every psi-multiplicativity pair and sampled 100 of the list.
GRADED_ISO_A3_1_SHA256 = (
    "840828c9ea1a1dd77004ea5b2c87be338b05c0ef22a160fccc13a31ee45f7ad9")
PSI_SAMPLE_A3_1_SHA256 = (
    "755c2c104fb0ca58decbb139d65830d2ab62afd65ab5c3fce3b5f0f696bb0959")


def test_graded_iso_samples_pairs_by_index_as_from_the_list(monkeypatch):
    cases = record_stream(monkeypatch)
    obj = run_suite("graded-iso", setup_for("A3", (1,))).to_json_obj()
    del obj["elapsed_ms"]
    assert obj["extra"]["psi_regime"] == "sampled:100"
    assert sha256_json(obj) == GRADED_ISO_A3_1_SHA256
    sampled = [c[0] for c in cases if c[0].startswith("psi-mult:")]
    assert len(sampled) == 100
    assert sha256_json(sampled) == PSI_SAMPLE_A3_1_SHA256


def test_ideal_quotient_a3():
    rep = run_suite("ideal-quotient", setup_for("A3", (1, 2)))
    assert rep.ok
    # 18 non-parabolic u times 24 v ideal cases + 36 quotient cases
    assert rep.total == 18 * 24 + 36


def test_graded_iso_a2():
    rep = run_suite("graded-iso", setup_for("A2", (1,)))
    assert rep.ok
    assert rep.extra["model"] == "projective space P^2"


def test_basics_b2():
    rep = run_suite("basics", setup_for("B2", (1,)))
    assert rep.ok


def test_unknown_suite_rejected():
    # run_suite runs one suite: "all" and lists are for run_suites.
    for name in ("nope", "all", "filtration,basics"):
        with pytest.raises(InvalidInputError, match="unknown suite"):
            run_suite(name, setup_for("A2", (1,)))


def test_psi_grading_requires_chain():
    with pytest.raises(InvalidInputError, match="chain"):
        run_suite("psi-grading", setup_for("B3", (2, 3)))


def test_select_suites_expands_all_to_the_applicable_suites():
    a2, b3 = parse_system_id("A2"), parse_system_id("B3")
    assert select_suites("all", a2, (1,)) == list(ALL_SUITES)
    assert select_suites("all", b3, (2, 3)) == [
        s for s in ALL_SUITES if s != "psi-grading"]
    assert select_suites(" basics,filtration", b3, (2, 3)) == [
        "basics", "filtration"]
    with pytest.raises(InvalidInputError, match="chain"):
        select_suites("basics,psi-grading", b3, (2, 3))
    with pytest.raises(InvalidInputError, match="unknown suite"):
        select_suites("basics,nope", a2, (1,))


def test_explicit_order_must_permute():
    with pytest.raises(InvalidInputError, match="permute"):
        run_suite("filtration", setup_for("A2", (1,), order=(2,)))


def test_negative_max_q_rejected():
    with pytest.raises(InvalidInputError, match="max-q"):
        setup_for("A2", (1,), max_q=-1)
    with pytest.raises(InvalidInputError, match="max-q"):
        VerificationSetup("A2", (1,), None, 100, -1)
    with pytest.raises(InvalidInputError, match="max-q"):
        setup_for("A2", (1,))._replace(max_q=-1)
    assert run_suite("psi-grading", setup_for("A2", (1,), max_q=0)).total == 1


def test_a_q_box_above_the_cap_is_refused_before_any_suite_runs(monkeypatch):
    # The default max_q = 3 fits on a complement of 7, the largest that a
    # proper parabolic of rank 8 leaves.
    assert verify._QBOX_CAP >= 4 ** 7
    ran = []
    monkeypatch.setitem(verify.SUITES, "filtration",
                        lambda ctx, rep, only_case: ran.append(rep.suite))
    huge = setup_for("A2", (1,), max_q=99999999999999999999)
    for spec in ("psi-grading", "graded-iso", "filtration,psi-grading", "all"):
        with pytest.raises(InvalidInputError, match=r"q-box of \(max-q \+ 1\)\^1 "):
            run_suites(spec, huge)
    assert ran == []
    # The suites that do not read max_q still run with it.
    assert [r.suite for r in run_suites("filtration,basics", huge)] == [
        "filtration", "basics"]
    assert ran == ["filtration"]
    # At the cap the suite runs; one point over, it is refused.  A3/(1)
    # leaves a complement of 2.
    monkeypatch.setattr(verify, "_QBOX_CAP", 9)
    assert run_suite("psi-grading", setup_for("A3", (1,), max_q=2)).total == 9
    with pytest.raises(InvalidInputError, match=r"\(max-q \+ 1\)\^2 points; "
                       "the cap is 9"):
        run_suite("graded-iso", setup_for("A3", (1,), max_q=3))


def test_a_lambda_box_above_the_cap_is_refused_before_any_suite_runs(monkeypatch):
    # graded-iso searches W x (the lambda range)^n, 16^n points; the cap,
    # 16^5, admits every rank up to 5.  graded_basis raising makes a check
    # in the wrong place fail at once instead of building the box.
    def graded_basis(*args):
        raise AssertionError("graded_basis ran")

    ran = []
    monkeypatch.setattr(OrderedParabolic, "graded_basis", graded_basis)
    monkeypatch.setitem(verify.SUITES, "filtration",
                        lambda ctx, rep, only_case: ran.append(rep.suite))
    e6 = setup_for("E6", (2, 3, 4, 5, 6), max_weyl=51840)
    for spec in ("graded-iso", "filtration,graded-iso", "all"):
        with pytest.raises(InvalidInputError, match=r"graded-iso's lambda box "
                           r"has 16\^6 points; the cap is 1048576"):
            run_suites(spec, e6)
    assert ran == []
    assert [r.suite for r in run_suites("filtration", e6)] == ["filtration"]
    # At the cap the suite runs; one rank over, it is refused.
    monkeypatch.undo()
    monkeypatch.setattr(verify, "_LAMBDA_BOX_CAP", 16 ** 2)
    assert run_suite("graded-iso", setup_for("A2", (1,))).ok
    monkeypatch.setattr(OrderedParabolic, "graded_basis", graded_basis)
    with pytest.raises(InvalidInputError, match=r"16\^3 points; the cap is 256"):
        run_suite("graded-iso", setup_for("A3", (1,)))


def test_setup_arguments_defaults_and_read_only():
    setup = VerificationSetup("B3", (1, 2))
    assert (setup.system, setup.parabolic, setup.order, setup.max_weyl,
            setup.max_q, setup.seed) == ("B3", (1, 2), None, weyl.WEYL_CAP, 3, 0)
    assert setup == VerificationSetup("B3", (1, 2), None, weyl.WEYL_CAP, 3, 0)
    assert VerificationSetup("B3", (1, 2), (2, 1), 50, 1, 7) == VerificationSetup(
        system="B3", parabolic=(1, 2), order=(2, 1), max_weyl=50, max_q=1, seed=7)
    assert repr(setup) == ("VerificationSetup(system='B3', parabolic=(1, 2), "
                           f"order=None, max_weyl={weyl.WEYL_CAP}, max_q=3, seed=0)")
    assert setup._replace(seed=5).seed == 5
    for name in ("max_q", "seed", "other"):
        with pytest.raises(AttributeError):
            setattr(setup, name, 1)
    with pytest.raises(TypeError):
        VerificationSetup("B3")


def test_report_json_schema():
    rep = run_suite("key-lemma", setup_for("A2", (1,)))
    obj = rep.to_json_obj()
    assert list(obj) == ["suite", "system", "parabolic", "order", "total",
                         "passes", "failures", "elapsed_ms", "informational",
                         "extra"]
    text = json.dumps(obj)
    back = json.loads(text)
    assert back["suite"] == "key-lemma"
    assert back["passes"] == back["total"]


def test_reports_deterministic_modulo_time():
    a = run_suite("basics", setup_for("A2", (1,), seed=7)).to_json_obj()
    b = run_suite("basics", setup_for("A2", (1,), seed=7)).to_json_obj()
    a.pop("elapsed_ms")
    b.pop("elapsed_ms")
    assert a == b


def test_seed_changes_sampled_cases_only():
    a = run_suite("basics", setup_for("A2", (1,), seed=1))
    b = run_suite("basics", setup_for("A2", (1,), seed=2))
    assert a.ok and b.ok
    assert a.total == b.total


def test_replay_reproduces_verdicts(monkeypatch):
    # The first, middle and last case each suite records replay alone: the
    # replay records that case only, with the full run's verdict and text.
    cases = record_stream(monkeypatch)
    for system, par in (("A2", (1,)), ("A3", (1, 2))):
        setup = setup_for(system, par)
        for suite in select_suites("all", parse_system_id(system), par):
            cases.clear()
            run_suite(suite, setup)
            full = list(cases)
            for case, ok, lhs, rhs in (full[0], full[len(full) // 2], full[-1]):
                del cases[len(full):]
                single = replay_case(suite, setup, case)
                assert cases[len(full):] == [[case, ok, lhs, rhs]], suite
                assert (single.total, single.ok) == (1, ok)
                assert single.failures == ([] if ok else [
                    {"case": case, "lhs": lhs, "rhs": rhs}])


def test_replay_stops_its_suite_at_the_case():
    # filtration sets extra["pairs"] after its last case; a replay of its
    # first case ends the suite before that.
    rep = replay_case("filtration", setup_for("A2", (1,)), "u=[];v=[]")
    assert (rep.total, rep.passes, rep.extra) == (1, 1, {})


def test_report_json_shares_no_list_or_dict():
    rep = run_suite("referee-conjecture", setup_for("A3", (1, 2)))
    rep.record("forced", False, lhs="l", rhs="r")
    obj = rep.to_json_obj()
    before = json.dumps(obj)
    obj["parabolic"].append(9)
    obj["order"].append(9)
    obj["failures"][0]["case"] = "changed"
    obj["failures"].append({})
    obj["extra"]["verdicts"][0]["gamma"].append(9)
    obj["extra"]["verdicts"].append({})
    obj["extra"]["new"] = 1
    assert json.dumps(rep.to_json_obj()) == before


def test_replay_unknown_case():
    with pytest.raises(InvalidInputError, match="not found"):
        replay_case("filtration", setup_for("A2", (1,)), "u=[9];v=[9]")


def test_failure_records_are_replayable_witnesses():
    # Force a failure by handing the suite a wrong, structurally valid order
    # if one fails; otherwise fabricate a report and check its shape.
    rep = Report("demo", "A2", [1], [1])
    rep.record("case-1", False, lhs="gr=(2,0)", rhs="bound=(1,0)")
    rep.record("case-2", True)
    assert rep.total == 2 and rep.passes == 1 and not rep.ok
    assert rep.failures == [{"case": "case-1", "lhs": "gr=(2,0)",
                             "rhs": "bound=(1,0)"}]


def test_conjecture_suite_is_informational():
    rep = run_suite("referee-conjecture", setup_for("B3", (1, 2)))
    assert rep.informational
    assert "verdicts" in rep.extra
    assert len(rep.extra["verdicts"]) == 9


def test_suite_registry():
    assert set(THEOREM_SUITES) | {"referee-conjecture"} == set(ALL_SUITES)


def test_filtration_all_connected_parabolics():
    from itertools import combinations
    from qhflag.grading import connected_components
    from qhflag.rootsys import build_root_system
    for name in ("A3", "B3", "C3", "G2"):
        rs = build_root_system(name[0], int(name[1]))
        for size in range(1, rs.n):
            for par in combinations(range(1, rs.n + 1), size):
                if len(connected_components(rs, par)) != 1:
                    continue
                rep = run_suite("filtration",
                                VerificationSetup(system=name, parabolic=par))
                assert rep.ok, (name, par, rep.failures[:2])


def test_f4_fits_under_default_cap():
    # |W(F4)| = 1152 <= 2000: gradings and the dominance checks run as-is.
    rep = run_suite("key-lemma", setup_for("F4", (1, 2)))
    assert rep.ok and rep.total == 20336
