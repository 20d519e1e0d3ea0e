import hashlib
import json

import pytest

from qhflag.errors import InvalidInputError
from qhflag.verify import (ALL_SUITES, Report, THEOREM_SUITES,
                           VerificationSetup, replay_case, run_suite)


def setup_for(system, parabolic, **kw):
    return VerificationSetup(system=system, parabolic=parabolic, **kw)


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
    cases = []
    record = Report.record

    def spy(self, case, ok, lhs="", rhs=""):
        cases.append([case, ok, lhs, rhs])
        record(self, case, ok, lhs, rhs)

    monkeypatch.setattr(Report, "record", spy)
    rep = run_suite("key-lemma", setup_for("B3", (1, 2))).to_json_obj()
    del rep["elapsed_ms"]
    assert rep == {"suite": "key-lemma", "system": "B3", "parabolic": [1, 2],
                   "order": [1, 2], "total": 372, "passes": 372,
                   "failures": [], "informational": False,
                   "extra": {"vacuous": 192}}
    assert hashlib.sha256(json.dumps(cases).encode()).hexdigest() == (
        "a22e9694cad61d29e65ad7ace0f347c69678975774d8a8b09a2bf6aa927e86ba")


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
    with pytest.raises(InvalidInputError, match="unknown suite"):
        run_suite("nope", setup_for("A2", (1,)))


def test_psi_grading_requires_chain():
    with pytest.raises(InvalidInputError, match="chain"):
        run_suite("psi-grading", setup_for("B3", (2, 3)))


def test_explicit_order_must_permute():
    with pytest.raises(InvalidInputError, match="permute"):
        run_suite("filtration", setup_for("A2", (1,), order=(2,)))


def test_negative_max_q_rejected():
    with pytest.raises(InvalidInputError, match="max-q"):
        setup_for("A2", (1,), max_q=-1)
    assert run_suite("psi-grading", setup_for("A2", (1,), max_q=0)).total == 1


@pytest.mark.parametrize("field", ["grading_box", "assoc_samples",
                                   "psi_samples"])
def test_negative_sample_counts_rejected(field):
    # A negative count used to skip its cases silently.
    with pytest.raises(InvalidInputError,
                       match=f"{field.replace('_', '-')} must be nonnegative"):
        setup_for("A2", (1,), **{field: -1})
    setup_for("A2", (1,), **{field: 0})


def test_report_json_schema():
    rep = run_suite("key-lemma", setup_for("A2", (1,)))
    obj = rep.to_json_obj()
    for key in ("suite", "system", "parabolic", "order", "total", "passes",
                "failures", "elapsed_ms"):
        assert key in obj
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


def test_replay_reproduces_verdicts():
    setup = setup_for("A2", (1,))
    for suite in ("filtration", "key-lemma", "graded-iso"):
        rep = run_suite(suite, setup)
        assert rep.ok
        # replay a spread of cases: same verdict, one case each
        ids = [f["case"] for f in rep.failures]
        if not ids:
            full = run_suite(suite, setup)
            assert full.total > 0
        probe = ["u=[1];v=[1]", "lemma41:d=(0,)" if suite == "graded-iso"
                 else "u=[1];v=[2]"]
        for case in probe:
            try:
                single = replay_case(suite, setup, case)
            except InvalidInputError:
                continue
            assert single.total == 1
            assert single.ok


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
