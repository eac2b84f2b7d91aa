import pytest

from comodcheck import comod, dsl, runner
from comodcheck.report import CheckReport, failure

from conftest import count_calls


FP_DOCUMENT = """field Fp 7
coalg C = grouplike {a, b}
coalg D = grouplike {x, y, z}
morph f : D -> C {x->a, y->a, z->b}
morph g : C -> C {a->b, b->a}
comod V over D {graded {x: 1, y: 2, z: 1}}
comod W over C {graded {a: 2, b: 1}}
check cotensor W W
check adjunction f V W
check beck f g
check forall-beck f g
check frobenius f
check ssmc f
check injective V
check hyperdoctrine C 1
"""


def test_prime_field_full_stack():
    reports = runner.run(dsl.parse(FP_DOCUMENT), seed=3)
    assert all(r.verdict == "pass" for r in reports), \
        [r.as_dict() for r in reports if r.verdict != "pass"]


def test_hyperdoctrine_unsupported_over_non_grouplike_base():
    doc = dsl.parse(
        "field Q\n"
        "coalg K = raw dim=2 delta=[1, 0, 0, 1, 0, 1, 2, 0] eps=[1, 0]\n"
        "check hyperdoctrine K 1\n")
    reports = runner.run(doc)
    assert reports[0].verdict == "unsupported"


def test_failing_reports_always_carry_witness():
    rep = failure("beck", "phi psi != id")
    assert rep.witness == {"equation": "phi psi != id"}
    bare = CheckReport("x", verdict="fail")
    assert bare.witness is not None
    with pytest.raises(ValueError):
        CheckReport("x", verdict="maybe")


def test_millis_recorded_per_report():
    doc = dsl.parse("field Q\ncoalg C = grouplike {a}\ncheck axioms C\n")
    rep = runner.run(doc)[0]
    assert rep.millis >= 0.0


def test_injective_check_solves_once(monkeypatch):
    doc = dsl.parse("field Q\ncoalg C = grouplike {a, b}\n"
                    "comod V over C {graded {a: 1, b: 2}}\n"
                    "check injective V\n")
    calls = count_calls(monkeypatch, comod, "is_injective")
    rep = runner.run(doc)[0]
    assert rep.verdict == "pass" and rep.value is True
    assert len(calls) == 1
