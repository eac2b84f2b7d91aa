import importlib
import inspect
import json
from fractions import Fraction
from importlib import resources

import pytest

from comodcheck import dsl, runner
from comodcheck.dsl import ParseError, parse, print_document
from comodcheck.fields import GF, QQ


SAMPLE = """# a small document
field Q
coalg C = grouplike {a, b}
coalg D = grouplike {x, y, z}
coalg S = sum(C, D)
coalg P = product(C, C)
coalg R = raw dim=2 delta=[1, 0, 0, 1, 0, 1, 2, 0] eps=[1, 0]
morph f : D -> C {x->a, y->a, z->b}
comod V over C {graded {a: 1, b: 2}}
comod W over C {dim 2 rho=[1, 0, 0, 0, 0, 0, 0, 1]}
check axioms C
check cosemisimple R
check hom V W
"""


def test_parse_constructs_objects():
    doc = parse(SAMPLE)
    assert doc.coalgebras["C"].dim == 2
    assert doc.coalgebras["S"].dim == 5
    assert doc.coalgebras["P"].dim == 4
    assert doc.morphisms["f"].matrix.cols == 3
    assert doc.comodules["V"].dim == 3
    assert doc.comodules["W"].dim == 2
    assert [k for k, _, _ in doc.checks] == ["axioms", "cosemisimple",
                                             "hom"]


def test_print_parse_round_trip():
    doc = parse(SAMPLE)
    printed = print_document(doc)
    again = parse(printed)
    assert again == doc
    assert print_document(again) == printed


def test_literals_parse_once_to_values_and_printed_forms():
    values, text = dsl._entries("2/2, 1/2, -0", QQ, 1)
    assert values == [1, Fraction(1, 2), 0]
    assert [type(x) for x in values] == [int, Fraction, int]
    assert text == ("1", "1/2", "0")
    with pytest.raises(ParseError, match=r"line 4, col 1: bad scalar "
                       r"literal '1/0'"):
        dsl._entries("1, 1/0", QQ, 4)
    with pytest.raises(ParseError, match="bad scalar literal '1/7'"):
        dsl._entries("1/7", GF(7), 1)


def test_rational_rho_round_trips():
    # e_a and e_b conjugated by [[1, 1/2], [0, 1]], written with
    # non-canonical literals; the printer writes the canonical ones
    text = ("field Q\ncoalg C = grouplike {a, b}\n"
            "comod V over C {dim 2 rho=[2/2, -1/2, -0, 2/4, 0/3, 0, "
            "0, 4/4]}\ncheck injective V\n")
    doc = parse(text)
    assert doc.comodules["V"].rho.data == [1, Fraction(-1, 2), 0,
                                          Fraction(1, 2), 0, 0, 0, 1]
    printed = print_document(doc)
    assert "rho=[1, -1/2, 0, 1/2, 0, 0, 0, 1]" in printed
    assert parse(printed) == doc
    assert print_document(parse(printed)) == printed


def test_multiline_brackets():
    text = "field Q\ncoalg C = raw dim=1 delta=[\n 1\n] eps=[1]\n"
    assert parse(text).coalgebras["C"].dim == 1


def test_missing_field_declaration():
    with pytest.raises(ParseError) as err:
        parse("coalg C = grouplike {a}\n")
    assert "field" in str(err.value)


def test_duplicate_name_rejected():
    with pytest.raises(ParseError) as err:
        parse("field Q\ncoalg C = grouplike {a}\n"
              "coalg C = grouplike {b}\n")
    assert err.value.line == 3


def test_unresolved_reference():
    with pytest.raises(ParseError):
        parse("field Q\ncoalg S = sum(A, B)\n")


def test_unresolved_check_argument():
    with pytest.raises(ParseError) as err:
        parse("field Q\ncoalg C = grouplike {a}\ncheck axioms D\n")
    assert err.value.line == 3 and "unresolved" in str(err.value)


def test_syntax_error_carries_position():
    with pytest.raises(ParseError) as err:
        parse("field Q\ncheck bogus C\n")
    assert err.value.line == 2 and err.value.col == 7


@pytest.mark.parametrize("body, message", [
    ("coalg R = raw dim=2 delta=[1, 0, 0, 1, 0, 1, 2] eps=[1, 0]",
     "4x2 matrix needs 8 entries, got 7"),
    ("morph g : C -> C {matrix [1, 0, 0]}",
     "2x2 matrix needs 4 entries, got 3"),
    ("comod W over C {dim 2 rho=[1, 0, 0, 0, 0, 0, 0]}",
     "4x2 matrix needs 8 entries, got 7")])
def test_a_literal_with_a_wrong_entry_count_names_its_shape(body, message):
    # raw literals are read straight into column dicts; the count error
    # keeps the matrix shape it names
    with pytest.raises(ParseError) as exc:
        parse(f"field Q\ncoalg C = grouplike {{a, b}}\n{body}\n")
    assert str(exc.value) == f"line 3, col 1: {message}"


def test_construction_error_names_axiom():
    bad = ("field Q\n"
           "coalg B = raw dim=2 delta=[1, 0, 0, 0, 0, 0, 0, 1] eps=[1, 0]\n")
    with pytest.raises(ParseError) as err:
        parse(bad)
    assert "counit" in str(err.value) and err.value.line == 2


def test_fp_document():
    doc = parse("field Fp 5\ncoalg C = grouplike {a, b}\n"
                "comod V over C {graded {a: 2, b: 0}}\ncheck injective V\n")
    assert doc.field.char == 5
    reports = runner.run(doc)
    assert reports[0].passed and reports[0].value is True


# -- runner ---------------------------------------------------------------------

def test_run_produces_one_report_per_check():
    doc = parse(SAMPLE)
    reports = runner.run(doc)
    assert [r.check for r in reports] == ["axioms", "cosemisimple", "hom"]
    assert all(r.passed for r in reports)
    assert reports[1].value is True  # the sqrt2 dual is cosemisimple


def test_boolean_checks_report_value_not_failure():
    doc = parse("field Q\n"
                "coalg N = raw dim=2 delta=[1, 0, 0, 1, 0, 1, 0, 0] "
                "eps=[1, 0]\n"
                "comod S over N {dim 1 rho=[1, 0]}\n"
                "check injective S\n"
                "check cosemisimple N\n")
    reports = runner.run(doc)
    assert all(r.verdict == "pass" for r in reports)
    assert reports[0].value is False
    assert reports[1].value is False


def test_generated_args_are_seed_deterministic():
    text = ("field Q\ncoalg C = grouplike {a, b}\n"
            "coalg D = grouplike {x, y, z}\n"
            "morph f : D -> C {x->a, y->b, z->b}\n"
            "check adjunction f\ncheck frobenius f\n")
    r1 = runner.run(parse(text), seed=5)
    r2 = runner.run(parse(text), seed=5)
    assert [a.dims for a in r1] == [b.dims for b in r2]
    r3 = runner.run(parse(text), seed=6)
    assert all(r.passed for r in r1 + r3)


def test_json_reports_are_stable_modulo_millis():
    doc = parse(SAMPLE)
    a = json.loads(runner.reports_to_json(runner.run(doc, seed=1)))
    b = json.loads(runner.reports_to_json(runner.run(doc, seed=1)))
    for r in a + b:
        r["millis"] = 0.0
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_report_keys_are_stable():
    doc = parse("field Q\ncoalg C = grouplike {a}\ncheck axioms C\n")
    payload = json.loads(runner.reports_to_json(runner.run(doc)))
    assert set(payload[0]) == {"check", "refs", "verdict", "value", "dims",
                               "witness", "details", "millis"}


def test_registry_covers_every_operation():
    covered = set()
    for ops in runner.CHECK_OPERATIONS.values():
        covered |= ops
    missing = [op for op in runner.OPERATION_INVENTORY if op not in covered]
    assert not missing, f"operations unreachable from checks: {missing}"
    assert set(runner.CHECK_OPERATIONS) == set(dsl.CHECK_KINDS)


def test_registry_names_real_code():
    # every name in the registry is module.attribute[.attribute] of a
    # comodcheck module, importable and callable
    names = set(runner.OPERATION_INVENTORY).union(
        *runner.CHECK_OPERATIONS.values())
    for name in sorted(names):
        module, *attrs = name.split(".")
        obj = importlib.import_module(f"comodcheck.{module}")
        for attr in attrs:
            obj = getattr(obj, attr)
        assert callable(obj), name


def test_corpus_documents_parse_and_round_trip():
    corpus = resources.files("comodcheck") / "corpus"
    names = sorted(p.name for p in corpus.iterdir()
                   if p.name.endswith(".cd"))
    assert len(names) >= 12
    kinds = set()
    for name in names:
        text = (corpus / name).read_text()
        doc = parse(text)
        assert print_document(doc) == text
        kinds |= {k for k, _, _ in doc.checks}
    assert kinds == set(dsl.CHECK_KINDS)


def test_check_args_table_matches_the_executors():
    assert set(dsl.CHECK_ARGS) == set(runner._EXECUTORS)
    for kind, roles in dsl.CHECK_ARGS.items():
        params = list(inspect.signature(runner._EXECUTORS[kind])
                      .parameters.values())[2:]
        assert len(params) == len(roles), kind
        optional = [p.default is not inspect.Parameter.empty for p in params]
        assert optional == [r.endswith("?") for r in roles], kind


ARGS_DOCUMENT = ("field Q\ncoalg C = grouplike {a, b}\n"
                 "comod V over C {graded {a: 1, b: 1}}\n")


@pytest.mark.parametrize("directive, col, expected", [
    ("check hyperdoctrine C", 7,
     "check hyperdoctrine <coalgebra> <exponent>: expected 2 arguments, "
     "got 1"),
    ("check injective V V", 19,
     "check injective <comodule>: expected 1 argument, got 2"),
    ("check hyperdoctrine C C", 23,
     "check hyperdoctrine <coalgebra> <exponent>: argument 2 must be a "
     "nonnegative integer, got 'C'"),
    ("check cotensor V 2", 18,
     "check cotensor <comodule> <comodule>: argument 2 must name a "
     "comodule, got '2'"),
], ids=["missing-exponent", "extra-argument", "exponent-not-integer",
        "integer-as-comodule"])
def test_check_arguments_are_validated_at_parse_time(directive, col,
                                                     expected):
    with pytest.raises(ParseError) as err:
        parse(ARGS_DOCUMENT + directive + "\n")
    assert (err.value.line, err.value.col) == (4, col)
    assert str(err.value) == f"line 4, col {col}: {expected}"


@pytest.mark.parametrize("spec", ["Fp 9", "Fp 1", "Fp 2147483659", "Fp 0"])
def test_a_bad_field_declaration_is_a_parse_error(spec):
    # a composite, a unit, a prime too large and zero; Fp 0 must not
    # silently run over Q
    with pytest.raises(ParseError) as err:
        parse(f"field {spec}\ncoalg C = grouplike {{a, b}}\n")
    assert err.value.line == 1 and "line 1" in str(err.value)
