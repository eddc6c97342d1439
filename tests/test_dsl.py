import pytest

from quasiring.dsl import parse_spec
from quasiring.errors import DslSyntaxError, DuplicateName, UnknownReference
from quasiring.topology import SequenceSpace, discrete_space, sierpinski_space


def test_basic_spec():
    spec = parse_spec("space Z discrete 3\nalgebra Y zmod 2\nring R = C(Z, Y)")
    assert spec.spaces["Z"] == discrete_space(3)
    assert spec.algebras["Y"].carrier_size == 2
    assert spec.ring_defs["R"].space == "Z"


def test_opens_space_sierpinski():
    spec = parse_spec("space Z opens { {} {0} {0 1} }")
    assert spec.spaces["Z"] == sierpinski_space()


def test_opens_space_auto_closes():
    spec = parse_spec("space Z opens { {0} {1} }")
    z = spec.spaces["Z"]
    assert z.is_open({0, 1}) and z.is_open(frozenset())


def test_seq_space():
    spec = parse_spec("space Z seq")
    assert isinstance(spec.spaces["Z"], SequenceSpace)


def test_table_algebra_with_add_and_unit_detection():
    spec = parse_spec(
        "algebra Y table 2 { 0 0 0 1 } add { 0 1 1 0 }")
    y = spec.algebras["Y"]
    assert y.unit == 1
    assert y.add[1][1] == 0


def test_check_directive_and_comments():
    spec = parse_spec(
        "# a comment\n"
        "space Z discrete 2   # trailing comment\n"
        "algebra Y zmod 3\n"
        "ring R = C(Z, Y)\n"
        "check T34 L59.10 all\n")
    assert spec.checks == ["T34", "L59.10", "all"]


def test_unknown_reference():
    with pytest.raises(UnknownReference):
        parse_spec("space Z discrete 2\nring R = C(Z, W)")


def test_duplicate_name():
    with pytest.raises(DuplicateName):
        parse_spec("space Z discrete 2\nspace Z seq")


def test_syntax_error_location():
    with pytest.raises(DslSyntaxError) as err:
        parse_spec("space Z discrete\nalgebra Y zmod 2")
    assert err.value.line == 2 and err.value.column == 1


def test_bad_character():
    with pytest.raises(DslSyntaxError):
        parse_spec("space Z discrete 2; ring")


def test_table_arity_checked():
    with pytest.raises(DslSyntaxError):
        parse_spec("algebra Y table 2 { 0 0 0 }")



def test_a_ring_may_name_definitions_made_later():
    spec = parse_spec("ring R = C(Z, Y)\nspace Z discrete 2\nalgebra Y zmod 2")
    assert spec.ring_defs["R"].algebra == "Y"
    assert spec.spaces["Z"] == discrete_space(2)
