import pytest

from quasiring.algebra import (
    make_table,
    make_zmod,
    structure_flags,
    zero_divisors,
)
from quasiring.errors import BadTable


def test_zmod_flags():
    f = structure_flags(make_zmod(5))
    assert f.associative and f.commutative and f.distributive
    assert f.has_unit and f.zero_divisor_free
    assert not f.char_two


def test_zmod2_char_two():
    assert structure_flags(make_zmod(2)).char_two


def test_zmod4_zero_divisors():
    assert zero_divisors(make_zmod(4)) == [(2, 2)]
    assert not structure_flags(make_zmod(4)).zero_divisor_free


def test_zmod6_zero_divisors():
    assert (2, 3) in zero_divisors(make_zmod(6))


def test_make_zmod_returns_one_table_per_n():
    assert make_zmod(5) is make_zmod(5)
    assert make_zmod(5) is not make_zmod(6)
    assert make_zmod(6).add[5][1] == 0 and make_zmod(6).mul[5][5] == 1
    for n in (1, 1, 0):
        with pytest.raises(ValueError):
            make_zmod(n)


def test_make_table_unit_detection_manual():
    # multiplication-only magma with absorbing zero and a unit at index 1
    mul = [[0, 0, 0], [0, 1, 2], [0, 2, 1]]
    y = make_table(mul, zero=0, unit=1)
    f = structure_flags(y)
    assert f.has_unit
    assert y.add is None


def test_make_table_rejects_out_of_range():
    with pytest.raises(BadTable):
        make_table([[0, 5], [1, 0]])


def test_make_table_rejects_a_unit_equal_to_the_zero():
    # χ_U would need an off-value other than the zero, so Z_2 declared with
    # the unit 0 is refused
    with pytest.raises(BadTable, match="unit is the zero"):
        make_table(((0, 0), (0, 1)), zero=0, unit=0, add=((0, 1), (1, 0)))


def test_make_table_rejects_a_one_sided_zero():
    # 0·y = 0 but 1·0 = 1, then the mirror: each law has its own message
    with pytest.raises(BadTable, match="^declared zero is not right-absorbing$"):
        make_table(((0, 0), (1, 1)), zero=0)
    with pytest.raises(BadTable, match="^declared zero is not left-absorbing$"):
        make_table(((0, 1), (0, 1)), zero=0)


def test_make_table_rejects_an_unknown_unit_side():
    # 1·1 = 0: with the side unread, no unit law would be tested
    with pytest.raises(BadTable, match="^unknown unit side 'both'$"):
        make_table([[0, 0], [0, 0]], unit=1, unit_side="both")
    with pytest.raises(BadTable, match="unknown unit side"):
        make_table([[0, 0], [0, 1]], unit_side="both")


def test_nonassociative_table_flagged():
    mul = [[0, 0, 0], [0, 2, 1], [0, 1, 1]]
    f = structure_flags(make_table(mul, zero=0))
    assert not f.associative


def test_zmod_tables_match_arithmetic():
    y = make_zmod(6)
    assert y.mul[4][5] == (4 * 5) % 6
    assert y.add[4][5] == (4 + 5) % 6
