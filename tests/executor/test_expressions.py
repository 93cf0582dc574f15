"""Expression evaluation through SQL: NULL semantics, functions, CASE,
LIKE, IN, casts. Each query runs the full pipeline on a one-row table so
the assertions read as truth tables."""

from __future__ import annotations

import pytest

from repro import ExecutionError, connect


@pytest.fixture(scope="module")
def db():
    session = connect()
    session.run("CREATE TABLE one (x int); INSERT INTO one VALUES (1)")
    return session


def val(db, expression):
    return db.run(f"SELECT {expression} FROM one").rows[0][0]


class TestNullSemantics:
    def test_null_comparisons_are_unknown(self, db):
        assert val(db, "NULL = NULL") is None
        assert val(db, "1 = NULL") is None
        assert val(db, "NULL <> NULL") is None

    def test_is_null(self, db):
        assert val(db, "NULL IS NULL") is True
        assert val(db, "1 IS NULL") is False
        assert val(db, "1 IS NOT NULL") is True

    def test_is_distinct_from(self, db):
        assert val(db, "NULL IS DISTINCT FROM NULL") is False
        assert val(db, "NULL IS NOT DISTINCT FROM NULL") is True
        assert val(db, "1 IS DISTINCT FROM 2") is True

    def test_and_or_with_null(self, db):
        assert val(db, "FALSE AND NULL") is False
        assert val(db, "TRUE AND NULL") is None
        assert val(db, "TRUE OR NULL") is True
        assert val(db, "FALSE OR NULL") is None

    def test_arithmetic_with_null(self, db):
        assert val(db, "1 + NULL") is None
        assert val(db, "NULL || 'x'") is None

    def test_in_list_null_semantics(self, db):
        assert val(db, "1 IN (1, NULL)") is True
        assert val(db, "2 IN (1, NULL)") is None  # unknown, not false
        assert val(db, "2 NOT IN (1, NULL)") is None
        assert val(db, "2 IN (1, 3)") is False

    def test_where_unknown_filters_row(self, db):
        assert db.run("SELECT x FROM one WHERE NULL").rows == []


class TestFunctions:
    @pytest.mark.parametrize(
        "expression, expected",
        [
            ("abs(-3)", 3),
            ("round(2.567, 2)", 2.57),
            ("round(2.5)", 2.0),  # banker's rounding, as Python/IEEE
            ("round(3.5)", 4.0),
            ("floor(2.9)", 2),
            ("ceil(2.1)", 3),
            ("sqrt(9)", 3.0),
            ("power(2, 10)", 1024.0),
            ("mod(7, 3)", 1),
            ("upper('aBc')", "ABC"),
            ("lower('aBc')", "abc"),
            ("length('hello')", 5),
            ("substring('hello', 2)", "ello"),
            ("substring('hello', 2, 3)", "ell"),
            ("substring('hello', 0, 3)", "he"),  # PostgreSQL clamping
            ("trim('  x  ')", "x"),
            ("replace('aaa', 'a', 'b')", "bbb"),
            ("concat('a', NULL, 'b')", "ab"),  # concat skips NULLs
            ("coalesce(NULL, NULL, 3)", 3),
            ("coalesce(NULL, NULL)", None),
            ("nullif(1, 1)", None),
            ("nullif(1, 2)", 1),
            ("greatest(1, NULL, 3)", 3),
            ("least(1, NULL, 3)", 1),
            ("greatest(NULL, NULL)", None),
        ],
    )
    def test_scalar_functions(self, db, expression, expected):
        assert val(db, expression) == expected

    def test_strict_functions_propagate_null(self, db):
        assert val(db, "abs(NULL)") is None
        assert val(db, "upper(NULL)") is None

    def test_type_errors_at_runtime(self, db):
        with pytest.raises(ExecutionError):
            val(db, "upper(1)")


class TestLike:
    @pytest.mark.parametrize(
        "expression, expected",
        [
            ("'hello' LIKE 'h%'", True),
            ("'hello' LIKE '%o'", True),
            ("'hello' LIKE 'h_llo'", True),
            ("'hello' LIKE 'H%'", False),
            ("'hello' ILIKE 'H%'", True),
            ("'a%b' LIKE 'a\\%b'", True),
            ("'axb' LIKE 'a\\%b'", False),
            ("'multi\nline' LIKE 'multi%'", True),
            ("NULL LIKE 'a%'", None),
        ],
    )
    def test_patterns(self, db, expression, expected):
        assert val(db, expression) == expected


class TestCase:
    def test_searched_case(self, db):
        assert val(db, "CASE WHEN x > 0 THEN 'pos' ELSE 'neg' END") == "pos"

    def test_simple_case(self, db):
        assert val(db, "CASE x WHEN 1 THEN 'one' WHEN 2 THEN 'two' END") == "one"

    def test_case_without_match_is_null(self, db):
        assert val(db, "CASE x WHEN 99 THEN 'no' END") is None

    def test_case_null_condition_skipped(self, db):
        assert val(db, "CASE WHEN NULL THEN 'a' ELSE 'b' END") == "b"


class TestCasts:
    def test_cast_chain(self, db):
        assert val(db, "CAST('42' AS int) + 1") == 43
        assert val(db, "x::text") == "1"
        assert val(db, "CAST(1 AS bool)") is True

    def test_bad_cast_raises(self, db):
        with pytest.raises(ExecutionError, match="cannot cast"):
            val(db, "CAST('nope' AS int)")


class TestArithmeticThroughSql:
    def test_division_by_zero_surfaces(self, db):
        with pytest.raises(ExecutionError, match="division by zero"):
            val(db, "1 / 0")

    def test_integer_vs_float_division(self, db):
        assert val(db, "7 / 2") == 3
        assert val(db, "7.0 / 2") == 3.5

    def test_precedence(self, db):
        assert val(db, "2 + 3 * 4") == 14
        assert val(db, "(2 + 3) * 4") == 20
        assert val(db, "-2 * 3") == -6
