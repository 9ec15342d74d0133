import pytest

from gtr.errors import ParseError
from gtr.sqleval import (
    VALUE,
    ClauseSets,
    ColumnRef,
    ColumnTerm,
    SelectTerm,
    ValExpr,
    parse_sql,
)

from fixtures_sql import ALL_EM_QUERIES, HARDNESS_CASES
from sql_oracles import serialize


def bare(name):
    return SelectTerm("", False, ValExpr("", ColumnTerm("", False, ColumnRef(None, name)), None))


class TestBasics:
    def test_single_select(self):
        q = parse_sql("SELECT name FROM singer")
        assert q.select == frozenset({bare("name")})
        assert q.from_tables == frozenset({"singer"})
        assert not q.where and not q.group_by and not q.having
        assert q.order_by == () and q.limit is False and q.set_op is None

    def test_alias_resolution(self):
        q = parse_sql("SELECT T1.name FROM singer AS T1")
        [term] = q.select
        assert term.expr.left.ref == ColumnRef("singer", "name")

    def test_implicit_alias(self):
        a = parse_sql("SELECT t.name FROM singer t")
        b = parse_sql("SELECT singer.name FROM singer")
        assert a == b

    def test_identifiers_lowercased(self):
        assert parse_sql("SELECT NAME FROM Singer") == parse_sql("select name from singer")

    def test_literals_anonymized(self):
        for sql in (
            "SELECT a FROM t WHERE b = 3",
            "SELECT a FROM t WHERE b = 'x'",
            "SELECT a FROM t WHERE b = -7",
            "SELECT a FROM t WHERE b = 1.5e3",
            "SELECT a FROM t WHERE b = NULL",
        ):
            [pred] = parse_sql(sql).where
            assert pred.rhs == VALUE

    def test_not_equal_normalization(self):
        assert parse_sql("SELECT a FROM t WHERE b != 1") == parse_sql(
            "SELECT a FROM t WHERE b <> 2"
        )

    def test_order_by_direction_and_default(self):
        asc = parse_sql("SELECT a FROM t ORDER BY a")
        explicit = parse_sql("SELECT a FROM t ORDER BY a ASC")
        desc = parse_sql("SELECT a FROM t ORDER BY a DESC")
        assert asc == explicit
        assert asc != desc
        assert asc.order_by[0][1] == "asc"

    def test_limit_is_a_flag(self):
        assert parse_sql("SELECT a FROM t LIMIT 5") == parse_sql("SELECT a FROM t LIMIT 99")

    def test_between(self):
        [pred] = parse_sql("SELECT a FROM t WHERE b BETWEEN 1 AND 2").where
        assert pred.op == "between"
        assert pred.rhs == VALUE and pred.rhs2 == VALUE

    def test_in_subquery(self):
        [pred] = parse_sql(
            "SELECT a FROM t WHERE b IN (SELECT c FROM u)"
        ).where
        assert isinstance(pred.rhs, ClauseSets)

    def test_in_literal_list(self):
        [pred] = parse_sql("SELECT a FROM t WHERE b IN (1, 2, 3)").where
        assert pred.rhs == VALUE

    def test_is_null_and_is_not_null(self):
        [p1] = parse_sql("SELECT a FROM t WHERE b IS NULL").where
        [p2] = parse_sql("SELECT a FROM t WHERE b IS NOT NULL").where
        assert p1.op == "is" and not p1.negated
        assert p2.op == "is" and p2.negated

    def test_exists(self):
        [pred] = parse_sql(
            "SELECT a FROM t WHERE EXISTS (SELECT c FROM u)"
        ).where
        assert pred.op == "exists" and pred.lhs is None

    def test_aggregate_lifting(self):
        a = parse_sql("SELECT count(name) FROM t")
        [term] = a.select
        assert term.agg == "count"
        assert term.expr.left.agg == ""

    def test_count_star_and_distinct(self):
        q = parse_sql("SELECT count(DISTINCT country) FROM singer")
        [term] = q.select
        assert term.agg == "count" and term.distinct
        q2 = parse_sql("SELECT count(*) FROM singer")
        [term2] = q2.select
        assert term2.expr.left.ref == ColumnRef(None, "*")

    def test_arithmetic_expression(self):
        q = parse_sql("SELECT max(a) - min(b) FROM t")
        [term] = q.select
        assert term.agg == ""
        assert term.expr.op == "-"
        assert term.expr.left.agg == "max" and term.expr.right.agg == "min"

    def test_from_subquery(self):
        q = parse_sql("SELECT a FROM (SELECT a FROM t) sub")
        [source] = q.from_tables
        assert isinstance(source, ClauseSets)

    def test_join_types_accepted(self):
        plain = parse_sql("SELECT a.x FROM a JOIN b ON a.id = b.id")
        left = parse_sql("SELECT a.x FROM a LEFT JOIN b ON a.id = b.id")
        inner = parse_sql("SELECT a.x FROM a INNER JOIN b ON a.id = b.id")
        assert plain == left == inner

    def test_comma_join(self):
        q = parse_sql("SELECT a.x FROM a, b WHERE a.id = b.id")
        assert q.from_tables == frozenset({"a", "b"})
        assert len(q.where) == 1

    def test_set_op_chain(self):
        q = parse_sql("SELECT a FROM t UNION SELECT a FROM u INTERSECT SELECT a FROM v")
        assert q.set_op[0] == "union"
        assert q.set_op[1].set_op[0] == "intersect"

    def test_union_all_is_distinct_from_union(self):
        assert parse_sql("SELECT a FROM t UNION SELECT a FROM u") != parse_sql(
            "SELECT a FROM t UNION ALL SELECT a FROM u"
        )

    def test_correlated_subquery_uses_outer_alias(self):
        q = parse_sql(
            "SELECT T1.name FROM singer AS T1 WHERE T1.age > "
            "(SELECT avg(T2.age) FROM singer AS T2 WHERE T2.country = T1.country)"
        )
        [pred] = q.where
        sub = pred.rhs
        [sub_pred] = sub.where
        assert sub_pred.rhs.left.ref == ColumnRef("singer", "country")

    def test_trailing_semicolon_ok(self):
        assert parse_sql("SELECT a FROM t;") == parse_sql("SELECT a FROM t")


class TestConnectors:
    def test_or_count_excluded_from_equality(self):
        a = parse_sql("SELECT x FROM t WHERE a = 1 AND b = 2")
        b = parse_sql("SELECT x FROM t WHERE a = 1 OR b = 2")
        assert a == b  # clause sets carry predicates, not connectors
        assert a.or_count == 0 and b.or_count == 1

    def test_subqueries_listed(self):
        q = parse_sql(
            "SELECT a FROM t WHERE b IN (SELECT c FROM u) AND d > (SELECT max(e) FROM v)"
        )
        assert len(q.subqueries) == 2


class TestParseErrors:
    def test_truncated_from(self):
        sql = "SELECT * FROM"
        with pytest.raises(ParseError) as exc_info:
            parse_sql(sql)
        assert exc_info.value.offset == len(sql.encode("utf-8"))
        assert exc_info.value.expected

    def test_second_statement_rejected(self):
        with pytest.raises(ParseError):
            parse_sql("SELECT a FROM t; DROP TABLE t")

    def test_unterminated_string(self):
        with pytest.raises(ParseError):
            parse_sql("SELECT a FROM t WHERE b = 'oops")

    def test_missing_operator(self):
        with pytest.raises(ParseError):
            parse_sql("SELECT a FROM t WHERE b")

    def test_byte_offset_counts_utf8_bytes(self):
        sql = "SELECT café FROM"  # é is two bytes in UTF-8
        with pytest.raises(ParseError) as exc_info:
            parse_sql(sql)
        assert exc_info.value.offset == len(sql.encode("utf-8"))

    def test_bad_character(self):
        with pytest.raises(ParseError):
            parse_sql("SELECT a FROM t WHERE b = $1")


class TestIdempotence:
    CORPUS = ALL_EM_QUERIES + [sql for sql, _, _ in HARDNESS_CASES] + [
        "SELECT a FROM t WHERE b NOT IN (SELECT c FROM u WHERE d LIKE 'x%')",
        "SELECT DISTINCT a, count(b) FROM t GROUP BY a HAVING count(b) > 2 "
        "ORDER BY count(b) DESC, a ASC LIMIT 3",
        "SELECT a FROM (SELECT a FROM t WHERE b = 1) x WHERE a > 0",
        "SELECT a FROM t WHERE NOT b = 1",
        "SELECT a FROM t WHERE b NOT BETWEEN 1 AND 2",
        "SELECT t.* FROM t",
        "SELECT a FROM t WHERE EXISTS (SELECT b FROM u) UNION ALL SELECT a FROM v",
    ]

    @pytest.mark.parametrize("sql", CORPUS)
    def test_parse_serialize_parse(self, sql):
        once = parse_sql(sql)
        again = parse_sql(serialize(once))
        assert once == again
