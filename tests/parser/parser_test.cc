#include "parser/parser.h"

#include <gtest/gtest.h>

#include <cctype>
#include <ostream>
#include <string>

namespace cote {
namespace {

ast::SelectStatement Parse(const std::string& sql) {
  auto stmt = Parser::Parse(sql);
  EXPECT_TRUE(stmt.ok()) << stmt.status().ToString();
  return stmt.ok() ? std::move(stmt).value() : ast::SelectStatement{};
}

TEST(ParserTest, MinimalSelect) {
  auto stmt = Parse("SELECT * FROM t");
  ASSERT_EQ(stmt.select_list.size(), 1u);
  EXPECT_TRUE(stmt.select_list[0].star);
  ASSERT_EQ(stmt.from.size(), 1u);
  EXPECT_EQ(stmt.from[0].table.table_name, "t");
}

TEST(ParserTest, SelectListColumnsAndAggregates) {
  auto stmt = Parse(
      "SELECT a.x, y AS alias1, COUNT(*), SUM(a.z) AS total FROM a");
  ASSERT_EQ(stmt.select_list.size(), 4u);
  EXPECT_EQ(stmt.select_list[0].column.qualifier, "a");
  EXPECT_EQ(stmt.select_list[0].column.column, "x");
  EXPECT_EQ(stmt.select_list[1].output_alias, "alias1");
  EXPECT_EQ(stmt.select_list[2].agg, ast::AggFunc::kCount);
  EXPECT_TRUE(stmt.select_list[2].star);
  EXPECT_EQ(stmt.select_list[3].agg, ast::AggFunc::kSum);
  EXPECT_EQ(stmt.select_list[3].output_alias, "total");
}

TEST(ParserTest, FromWithAliases) {
  auto stmt = Parse("SELECT * FROM orders AS o, lineitem l");
  ASSERT_EQ(stmt.from.size(), 2u);
  EXPECT_EQ(stmt.from[0].table.alias, "o");
  EXPECT_EQ(stmt.from[1].table.alias, "l");
}

TEST(ParserTest, JoinClauses) {
  auto stmt = Parse(
      "SELECT * FROM a JOIN b ON a.x = b.x "
      "LEFT OUTER JOIN c ON b.y = c.y AND b.z = c.z "
      "INNER JOIN d ON c.w = d.w");
  ASSERT_EQ(stmt.from.size(), 1u);
  ASSERT_EQ(stmt.from[0].joins.size(), 3u);
  EXPECT_FALSE(stmt.from[0].joins[0].left_outer);
  EXPECT_TRUE(stmt.from[0].joins[1].left_outer);
  EXPECT_EQ(stmt.from[0].joins[1].on.size(), 2u);
  EXPECT_FALSE(stmt.from[0].joins[2].left_outer);
}

TEST(ParserTest, WherePredicates) {
  auto stmt = Parse(
      "SELECT * FROM a, b WHERE a.x = b.x AND a.y > 5 AND a.s LIKE 'z%' "
      "AND a.d BETWEEN 1 AND 10 AND a.e <> 3 AND a.f = DATE '2001-01-01'");
  ASSERT_EQ(stmt.where.size(), 6u);
  EXPECT_TRUE(stmt.where[0].is_join);
  EXPECT_FALSE(stmt.where[1].is_join);
  EXPECT_EQ(stmt.where[1].op, ast::CompareOp::kGt);
  EXPECT_EQ(stmt.where[2].op, ast::CompareOp::kLike);
  EXPECT_EQ(stmt.where[3].op, ast::CompareOp::kBetween);
  EXPECT_EQ(stmt.where[3].literal.text, "1");
  EXPECT_EQ(stmt.where[3].literal2.text, "10");
  EXPECT_EQ(stmt.where[4].op, ast::CompareOp::kNe);
  EXPECT_EQ(stmt.where[5].literal.text, "2001-01-01");
}

TEST(ParserTest, GroupByOrderBy) {
  auto stmt = Parse(
      "SELECT a.x FROM a GROUP BY a.x, a.y ORDER BY a.x DESC, a.y ASC, a.z");
  ASSERT_EQ(stmt.group_by.size(), 2u);
  ASSERT_EQ(stmt.order_by.size(), 3u);
  EXPECT_TRUE(stmt.order_by[0].descending);
  EXPECT_FALSE(stmt.order_by[1].descending);
  EXPECT_FALSE(stmt.order_by[2].descending);
}

TEST(ParserTest, DistinctAndSemicolon) {
  auto stmt = Parse("SELECT DISTINCT a.x FROM a;");
  EXPECT_TRUE(stmt.distinct);
}

TEST(ParserTest, CaseInsensitiveKeywords) {
  auto stmt = Parse("select a.x from a where a.x = 1 group by a.x");
  EXPECT_EQ(stmt.group_by.size(), 1u);
}

struct BadSql {
  const char* sql;
  const char* why;
};

void PrintTo(const BadSql& c, std::ostream* os) { *os << c.why; }

class ParserErrorTest : public ::testing::TestWithParam<BadSql> {};

TEST_P(ParserErrorTest, Rejected) {
  auto stmt = Parser::Parse(GetParam().sql);
  EXPECT_FALSE(stmt.ok()) << GetParam().why;
  EXPECT_EQ(stmt.status().code(), StatusCode::kParseError);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, ParserErrorTest,
    ::testing::Values(
        BadSql{"FROM t", "missing SELECT"},
        BadSql{"SELECT * t", "missing FROM"},
        BadSql{"SELECT * FROM", "missing table"},
        BadSql{"SELECT * FROM t WHERE", "empty where"},
        BadSql{"SELECT * FROM t WHERE x <", "missing operand"},
        BadSql{"SELECT * FROM t WHERE x < y", "non-eq join predicate"},
        BadSql{"SELECT * FROM t JOIN u", "missing ON"},
        BadSql{"SELECT * FROM t GROUP x", "missing BY"},
        BadSql{"SELECT * FROM t ORDER BY", "empty order by"},
        BadSql{"SELECT COUNT( FROM t", "unclosed aggregate"},
        BadSql{"SELECT * FROM t WHERE a LIKE 5", "LIKE needs string"},
        BadSql{"SELECT * FROM t, WHERE a = 1", "dangling comma"},
        BadSql{"SELECT * FROM t ORDER BY a 5", "trailing garbage"}),
    [](const ::testing::TestParamInfo<BadSql>& info) {
      std::string name = info.param.why;
      for (char& ch : name) {
        if (!std::isalnum(static_cast<unsigned char>(ch))) ch = '_';
      }
      return name;
    });

}  // namespace
}  // namespace cote
