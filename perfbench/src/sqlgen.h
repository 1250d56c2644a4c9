// Seeded SQL text generators for the benchmark's workloads. Everything
// here is a pure function of the Rng stream, so one seed always yields the
// same statements; the program under test only ever sees the text.
#ifndef PERFBENCH_SQLGEN_H_
#define PERFBENCH_SQLGEN_H_

#include <string>

#include "common/rng.h"

namespace perfbench {

/// Which catalog a statement is written against.
enum class Schema { kSynthetic, kRetail, kTpch };

struct GeneratedSql {
  std::string sql;
  Schema schema = Schema::kSynthetic;
  int tables = 0;
  /// Join predicates written in the text (before the binder's closure).
  int edges = 0;
  /// The same statement without GROUP BY and ORDER BY: the join core,
  /// which is all the greedy optimizer plans (it skips query completion).
  std::string core_sql;
};

/// Tables in the synthetic catalog the generators assume
/// (cote::MakeSyntheticCatalog(kSyntheticTables)).
inline constexpr int kSyntheticTables = 20;

enum class SparseShape { kChain, kCycle, kTree };

/// A sparse join graph of n synthetic tables (6 <= n <= kSyntheticTables):
/// a chain, a cycle, or a caterpillar tree (a chain with three leaves)
/// with one short chord. The graph's shape depends only on n and the
/// shape; the seed picks the tables, join columns, sort columns and local
/// predicates.
/// Every join predicate uses a column that no other predicate of the
/// statement uses on that table, so the binder's transitive closure adds
/// nothing and the bound graph keeps exactly the generated edges.
GeneratedSql MakeSparseQuery(cote::Rng& rng, int n, SparseShape shape);

/// Property-rich retail snowflake: the sales fact with n - 1 dimension
/// and sub-dimension tables (2 <= n <= 12), GROUP BY over dimension
/// attributes and ORDER BY a prefix of it.
GeneratedSql MakeRetailSnowflake(cote::Rng& rng, int n);

/// Synthetic snowflake: a hub with up to four spokes on distinct hub
/// columns, each spoke with up to two sub-dimensions (2 <= n <= 13), plus
/// GROUP BY / ORDER BY over the sort columns.
GeneratedSql MakeSyntheticSnowflake(cote::Rng& rng, int n);

/// One of the seven TPC-H join cores (Q2, Q5, Q7, Q8, Q9, Q10, Q21) with
/// a seeded selection of extra local predicates and sort columns.
GeneratedSql MakeTpchCore(cote::Rng& rng);

/// Dense synthetic graphs for the rank-parallel enumerator. Both shapes
/// depend only on n; the seed picks tables, columns and sort columns.
///  * star: every spoke joins the hub on the same column, which the
///    binder's transitive closure turns into a clique;
///  * ring: table i joins tables i + 1 and i + 2 (mod n) on distinct
///    columns, a 4-regular graph.
GeneratedSql MakeDenseStar(cote::Rng& rng, int n);
GeneratedSql MakeDenseRing(cote::Rng& rng, int n);

}  // namespace perfbench

#endif  // PERFBENCH_SQLGEN_H_
