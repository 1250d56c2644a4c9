// Tests of the benchmark's own machinery: the tail rule, due-time
// accounting, seeded generation and the span reducer.
#include <chrono>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "openloop.h"
#include "parser/binder.h"
#include "sqlgen.h"
#include "stats.h"
#include "trace.h"
#include "workload/workload.h"

namespace perfbench {
namespace {

std::vector<double> OneTo(int n) {
  std::vector<double> xs;
  for (int i = n; i >= 1; --i) xs.push_back(i);  // unsorted on purpose
  return xs;
}

TEST(TailRule, HighestPercentileWithTenSamplesBeyond) {
  Tail t = TailPercentile(OneTo(100));
  EXPECT_EQ(t.pct, 90);
  EXPECT_EQ(t.value, 90);
  EXPECT_EQ(t.beyond, 10u);

  t = TailPercentile(OneTo(1000));
  EXPECT_EQ(t.pct, 99);
  EXPECT_EQ(t.value, 990);
  EXPECT_EQ(t.beyond, 10u);

  // 99 samples: p90 would leave only 9 beyond, so p75 it is.
  t = TailPercentile(OneTo(99));
  EXPECT_EQ(t.pct, 75);
  EXPECT_GE(t.beyond, kMinSamplesBeyond);

  t = TailPercentile(OneTo(20));
  EXPECT_EQ(t.pct, 50);
  EXPECT_EQ(t.beyond, 10u);

  t = TailPercentile(OneTo(19));
  EXPECT_EQ(t.pct, 0);  // too few samples for any tail
  EXPECT_EQ(t.n, 19u);
}

TEST(TailRule, FixedPercentileFallsBackWhenTooFewBeyond) {
  Tail t = TailAt(OneTo(105), 75);  // the ladder rule would pick p90 here
  EXPECT_EQ(t.pct, 75);
  EXPECT_EQ(t.value, 79);
  EXPECT_EQ(t.beyond, 26u);

  t = TailAt(OneTo(30), 90);  // 3 beyond: fall back to the ladder rule
  EXPECT_EQ(t.pct, 50);
  EXPECT_EQ(t.beyond, 15u);
}

TEST(OpenLoop, AccountingIsFromDueTime) {
  // Three requests due at 0, 1, 2 s; the generator stalls 2 s on the first.
  const std::vector<double> due = {0, 1, 2};
  const std::vector<double> submit_start = {0, 2, 2.5};
  const std::vector<double> submit_end = {2, 2.5, 3};
  const std::vector<double> finish = {2.1, 2.6, 3.1};
  OpenLoopTiming t = AccountOpenLoop(due, submit_start, submit_end, finish);
  EXPECT_DOUBLE_EQ(t.latency_s[1], 1.6);  // not 0.6 from its submit
  EXPECT_DOUBLE_EQ(t.lateness_s[1], 1.0);
  EXPECT_DOUBLE_EQ(t.lateness_s[2], 0.5);
  EXPECT_DOUBLE_EQ(t.submit_s[0], 2.0);
  // At due 1 s and 2 s the first request is still in the system.
  EXPECT_EQ(t.backlog_max, 2u);
}

TEST(OpenLoop, DelayedSubmitterShowsUpInLatency) {
  // A fake submitter that stalls 3 ms per call while requests are due
  // every 1 ms: each request waits for every stall before it, and a
  // latency taken from the submit call would hide all of it.
  const int n = 20;
  std::vector<double> due;
  for (int i = 0; i < n; ++i) due.push_back(i * 1e-3);
  std::vector<double> submitted(n);
  double start = 0;
  auto submit = [&](size_t i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(3));
    submitted[i] = Now();
  };
  auto drain = [&](double s) {
    start = s;
    std::vector<double> finish;
    for (double t : submitted) finish.push_back(t - s);  // served instantly
    return finish;
  };
  OpenLoopTiming t = RunOpenLoop(due, submit, drain);
  for (int i = 0; i < n; ++i) {
    const double since_submit = submitted[i] - start - (due[i] + t.lateness_s[i]);
    EXPECT_NEAR(t.latency_s[i], t.lateness_s[i] + since_submit, 1e-9);
    EXPECT_GE(t.latency_s[i], 3e-3 * (i + 1) - due[i] - 1e-4);
  }
  EXPECT_GE(t.lateness_s[n - 1], 2e-3 * (n - 1) - 1e-4);
  EXPECT_TRUE(t.backlog_growing || t.backlog_max > 0);
}

TEST(SqlGen, SameSeedSameText) {
  auto sequence = [](uint64_t seed) {
    cote::Rng rng(seed);
    std::vector<std::string> out;
    for (int n = 13; n <= 17; ++n) {
      for (SparseShape s : {SparseShape::kChain, SparseShape::kCycle, SparseShape::kTree}) {
        out.push_back(MakeSparseQuery(rng, n, s).sql);
      }
    }
    for (int n = 2; n <= 12; ++n) out.push_back(MakeRetailSnowflake(rng, n).sql);
    for (int n = 2; n <= 12; ++n) out.push_back(MakeSyntheticSnowflake(rng, n).sql);
    for (int i = 0; i < 7; ++i) out.push_back(MakeTpchCore(rng).sql);
    out.push_back(MakeDenseStar(rng, 14).sql);
    out.push_back(MakeDenseRing(rng, 14).sql);
    return out;
  };
  EXPECT_EQ(sequence(7), sequence(7));
  EXPECT_NE(sequence(7), sequence(8));
}

TEST(SqlGen, SparseBoundEdgesEqualGeneratedEdges) {
  // The binder's transitive closure must not densify sparse-dp's graphs:
  // every generated predicate uses columns no other predicate uses.
  auto catalog = cote::MakeSyntheticCatalog(kSyntheticTables);
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    cote::Rng rng(seed);
    for (int n = 13; n <= 17; ++n) {
      for (SparseShape s : {SparseShape::kChain, SparseShape::kCycle, SparseShape::kTree}) {
        const GeneratedSql q = MakeSparseQuery(rng, n, s);
        auto g = cote::Binder::BindSql(*catalog, q.sql);
        ASSERT_TRUE(g.ok()) << q.sql;
        EXPECT_EQ(g->num_tables(), n);
        EXPECT_EQ(static_cast<int>(g->join_predicates().size()), q.edges) << q.sql;
        for (const auto& p : g->join_predicates()) EXPECT_FALSE(p.derived) << q.sql;
      }
    }
  }
}

TEST(SqlGen, EveryGeneratorBinds) {
  auto synthetic = cote::MakeSyntheticCatalog(kSyntheticTables);
  auto retail = cote::MakeRetailCatalog();
  auto tpch = cote::MakeTpchCatalog();
  cote::Rng rng(3);
  for (int i = 0; i < 200; ++i) {
    const GeneratedSql q = i % 3 == 0   ? MakeTpchCore(rng)
                           : i % 3 == 1 ? MakeRetailSnowflake(rng, 2 + i % 11)
                                        : MakeSyntheticSnowflake(rng, 2 + i % 12);
    const cote::Catalog& c = q.schema == Schema::kRetail ? *retail
                             : q.schema == Schema::kTpch ? *tpch
                                                         : *synthetic;
    auto g = cote::Binder::BindSql(c, q.sql);
    ASSERT_TRUE(g.ok()) << q.sql << ": " << g.status().ToString();
    EXPECT_EQ(g->num_tables(), q.tables);
  }
}

TEST(Trace, SelfTimeSubtractsChildCoverage) {
  Tracer tracer;
  tracer.SetActive(true);
  const int root = tracer.Add("a.root", 0, 10, -1, 1);
  tracer.Add("b.child", 1, 4, root, 1);
  tracer.Add("b.child", 3, 6, root, 1);  // overlaps the first child
  tracer.Add("c.late", 9, 12, root, 1);  // clipped to the parent's end
  const std::vector<double> self = SelfSeconds(tracer.spans());
  EXPECT_DOUBLE_EQ(self[0], 10 - 5 - 1);
  EXPECT_DOUBLE_EQ(self[1], 3);
  auto layers = ReduceByLayer(tracer.spans());
  EXPECT_EQ(layers["b"].count, 2);
  EXPECT_DOUBLE_EQ(layers["b"].self_seconds, 6);
  EXPECT_DOUBLE_EQ(layers["a"].self_seconds, 4);

  Tracer off;
  EXPECT_EQ(off.Begin("x.y", 0), -1);
  EXPECT_TRUE(off.spans().empty());
}

}  // namespace
}  // namespace perfbench
