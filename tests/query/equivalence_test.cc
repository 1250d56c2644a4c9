// The counting operator-new hook is defined here, so this binary
// (query_test) can assert that rebuilding an equivalence allocates nothing.
#define COTE_ALLOC_GUARD_IMPLEMENT
#include "tests/common/alloc_guard.h"

#include "query/equivalence.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"

namespace cote {
namespace {

TEST(EquivalenceTest, UnknownColumnsAreTheirOwnClass) {
  ColumnEquivalence eq;
  ColumnRef a(0, 1);
  EXPECT_EQ(eq.Find(a), a);
  EXPECT_FALSE(eq.Equivalent(a, ColumnRef(0, 2)));
  EXPECT_TRUE(eq.Equivalent(a, a));
}

TEST(EquivalenceTest, SimplePair) {
  ColumnEquivalence eq;
  ColumnRef a(0, 0), b(1, 0);
  eq.AddEquivalence(a, b);
  EXPECT_TRUE(eq.Equivalent(a, b));
  // Representative is the minimum-encoded member.
  EXPECT_EQ(eq.Find(a), a);
  EXPECT_EQ(eq.Find(b), a);
}

TEST(EquivalenceTest, TransitiveChains) {
  ColumnEquivalence eq;
  ColumnRef a(0, 0), b(1, 0), c(2, 0), d(3, 0);
  eq.AddEquivalence(c, d);
  eq.AddEquivalence(a, b);
  eq.AddEquivalence(b, c);
  EXPECT_TRUE(eq.Equivalent(a, d));
  EXPECT_EQ(eq.Find(d), a);
  EXPECT_EQ(eq.Classes().size(), 1u);
  EXPECT_EQ(eq.Classes()[0].size(), 4u);
}

TEST(EquivalenceTest, DisjointClasses) {
  ColumnEquivalence eq;
  eq.AddEquivalence(ColumnRef(0, 0), ColumnRef(1, 0));
  eq.AddEquivalence(ColumnRef(2, 5), ColumnRef(3, 5));
  EXPECT_FALSE(eq.Equivalent(ColumnRef(0, 0), ColumnRef(2, 5)));
  auto classes = eq.Classes();
  ASSERT_EQ(classes.size(), 2u);
  EXPECT_EQ(classes[0].size(), 2u);
  EXPECT_EQ(classes[1].size(), 2u);
}

TEST(EquivalenceTest, IdempotentAdds) {
  ColumnEquivalence eq;
  ColumnRef a(0, 0), b(1, 0);
  eq.AddEquivalence(a, b);
  eq.AddEquivalence(a, b);
  eq.AddEquivalence(b, a);
  EXPECT_EQ(eq.Classes().size(), 1u);
  EXPECT_EQ(eq.Classes()[0].size(), 2u);
}

TEST(EquivalenceTest, ClassesSortedAscending) {
  ColumnEquivalence eq;
  eq.AddEquivalence(ColumnRef(5, 0), ColumnRef(2, 0));
  eq.AddEquivalence(ColumnRef(2, 0), ColumnRef(7, 3));
  auto classes = eq.Classes();
  ASSERT_EQ(classes.size(), 1u);
  EXPECT_EQ(classes[0][0], ColumnRef(2, 0));
  EXPECT_EQ(classes[0][1], ColumnRef(5, 0));
  EXPECT_EQ(classes[0][2], ColumnRef(7, 3));
}

// Property sweep: merging stars of varying size always yields a single
// class whose representative is the minimum.
class EquivalenceStarTest : public ::testing::TestWithParam<int> {};

TEST_P(EquivalenceStarTest, StarMerge) {
  int n = GetParam();
  ColumnEquivalence eq;
  ColumnRef hub(3, 2);
  for (int i = 0; i < n; ++i) {
    eq.AddEquivalence(hub, ColumnRef(4 + i, 0));
  }
  for (int i = 0; i < n; ++i) {
    EXPECT_EQ(eq.Find(ColumnRef(4 + i, 0)), hub);
  }
  EXPECT_EQ(eq.Classes().size(), 1u);
  EXPECT_EQ(eq.Classes()[0].size(), static_cast<size_t>(n + 1));
}

INSTANTIATE_TEST_SUITE_P(Sizes, EquivalenceStarTest,
                         ::testing::Values(1, 2, 5, 10, 30));

// ---------------------------------------------------------------------------
// Differential check against a naive reference: connected components of
// the predicate graph by BFS, representative = minimum member.

using Pred = std::pair<ColumnRef, ColumnRef>;

std::vector<ColumnRef> BfsComponent(const std::vector<Pred>& preds,
                                    ColumnRef start) {
  std::vector<ColumnRef> seen{start};
  for (size_t head = 0; head < seen.size(); ++head) {
    for (const Pred& p : preds) {
      for (const auto& [from, to] : {p, Pred{p.second, p.first}}) {
        if (from == seen[head] &&
            std::find(seen.begin(), seen.end(), to) == seen.end()) {
          seen.push_back(to);
        }
      }
    }
  }
  std::sort(seen.begin(), seen.end());
  return seen;
}

std::vector<std::vector<ColumnRef>> BfsClasses(const std::vector<Pred>& preds,
                                               std::vector<ColumnRef> cols) {
  std::sort(cols.begin(), cols.end());
  cols.erase(std::unique(cols.begin(), cols.end()), cols.end());
  std::vector<std::vector<ColumnRef>> out;
  for (ColumnRef c : cols) {
    std::vector<ColumnRef> comp = BfsComponent(preds, c);
    // Each class once, from its minimum member; ascending by that minimum.
    if (comp.size() >= 2 && comp.front() == c) out.push_back(comp);
  }
  return out;
}

/// A seeded predicate list over tables 0..7, columns 0..5: random pairs
/// plus chains whose links are added in descending column order, so every
/// link merges a class into a smaller representative.
std::vector<Pred> RandomPredicates(uint64_t seed) {
  Rng rng(seed);
  auto random_col = [&rng] {
    return ColumnRef(static_cast<int>(rng.Uniform(8)),
                     static_cast<int>(rng.Uniform(6)));
  };
  std::vector<Pred> preds;
  const int pairs = static_cast<int>(rng.Uniform(12));
  for (int i = 0; i < pairs; ++i) preds.emplace_back(random_col(), random_col());
  const int chains = static_cast<int>(rng.Uniform(3));
  for (int c = 0; c < chains; ++c) {
    std::vector<ColumnRef> chain;
    const int len = 2 + static_cast<int>(rng.Uniform(5));
    for (int i = 0; i < len; ++i) chain.push_back(random_col());
    std::sort(chain.begin(), chain.end());
    for (int i = len - 1; i > 0; --i) preds.emplace_back(chain[i], chain[i - 1]);
  }
  // Shuffle the random pairs in among the chains.
  for (size_t i = preds.size(); i > 1; --i) {
    if (rng.Uniform(2) == 0) std::swap(preds[i - 1], preds[rng.Uniform(i)]);
  }
  return preds;
}

std::vector<ColumnRef> PredicateColumns(const std::vector<Pred>& preds) {
  std::vector<ColumnRef> cols;
  for (const Pred& p : preds) {
    cols.push_back(p.first);
    cols.push_back(p.second);
  }
  return cols;
}

void ExpectMatchesReference(const ColumnEquivalence& eq,
                            const std::vector<Pred>& preds) {
  // Probe every column of the grid (and one past it), numbered or not.
  std::vector<ColumnRef> probes;
  for (int t = 0; t < 9; ++t) {
    for (int c = 0; c < 7; ++c) probes.emplace_back(t, c);
  }
  for (ColumnRef a : probes) {
    const std::vector<ColumnRef> comp = BfsComponent(preds, a);
    EXPECT_EQ(eq.Find(a), comp.front()) << a.ToString();
    for (ColumnRef b : probes) {
      const bool same = std::find(comp.begin(), comp.end(), b) != comp.end();
      EXPECT_EQ(eq.Equivalent(a, b), same)
          << a.ToString() << " ~ " << b.ToString();
    }
  }
  EXPECT_EQ(eq.Classes(), BfsClasses(preds, PredicateColumns(preds)));
}

TEST(EquivalenceDifferentialTest, StandaloneMatchesBfsReference) {
  for (uint64_t seed = 1; seed <= 60; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    const std::vector<Pred> preds = RandomPredicates(seed);
    ColumnEquivalence eq;
    for (const Pred& p : preds) eq.AddEquivalence(p.first, p.second);
    ExpectMatchesReference(eq, preds);
  }
}

TEST(EquivalenceDifferentialTest, BoundToSharedSlotsMatchesBfsReference) {
  for (uint64_t seed = 1; seed <= 60; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    const std::vector<Pred> preds = RandomPredicates(seed);
    ColumnSlots slots;
    slots.Assign(PredicateColumns(preds));
    ASSERT_TRUE(std::is_sorted(slots.columns().begin(),
                               slots.columns().end()));
    ColumnEquivalence eq;
    eq.Reset(slots);
    for (const Pred& p : preds) eq.AddEquivalence(p.first, p.second);
    ExpectMatchesReference(eq, preds);
    // Copies and moves carry the classes.
    ColumnEquivalence copy = eq;
    ExpectMatchesReference(copy, preds);
    ColumnEquivalence moved = std::move(copy);
    ExpectMatchesReference(moved, preds);
    // A prefix of the predicates over the same numbering: a subset of
    // the classes, from a fresh Reset of the same instance.
    const std::vector<Pred> prefix(preds.begin(),
                                   preds.begin() + preds.size() / 2);
    eq.Reset(slots);
    for (const Pred& p : prefix) eq.AddEquivalence(p.first, p.second);
    ExpectMatchesReference(eq, prefix);
  }
}

TEST(EquivalenceDifferentialTest, ClearAndSmallerRebuildAllocateNothing) {
  const std::vector<Pred> preds = RandomPredicates(7);
  ASSERT_GE(preds.size(), 4u);
  const std::vector<Pred> smaller(preds.begin(), preds.end() - 2);
  ColumnSlots slots, smaller_slots;
  slots.Assign(PredicateColumns(preds));
  smaller_slots.Assign(PredicateColumns(smaller));

  // Bound instances: the per-entry state of the MEMO and of the counter.
  ColumnEquivalence bound;
  bound.Reset(slots);
  for (const Pred& p : preds) bound.AddEquivalence(p.first, p.second);
  // Standalone instances number their own columns.
  ColumnEquivalence standalone;
  for (const Pred& p : preds) standalone.AddEquivalence(p.first, p.second);

  testing::AllocationCounter counter;
  for (const auto* set : {&preds, &smaller}) {
    bound.Clear();
    bound.Reset(set == &preds ? slots : smaller_slots);
    for (const Pred& p : *set) bound.AddEquivalence(p.first, p.second);
    standalone.Clear();
    for (const Pred& p : *set) standalone.AddEquivalence(p.first, p.second);
  }
  EXPECT_EQ(counter.delta(), 0);
  ExpectMatchesReference(bound, smaller);
  ExpectMatchesReference(standalone, smaller);
}

TEST(EquivalenceDifferentialTest, ClearedInstanceHasNoClasses) {
  ColumnSlots slots;
  slots.Assign({ColumnRef(0, 1), ColumnRef(1, 1)});
  ColumnEquivalence eq;
  eq.Reset(slots);
  eq.AddEquivalence(ColumnRef(0, 1), ColumnRef(1, 1));
  eq.Clear();
  EXPECT_EQ(eq.Find(ColumnRef(1, 1)), ColumnRef(1, 1));
  EXPECT_TRUE(eq.Classes().empty());
  // After Clear an unbound instance numbers columns itself again.
  eq.AddEquivalence(ColumnRef(3, 0), ColumnRef(2, 0));
  EXPECT_EQ(eq.Find(ColumnRef(3, 0)), ColumnRef(2, 0));
}

}  // namespace
}  // namespace cote
