#include "sqlgen.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "common/check.h"

namespace perfbench {
namespace {

using cote::Rng;

std::string Join(const std::vector<std::string>& parts, const char* sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += sep;
    out += parts[i];
  }
  return out;
}

/// Collects the clauses of one SELECT and renders it.
struct Select {
  std::vector<std::string> from;
  std::vector<std::string> joins;
  std::vector<std::string> locals;
  std::vector<std::string> group_by;
  std::vector<std::string> order_by;

  GeneratedSql Render(Schema schema) const {
    std::string select = "*";
    if (!group_by.empty()) select = Join(group_by, ", ") + ", COUNT(*)";
    std::vector<std::string> where = joins;
    where.insert(where.end(), locals.begin(), locals.end());
    std::string core = " FROM " + Join(from, ", ");
    if (!where.empty()) core += " WHERE " + Join(where, " AND ");
    std::string sql = "SELECT " + select + core;
    if (!group_by.empty()) sql += " GROUP BY " + Join(group_by, ", ");
    if (!order_by.empty()) sql += " ORDER BY " + Join(order_by, ", ");
    GeneratedSql g;
    g.sql = std::move(sql);
    g.core_sql = "SELECT *" + core;
    g.schema = schema;
    g.tables = static_cast<int>(from.size());
    g.edges = static_cast<int>(joins.size());
    return g;
  }
};

template <typename T>
void Shuffle(Rng& rng, std::vector<T>* v) {
  for (size_t i = v->size(); i > 1; --i) {
    std::swap((*v)[i - 1], (*v)[rng.Uniform(i)]);
  }
}

// ---- Synthetic catalog ----------------------------------------------------

/// n distinct synthetic tables with aliases t0..t{n-1}, and for each the
/// join columns c0..c4 in a seeded order; a predicate takes the next free
/// column on both sides, so no column is shared by two predicates.
class SyntheticTables {
 public:
  SyntheticTables(Rng& rng, int n) : rng_(rng) {
    COTE_CHECK(n >= 1 && n <= kSyntheticTables);
    std::vector<int> ids(kSyntheticTables);
    for (int i = 0; i < kSyntheticTables; ++i) ids[i] = i;
    Shuffle(rng, &ids);
    for (int i = 0; i < n; ++i) {
      sel_.from.push_back("T" + std::to_string(ids[i]) + " " + Alias(i));
      std::vector<int> cols = {0, 1, 2, 3, 4};
      Shuffle(rng, &cols);
      free_.push_back(cols);
    }
  }
  static std::string Alias(int i) { return "t" + std::to_string(i); }
  int Free(int t) const { return static_cast<int>(free_[t].size()); }
  /// Joins tables a and b on fresh columns; false when either is out of
  /// join columns.
  bool Edge(int a, int b) {
    if (free_[a].empty() || free_[b].empty()) return false;
    const int ca = free_[a].back();
    free_[a].pop_back();
    const int cb = free_[b].back();
    free_[b].pop_back();
    sel_.joins.push_back(Alias(a) + ".c" + std::to_string(ca) + " = " +
                         Alias(b) + ".c" + std::to_string(cb));
    return true;
  }
  /// Adds ORDER BY and GROUP BY columns and local predicates, all over
  /// the non-join columns c5..c7 of random tables (duplicates dropped).
  void Interest(int order_cols, int group_cols, int locals) {
    const int n = static_cast<int>(free_.size());
    auto col = [&] {
      return Alias(static_cast<int>(rng_.Uniform(static_cast<uint64_t>(n)))) +
             ".c" + std::to_string(5 + rng_.Uniform(3));
    };
    for (int i = 0; i < group_cols; ++i) Add(&sel_.group_by, col());
    for (int i = 0; i < order_cols; ++i) Add(&sel_.order_by, col());
    static const char* kLocals[] = {".c5 = 7", ".c6 > 1200", ".c7 LIKE 'a%'",
                                    ".c5 < 20", ".c6 BETWEEN 10 AND 900"};
    for (int i = 0; i < locals; ++i) {
      Add(&sel_.locals,
          Alias(static_cast<int>(rng_.Uniform(static_cast<uint64_t>(n)))) +
              kLocals[rng_.Uniform(5)]);
    }
  }
  GeneratedSql Render() const { return sel_.Render(Schema::kSynthetic); }

 private:
  static void Add(std::vector<std::string>* v, std::string s) {
    if (std::find(v->begin(), v->end(), s) == v->end()) v->push_back(std::move(s));
  }
  Rng& rng_;
  Select sel_;
  std::vector<std::vector<int>> free_;
};

// ---- Retail snowflake -----------------------------------------------------

struct RetailNode {
  int parent;
  const char* from;
  const char* join;
  std::vector<const char*> attrs;
  std::vector<const char*> locals;
};

const std::vector<RetailNode>& RetailNodes() {
  static const std::vector<RetailNode> kNodes = {
      {-1, "sales sl", "", {}, {"sl.sl_qty > 10", "sl.sl_amount < 500"}},
      {0, "store st", "sl.sl_store_id = st.s_id", {"st.s_city", "st.s_size"},
       {"st.s_size > 10"}},
      {1, "region r1", "st.s_region_id = r1.r_id", {"r1.r_name"},
       {"r1.r_country = 'US'"}},
      {0, "product p", "sl.sl_product_id = p.p_id", {"p.p_name", "p.p_price"},
       {"p.p_price < 50"}},
      {3, "category cat", "p.p_category_id = cat.cat_id", {"cat.cat_name"},
       {"cat.cat_dept = 'apparel'"}},
      {3, "brand b", "p.p_brand_id = b.b_id", {"b.b_name"},
       {"b.b_name LIKE 'A%'"}},
      {5, "vendor v", "b.b_vendor_id = v.v_id", {"v.v_name"},
       {"v.v_name LIKE 'V%'"}},
      {6, "region r3", "v.v_region_id = r3.r_id", {"r3.r_country"}, {}},
      {0, "customer cu", "sl.sl_customer_id = cu.c_id",
       {"cu.c_segment", "cu.c_city"}, {"cu.c_segment = 'retail'"}},
      {8, "region r2", "cu.c_region_id = r2.r_id", {"r2.r_name"},
       {"r2.r_name = 'west'"}},
      {0, "calendar d", "sl.sl_date = d.d_date",
       {"d.d_year", "d.d_month", "d.d_quarter"},
       {"d.d_year = 2001", "d.d_month BETWEEN 1 AND 6"}},
      {0, "promotion pr", "sl.sl_promo_id = pr.pr_id", {"pr.pr_type"},
       {"pr.pr_type = 'coupon'"}},
  };
  return kNodes;
}

// ---- TPC-H join cores -----------------------------------------------------

struct TpchTemplate {
  std::vector<const char*> from;
  std::vector<const char*> joins;
  std::vector<const char*> locals;  ///< a seeded subset is added
  std::vector<const char*> sorts;   ///< GROUP BY / ORDER BY candidates
};

const std::vector<TpchTemplate>& TpchTemplates() {
  static const std::vector<TpchTemplate> kTemplates = {
      {{"part p", "supplier s", "partsupp ps", "nation n", "region r"},
       {"p.p_partkey = ps.ps_partkey", "s.s_suppkey = ps.ps_suppkey",
        "s.s_nationkey = n.n_nationkey", "n.n_regionkey = r.r_regionkey"},
       {"p.p_size = 15", "p.p_type LIKE '%BRASS'", "r.r_name = 'EUROPE'",
        "s.s_acctbal > 1000"},
       {"s.s_acctbal", "s.s_name", "p.p_partkey", "n.n_name"}},
      {{"customer c", "orders o", "lineitem l", "supplier s", "nation n",
        "region r"},
       {"c.c_custkey = o.o_custkey", "l.l_orderkey = o.o_orderkey",
        "l.l_suppkey = s.s_suppkey", "c.c_nationkey = s.s_nationkey",
        "s.s_nationkey = n.n_nationkey", "n.n_regionkey = r.r_regionkey"},
       {"r.r_name = 'ASIA'", "o.o_orderdate >= DATE '1994-01-01'",
        "o.o_orderdate < DATE '1995-01-01'", "l.l_quantity < 24"},
       {"n.n_name", "o.o_orderdate", "c.c_mktsegment"}},
      {{"supplier s", "lineitem l", "orders o", "customer c", "nation n1",
        "nation n2"},
       {"s.s_suppkey = l.l_suppkey", "o.o_orderkey = l.l_orderkey",
        "c.c_custkey = o.o_custkey", "s.s_nationkey = n1.n_nationkey",
        "c.c_nationkey = n2.n_nationkey"},
       {"l.l_shipdate BETWEEN DATE '1995-01-01' AND DATE '1996-12-31'",
        "n1.n_name = 'FRANCE'", "n2.n_name = 'GERMANY'"},
       {"n1.n_name", "n2.n_name", "l.l_shipdate"}},
      {{"part p", "supplier s", "lineitem l", "orders o", "customer c",
        "nation n1", "nation n2", "region r"},
       {"p.p_partkey = l.l_partkey", "s.s_suppkey = l.l_suppkey",
        "l.l_orderkey = o.o_orderkey", "o.o_custkey = c.c_custkey",
        "c.c_nationkey = n1.n_nationkey", "n1.n_regionkey = r.r_regionkey",
        "s.s_nationkey = n2.n_nationkey"},
       {"r.r_name = 'AMERICA'",
        "o.o_orderdate BETWEEN DATE '1995-01-01' AND DATE '1996-12-31'",
        "p.p_type = 'ECONOMY ANODIZED STEEL'"},
       {"o.o_orderdate", "n2.n_name", "p.p_type"}},
      {{"part p", "supplier s", "lineitem l", "partsupp ps", "orders o",
        "nation n"},
       {"s.s_suppkey = l.l_suppkey", "ps.ps_suppkey = l.l_suppkey",
        "ps.ps_partkey = l.l_partkey", "p.p_partkey = l.l_partkey",
        "o.o_orderkey = l.l_orderkey", "s.s_nationkey = n.n_nationkey"},
       {"p.p_type LIKE '%green%'", "o.o_orderdate > DATE '1995-06-01'"},
       {"n.n_name", "o.o_orderdate", "p.p_type"}},
      {{"customer c", "orders o", "lineitem l", "nation n"},
       {"c.c_custkey = o.o_custkey", "l.l_orderkey = o.o_orderkey",
        "c.c_nationkey = n.n_nationkey"},
       {"o.o_orderdate >= DATE '1993-10-01'",
        "o.o_orderdate < DATE '1994-01-01'", "c.c_acctbal > 0"},
       {"c.c_custkey", "c.c_acctbal", "n.n_name"}},
      {{"supplier s", "lineitem l1", "orders o", "nation n", "lineitem l2",
        "lineitem l3"},
       {"s.s_suppkey = l1.l_suppkey", "o.o_orderkey = l1.l_orderkey",
        "s.s_nationkey = n.n_nationkey", "l2.l_orderkey = l1.l_orderkey",
        "l3.l_orderkey = l1.l_orderkey"},
       {"o.o_orderstatus = 'F'", "l1.l_receiptdate > DATE '1995-01-01'",
        "n.n_name = 'SAUDI ARABIA'"},
       {"s.s_name", "n.n_name", "o.o_orderdate"}},
  };
  return kTemplates;
}

/// k distinct items (all of them when there are fewer) in seeded order.
std::vector<std::string> PickSome(Rng& rng, const std::vector<const char*>& items,
                                  int k) {
  std::vector<const char*> pool = items;
  Shuffle(rng, &pool);
  k = std::min<int>(k, static_cast<int>(pool.size()));
  return std::vector<std::string>(pool.begin(), pool.begin() + k);
}

}  // namespace

GeneratedSql MakeSparseQuery(Rng& rng, int n, SparseShape shape) {
  COTE_CHECK(n >= 6);
  SyntheticTables t(rng, n);
  if (shape == SparseShape::kTree) {
    // A caterpillar: a spine of n - 3 tables with leaves hung off the
    // spine tables a quarter, half and three quarters along, and one chord
    // across three spine tables. The shape is fixed for a given n so that
    // every seed sees the same amount of enumeration work.
    const int spine = n - 3;
    for (int v = 0; v + 1 < spine; ++v) COTE_CHECK(t.Edge(v, v + 1));
    for (int leaf = 0; leaf < 3; ++leaf) {
      COTE_CHECK(t.Edge((leaf + 1) * spine / 4, spine + leaf));
    }
    COTE_CHECK(t.Edge(spine / 3, spine / 3 + 3));
  } else {
    for (int v = 0; v + 1 < n; ++v) COTE_CHECK(t.Edge(v, v + 1));
    if (shape == SparseShape::kCycle) COTE_CHECK(t.Edge(n - 1, 0));
  }
  // One ORDER BY column and no GROUP BY: the plan counts (and MEMO size)
  // then depend on the graph, which is the point of this workload.
  t.Interest(/*order_cols=*/1, /*group_cols=*/0,
             /*locals=*/static_cast<int>(rng.Uniform(3)));
  return t.Render();
}

GeneratedSql MakeRetailSnowflake(Rng& rng, int n) {
  const std::vector<RetailNode>& nodes = RetailNodes();
  COTE_CHECK(n >= 2 && n <= static_cast<int>(nodes.size()));
  // Grow from the fact table, adding a random node whose parent is in.
  std::vector<bool> in(nodes.size(), false);
  in[0] = true;
  std::vector<int> chosen = {0};
  while (static_cast<int>(chosen.size()) < n) {
    std::vector<int> frontier;
    for (size_t i = 1; i < nodes.size(); ++i) {
      if (!in[i] && in[static_cast<size_t>(nodes[i].parent)]) {
        frontier.push_back(static_cast<int>(i));
      }
    }
    const int pick = frontier[rng.Uniform(frontier.size())];
    in[static_cast<size_t>(pick)] = true;
    chosen.push_back(pick);
  }
  Select sel;
  std::vector<const char*> attrs, locals;
  for (int i : chosen) {
    const RetailNode& node = nodes[static_cast<size_t>(i)];
    sel.from.push_back(node.from);
    if (node.parent >= 0) sel.joins.push_back(node.join);
    attrs.insert(attrs.end(), node.attrs.begin(), node.attrs.end());
    locals.insert(locals.end(), node.locals.begin(), node.locals.end());
  }
  Shuffle(rng, &sel.from);
  sel.locals = PickSome(rng, locals, static_cast<int>(rng.Uniform(4)));
  sel.group_by = PickSome(rng, attrs, 1 + static_cast<int>(rng.Uniform(3)));
  sel.order_by.assign(sel.group_by.begin(),
                      sel.group_by.begin() + 1 +
                          static_cast<long>(rng.Uniform(sel.group_by.size())));
  return sel.Render(Schema::kRetail);
}

GeneratedSql MakeSyntheticSnowflake(Rng& rng, int n) {
  COTE_CHECK(n >= 2 && n <= 13);
  SyntheticTables t(rng, n);
  // Table 0 is the hub; spokes take hub columns until four are out, then
  // the remaining tables hang off a random spoke with a free column.
  std::vector<int> spokes;
  for (int v = 1; v < n; ++v) {
    if (spokes.size() < 4 && (spokes.empty() || rng.Bernoulli(0.6))) {
      COTE_CHECK(t.Edge(0, v));
      spokes.push_back(v);
      continue;
    }
    std::vector<int> open;
    for (int s : spokes) {
      if (t.Free(s) > 2) open.push_back(s);
    }
    if (open.empty()) {
      COTE_CHECK(t.Edge(0, v));
      spokes.push_back(v);
      continue;
    }
    COTE_CHECK(t.Edge(open[rng.Uniform(open.size())], v));
  }
  t.Interest(/*order_cols=*/1 + static_cast<int>(rng.Uniform(2)),
             /*group_cols=*/1 + static_cast<int>(rng.Uniform(2)),
             /*locals=*/static_cast<int>(rng.Uniform(3)));
  return t.Render();
}

GeneratedSql MakeTpchCore(Rng& rng) {
  const std::vector<TpchTemplate>& templates = TpchTemplates();
  const TpchTemplate& tpl = templates[rng.Uniform(templates.size())];
  Select sel;
  sel.from.assign(tpl.from.begin(), tpl.from.end());
  sel.joins.assign(tpl.joins.begin(), tpl.joins.end());
  sel.locals = PickSome(rng, tpl.locals,
                        1 + static_cast<int>(rng.Uniform(tpl.locals.size())));
  sel.group_by = PickSome(rng, tpl.sorts, 1 + static_cast<int>(rng.Uniform(3)));
  sel.order_by = PickSome(rng, tpl.sorts, 1 + static_cast<int>(rng.Uniform(2)));
  return sel.Render(Schema::kTpch);
}

GeneratedSql MakeDenseStar(Rng& rng, int n) {
  COTE_CHECK(n >= 2 && n <= kSyntheticTables);
  std::vector<int> ids(kSyntheticTables);
  for (int i = 0; i < kSyntheticTables; ++i) ids[i] = i;
  Shuffle(rng, &ids);
  Select sel;
  for (int i = 0; i < n; ++i) {
    sel.from.push_back("T" + std::to_string(ids[i]) + " t" + std::to_string(i));
  }
  for (int i = 1; i < n; ++i) {
    sel.joins.push_back("t0.c1 = t" + std::to_string(i) + ".c1");
  }
  const int k = static_cast<int>(rng.Uniform(3));
  for (int i = 0; i < k; ++i) {
    sel.order_by.push_back("t" + std::to_string(rng.Uniform(n)) + ".c" +
                           std::to_string(5 + i));
  }
  return sel.Render(Schema::kSynthetic);
}

GeneratedSql MakeDenseRing(Rng& rng, int n) {
  COTE_CHECK(n >= 5);
  SyntheticTables t(rng, n);
  for (int v = 0; v < n; ++v) {
    COTE_CHECK(t.Edge(v, (v + 1) % n));
    COTE_CHECK(t.Edge(v, (v + 2) % n));
  }
  t.Interest(/*order_cols=*/1, /*group_cols=*/0, /*locals=*/1);
  return t.Render();
}

}  // namespace perfbench
