#ifndef COTE_QUERY_EQUIVALENCE_H_
#define COTE_QUERY_EQUIVALENCE_H_

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "query/column_ref.h"

namespace cote {

/// \brief Dense numbering of a fixed set of columns: K slots, O(1) lookup.
///
/// A query numbers the distinct columns of its inner join predicates once
/// (QueryGraph::JoinColumnSlots); every MEMO entry's ColumnEquivalence
/// then keeps one representative per slot. Slot lookup is a bounds check
/// and one load from a table-major `table * stride + column` index, so it
/// never hashes. Slots handed out in ascending column order (Assign) are
/// ascending in ColumnRef::Encode() too.
class ColumnSlots {
 public:
  /// The numbering with no slots (every lookup misses).
  static const ColumnSlots& Empty();

  /// Numbers the distinct members of `cols`, in ascending encoded order.
  void Assign(std::vector<ColumnRef> cols);

  /// Slot of `c`, appending a new one if `c` is not numbered yet. Used by
  /// standalone equivalences, which number columns as they meet them.
  int Intern(ColumnRef c);

  /// Forgets every slot. Index storage and dimensions are kept, so
  /// re-interning a same-or-smaller column set does not allocate.
  void Clear();

  /// Slot of `c`, or -1 if `c` is not numbered.
  int SlotOf(ColumnRef c) const {
    const uint32_t t = static_cast<uint16_t>(c.table);
    const uint32_t col = static_cast<uint16_t>(c.column);
    if (t >= num_tables_ || col >= stride_) return -1;
    return index_[t * stride_ + col];
  }

  int size() const { return static_cast<int>(columns_.size()); }
  /// The numbered columns, indexed by slot.
  const std::vector<ColumnRef>& columns() const { return columns_; }

 private:
  /// Re-lays the index out for at least `tables` x `stride` cells.
  void Grow(uint32_t tables, uint32_t stride);

  uint32_t num_tables_ = 0;
  uint32_t stride_ = 0;
  std::vector<int32_t> index_;  ///< table * stride_ + column -> slot or -1
  std::vector<ColumnRef> columns_;
};

/// \brief Column equivalence classes, built from applied equi-join
/// predicates.
///
/// Join predicates make columns equivalent: after applying `R.a = S.a`, an
/// order on `R.a` and an order on `S.a` denote the same physical property.
/// The optimizer builds one instance per MEMO entry (from the predicates
/// applied within that entry's table set) and canonicalizes property columns
/// through it; the paper notes that "equivalence needs to be checked for
/// each enumerated join" (§3.3).
///
/// Layout: one representative per slot of a ColumnSlots numbering, kept
/// flat at all times — AddEquivalence relabels every member of the merged
/// class, so Find is a slot lookup plus one load, never writes, and any
/// number of threads may read a built instance at once. An instance bound
/// with Reset() reads the query's shared numbering (K slots, K
/// representatives); a default-constructed instance numbers the columns
/// it is given itself.
class ColumnEquivalence {
 public:
  ColumnEquivalence() = default;
  ColumnEquivalence(const ColumnEquivalence& other) { *this = other; }
  ColumnEquivalence& operator=(const ColumnEquivalence& other);
  /// Moves leave `other` empty and unbound (readable, no classes).
  ColumnEquivalence(ColumnEquivalence&& other) noexcept {
    *this = std::move(other);
  }
  ColumnEquivalence& operator=(ColumnEquivalence&& other) noexcept;

  /// Binds to `slots` (which must outlive every read) with every slot its
  /// own class. The representative array keeps its capacity, so a rebuild
  /// over a same-or-smaller numbering does not allocate.
  void Reset(const ColumnSlots& slots);

  /// Declares a ~ b. On a bound instance both columns must be numbered.
  void AddEquivalence(ColumnRef a, ColumnRef b);

  /// Canonical representative of c's class (the minimum-encoded member).
  /// Columns never added are their own representative.
  ColumnRef Find(ColumnRef c) const {
    const int s = slots_->SlotOf(c);
    return s < 0 ? c : rep_[static_cast<size_t>(s)];
  }

  bool Equivalent(ColumnRef a, ColumnRef b) const {
    return Find(a) == Find(b);
  }

  /// All classes with at least two members, each sorted ascending, in
  /// ascending order of their representatives.
  std::vector<std::vector<ColumnRef>> Classes() const;

  /// Forgets every equivalence and unbinds. Storage is retained, so an
  /// instance embedded in reusable per-entry state rebuilds a
  /// same-or-smaller column set without touching the allocator.
  void Clear();

 private:
  /// Puts slots sa and sb in one class, relabelling the larger
  /// representative's members to the smaller one.
  void Merge(int sa, int sb);
  /// Standalone numbering of a column the current slots do not know.
  int InternOwn(ColumnRef c);

  /// The numbering Find reads: a query's shared slots, own_, or Empty().
  const ColumnSlots* slots_ = &ColumnSlots::Empty();
  /// Standalone instances only: the slots they number themselves.
  std::unique_ptr<ColumnSlots> own_;
  /// rep_[s] is the representative of slot s's class.
  std::vector<ColumnRef> rep_;
};

}  // namespace cote

#endif  // COTE_QUERY_EQUIVALENCE_H_
