#include "query/equivalence.h"

#include <algorithm>
#include <utility>

#include "common/check.h"

namespace cote {

const ColumnSlots& ColumnSlots::Empty() {
  static const ColumnSlots kEmpty;
  return kEmpty;
}

void ColumnSlots::Assign(std::vector<ColumnRef> cols) {
  std::sort(cols.begin(), cols.end());
  cols.erase(std::unique(cols.begin(), cols.end()), cols.end());
  uint32_t tables = 0, stride = 0;
  for (ColumnRef c : cols) {
    COTE_CHECK(c.valid());
    tables = std::max<uint32_t>(tables, static_cast<uint32_t>(c.table) + 1);
    stride = std::max<uint32_t>(stride, static_cast<uint32_t>(c.column) + 1);
  }
  columns_ = std::move(cols);
  num_tables_ = 0;
  stride_ = 0;
  Grow(tables, stride);
}

int ColumnSlots::Intern(ColumnRef c) {
  const int existing = SlotOf(c);
  if (existing >= 0) return existing;
  COTE_CHECK(c.valid());
  const uint32_t t = static_cast<uint32_t>(c.table);
  const uint32_t col = static_cast<uint32_t>(c.column);
  if (t >= num_tables_ || col >= stride_) {
    Grow(std::max(num_tables_, t + 1), std::max(stride_, col + 1));
  }
  const int slot = size();
  index_[t * stride_ + col] = slot;
  columns_.push_back(c);
  return slot;
}

void ColumnSlots::Clear() {
  for (ColumnRef c : columns_) {
    index_[static_cast<uint32_t>(c.table) * stride_ +
           static_cast<uint32_t>(c.column)] = -1;
  }
  columns_.clear();
}

void ColumnSlots::Grow(uint32_t tables, uint32_t stride) {
  num_tables_ = tables;
  stride_ = stride;
  index_.assign(static_cast<size_t>(tables) * stride, -1);
  for (size_t s = 0; s < columns_.size(); ++s) {
    const ColumnRef c = columns_[s];
    index_[static_cast<uint32_t>(c.table) * stride_ +
           static_cast<uint32_t>(c.column)] = static_cast<int32_t>(s);
  }
}

ColumnEquivalence& ColumnEquivalence::operator=(
    const ColumnEquivalence& other) {
  if (this == &other) return *this;
  if (other.own_ != nullptr && other.slots_ == other.own_.get()) {
    // Standalone: the numbering is part of the value.
    if (own_ == nullptr) own_ = std::make_unique<ColumnSlots>();
    *own_ = *other.own_;
    slots_ = own_.get();
  } else {
    // Bound (or empty): share the query's numbering.
    slots_ = other.slots_;
  }
  rep_ = other.rep_;
  return *this;
}

ColumnEquivalence& ColumnEquivalence::operator=(
    ColumnEquivalence&& other) noexcept {
  if (this == &other) return *this;
  // own_ is heap-held, so a standalone slots_ stays valid across the move.
  slots_ = other.slots_;
  own_ = std::move(other.own_);
  rep_ = std::move(other.rep_);
  other.slots_ = &ColumnSlots::Empty();
  other.rep_.clear();
  return *this;
}

void ColumnEquivalence::Reset(const ColumnSlots& slots) {
  slots_ = &slots;
  rep_.assign(slots.columns().begin(), slots.columns().end());
}

void ColumnEquivalence::Clear() {
  if (own_ != nullptr) own_->Clear();
  slots_ = own_ != nullptr ? own_.get() : &ColumnSlots::Empty();
  rep_.clear();
}

void ColumnEquivalence::AddEquivalence(ColumnRef a, ColumnRef b) {
  int sa = slots_->SlotOf(a);
  int sb = slots_->SlotOf(b);
  if (sa < 0) sa = InternOwn(a);
  if (sb < 0) sb = InternOwn(b);
  Merge(sa, sb);
}

void ColumnEquivalence::Merge(int sa, int sb) {
  const ColumnRef ra = rep_[static_cast<size_t>(sa)];
  const ColumnRef rb = rep_[static_cast<size_t>(sb)];
  if (ra == rb) return;
  // Keep the minimum encoding as the representative so Find() is canonical,
  // and relabel every member now so reads never have to chase a parent.
  const ColumnRef lo = ra < rb ? ra : rb;
  const ColumnRef hi = ra < rb ? rb : ra;
  for (ColumnRef& r : rep_) {
    if (r == hi) r = lo;
  }
}

int ColumnEquivalence::InternOwn(ColumnRef c) {
  // A bound instance reads the query's numbering, which covers every
  // column of its inner join predicates; a miss there is a predicate from
  // another query.
  if (slots_ != own_.get()) {
    COTE_CHECK(slots_ == &ColumnSlots::Empty());
    if (own_ == nullptr) {
      own_ = std::make_unique<ColumnSlots>();
    } else {
      own_->Clear();
    }
    slots_ = own_.get();
  }
  const int slot = own_->Intern(c);
  if (static_cast<size_t>(slot) == rep_.size()) rep_.push_back(c);
  return slot;
}

std::vector<std::vector<ColumnRef>> ColumnEquivalence::Classes() const {
  // (representative, member) pairs sorted: classes come out grouped, in
  // ascending representative order, each with ascending members.
  std::vector<std::pair<ColumnRef, ColumnRef>> members;
  members.reserve(rep_.size());
  for (size_t s = 0; s < rep_.size(); ++s) {
    members.emplace_back(rep_[s], slots_->columns()[s]);
  }
  std::sort(members.begin(), members.end());
  std::vector<std::vector<ColumnRef>> out;
  for (size_t i = 0; i < members.size();) {
    size_t j = i;
    while (j < members.size() && members[j].first == members[i].first) ++j;
    if (j - i >= 2) {
      std::vector<ColumnRef> cls;
      for (size_t k = i; k < j; ++k) cls.push_back(members[k].second);
      out.push_back(std::move(cls));
    }
    i = j;
  }
  return out;
}

}  // namespace cote
