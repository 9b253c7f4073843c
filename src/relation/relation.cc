#include "relation/relation.h"

#include <algorithm>
#include <map>
#include <sstream>
#include <unordered_map>

namespace provview {

namespace {

// Hash for Tuple keys in join/group maps.
struct TupleHasher {
  size_t operator()(const Tuple& t) const {
    uint64_t h = 0x9E3779B97F4A7C15ull;
    for (Value v : t) {
      h ^= static_cast<uint64_t>(v) + 0x9E3779B97F4A7C15ull + (h << 6) +
           (h >> 2);
    }
    return static_cast<size_t>(h);
  }
};

}  // namespace

void Relation::AddRow(Tuple row) {
  PV_CHECK_MSG(static_cast<int>(row.size()) == schema_.arity(),
               "row arity " << row.size() << " != schema arity "
                            << schema_.arity());
  for (int pos = 0; pos < schema_.arity(); ++pos) {
    AttrId id = schema_.attr(pos);
    int dom = schema_.catalog()->DomainSize(id);
    PV_CHECK_MSG(row[static_cast<size_t>(pos)] >= 0 &&
                     row[static_cast<size_t>(pos)] < dom,
                 "value " << row[static_cast<size_t>(pos)] << " out of domain ["
                          << 0 << "," << dom << ") for attribute "
                          << schema_.catalog()->Name(id));
  }
  rows_.push_back(std::move(row));
}

Value Relation::At(const Tuple& row, AttrId id) const {
  int pos = schema_.PositionOf(id);
  PV_CHECK_MSG(pos >= 0, "attribute id " << id << " not in schema");
  return row[static_cast<size_t>(pos)];
}

Tuple Relation::ProjectRow(const Tuple& row,
                           const std::vector<AttrId>& attr_ids) const {
  Tuple out;
  out.reserve(attr_ids.size());
  for (AttrId id : attr_ids) out.push_back(At(row, id));
  return out;
}

Relation Relation::Project(const std::vector<AttrId>& attr_ids) const {
  Relation out(Schema(schema_.catalog(), attr_ids));
  out.rows_.reserve(rows_.size());
  for (const Tuple& row : rows_) out.rows_.push_back(ProjectRow(row, attr_ids));
  return out.Distinct();
}

Relation Relation::ProjectSet(const Bitset64& attr_set) const {
  std::vector<AttrId> ids;
  for (AttrId id : schema_.attrs()) {
    if (id < attr_set.size() && attr_set.Test(id)) ids.push_back(id);
  }
  return Project(ids);
}

Relation Relation::NaturalJoin(const Relation& other) const {
  PV_CHECK_MSG(schema_.catalog() == other.schema_.catalog(),
               "natural join across different catalogs");
  // Shared attributes, in this relation's order.
  std::vector<AttrId> shared;
  for (AttrId id : schema_.attrs()) {
    if (other.schema_.ContainsAttr(id)) shared.push_back(id);
  }
  // Output schema: ours, then the other's non-shared attributes.
  std::vector<AttrId> out_attrs = schema_.attrs();
  std::vector<AttrId> other_only;
  for (AttrId id : other.schema_.attrs()) {
    if (!schema_.ContainsAttr(id)) {
      out_attrs.push_back(id);
      other_only.push_back(id);
    }
  }
  Relation out(Schema(schema_.catalog(), out_attrs));

  // Hash the smaller probe structure: bucket `other` rows by shared key.
  std::unordered_multimap<Tuple, const Tuple*, TupleHasher> index;
  index.reserve(other.rows_.size());
  for (const Tuple& r : other.rows_) {
    index.emplace(other.ProjectRow(r, shared), &r);
  }
  for (const Tuple& l : rows_) {
    Tuple key = ProjectRow(l, shared);
    auto [begin, end] = index.equal_range(key);
    for (auto it = begin; it != end; ++it) {
      Tuple joined = l;
      joined.reserve(out_attrs.size());
      for (AttrId id : other_only) joined.push_back(other.At(*it->second, id));
      out.rows_.push_back(std::move(joined));
    }
  }
  return out;
}

Relation Relation::Distinct() const {
  Relation out(schema_);
  out.rows_ = SortedDistinctRows();
  return out;
}

bool Relation::SatisfiesFd(const std::vector<AttrId>& lhs,
                           const std::vector<AttrId>& rhs) const {
  std::unordered_map<Tuple, Tuple, TupleHasher> determined;
  determined.reserve(rows_.size());
  for (const Tuple& row : rows_) {
    Tuple key = ProjectRow(row, lhs);
    Tuple val = ProjectRow(row, rhs);
    auto [it, inserted] = determined.emplace(std::move(key), val);
    if (!inserted && it->second != val) return false;
  }
  return true;
}

bool Relation::EqualsAsSet(const Relation& other) const {
  if (!(schema_ == other.schema_)) return false;
  return SortedDistinctRows() == other.SortedDistinctRows();
}

bool Relation::ContainsRow(const Tuple& row) const {
  return std::find(rows_.begin(), rows_.end(), row) != rows_.end();
}

std::vector<Tuple> Relation::SortedDistinctRows() const {
  std::vector<Tuple> sorted = rows_;
  std::sort(sorted.begin(), sorted.end());
  sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
  return sorted;
}

std::string Relation::ToString() const {
  std::ostringstream oss;
  const auto& cat = *schema_.catalog();
  for (int pos = 0; pos < schema_.arity(); ++pos) {
    if (pos > 0) oss << " ";
    oss << cat.Name(schema_.attr(pos));
  }
  oss << "\n";
  for (const Tuple& row : rows_) {
    for (size_t i = 0; i < row.size(); ++i) {
      if (i > 0) oss << " ";
      // Pad to the attribute-name width so columns align for short names.
      std::string v = std::to_string(row[i]);
      std::string name = cat.Name(schema_.attr(static_cast<int>(i)));
      if (v.size() < name.size()) v += std::string(name.size() - v.size(), ' ');
      oss << v;
    }
    oss << "\n";
  }
  return oss.str();
}

}  // namespace provview
