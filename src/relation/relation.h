// Finite relations over catalog attributes. A module's functionality (§2.1)
// and a workflow's execution log (§2.3) are both Relations; the privacy
// machinery operates on projections (views) of them.
#ifndef PROVVIEW_RELATION_RELATION_H_
#define PROVVIEW_RELATION_RELATION_H_

#include <string>
#include <vector>

#include "common/bitset64.h"
#include "relation/schema.h"

namespace provview {

/// A tuple's values, aligned positionally with its relation's schema.
using Tuple = std::vector<Value>;

/// In-memory relation: a schema plus a row vector. Rows are value vectors in
/// schema order. Set semantics are applied explicitly via Distinct() /
/// EqualsAsSet(); storage itself permits duplicates (a projection is a
/// multiset until deduplicated).
class Relation {
 public:
  Relation() = default;
  explicit Relation(Schema schema) : schema_(std::move(schema)) {}

  const Schema& schema() const { return schema_; }
  const std::vector<Tuple>& rows() const { return rows_; }
  int64_t num_rows() const { return static_cast<int64_t>(rows_.size()); }
  bool empty() const { return rows_.empty(); }

  /// Appends a row; arity and per-attribute domain ranges are checked.
  void AddRow(Tuple row);

  /// Value of attribute `id` in `row` (id must be in the schema).
  Value At(const Tuple& row, AttrId id) const;

  /// Projects a single row onto `attr_ids` (order as given).
  Tuple ProjectRow(const Tuple& row, const std::vector<AttrId>& attr_ids) const;

  /// π_{attrs}(R) with duplicate elimination (set semantics, as in the
  /// paper's views). Output schema order follows `attr_ids`.
  Relation Project(const std::vector<AttrId>& attr_ids) const;

  /// Projection onto the attributes present in `attr_set` (catalog order).
  Relation ProjectSet(const Bitset64& attr_set) const;

  /// Natural join on shared attribute ids. Both relations must share the
  /// same catalog. Output schema: this relation's attributes followed by the
  /// other's non-shared attributes.
  Relation NaturalJoin(const Relation& other) const;

  /// Removes duplicate rows (sorts internally).
  Relation Distinct() const;

  /// True if the functional dependency lhs → rhs holds in this relation.
  bool SatisfiesFd(const std::vector<AttrId>& lhs,
                   const std::vector<AttrId>& rhs) const;

  /// True if both relations contain the same set of rows over equal schemas
  /// (duplicates ignored).
  bool EqualsAsSet(const Relation& other) const;

  /// True if this relation's row set contains `row`.
  bool ContainsRow(const Tuple& row) const;

  /// Rows sorted lexicographically; canonical form for comparison/hashing.
  std::vector<Tuple> SortedDistinctRows() const;

  /// Pretty-printed table with attribute names, for examples and debugging.
  std::string ToString() const;

 private:
  Schema schema_;
  std::vector<Tuple> rows_;
};

}  // namespace provview

#endif  // PROVVIEW_RELATION_RELATION_H_
