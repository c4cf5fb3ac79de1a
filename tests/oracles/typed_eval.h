#ifndef CIAO_TESTS_ORACLES_TYPED_EVAL_H_
#define CIAO_TESTS_ORACLES_TYPED_EVAL_H_

#include <vector>

#include "columnar/record_batch.h"
#include "common/status.h"
#include "predicate/predicate.h"

namespace ciao {

/// A query compiled against a schema for row-at-a-time evaluation over
/// RecordBatches: field names resolved to column indexes, operands
/// pre-extracted. Semantics mirror semantic_eval.h exactly (tests assert
/// typed-vs-semantic agreement on schema-conformant data). This is the
/// paper-faithful tuple-at-a-time reading of "evaluate all predicates in
/// this query to verify that a tuple is actually valid" (§IV-B), kept as
/// the test-only differential oracle for the executor's VectorizedQuery.
class CompiledTypedQuery {
 public:
  /// Fails with InvalidArgument if a predicate references a field missing
  /// from the schema (the planner treats that as a planning error).
  static Result<CompiledTypedQuery> Compile(const Query& query,
                                            const columnar::Schema& schema);

  /// Evaluates the full conjunction on row `row` of `batch`.
  bool Matches(const columnar::RecordBatch& batch, size_t row) const;

  size_t num_clauses() const { return clauses_.size(); }

  /// Column-pruning mask: wanted[i] is true iff schema field i is
  /// referenced by any predicate. The executor decodes only these
  /// columns (COUNT(*) needs nothing else).
  std::vector<bool> ReferencedColumns(size_t num_fields) const;

 private:
  struct CompiledTerm {
    PredicateKind kind;
    int column = -1;
    columnar::ColumnType column_type = columnar::ColumnType::kString;
    // Pre-extracted operand by type.
    int64_t int_operand = 0;
    double double_operand = 0.0;
    bool bool_operand = false;
    std::string string_operand;
    bool operand_is_int = false;
    bool operand_is_double = false;
    bool operand_is_bool = false;
    bool operand_is_string = false;
  };
  struct CompiledClause {
    std::vector<CompiledTerm> terms;
  };

  static bool TermMatches(const CompiledTerm& term,
                          const columnar::RecordBatch& batch, size_t row);

  std::vector<CompiledClause> clauses_;
};

}  // namespace ciao

#endif  // CIAO_TESTS_ORACLES_TYPED_EVAL_H_
