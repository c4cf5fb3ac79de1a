#include "oracles/typed_eval.h"

#include "common/string_util.h"

namespace ciao {

Result<CompiledTypedQuery> CompiledTypedQuery::Compile(
    const Query& query, const columnar::Schema& schema) {
  CompiledTypedQuery compiled;
  compiled.clauses_.reserve(query.clauses.size());
  for (const Clause& clause : query.clauses) {
    CompiledClause cc;
    cc.terms.reserve(clause.terms.size());
    for (const SimplePredicate& p : clause.terms) {
      CompiledTerm term;
      term.kind = p.kind;
      term.column = schema.FieldIndex(p.field);
      if (term.column < 0) {
        return Status::InvalidArgument(StrFormat(
            "query references field '%s' missing from the table schema",
            p.field.c_str()));
      }
      term.column_type = schema.field(static_cast<size_t>(term.column)).type;
      const json::Value& operand = p.operand;
      if (operand.is_int()) {
        term.operand_is_int = true;
        term.int_operand = operand.as_int();
        term.double_operand = static_cast<double>(operand.as_int());
      } else if (operand.is_double()) {
        term.operand_is_double = true;
        term.double_operand = operand.as_double();
      } else if (operand.is_bool()) {
        term.operand_is_bool = true;
        term.bool_operand = operand.as_bool();
      } else if (operand.is_string()) {
        term.operand_is_string = true;
        term.string_operand = operand.as_string();
      }
      cc.terms.push_back(std::move(term));
    }
    compiled.clauses_.push_back(std::move(cc));
  }
  return compiled;
}

bool CompiledTypedQuery::TermMatches(const CompiledTerm& term,
                                     const columnar::RecordBatch& batch,
                                     size_t row) {
  const columnar::ColumnVector& col =
      batch.column(static_cast<size_t>(term.column));
  const bool valid = col.IsValid(row);
  switch (term.kind) {
    case PredicateKind::kKeyPresence:
      return valid;
    case PredicateKind::kExactMatch:
      return valid && term.operand_is_string &&
             term.column_type == columnar::ColumnType::kString &&
             col.GetString(row) == term.string_operand;
    case PredicateKind::kSubstringMatch:
      return valid && term.operand_is_string &&
             term.column_type == columnar::ColumnType::kString &&
             col.GetString(row).find(term.string_operand) !=
                 std::string_view::npos;
    case PredicateKind::kKeyValueMatch: {
      if (!valid) return false;
      switch (term.column_type) {
        case columnar::ColumnType::kInt64:
          if (term.operand_is_int) {
            return col.GetInt64(row) == term.int_operand;
          }
          if (term.operand_is_double) {
            return static_cast<double>(col.GetInt64(row)) ==
                   term.double_operand;
          }
          return false;
        case columnar::ColumnType::kDouble:
          if (term.operand_is_int || term.operand_is_double) {
            return col.GetDouble(row) == term.double_operand;
          }
          return false;
        case columnar::ColumnType::kBool:
          return term.operand_is_bool && col.GetBool(row) == term.bool_operand;
        case columnar::ColumnType::kString:
          return term.operand_is_string &&
                 col.GetString(row) == term.string_operand;
      }
      return false;
    }
    case PredicateKind::kRangeLess: {
      if (!valid || !(term.operand_is_int || term.operand_is_double)) {
        return false;
      }
      switch (term.column_type) {
        case columnar::ColumnType::kInt64:
          return static_cast<double>(col.GetInt64(row)) < term.double_operand;
        case columnar::ColumnType::kDouble:
          return col.GetDouble(row) < term.double_operand;
        default:
          return false;
      }
    }
  }
  return false;
}

std::vector<bool> CompiledTypedQuery::ReferencedColumns(
    size_t num_fields) const {
  std::vector<bool> wanted(num_fields, false);
  for (const CompiledClause& clause : clauses_) {
    for (const CompiledTerm& term : clause.terms) {
      if (term.column >= 0 && static_cast<size_t>(term.column) < num_fields) {
        wanted[static_cast<size_t>(term.column)] = true;
      }
    }
  }
  return wanted;
}

bool CompiledTypedQuery::Matches(const columnar::RecordBatch& batch,
                                 size_t row) const {
  for (const CompiledClause& clause : clauses_) {
    bool any = false;
    for (const CompiledTerm& term : clause.terms) {
      if (TermMatches(term, batch, row)) {
        any = true;
        break;
      }
    }
    if (!any) return false;
  }
  return true;
}

}  // namespace ciao
