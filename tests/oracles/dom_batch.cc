#include "oracles/dom_batch.h"

#include "json/parser.h"

namespace ciao {

DomBatchBuilder::DomBatchBuilder(columnar::Schema schema)
    : schema_(schema), batch_(std::move(schema)) {}

void DomBatchBuilder::AppendParsed(const json::Value& record) {
  using columnar::ColumnType;
  for (size_t c = 0; c < schema_.num_fields(); ++c) {
    const columnar::Field& field = schema_.field(c);
    columnar::ColumnVector* col = batch_.mutable_column(c);
    const json::Value* v = record.FindPath(field.name);
    if (v == nullptr || v->is_null()) {
      col->AppendNull();
      continue;
    }
    switch (field.type) {
      case ColumnType::kInt64:
        if (v->is_int()) {
          col->AppendInt64(v->as_int());
        } else {
          col->AppendNull();
          ++coercion_errors_;
        }
        break;
      case ColumnType::kDouble:
        if (v->is_number()) {
          col->AppendDouble(v->AsNumber());
        } else {
          col->AppendNull();
          ++coercion_errors_;
        }
        break;
      case ColumnType::kBool:
        if (v->is_bool()) {
          col->AppendBool(v->as_bool());
        } else {
          col->AppendNull();
          ++coercion_errors_;
        }
        break;
      case ColumnType::kString:
        if (v->is_string()) {
          col->AppendString(v->as_string());
        } else {
          col->AppendNull();
          ++coercion_errors_;
        }
        break;
    }
  }
}

Status DomBatchBuilder::AppendSerialized(std::string_view serialized) {
  Result<json::Value> parsed = json::Parse(serialized);
  if (!parsed.ok()) {
    ++parse_errors_;
    return parsed.status();
  }
  AppendParsed(*parsed);
  return Status::OK();
}

columnar::RecordBatch DomBatchBuilder::Finish() {
  columnar::RecordBatch out = std::move(batch_);
  batch_ = columnar::RecordBatch(schema_);
  return out;
}

}  // namespace ciao
