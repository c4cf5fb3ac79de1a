#ifndef CIAO_TESTS_ORACLES_DOM_BATCH_H_
#define CIAO_TESTS_ORACLES_DOM_BATCH_H_

#include <string_view>

#include "columnar/record_batch.h"
#include "columnar/schema.h"
#include "common/status.h"
#include "json/value.h"

namespace ciao {

/// The DOM converter, kept as the differential oracle for the loader's
/// tape path (columnar::BatchBuilder): each record is parsed with
/// json::Parse into a Value tree and the schema's fields are pulled off it
/// with Value::FindPath. Coercion rules are the loader's: Int64 accepts
/// JSON ints; Double accepts ints and doubles; Bool accepts bools; String
/// accepts strings. A missing field or JSON null becomes NULL; a type
/// mismatch becomes NULL and is counted in `coercion_errors`.
class DomBatchBuilder {
 public:
  explicit DomBatchBuilder(columnar::Schema schema);

  /// Appends one parsed record.
  void AppendParsed(const json::Value& record);

  /// Parses `serialized` then appends; returns the parse error if any
  /// (the record is then skipped, counted in `parse_errors`).
  Status AppendSerialized(std::string_view serialized);

  size_t num_rows() const { return batch_.num_rows(); }
  size_t coercion_errors() const { return coercion_errors_; }
  size_t parse_errors() const { return parse_errors_; }

  /// Returns the accumulated batch; the builder resets to empty.
  columnar::RecordBatch Finish();

 private:
  columnar::Schema schema_;
  columnar::RecordBatch batch_;
  size_t coercion_errors_ = 0;
  size_t parse_errors_ = 0;
};

}  // namespace ciao

#endif  // CIAO_TESTS_ORACLES_DOM_BATCH_H_
