#include "engine/plan.h"

namespace ciao {

std::string_view PlanKindName(PlanKind kind) {
  switch (kind) {
    case PlanKind::kFullScan:
      return "full_scan";
    case PlanKind::kSkippingScan:
      return "skipping_scan";
  }
  return "unknown";
}

}  // namespace ciao
