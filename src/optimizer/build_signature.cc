#include "src/optimizer/build_signature.h"

#include "src/exec/scan.h"
#include "src/plan/predicate_shape.h"

namespace bqo {

std::string BuildSideSignature(const PhysicalOperator& build_child,
                               const std::vector<int>& build_key_positions,
                               const FilterConfig& filter_config,
                               bool creates_filter) {
  const auto* scan = dynamic_cast<const ScanOperator*>(&build_child);
  if (scan == nullptr || scan->has_runtime_filters()) return "";
  if (scan->table() == nullptr) return "";

  std::string sig;
  sig.reserve(128);
  sig += "tbl=";
  sig += scan->table()->name();
  sig += "|cols=";
  for (const BoundColumn& c : scan->output_schema().cols()) {
    sig += c.column;
    sig += ',';
  }
  sig += "|pred=";
  sig += PredicateShape(scan->predicate());
  sig += "|consts=";
  for (const Value& v : CollectPredicateConstants(scan->predicate())) {
    sig += v.ToString();
    sig += ';';
  }
  sig += "|keys=";
  for (int k : build_key_positions) {
    sig += std::to_string(k);
    sig += ',';
  }
  if (creates_filter) {
    // The filter object is part of the cached result, so its configured
    // geometry keys the entry; a join that creates none shares with any
    // same-table build regardless of filter knobs.
    sig += "|filter=";
    sig += FilterKindName(filter_config.kind);
    sig += ':';
    sig += std::to_string(filter_config.bloom_bits_per_key);
  } else {
    sig += "|filter=none";
  }
  return sig;
}

}  // namespace bqo
