#include "src/optimizer/build_signature.h"

#include <charconv>

#include "src/common/string_util.h"
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
  for (const ColumnRef& c : scan->output_schema().cols()) {
    AppendInt(c.col, &sig);
    sig += ',';
  }
  sig += "|pred=";
  AppendPredicateShape(scan->predicate(), &sig);
  sig += "|consts=";
  AppendPredicateConstants(scan->predicate(), &sig);
  sig += "|keys=";
  for (int k : build_key_positions) {
    AppendInt(k, &sig);
    sig += ',';
  }
  if (creates_filter) {
    // The filter object is part of the cached result, so its configured
    // geometry keys the entry; a join that creates none shares with any
    // same-table build regardless of filter knobs.
    sig += "|filter=";
    sig += FilterKindName(filter_config.kind);
    sig += ':';
    char bits[32];
    const auto end = std::to_chars(bits, bits + sizeof(bits),
                                   filter_config.bloom_bits_per_key);
    sig.append(bits, end.ptr);
  } else {
    sig += "|filter=none";
  }
  return sig;
}

}  // namespace bqo
