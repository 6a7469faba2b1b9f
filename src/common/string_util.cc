#include "src/common/string_util.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace bqo {

bool Contains(std::string_view haystack, std::string_view needle) {
  return haystack.find(needle) != std::string_view::npos;
}

std::string JoinStrings(const std::vector<std::string>& parts,
                        std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += sep;
    out += parts[i];
  }
  return out;
}

void AppendInt(int64_t v, std::string* out) {
  char buf[24];
  const auto result = std::to_chars(buf, buf + sizeof(buf), v);
  out->append(buf, result.ptr);
}

std::string StringFormat(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args_copy;
  va_copy(args_copy, args);
  const int needed = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  std::string out(needed > 0 ? needed : 0, '\0');
  if (needed > 0) {
    std::vsnprintf(out.data(), out.size() + 1, fmt, args_copy);
  }
  va_end(args_copy);
  return out;
}

std::string FormatCount(int64_t n) {
  std::string digits = std::to_string(n < 0 ? -n : n);
  std::string out;
  const int len = static_cast<int>(digits.size());
  for (int i = 0; i < len; ++i) {
    if (i > 0 && (len - i) % 3 == 0) out += ',';
    out += digits[i];
  }
  if (n < 0) out.insert(out.begin(), '-');
  return out;
}

std::optional<int64_t> ParseInt64(std::string_view text) {
  int64_t value = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end) return std::nullopt;
  return value;
}

std::optional<double> ParseDouble(std::string_view text) {
  double value = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end || !std::isfinite(value)) {
    return std::nullopt;
  }
  return value;
}

std::optional<int64_t> EnvInt64(const char* name) {
  const char* value = std::getenv(name);
  if (value == nullptr) return std::nullopt;
  return ParseInt64(value);
}

}  // namespace bqo
