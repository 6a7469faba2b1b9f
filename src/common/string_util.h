// Small string helpers shared by plan printing, workload generation and
// the environment knobs.
#pragma once

#include <cstdarg>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace bqo {

/// \brief Transparent string hash: a StringMap is probed with a
/// std::string_view (or a C string) without building a std::string key.
struct StringHash {
  using is_transparent = void;
  size_t operator()(std::string_view s) const {
    return std::hash<std::string_view>{}(s);
  }
};

/// \brief A std::string-keyed hash map with heterogeneous lookup.
template <typename V>
using StringMap =
    std::unordered_map<std::string, V, StringHash, std::equal_to<>>;

/// \brief True if `haystack` contains `needle` (SQL `LIKE '%needle%'`).
bool Contains(std::string_view haystack, std::string_view needle);

/// \brief Join the elements of `parts` with `sep`.
std::string JoinStrings(const std::vector<std::string>& parts,
                        std::string_view sep);

/// \brief Append `v` in base 10 (what std::to_string(v) returns) to `*out`.
void AppendInt(int64_t v, std::string* out);

/// \brief printf-style formatting into a std::string.
std::string StringFormat(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

/// \brief Format a number with thousands separators, e.g. 1234567 -> 1,234,567.
std::string FormatCount(int64_t n);

/// \brief `text` as a base-10 integer when all of it is one: an optional
/// '-', then digits, in range. Anything else ("", "12ms", " 5", "off")
/// is nullopt — never a silent 0.
std::optional<int64_t> ParseInt64(std::string_view text);

/// \brief `text` as a finite decimal number when all of it is one (digits
/// with an optional '-', fraction and exponent). Anything else ("",
/// "0.1x", " 2", "inf", "nan", "1e999") is nullopt — never a silent
/// prefix parse or an infinity.
std::optional<double> ParseDouble(std::string_view text);

/// \brief ParseInt64 of environment variable `name`; nullopt when it is
/// unset or does not parse, so the caller keeps its default.
std::optional<int64_t> EnvInt64(const char* name);

}  // namespace bqo
