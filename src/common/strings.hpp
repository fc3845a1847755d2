// Small string helpers used across the library.
#pragma once

#include <initializer_list>
#include <string>
#include <string_view>
#include <vector>

namespace pga::common {

/// Splits `text` on `sep`, keeping empty fields ("a,,b" -> {"a","","b"}).
std::vector<std::string> split(std::string_view text, char sep);

/// Splits on any run of whitespace, dropping empty fields.
std::vector<std::string> split_ws(std::string_view text);

/// Removes leading and trailing ASCII whitespace.
std::string_view trim(std::string_view text);

/// Joins `parts` with `sep` between consecutive elements.
std::string join(const std::vector<std::string>& parts, std::string_view sep);

/// Concatenates `parts` by appending them to one string. Use it instead
/// of a `"literal" + std::string&&` chain: that operator inserts at the
/// front of the temporary, which GCC 12 at -O3 misreads as an overlapping
/// copy (-Wrestrict).
std::string cat(std::initializer_list<std::string_view> parts);

/// True if `text` begins with `prefix`.
bool starts_with(std::string_view text, std::string_view prefix);

/// True if `text` ends with `suffix`.
bool ends_with(std::string_view text, std::string_view suffix);

/// Shell-style glob match: '*' matches any run of characters (including
/// empty), '?' matches exactly one character, everything else is literal.
/// No character classes or escapes; matching is case-sensitive and
/// anchored at both ends.
bool glob_match(std::string_view pattern, std::string_view text);

/// Lower-cases ASCII letters.
std::string to_lower(std::string_view text);

/// Upper-cases ASCII letters.
std::string to_upper(std::string_view text);

/// Formats `seconds` as "1d 03h 25m 12s" (or shorter when leading units are
/// zero), matching the style pegasus-statistics uses for wall times.
std::string format_duration(double seconds);

/// Formats with fixed `digits` decimal places.
std::string format_fixed(double value, int digits);

/// Parses a non-negative integer; throws ParseError on junk.
long parse_long(std::string_view text);

/// Parses a floating-point number; throws ParseError on junk.
double parse_double(std::string_view text);

}  // namespace pga::common
