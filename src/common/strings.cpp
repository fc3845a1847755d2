#include "common/strings.hpp"

#include <array>
#include <cctype>
#include <charconv>
#include <cmath>
#include <sstream>

#include "common/error.hpp"

namespace pga::common {

std::vector<std::string> split(std::string_view text, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (true) {
    const std::size_t pos = text.find(sep, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(text.substr(start));
      return out;
    }
    out.emplace_back(text.substr(start, pos - start));
    start = pos + 1;
  }
}

std::vector<std::string> split_ws(std::string_view text) {
  std::vector<std::string> out;
  std::size_t i = 0;
  while (i < text.size()) {
    while (i < text.size() && std::isspace(static_cast<unsigned char>(text[i]))) ++i;
    std::size_t j = i;
    while (j < text.size() && !std::isspace(static_cast<unsigned char>(text[j]))) ++j;
    if (j > i) out.emplace_back(text.substr(i, j - i));
    i = j;
  }
  return out;
}

std::string_view trim(std::string_view text) {
  std::size_t b = 0;
  std::size_t e = text.size();
  while (b < e && std::isspace(static_cast<unsigned char>(text[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(text[e - 1]))) --e;
  return text.substr(b, e - b);
}

std::string join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i != 0) out += sep;
    out += parts[i];
  }
  return out;
}

std::string cat(std::initializer_list<std::string_view> parts) {
  std::size_t size = 0;
  for (const std::string_view part : parts) size += part.size();
  std::string out;
  out.reserve(size);
  for (const std::string_view part : parts) out.append(part);
  return out;
}

bool glob_match(std::string_view pattern, std::string_view text) {
  // Iterative two-pointer matcher with backtracking to the last '*'.
  std::size_t p = 0;
  std::size_t t = 0;
  std::size_t star = std::string_view::npos;
  std::size_t star_t = 0;
  while (t < text.size()) {
    if (p < pattern.size() && (pattern[p] == '?' || pattern[p] == text[t])) {
      ++p;
      ++t;
    } else if (p < pattern.size() && pattern[p] == '*') {
      star = p++;
      star_t = t;
    } else if (star != std::string_view::npos) {
      p = star + 1;
      t = ++star_t;
    } else {
      return false;
    }
  }
  while (p < pattern.size() && pattern[p] == '*') ++p;
  return p == pattern.size();
}

bool starts_with(std::string_view text, std::string_view prefix) {
  return text.size() >= prefix.size() && text.substr(0, prefix.size()) == prefix;
}

bool ends_with(std::string_view text, std::string_view suffix) {
  return text.size() >= suffix.size() &&
         text.substr(text.size() - suffix.size()) == suffix;
}

std::string to_lower(std::string_view text) {
  std::string out(text);
  for (char& c : out) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

std::string to_upper(std::string_view text) {
  std::string out(text);
  for (char& c : out) c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
  return out;
}

std::string format_duration(double seconds) {
  if (seconds < 0) return cat({"-", format_duration(-seconds)});
  auto total = static_cast<long long>(std::llround(seconds));
  const long long days = total / 86'400;
  total %= 86'400;
  const long long hours = total / 3'600;
  total %= 3'600;
  const long long mins = total / 60;
  const long long secs = total % 60;
  std::ostringstream os;
  bool emitted = false;
  if (days > 0) {
    os << days << "d ";
    emitted = true;
  }
  if (emitted || hours > 0) {
    os << (emitted && hours < 10 ? "0" : "") << hours << "h ";
    emitted = true;
  }
  if (emitted || mins > 0) {
    os << (emitted && mins < 10 ? "0" : "") << mins << "m ";
    emitted = true;
  }
  os << (emitted && secs < 10 ? "0" : "") << secs << "s";
  return os.str();
}

std::string format_fixed(double value, int digits) {
  // std::to_chars(fixed) is specified to match printf("%.*f"), which is
  // also what a fixed-mode ostringstream produces under the default
  // locale — same bytes, no stream construction per call. This runs twice
  // per job in the jobstate log, so it is hot at million-job scale.
  std::array<char, 64> buf;
  const auto result = std::to_chars(buf.data(), buf.data() + buf.size(), value,
                                    std::chars_format::fixed, digits);
  if (result.ec == std::errc{}) {
    return std::string(buf.data(), result.ptr);
  }
  // Magnitude too large for the buffer: fall back to the stream path.
  std::ostringstream os;
  os.setf(std::ios::fixed);
  os.precision(digits);
  os << value;
  return os.str();
}

long parse_long(std::string_view text) {
  const std::string_view t = trim(text);
  long value = 0;
  const auto [ptr, ec] = std::from_chars(t.data(), t.data() + t.size(), value);
  if (ec != std::errc{} || ptr != t.data() + t.size()) {
    throw ParseError("expected integer, got '" + std::string(text) + "'");
  }
  return value;
}

double parse_double(std::string_view text) {
  const std::string t{trim(text)};
  if (t.empty()) throw ParseError("expected number, got empty string");
  std::size_t consumed = 0;
  double value = 0;
  try {
    value = std::stod(t, &consumed);
  } catch (const std::exception&) {
    throw ParseError("expected number, got '" + t + "'");
  }
  if (consumed != t.size()) throw ParseError("trailing junk in number '" + t + "'");
  return value;
}

}  // namespace pga::common
