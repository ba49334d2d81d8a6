#include "ts/ucr_io.h"

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <limits>
#include <stdexcept>

#include "util/string_util.h"

namespace mvg {

namespace {

[[noreturn]] void ThrowBadToken(const std::string& token, size_t line_no,
                                const char* what, const std::string& where) {
  throw std::runtime_error(where + ": bad " + what + " '" + token +
                           "' on line " + std::to_string(line_no));
}

/// Strict numeric token parse: the whole token must be consumed, so a
/// partially-numeric token like "1.5abc" (which strtod happily accepts)
/// fails loudly instead of silently truncating the value.
double ParseStrict(const std::string& token, size_t line_no, const char* what,
                   const std::string& where) {
  char* end = nullptr;
  const double v = std::strtod(token.c_str(), &end);
  if (end == token.c_str() || end != token.c_str() + token.size()) {
    ThrowBadToken(token, line_no, what, where);
  }
  return v;
}

/// A class label is an integer in int range. Old UCR files write labels
/// in float notation ("1.0000000e+00"), so an integral value is accepted
/// in any spelling; NaN, infinities, fractions and out-of-range values
/// are rejected rather than cast (a cast of those is undefined).
int ParseLabel(const std::string& token, size_t line_no,
               const std::string& where) {
  const double v = ParseStrict(token, line_no, "label", where);
  if (!(v >= std::numeric_limits<int>::min() &&
        v <= std::numeric_limits<int>::max()) ||
      v != std::trunc(v)) {
    ThrowBadToken(token, line_no, "label", where);
  }
  return static_cast<int>(v);
}

}  // namespace

bool ParseUcrLine(const std::string& line, size_t line_no,
                  const std::string& where, int* label, Series* values) {
  const std::string trimmed = Trim(line);
  if (trimmed.empty()) return false;
  const std::vector<std::string> tokens = Split(trimmed, ", \t");
  if (tokens.size() < 2) {
    throw std::runtime_error(where + ": line " + std::to_string(line_no) +
                             " has fewer than 2 fields");
  }
  *label = ParseLabel(tokens[0], line_no, where);
  values->clear();
  values->reserve(tokens.size() - 1);
  for (size_t i = 1; i < tokens.size(); ++i) {
    values->push_back(ParseStrict(tokens[i], line_no, "value", where));
  }
  return true;
}

Dataset ReadUcrFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("ReadUcrFile: cannot open " + path);
  Dataset ds(path);
  std::string line;
  Series s;
  int label = 0;
  size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (ParseUcrLine(line, line_no, "ReadUcrFile", &label, &s)) {
      ds.Add(std::move(s), label);
      s.clear();
    }
  }
  return ds;
}

void WriteUcrFile(const Dataset& ds, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("WriteUcrFile: cannot open " + path);
  // max_digits10 significant digits make the text round trip every finite
  // double bit-for-bit (the default 6 silently loses precision).
  out << std::setprecision(std::numeric_limits<double>::max_digits10);
  for (size_t i = 0; i < ds.size(); ++i) {
    out << ds.label(i);
    for (double v : ds.series(i)) out << ',' << v;
    out << '\n';
  }
  out.flush();
  if (!out) throw std::runtime_error("WriteUcrFile: write failed: " + path);
}

}  // namespace mvg
