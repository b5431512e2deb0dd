#include "ts/io.h"

#include <cmath>
#include <fstream>
#include <istream>
#include <limits>
#include <ostream>
#include <sstream>

namespace sdtw {
namespace ts {

namespace {

// Splits a line on commas and/or whitespace into double tokens.
// Returns false on any unparsable token.
bool Tokenize(const std::string& line, std::vector<double>* out) {
  out->clear();
  std::string normalized = line;
  for (char& c : normalized) {
    if (c == ',' || c == '\t' || c == '\r') c = ' ';
  }
  std::istringstream iss(normalized);
  std::string tok;
  while (iss >> tok) {
    try {
      std::size_t pos = 0;
      const double v = std::stod(tok, &pos);
      if (pos != tok.size()) return false;
      out->push_back(v);
    } catch (...) {
      return false;
    }
  }
  return true;
}

}  // namespace

std::optional<TimeSeries> ParseUcrLine(const std::string& line) {
  std::vector<double> fields;
  if (!Tokenize(line, &fields)) return std::nullopt;
  if (fields.size() < 2) return std::nullopt;
  // The label names a class, so only a finite integer within int range is
  // one. Rounding or wrapping anything else (nan, inf, 1.5, 3e9) would
  // file the series under some real class, or under -1 (unlabelled).
  const double label = fields[0];
  if (!std::isfinite(label) || std::trunc(label) != label ||
      label < std::numeric_limits<int>::min() ||
      label > std::numeric_limits<int>::max()) {
    return std::nullopt;
  }
  std::vector<double> values(fields.begin() + 1, fields.end());
  return TimeSeries(std::move(values), static_cast<int>(label));
}

Dataset ReadUcr(std::istream& in, const std::string& name) {
  Dataset ds(name);
  std::string line;
  std::size_t index = 0;
  while (std::getline(in, line)) {
    std::optional<TimeSeries> s = ParseUcrLine(line);
    if (!s.has_value()) continue;
    s->set_name(name + "/" + std::to_string(index++));
    ds.Add(std::move(*s));
  }
  return ds;
}

std::optional<Dataset> ReadUcrFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  // Use the file stem as the data set name.
  std::string name = path;
  const std::size_t slash = name.find_last_of('/');
  if (slash != std::string::npos) name = name.substr(slash + 1);
  return ReadUcr(in, name);
}

void WriteUcr(std::ostream& out, const Dataset& dataset) {
  for (const TimeSeries& s : dataset) {
    out << s.label();
    for (double v : s) out << ',' << v;
    out << '\n';
  }
}

void WriteCsvRow(std::ostream& out, const TimeSeries& series) {
  for (std::size_t i = 0; i < series.size(); ++i) {
    if (i > 0) out << ',';
    out << series[i];
  }
  out << '\n';
}

}  // namespace ts
}  // namespace sdtw
