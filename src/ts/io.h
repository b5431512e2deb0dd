#ifndef SDTW_TS_IO_H_
#define SDTW_TS_IO_H_

/// \file io.h
/// \brief Reading and writing time series in CSV and UCR classification
/// format.
///
/// The UCR archive format (used by the Gun, Trace and 50Words sets the paper
/// evaluates on) is one series per line: the first field is the integer class
/// label, the remaining fields the samples, separated by commas or
/// whitespace.

#include <iosfwd>
#include <optional>
#include <string>

#include "ts/time_series.h"

namespace sdtw {
namespace ts {

/// Parses one UCR-format line ("label v1 v2 ..."). Returns std::nullopt on
/// blank lines, lines with no samples, unparsable tokens, and labels that
/// are not a finite integer within int range (UCR's "1.0000000e+00" is
/// label 1; "1.5", "nan" and "3e9" are malformed).
std::optional<TimeSeries> ParseUcrLine(const std::string& line);

/// Reads a whole UCR-format stream, skipping every line ParseUcrLine
/// rejects.
Dataset ReadUcr(std::istream& in, const std::string& name = "");

/// Reads a UCR-format file; returns std::nullopt when the file cannot be
/// opened.
std::optional<Dataset> ReadUcrFile(const std::string& path);

/// Writes a data set in UCR format (label, then samples, comma-separated).
void WriteUcr(std::ostream& out, const Dataset& dataset);

/// Writes a single series as one CSV row of samples (no label).
void WriteCsvRow(std::ostream& out, const TimeSeries& series);

}  // namespace ts
}  // namespace sdtw

#endif  // SDTW_TS_IO_H_
