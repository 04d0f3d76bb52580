#pragma once

#include <string>
#include <string_view>
#include <vector>

/// \file text.hpp
/// Small string helpers shared by the parser and the report printers, and
/// the file reader of the Galileo front ends.

namespace imcdft {

/// Removes leading and trailing ASCII whitespace.
std::string_view trim(std::string_view s);

/// Splits \p s on \p sep, keeping empty fields.
std::vector<std::string> split(std::string_view s, char sep);

/// True when \p s starts with \p prefix.
bool startsWith(std::string_view s, std::string_view prefix);

/// Formats \p value with \p digits significant digits (for report tables).
std::string formatSig(double value, int digits);

/// \p prefix followed by the decimal digits of \p index ("M" and 3 give
/// "M3"), the naming scheme of generated tree elements.  It appends where
/// `"M" + std::to_string(3)` would insert, on which g++ 12.2 at -O2 reports
/// a false -Wrestrict (GCC bug 105651).
std::string indexedName(std::string_view prefix, std::size_t index);

/// The whole content of the file at \p path.  Throws Error
/// "cannot open '<path>'" when the file cannot be opened.
std::string readFile(const std::string& path);

}  // namespace imcdft
