// The one JSON string escaper shared by every JSON writer in the repo
// (postmortem bundles, SLO summaries, bench run records, config echoes).
// The writers compose objects as strings; this is the only part of JSON
// they cannot get right by hand.
#pragma once

#include <string>
#include <string_view>

namespace qec {

/// `text` escaped for use inside a JSON string literal (no quotes added):
/// '"' and '\\' are backslash-escaped, '\n' and '\t' use their short
/// forms, and every other control byte below 0x20 becomes \u00XX.
std::string json_escape(std::string_view text);

/// `text` as a complete JSON string literal: json_escape() in quotes.
std::string json_string(std::string_view text);

}  // namespace qec
