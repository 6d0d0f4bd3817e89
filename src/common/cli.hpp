// Minimal command-line flag parsing for examples and bench binaries.
//
// Supports "--name=value" and "--name value" forms plus boolean "--name".
// Unrecognised arguments are kept for the caller (so google-benchmark flags
// pass through untouched).
#pragma once

#include <cstdint>
#include <exception>
#include <initializer_list>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace qec {

class CliArgs {
 public:
  /// Parses argv (argv[0] skipped). Never throws; malformed numeric values
  /// surface when queried: get_int/get_double return std::nullopt, and the
  /// *_or getters throw.
  CliArgs(int argc, const char* const* argv);

  std::optional<std::string> get(std::string_view name) const;
  std::optional<std::int64_t> get_int(std::string_view name) const;
  std::optional<double> get_double(std::string_view name) const;
  bool get_flag(std::string_view name) const;

  /// `fallback` when the flag is absent, its value when well-formed.
  /// Throws std::invalid_argument naming the flag and the value when it
  /// is present but not a number, so "--lanes=abc" fails instead of
  /// silently running the default.
  std::int64_t get_int_or(std::string_view name, std::int64_t fallback) const;
  double get_double_or(std::string_view name, double fallback) const;
  std::string get_or(std::string_view name, std::string_view fallback) const;

  /// Arguments that did not look like --flags, in order.
  const std::vector<std::string>& positional() const { return positional_; }

 private:
  std::vector<std::pair<std::string, std::string>> flags_;
  std::vector<std::string> positional_;
};

/// Prints the uniform usage banner every bench/example binary shares:
///
///   usage: <program> [options]
///     <summary>
///
///   options:
///   <options>
///
/// `options` lists one "  --flag=default   description" line per flag
/// (pass "" for binaries without flags beyond --help). Keeping the format
/// in one place is what keeps `--help` output consistent across all of
/// them.
void print_usage(const char* program, const char* summary,
                 const char* options);

/// True when the user asked for help (--help, or -h / help as the first
/// positional argument). Binaries call print_usage and exit 0 when set.
bool wants_help(const CliArgs& args);

/// wants_help + print_usage in one call — the line every main() starts
/// with: `if (qec::handle_help(args, "name", kSummary, kOptions)) return 0;`
bool handle_help(const CliArgs& args, const char* program,
                 const char* summary, const char* options);

/// Rejects retired flags. CliArgs keeps unknown flags without complaint,
/// so a flag a binary stopped reading would be ignored and an old command
/// line would run without doing what it asked. Prints
/// "<program>: --<flag> was removed: <why>" to stderr for every retired
/// flag present and returns true when there was one; main() then exits 1.
bool reject_removed_flags(const CliArgs& args, const char* program,
                          std::initializer_list<std::string_view> removed,
                          const char* why);

/// Reads a flag that may appear bare or with a value — the
/// "--dump-obs-on-exit[=DIR]" shape. Returns std::nullopt when the flag is
/// absent, its value when given as --name=value, and `bare_value` when the
/// flag appears with no value (the built-in default).
std::optional<std::string> optional_value_flag(const CliArgs& args,
                                               std::string_view name,
                                               std::string_view bare_value);

/// Reads trial-count override from --trials or env QECOOL_TRIALS, falling
/// back to `fallback`. Shared by every bench binary. A malformed --trials
/// throws like get_int_or; a malformed env value is ignored.
std::int64_t trials_override(const CliArgs& args, std::int64_t fallback);

/// Reads worker-thread override from --threads or env QECOOL_THREADS,
/// falling back to `fallback`. 0 means "all hardware threads"; results are
/// thread-count independent (the sweep driver fixes the shard schedule).
/// A malformed --threads throws like get_int_or.
int threads_override(const CliArgs& args, int fallback = 1);

/// The catch clause every main() ends with: prints "<program>: <what>" to
/// stderr and returns exit code 1 — a named error, never std::terminate.
int report_error(const char* program, const std::exception& error);

}  // namespace qec
