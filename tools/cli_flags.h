// cli_flags.h -- the one --key=value flag parser, shared by dglab and
// dgcampaign.
//
// Each CLI declares a constexpr table with one row per flag: its name,
// whether it takes a value, and the subcommands that read it.  Parsing a
// command line against the table keeps the positional arguments and
// collects one error per bad flag:
//   - a flag the table does not list (a typo like --schd= must not
//     silently run the default configuration);
//   - a flag the subcommand does not read;
//   - a valued flag written without '=' (--phases, or "--out DIR", whose
//     space form would misread DIR as a positional) or with nothing after
//     it (--faults=, which a reader would take for an absent flag), or a
//     switch given a value (--ablate=0);
//   - a flag given twice (--n=16 --n=32).
// Both CLIs exit 2 on any error.  The typed accessors parse strictly and
// exit 2 naming the flag: integers are digits only and range-checked,
// numbers go through spec::parse_num.
#pragma once

#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/specparse.h"

namespace dg::cli {

/// One row of a CLI's flag table.  `commands` names the subcommands that
/// read the flag, separated by spaces.
struct FlagSpec {
  const char* name;
  bool takes_value;
  const char* commands;
};

/// True when `command` is one of the words of `flag.commands`.
inline bool reads(const FlagSpec& flag, std::string_view command) {
  std::string_view rest = flag.commands;
  while (!rest.empty()) {
    const auto space = rest.find(' ');
    if (rest.substr(0, space) == command) return true;
    if (space == std::string_view::npos) break;
    rest.remove_prefix(space + 1);
  }
  return false;
}

/// Writes " --a= --b ..." for the flags in `table` that `command` reads
/// ('=' marks a flag that takes a value).
inline void print_flags(std::ostream& os, std::span<const FlagSpec> table,
                        std::string_view command) {
  for (const FlagSpec& f : table) {
    if (reads(f, command)) os << " --" << f.name << (f.takes_value ? "=" : "");
  }
}

/// Strict non-negative integer: digits only, no sign, no overflow
/// (strtoull alone would wrap "-1", read "abc" as 0, accept trailing junk
/// and saturate on overflow).
inline bool parse_uint(const std::string& s, std::uint64_t& out) {
  if (s.empty() || s.find_first_not_of("0123456789") != std::string::npos) {
    return false;
  }
  errno = 0;
  out = std::strtoull(s.c_str(), nullptr, 10);
  return errno != ERANGE;
}

class Flags {
 public:
  /// Parses argv[first..argc) for `command` against `table`; `program`
  /// prefixes every message.
  Flags(std::string program, std::span<const FlagSpec> table,
        std::string command, int argc, char** argv, int first)
      : program_(std::move(program)),
        table_(table),
        command_(std::move(command)) {
    for (int i = first; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg.rfind("--", 0) != 0) {
        positional_.push_back(arg);
        continue;
      }
      const auto eq = arg.find('=');
      const std::string key = arg.substr(2, eq - 2);
      const FlagSpec* flag = find(key);
      if (flag == nullptr) {
        errors_.push_back("unknown flag '" + arg + "'");
      } else if (!reads(*flag, command_)) {
        errors_.push_back("--" + key + " does not apply to the '" +
                          command_ + "' subcommand");
      } else if (flag->takes_value &&
                 (eq == std::string::npos || eq + 1 == arg.size())) {
        errors_.push_back("--" + key + " needs a non-empty value (--" + key +
                          "=...)");
      } else if (!flag->takes_value && eq != std::string::npos) {
        errors_.push_back("--" + key + " is a switch and takes no value; "
                          "got '" + arg + "'");
      } else if (!values_.emplace(key, eq == std::string::npos
                                           ? ""
                                           : arg.substr(eq + 1))
                      .second) {
        errors_.push_back("--" + key + " is given twice");
      }
    }
  }

  const std::vector<std::string>& positional() const noexcept {
    return positional_;
  }

  /// Prints every parse error plus the flags `command` reads, and exits 2;
  /// returns only when there are none.
  void exit_on_errors() const {
    if (errors_.empty()) return;
    for (const std::string& e : errors_) {
      std::cerr << program_ << ": " << e << "\n";
    }
    std::cerr << "flags of '" << command_ << "':";
    print_flags(std::cerr, table_, command_);
    std::cerr << "\n";
    std::exit(2);
  }

  /// Prints "<program>: <message>" and exits 2.
  [[noreturn]] void fail(const std::string& message) const {
    std::cerr << program_ << ": " << message << "\n";
    std::exit(2);
  }

  bool has(const std::string& key) const { return values_.contains(key); }

  std::string str(const std::string& key, const std::string& dflt) const {
    const auto it = values_.find(key);
    return it == values_.end() ? dflt : it->second;
  }

  /// --key as an integer in [lo, hi], or `dflt` when the flag is absent.
  std::uint64_t integer(
      const std::string& key, std::uint64_t dflt, std::uint64_t lo = 0,
      std::uint64_t hi = std::numeric_limits<std::int64_t>::max()) const {
    const auto it = values_.find(key);
    if (it == values_.end()) return dflt;
    std::uint64_t v = 0;
    if (!parse_uint(it->second, v) || v < lo || v > hi) {
      fail("--" + key + " needs an integer in [" + std::to_string(lo) + ", " +
           std::to_string(hi) + "]; got '" + it->second + "'");
    }
    return v;
  }

  /// --key as a finite number, or `dflt` when the flag is absent.
  double number(const std::string& key, double dflt) const {
    const auto it = values_.find(key);
    if (it == values_.end()) return dflt;
    double x = 0.0;
    if (!spec::parse_num(it->second, x)) {
      fail("--" + key + " needs a number; got '" + it->second + "'");
    }
    return x;
  }

 private:
  const FlagSpec* find(const std::string& key) const {
    for (const FlagSpec& f : table_) {
      if (key == f.name) return &f;
    }
    return nullptr;
  }

  std::string program_;
  std::span<const FlagSpec> table_;
  std::string command_;
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
  std::vector<std::string> errors_;
};

}  // namespace dg::cli
