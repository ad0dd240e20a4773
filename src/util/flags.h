// Minimal --key=value command-line parsing for examples and benches.
//
// Deliberately tiny: flags are declared at the call site with a default and
// a help string; `Flags::parse` handles type errors, and `Flags::finish`
// (after the last lookup) handles --help and unknown flags.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace gs::util {

class Flags {
 public:
  // Parses argv; --help is answered by finish() once every flag is
  // registered. Returns false on malformed arguments.
  bool parse(int argc, const char* const* argv);

  [[nodiscard]] bool help_requested() const { return help_; }
  [[nodiscard]] const std::string& program() const { return program_; }

  std::int64_t get_int(std::string_view name, std::int64_t def,
                       std::string_view help);
  double get_double(std::string_view name, double def, std::string_view help);
  bool get_bool(std::string_view name, bool def, std::string_view help);
  std::string get_string(std::string_view name, std::string_view def,
                         std::string_view help);

  // Flags present on the command line but never looked up — typo detection.
  [[nodiscard]] std::vector<std::string> unknown_flags() const;

  // Call after the last lookup. Returns the code main should exit with now:
  // 0 once usage is printed for --help, 2 once the first unknown flag is
  // named on stderr (a misspelled gate flag must fail the run, not leave
  // its gate at the default); nullopt when the program should run.
  [[nodiscard]] std::optional<int> finish() const;

  void print_usage() const;

 private:
  struct HelpEntry {
    std::string help;
    std::string def;
  };

  std::string program_ = "prog";
  bool help_ = false;
  std::map<std::string, std::string, std::less<>> values_;
  std::map<std::string, bool, std::less<>> consumed_;
  std::map<std::string, HelpEntry, std::less<>> registered_;
};

}  // namespace gs::util
