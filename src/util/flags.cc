#include "util/flags.h"

#include <charconv>
#include <cstdio>

namespace gs::util {

bool Flags::parse(int argc, const char* const* argv) {
  if (argc > 0) program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      help_ = true;
      continue;
    }
    if (!arg.starts_with("--")) {
      std::fprintf(stderr, "unexpected positional argument: %.*s\n",
                   static_cast<int>(arg.size()), arg.data());
      return false;
    }
    arg.remove_prefix(2);
    const auto eq = arg.find('=');
    std::string key;
    std::string value;
    if (eq == std::string_view::npos) {
      key = std::string(arg);
      value = "true";  // bare --flag means boolean true
    } else {
      key = std::string(arg.substr(0, eq));
      value = std::string(arg.substr(eq + 1));
    }
    if (key.empty()) {
      std::fprintf(stderr, "malformed flag: --%s\n", key.c_str());
      return false;
    }
    values_[key] = value;
    consumed_[key] = false;
  }
  return true;
}

std::int64_t Flags::get_int(std::string_view name, std::int64_t def,
                            std::string_view help) {
  registered_[std::string(name)] = {std::string(help), std::to_string(def)};
  auto it = values_.find(name);
  if (it == values_.end()) return def;
  consumed_[it->first] = true;
  std::int64_t out = def;
  const auto& s = it->second;
  auto [p, ec] = std::from_chars(s.data(), s.data() + s.size(), out);
  if (ec != std::errc{} || p != s.data() + s.size()) {
    std::fprintf(stderr, "flag --%s expects an integer, got '%s'\n",
                 it->first.c_str(), s.c_str());
    return def;
  }
  return out;
}

double Flags::get_double(std::string_view name, double def,
                         std::string_view help) {
  registered_[std::string(name)] = {std::string(help), std::to_string(def)};
  auto it = values_.find(name);
  if (it == values_.end()) return def;
  consumed_[it->first] = true;
  char* end = nullptr;
  const double out = std::strtod(it->second.c_str(), &end);
  if (end == it->second.c_str() || *end != '\0') {
    std::fprintf(stderr, "flag --%s expects a number, got '%s'\n",
                 it->first.c_str(), it->second.c_str());
    return def;
  }
  return out;
}

bool Flags::get_bool(std::string_view name, bool def, std::string_view help) {
  registered_[std::string(name)] = {std::string(help), def ? "true" : "false"};
  auto it = values_.find(name);
  if (it == values_.end()) return def;
  consumed_[it->first] = true;
  const auto& s = it->second;
  if (s == "true" || s == "1" || s == "yes") return true;
  if (s == "false" || s == "0" || s == "no") return false;
  std::fprintf(stderr, "flag --%s expects a boolean, got '%s'\n",
               it->first.c_str(), s.c_str());
  return def;
}

std::string Flags::get_string(std::string_view name, std::string_view def,
                              std::string_view help) {
  registered_[std::string(name)] = {std::string(help), std::string(def)};
  auto it = values_.find(name);
  if (it == values_.end()) return std::string(def);
  consumed_[it->first] = true;
  return it->second;
}

std::vector<std::string> Flags::unknown_flags() const {
  std::vector<std::string> out;
  for (const auto& [key, used] : consumed_)
    if (!used) out.push_back(key);
  return out;
}

std::optional<int> Flags::finish() const {
  if (help_) {
    print_usage();
    return 0;
  }
  const std::vector<std::string> unknown = unknown_flags();
  if (unknown.empty()) return std::nullopt;
  std::fprintf(stderr, "unknown flag --%s (see --help)\n",
               unknown.front().c_str());
  return 2;
}

void Flags::print_usage() const {
  std::fprintf(stderr, "usage: %s [--flag=value ...]\n", program_.c_str());
  for (const auto& [name, entry] : registered_) {
    std::fprintf(stderr, "  --%-24s %s (default: %s)\n", name.c_str(),
                 entry.help.c_str(), entry.def.c_str());
  }
}

}  // namespace gs::util
