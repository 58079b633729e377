#include "util/cli.h"

#include <cstdlib>
#include <stdexcept>

#include "util/strings.h"

namespace minergy::util {

Cli::Cli(int argc, const char* const* argv) {
  if (argc > 0) program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (starts_with(arg, "--")) {
      std::string body = arg.substr(2);
      auto eq = body.find('=');
      if (eq != std::string::npos) {
        flags_[body.substr(0, eq)] = body.substr(eq + 1);
      } else {
        flags_[body] = "true";
      }
    } else {
      positional_.push_back(std::move(arg));
    }
  }
}

bool Cli::has(const std::string& name) const { return flags_.count(name) > 0; }

std::vector<std::string> Cli::names() const {
  std::vector<std::string> out;
  out.reserve(flags_.size());
  for (const auto& [name, value] : flags_) out.push_back(name);
  return out;
}

std::string Cli::get(const std::string& name,
                     const std::string& fallback) const {
  auto it = flags_.find(name);
  return it == flags_.end() ? fallback : it->second;
}

double Cli::get(const std::string& name, double fallback) const {
  auto it = flags_.find(name);
  if (it == flags_.end()) return fallback;
  return std::strtod(it->second.c_str(), nullptr);
}

int Cli::get(const std::string& name, int fallback) const {
  auto it = flags_.find(name);
  if (it == flags_.end()) return fallback;
  return static_cast<int>(std::strtol(it->second.c_str(), nullptr, 10));
}

bool Cli::get(const std::string& name, bool fallback) const {
  auto it = flags_.find(name);
  if (it == flags_.end()) return fallback;
  const std::string v = to_lower(it->second);
  if (v == "true" || v == "1" || v == "yes" || v == "on") return true;
  if (v == "false" || v == "0" || v == "no" || v == "off") return false;
  throw std::invalid_argument("bad boolean flag --" + name + "=" + it->second);
}

}  // namespace minergy::util
