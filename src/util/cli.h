// Minimal command-line flag parser for the examples, tools and benches.
//
// Accepted forms: --name=value and --flag (boolean true). Values always use
// '=' so that "--flag positional" stays unambiguous. Positional arguments
// are collected in order.
#pragma once

#include <map>
#include <string>
#include <vector>

namespace minergy::util {

class Cli {
 public:
  Cli(int argc, const char* const* argv);

  bool has(const std::string& name) const;
  std::string get(const std::string& name, const std::string& fallback) const;
  double get(const std::string& name, double fallback) const;
  int get(const std::string& name, int fallback) const;
  bool get(const std::string& name, bool fallback) const;

  // The name of every --flag given, sorted.
  std::vector<std::string> names() const;
  const std::vector<std::string>& positional() const { return positional_; }
  const std::string& program() const { return program_; }

 private:
  std::string program_;
  std::map<std::string, std::string> flags_;
  std::vector<std::string> positional_;
};

}  // namespace minergy::util
