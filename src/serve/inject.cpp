#include "serve/inject.h"

#include <csignal>
#include <cstdlib>

namespace minergy::serve {

namespace {

// One parsed switch: the raw spec (for worker propagation), the point name,
// and how many visits remain before it fires.
struct Switch {
  std::string spec;
  std::string point;
  int remaining = 0;

  void configure(const std::string& s) {
    spec = s;
    point.clear();
    remaining = 0;
    if (s.empty()) return;
    const std::size_t at = s.rfind('@');
    if (at == std::string::npos) {
      point = s;
      remaining = 1;
    } else {
      point = s.substr(0, at);
      remaining = std::atoi(s.c_str() + at + 1);
      if (remaining <= 0) remaining = 1;
    }
  }

  // True when the named visit is the one this switch fires on.
  bool fires(const char* p) {
    if (point.empty() || point != p) return false;
    return --remaining == 0;
  }
};

Switch g_kill;

}  // namespace

void configure_kill_switch(const std::string& spec) { g_kill.configure(spec); }

const std::string& kill_switch_spec() { return g_kill.spec; }

void kill_point(const char* point) {
  if (g_kill.fires(point)) std::raise(SIGKILL);
}

}  // namespace minergy::serve
