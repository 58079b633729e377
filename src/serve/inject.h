// Deterministic SIGKILL injection points for the chaos harness.
//
// The serve chaos tests (tests/test_serve_chaos.cpp, `ctest -L serve`) must
// prove the queue's exactly-once guarantee holds when the daemon or a
// worker dies at ANY point of the claim/execute/finalize protocol. Rather
// than racing wall-clock kills against a fast protocol, the daemon and
// worker mark each protocol step with kill_point("name"); a process started
// with --inject-kill=name@K kills itself (SIGKILL, no cleanup, exactly like
// the OOM killer) at the K-th time it reaches that point. Everything is
// counted per process, so a given (point, K) pair reproduces byte-for-byte.
//
// In a normal run the switch is not configured and kill_point() is one
// branch on an empty string.
#pragma once

#include <string>

namespace minergy::serve {

// Configures the kill switch from a "--inject-kill=point@K" style spec
// ("point" alone means K=1). An empty spec disables injection.
void configure_kill_switch(const std::string& spec);

// The currently configured spec ("" when disabled) — used to propagate the
// switch into spawned workers.
const std::string& kill_switch_spec();

// Marks one protocol step. If the configured kill point matches and this is
// the K-th visit, the process raises SIGKILL and never returns.
void kill_point(const char* point);

}  // namespace minergy::serve
