#include "serve/lease.h"

#include <dirent.h>
#include <fcntl.h>
#include <signal.h>
#include <sys/stat.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "io/envelope.h"
#include "obs/eventlog.h"
#include "obs/metrics.h"
#include "util/check.h"
#include "util/json.h"

namespace minergy::serve {

namespace {

// Plain-POSIX whole-file read. Lease traffic deliberately bypasses the
// FaultFs-instrumented artifact layer (see header).
bool read_raw(const std::string& path, std::string* out) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return false;
  out->clear();
  char buf[4096];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof buf);
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      return false;
    }
    if (n == 0) break;
    out->append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return true;
}

bool write_fd_all(int fd, const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::write(fd, data.data() + off, data.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

// Kernel start time (clock ticks since boot) of `pid`: field 22 of
// /proc/<pid>/stat, i.e. the 20th space-separated token after the ')'
// closing the comm field (comm may itself contain spaces/parens, hence the
// rfind). Returns -1 when the process does not exist or the file is
// unreadable.
std::int64_t proc_start_ticks(std::int64_t pid) {
  char path[64];
  std::snprintf(path, sizeof path, "/proc/%lld/stat",
                static_cast<long long>(pid));
  std::string stat;
  if (!read_raw(path, &stat)) return -1;
  const std::size_t close_paren = stat.rfind(')');
  if (close_paren == std::string::npos) return -1;
  std::size_t pos = close_paren + 1;
  int field = 0;  // counting from state = field 3 of the stat line
  while (pos < stat.size()) {
    while (pos < stat.size() && stat[pos] == ' ') ++pos;
    const std::size_t start = pos;
    while (pos < stat.size() && stat[pos] != ' ') ++pos;
    ++field;
    if (field == 20) {  // state is 1, ..., starttime (field 22) is 20
      return std::atoll(stat.substr(start, pos - start).c_str());
    }
  }
  return -1;
}

std::string claim_name(std::uint64_t token) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "lease.claim.%020llu",
                static_cast<unsigned long long>(token));
  return buf;
}

obs::Counter& acquired_counter() {
  static obs::Counter& c = obs::counter("serve.lease.acquired");
  return c;
}

void note_acquired(std::uint64_t token, const char* how) {
  acquired_counter().add();
  obs::gauge("serve.lease.token").set(static_cast<double>(token));
  obs::gauge("serve.lease.is_leader").set(1.0);
  obs::Event e;
  e.kind = "lease_acquired";
  e.detail = how;
  e.num.emplace_back("token", static_cast<double>(token));
  obs::event(e);
}

}  // namespace

FencedError::FencedError(std::uint64_t held, std::uint64_t current,
                         const std::string& op)
    : std::runtime_error("fenced: " + op + " under stale lease token " +
                         std::to_string(held) + " (current " +
                         std::to_string(current) + ")"),
      held_(held),
      current_(current) {}

LeaseOwner LeaseOwner::self(const std::string& host_override) {
  LeaseOwner o;
  if (!host_override.empty()) {
    o.host = host_override;
  } else {
    char buf[256] = {0};
    if (::gethostname(buf, sizeof buf - 1) == 0 && buf[0] != '\0') {
      o.host = buf;
    } else {
      o.host = "localhost";
    }
  }
  o.pid = static_cast<std::int64_t>(::getpid());
  o.pid_start_ticks = proc_start_ticks(o.pid);
  if (o.pid_start_ticks < 0) o.pid_start_ticks = 0;
  return o;
}

std::string LeaseRecord::to_json() const {
  util::JsonWriter w(2);
  w.begin_object();
  w.kv("schema", kLeaseSchema);
  w.kv("fencing_token", static_cast<std::int64_t>(fencing_token));
  w.key("owner").begin_object();
  w.kv("host", owner.host);
  w.kv("pid", owner.pid);
  w.kv("pid_start_ticks", owner.pid_start_ticks);
  w.end_object();
  w.kv("acquired_unix", acquired_unix);
  w.kv("renewed_unix", renewed_unix);
  w.kv("ttl_seconds", ttl_seconds);
  w.kv("released", released);
  w.end_object();
  return w.str() + "\n";
}

LeaseRecord LeaseRecord::from_json(const std::string& text,
                                   const std::string& source) {
  const util::JsonValue root = util::JsonValue::parse(text, source);
  if (!root.is_object() || root.get_string("schema", "") != kLeaseSchema) {
    throw util::ParseError("not a " + std::string(kLeaseSchema) + " document",
                           source, 0);
  }
  LeaseRecord r;
  r.fencing_token =
      static_cast<std::uint64_t>(root.get_number("fencing_token", 0.0));
  if (r.fencing_token == 0) {
    throw util::ParseError("lease has no fencing_token", source, 0);
  }
  if (!root.has("owner")) {
    throw util::ParseError("lease has no owner", source, 0);
  }
  const util::JsonValue& o = root.at("owner");
  r.owner.host = o.get_string("host", "");
  r.owner.pid = static_cast<std::int64_t>(o.get_number("pid", 0.0));
  r.owner.pid_start_ticks =
      static_cast<std::int64_t>(o.get_number("pid_start_ticks", 0.0));
  r.acquired_unix = root.get_number("acquired_unix", 0.0);
  r.renewed_unix = root.get_number("renewed_unix", 0.0);
  r.ttl_seconds = root.get_number("ttl_seconds", 0.0);
  r.released = root.get_bool("released", false);
  return r;
}

LeaseManager::LeaseManager(const std::string& spool_root,
                           const LeaseOptions& opts, util::Clock* clock)
    : root_(spool_root),
      lease_path_(spool_root + "/leader.lease"),
      opts_(opts),
      clock_(clock != nullptr ? clock : &util::Clock::system()),
      identity_(LeaseOwner::self(opts.host_override)) {}

std::optional<LeaseRecord> LeaseManager::read() const {
  std::string bytes;
  if (!read_raw(lease_path_, &bytes)) return std::nullopt;
  try {
    const std::string payload =
        io::unwrap_envelope(bytes, kLeaseSchema, lease_path_);
    return LeaseRecord::from_json(payload, lease_path_);
  } catch (const util::ParseError&) {
    return std::nullopt;
  }
}

bool LeaseManager::write_record(const LeaseRecord& rec, bool via_claim_file) {
  const std::string content = io::wrap_envelope(rec.to_json(), kLeaseSchema);
  std::string tmp;
  int fd = -1;
  if (via_claim_file) {
    // The CAS interlock: O_EXCL guarantees one winner per token. A claim
    // file left by a crashed stealer is garbage-collected by age so it can
    // never wedge the election forever.
    tmp = root_ + "/" + claim_name(rec.fencing_token);
    fd = ::open(tmp.c_str(), O_CREAT | O_EXCL | O_WRONLY, 0644);
    if (fd < 0) {
      if (errno == EEXIST) {
        struct stat st;
        const double stale_age =
            std::max(2.0 * (opts_.ttl_seconds + opts_.margin_seconds), 2.0);
        if (::stat(tmp.c_str(), &st) == 0 &&
            ::time(nullptr) - st.st_mtime > static_cast<time_t>(stale_age)) {
          ::unlink(tmp.c_str());
        }
      }
      return false;
    }
  } else {
    tmp = lease_path_ + ".renew." + std::to_string(identity_.pid);
    fd = ::open(tmp.c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0644);
    if (fd < 0) return false;
  }
  const bool wrote = write_fd_all(fd, content);
  if (wrote) ::fsync(fd);
  ::close(fd);
  if (!wrote || ::rename(tmp.c_str(), lease_path_.c_str()) != 0) {
    ::unlink(tmp.c_str());
    return false;
  }
  // rename() is not a compare-and-swap: verify our bytes actually landed.
  // A concurrent writer that renamed after us owns the lease; fencing
  // covers the read-verify race window.
  std::string check;
  if (!read_raw(lease_path_, &check) || check != content) return false;
  observed_init_ = true;
  observed_bytes_ = content;
  observed_since_monotonic_ = clock_->monotonic();
  return true;
}

bool LeaseManager::claim_with_token(std::uint64_t token, bool reclaim) {
  LeaseRecord rec;
  rec.fencing_token = token;
  rec.owner = identity_;
  rec.acquired_unix = clock_->unix_monotone();
  rec.renewed_unix = rec.acquired_unix;
  rec.ttl_seconds = opts_.ttl_seconds;
  if (!write_record(rec, /*via_claim_file=*/true)) return false;
  leader_ = true;
  token_ = token;
  last_renew_monotonic_ = clock_->monotonic();
  if (reclaim) obs::counter("serve.lease.reclaims").add();
  return true;
}

void LeaseManager::note_lost(const std::string& why) {
  leader_ = false;
  obs::counter("serve.lease.lost").add();
  obs::gauge("serve.lease.is_leader").set(0.0);
  obs::Event e;
  e.kind = "lease_lost";
  e.severity = why == "released" ? "info" : "warn";
  e.detail = why;
  e.num.emplace_back("token", static_cast<double>(token_));
  obs::event(e);
}

bool LeaseManager::try_acquire() {
  if (leader_) return true;
  const double mono = clock_->monotonic();
  std::string bytes;
  const bool have = read_raw(lease_path_, &bytes);

  // Track observed staleness: any change in the bytes restarts the clock.
  if (!observed_init_ || bytes != observed_bytes_) {
    observed_init_ = true;
    observed_bytes_ = bytes;
    observed_since_monotonic_ = mono;
  }

  std::optional<LeaseRecord> rec;
  if (have) {
    try {
      rec = LeaseRecord::from_json(
          io::unwrap_envelope(bytes, kLeaseSchema, lease_path_), lease_path_);
    } catch (const util::ParseError&) {
      rec = std::nullopt;  // damaged lease: stealable after the full wait
    }
  }
  if (rec) token_ = std::max(token_, rec->fencing_token);

  // Fast path 1: no lease at all — fresh spool (or manual removal). A
  // standby defers here: it claims an empty slot only after watching it
  // stay empty for a full expiry window (a cold-starting leader wins).
  if (!have) {
    if (opts_.standby && mono - observed_since_monotonic_ <
                             opts_.ttl_seconds + opts_.margin_seconds) {
      return false;
    }
    if (claim_with_token(token_ + 1, /*reclaim=*/false)) {
      note_acquired(token_, "fresh");
      return true;
    }
    return false;
  }

  if (rec) {
    // Fast path 2: clean release — no expiry wait needed.
    if (rec->released) {
      if (claim_with_token(rec->fencing_token + 1, /*reclaim=*/false)) {
        note_acquired(token_, "released-handover");
        return true;
      }
      return false;
    }

    // Fast path 3: the record names THIS process (a demoted leader whose
    // lease was never stolen): re-adopt the same token.
    if (rec->owner == identity_) {
      LeaseRecord renewed = *rec;
      renewed.renewed_unix = clock_->unix_monotone();
      renewed.ttl_seconds = opts_.ttl_seconds;
      if (write_record(renewed, /*via_claim_file=*/false)) {
        leader_ = true;
        token_ = rec->fencing_token;
        last_renew_monotonic_ = mono;
        note_acquired(token_, "readopt");
        return true;
      }
      return false;
    }

    // Fast path 4: dead owner on this host. pid gone, or pid recycled
    // (start ticks differ) — either way the recorded owner cannot renew,
    // so a SIGKILLed leader's restart reclaims immediately.
    if (rec->owner.host == identity_.host) {
      bool dead = false;
      if (::kill(static_cast<pid_t>(rec->owner.pid), 0) != 0) {
        dead = (errno == ESRCH);
      } else {
        const std::int64_t ticks = proc_start_ticks(rec->owner.pid);
        dead = (ticks < 0) || (rec->owner.pid_start_ticks > 0 &&
                               ticks != rec->owner.pid_start_ticks);
      }
      if (dead) {
        if (claim_with_token(rec->fencing_token + 1, /*reclaim=*/true)) {
          note_acquired(token_, "reclaim-dead-owner");
          return true;
        }
        return false;
      }
    }
  }

  // Slow path: steal only after the lease bytes sat unchanged for the
  // writer's declared ttl plus our margin, all measured on OUR monotonic
  // clock — immune to wall jumps on either host.
  const double ttl =
      (rec && rec->ttl_seconds > 0.0) ? rec->ttl_seconds : opts_.ttl_seconds;
  if (mono - observed_since_monotonic_ < ttl + opts_.margin_seconds) {
    return false;
  }
  const std::uint64_t next = token_ + 1;
  if (claim_with_token(next, /*reclaim=*/false)) {
    obs::counter("serve.lease.takeovers").add();
    note_acquired(token_, rec ? "steal-expired" : "steal-damaged");
    return true;
  }
  return false;
}

bool LeaseManager::renew() {
  if (!leader_) return false;
  const double mono = clock_->monotonic();
  const double since = mono - last_renew_monotonic_;
  if (since < opts_.ttl_seconds / 3.0) return true;
  // Self-demotion: if WE could not heartbeat within our own ttl, a standby
  // may already have started (or finished) stealing. Never rewrite the
  // lease after over-sleeping — step down and re-acquire through the front
  // door instead.
  if (since > opts_.ttl_seconds) {
    note_lost("self-expired");
    return false;
  }
  const std::optional<LeaseRecord> rec = read();
  if (!rec || rec->fencing_token != token_ || rec->owner != identity_) {
    note_lost("stolen");
    return false;
  }
  LeaseRecord renewed = *rec;
  renewed.renewed_unix = clock_->unix_monotone();
  renewed.ttl_seconds = opts_.ttl_seconds;
  if (!write_record(renewed, /*via_claim_file=*/false)) {
    note_lost("clobbered");
    return false;
  }
  last_renew_monotonic_ = mono;
  obs::counter("serve.lease.renewed").add();
  return true;
}

void LeaseManager::demote(const std::string& why) {
  if (leader_) note_lost(why);
}

void LeaseManager::release() {
  if (!leader_) return;
  const std::optional<LeaseRecord> rec = read();
  if (rec && rec->fencing_token == token_ && rec->owner == identity_) {
    LeaseRecord rel = *rec;
    rel.released = true;
    rel.renewed_unix = clock_->unix_monotone();
    write_record(rel, /*via_claim_file=*/false);
  }
  note_lost("released");
}

bool LeaseManager::fence_ok(std::uint64_t token) const {
  const std::optional<LeaseRecord> rec = read();
  return rec && rec->fencing_token == token && rec->owner == identity_;
}

bool lease_token_matches(const std::string& lease_path, std::uint64_t token) {
  std::string bytes;
  if (!read_raw(lease_path, &bytes)) return true;  // no lease: fail open
  try {
    const LeaseRecord rec = LeaseRecord::from_json(
        io::unwrap_envelope(bytes, kLeaseSchema, lease_path), lease_path);
    return rec.fencing_token == token;
  } catch (const util::ParseError&) {
    // Damaged lease: a standby steals it after one expiry window
    // (steal-damaged), and the queue's fence is the hard backstop.
    return true;
  }
}

}  // namespace minergy::serve
