#include "obs/expose.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>

#include "obs/metrics.h"
#include "util/check.h"

namespace minergy::obs {

namespace {

// Full-buffer send; a scraper that stops reading mid-response is its own
// problem (SO_SNDTIMEO bounds the stall).
void send_all(int fd, std::string_view data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::send(fd, data.data() + off, data.size() - off,
#ifdef MSG_NOSIGNAL
                             MSG_NOSIGNAL
#else
                             0
#endif
    );
    if (n <= 0) return;  // peer gone; nothing to salvage
    off += static_cast<std::size_t>(n);
  }
}

std::string http_response(int status, const std::string& reason,
                          const std::string& content_type,
                          std::string_view body,
                          const std::string& extra_headers = std::string()) {
  std::string out = "HTTP/1.0 " + std::to_string(status) + " " + reason +
                    "\r\nContent-Type: " + content_type +
                    "\r\nContent-Length: " + std::to_string(body.size()) +
                    "\r\n" + extra_headers + "Connection: close\r\n\r\n";
  out.append(body);
  return out;
}

const char* reason_phrase(int status) {
  switch (status) {
    case 200:
      return "OK";
    case 503:
      return "Service Unavailable";
    default:
      return "Status";
  }
}

void append_number(std::string& out, double v) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  out += buf;
}

// Splits "family{labels}" at the '{'; labels (when present) include the
// braces and are emitted verbatim after the translated family name.
void split_labels(std::string_view raw, std::string_view& family,
                  std::string_view& labels) {
  const std::size_t brace = raw.find('{');
  if (brace == std::string_view::npos) {
    family = raw;
    labels = {};
  } else {
    family = raw.substr(0, brace);
    labels = raw.substr(brace);
  }
}

// "# TYPE fam kind" once per family (instruments sharing a family via
// labels sort adjacently, so tracking the previous family suffices).
void type_line(std::string& out, std::string& last_family,
               const std::string& family, const char* kind) {
  if (family == last_family) return;
  last_family = family;
  out += "# TYPE " + family + " " + kind + "\n";
}

}  // namespace

std::string prometheus_name(std::string_view raw) {
  std::string_view family, labels;
  split_labels(raw, family, labels);
  std::string out;
  out.reserve(raw.size());
  for (const char c : family) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out += ok ? c : '_';
  }
  if (out.empty() || (out[0] >= '0' && out[0] <= '9')) out.insert(0, 1, '_');
  out.append(labels);
  return out;
}

std::string ExpositionServer::render_prometheus() {
  std::string out;
  out.reserve(4096);
  std::string last_family;
  for (const auto& [raw, v] : Registry::instance().counter_snapshot()) {
    const std::string name = prometheus_name(raw);
    std::string_view family, labels;
    split_labels(name, family, labels);
    type_line(out, last_family, std::string(family), "counter");
    out += name;
    out += ' ';
    out += std::to_string(v);
    out += '\n';
  }
  for (const auto& [raw, v] : Registry::instance().gauge_snapshot()) {
    const std::string name = prometheus_name(raw);
    std::string_view family, labels;
    split_labels(name, family, labels);
    type_line(out, last_family, std::string(family), "gauge");
    out += name;
    out += ' ';
    append_number(out, v);
    out += '\n';
  }
  for (const auto& [raw, h] : Registry::instance().histogram_snapshot()) {
    const std::string name = prometheus_name(raw);
    std::string_view family_sv, labels_sv;
    split_labels(name, family_sv, labels_sv);
    const std::string family(family_sv);
    const std::string labels(labels_sv);
    // `labels` is "{k=\"v\"}" or empty; the le label merges into the set.
    const std::string label_prefix =
        labels.empty() ? "{le=\""
                       : labels.substr(0, labels.size() - 1) + ",le=\"";
    type_line(out, last_family, family, "histogram");
    // One power-of-two `le` series per octave: its sub-buckets summed.
    std::int64_t cumulative = 0;
    for (int o = 0; o < Histogram::kOctaves; ++o) {
      std::int64_t n = 0;
      for (int j = 0; j < Histogram::kSubBuckets; ++j) {
        n += h.buckets[static_cast<std::size_t>(o * Histogram::kSubBuckets +
                                                j)];
      }
      if (n == 0) continue;
      cumulative += n;
      out += family + "_bucket" + label_prefix;
      append_number(out, Histogram::octave_upper_bound(o));
      out += "\"} ";
      out += std::to_string(cumulative);
      out += '\n';
    }
    out += family + "_bucket" + label_prefix + "+Inf\"} " +
           std::to_string(h.count) + '\n';
    out += family + "_sum" + labels + ' ';
    append_number(out, h.sum);
    out += '\n';
    out += family + "_count" + labels + ' ' + std::to_string(h.count) + '\n';
    // Approximate quantiles (bucket upper bounds) as sibling gauges — a
    // histogram family cannot legally carry quantile series. An empty
    // histogram (freshly started daemon) has no meaningful quantiles, so the
    // siblings are omitted rather than risking unparseable values.
    if (h.count == 0) continue;
    for (const auto& [suffix, q] :
         {std::pair<const char*, double>{"_p50", h.p50},
          {"_p95", h.p95},
          {"_p99", h.p99}}) {
      const std::string qfam = family + suffix;
      type_line(out, last_family, qfam, "gauge");
      out += qfam + labels + ' ';
      append_number(out, q);
      out += '\n';
    }
  }
  return out;
}

ExpositionServer& ExpositionServer::instance() {
  static ExpositionServer* s = new ExpositionServer();  // outlives statics
  return *s;
}

bool ExpositionServer::start(int port, std::string* error) {
  if (running_.load(std::memory_order_relaxed)) {
    if (error != nullptr) *error = "exposition server already running";
    return false;
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    if (error != nullptr) *error = std::strerror(errno);
    return false;
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof addr);
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) < 0 ||
      ::listen(fd, 16) < 0) {
    if (error != nullptr) *error = std::strerror(errno);
    ::close(fd);
    return false;
  }
  sockaddr_in bound;
  socklen_t len = sizeof bound;
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) < 0) {
    if (error != nullptr) *error = std::strerror(errno);
    ::close(fd);
    return false;
  }
  listen_fd_ = fd;
  port_.store(static_cast<int>(ntohs(bound.sin_port)),
              std::memory_order_relaxed);
  stop_requested_.store(false, std::memory_order_relaxed);
  requests_.store(0, std::memory_order_relaxed);
  running_.store(true, std::memory_order_relaxed);
  thread_ = std::thread([this] { serve_loop(); });
  return true;
}

void ExpositionServer::stop() {
  if (!running_.load(std::memory_order_relaxed)) return;
  stop_requested_.store(true, std::memory_order_relaxed);
  if (thread_.joinable()) thread_.join();
  ::close(listen_fd_);
  listen_fd_ = -1;
  running_.store(false, std::memory_order_relaxed);
  port_.store(0, std::memory_order_relaxed);
}

void ExpositionServer::publish(const std::string& path,
                               const std::string& content_type,
                               std::string body, int status,
                               std::string extra_headers) {
  const std::lock_guard<std::mutex> lock(mu_);
  docs_[path] =
      Doc{content_type, std::move(body), status, std::move(extra_headers)};
}

// Poll with a short timeout so stop() is honored promptly without signals
// or self-pipes; the accept itself can then never block.
void ExpositionServer::serve_loop() {
  while (!stop_requested_.load(std::memory_order_relaxed)) {
    pollfd p{};
    p.fd = listen_fd_;
    p.events = POLLIN;
    const int r = ::poll(&p, 1, /*timeout_ms=*/50);
    if (r <= 0 || (p.revents & POLLIN) == 0) continue;
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    handle_connection(fd);
    ::close(fd);
  }
}

void ExpositionServer::handle_connection(int fd) {
  requests_.fetch_add(1, std::memory_order_relaxed);
  counter("expose.requests").add();
  // A wedged or malicious client must not hang the (single) serving
  // thread: bound both directions.
  timeval tv{};
  tv.tv_sec = 2;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);

  // Read until the end of the request line (we ignore headers; HTTP/1.0,
  // Connection: close). Over the cap without a newline -> 400.
  std::string req;
  char buf[1024];
  while (req.find('\n') == std::string::npos &&
         req.size() <= kMaxRequestBytes) {
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n <= 0) break;
    req.append(buf, static_cast<std::size_t>(n));
  }
  const std::size_t eol = req.find('\n');
  if (eol == std::string::npos || eol > kMaxRequestBytes) {
    counter("expose.bad_requests").add();
    send_all(fd, http_response(400, "Bad Request", "text/plain",
                               "unterminated or oversized request line\n"));
    return;
  }
  std::string line = req.substr(0, eol);
  if (!line.empty() && line.back() == '\r') line.pop_back();
  const std::size_t sp1 = line.find(' ');
  const std::size_t sp2 =
      sp1 == std::string::npos ? std::string::npos : line.find(' ', sp1 + 1);
  if (sp1 == std::string::npos || sp2 == std::string::npos) {
    counter("expose.bad_requests").add();
    send_all(fd, http_response(400, "Bad Request", "text/plain",
                               "malformed request line\n"));
    return;
  }
  const std::string method = line.substr(0, sp1);
  const std::string path = line.substr(sp1 + 1, sp2 - sp1 - 1);
  if (method != "GET") {
    counter("expose.bad_requests").add();
    send_all(fd, http_response(405, "Method Not Allowed", "text/plain",
                               "only GET is supported\n"));
    return;
  }
  if (path == "/metrics") {
    counter("expose.scrapes").add();
    send_all(fd, http_response(200, "OK",
                               "text/plain; version=0.0.4; charset=utf-8",
                               render_prometheus()));
    return;
  }
  Doc doc;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    const auto it = docs_.find(path);
    if (it == docs_.end()) {
      counter("expose.not_found").add();
      send_all(fd, http_response(404, "Not Found", "text/plain",
                                 "unknown path " + path + "\n"));
      return;
    }
    doc = it->second;
  }
  counter("expose.scrapes").add();
  send_all(fd, http_response(doc.status, reason_phrase(doc.status),
                             doc.content_type, doc.body, doc.extra_headers));
}

}  // namespace minergy::obs
