#include "net/http.h"

#include <cstdint>
#include <sstream>

#include "common/check.h"
#include "core/transaction.h"

namespace sbd::net {

namespace {

// Reads a CRLF- (or LF-) terminated line byte-by-byte from `readFn`,
// charging every byte to `budget` (what is left of kMaxHeaderBytes).
// kEof: the source ended before the line did.
ReadStatus read_line(const std::function<size_t(void*, size_t)>& readFn,
                     std::string& out, size_t& budget) {
  out.clear();
  char c;
  while (readFn(&c, 1) == 1) {
    if (budget == 0) return ReadStatus::kTooLarge;
    budget--;
    if (c == '\n') {
      if (!out.empty() && out.back() == '\r') out.pop_back();
      return ReadStatus::kOk;
    }
    out.push_back(c);
  }
  return ReadStatus::kEof;
}

// kOk iff the header section terminated with its blank line. EOF
// mid-headers is a truncated (unframeable) message, not a shorter one
// — treating it as complete made a response cut off mid-write look
// parseable to the peer.
ReadStatus parse_headers(const std::function<size_t(void*, size_t)>& readFn,
                         HeaderMap& headers, size_t& budget) {
  std::string line;
  for (;;) {
    const ReadStatus st = read_line(readFn, line, budget);
    if (st == ReadStatus::kTooLarge) return st;
    if (st != ReadStatus::kOk) return ReadStatus::kBadRequest;
    if (line.empty()) return ReadStatus::kOk;
    const auto colon = line.find(':');
    if (colon == std::string::npos) continue;
    std::string key = line.substr(0, colon);
    size_t v = colon + 1;
    while (v < line.size() && line[v] == ' ') v++;
    // HeaderMap compares case-insensitively, so "content-length" and
    // "Content-Length" land in (and are found at) the same slot.
    headers[key] = line.substr(v);
  }
}

// Parses a Content-Length value defensively: digits only, no sign, no
// overflow, bounded by `cap`. The old std::stoul call would throw
// std::invalid_argument on "banana" (remote-triggered process abort)
// and happily return SIZE_MAX-scale values that the body read then
// tried to allocate.
bool parse_content_length(const std::string& s, size_t& out) {
  if (s.empty()) return false;
  size_t len = 0;
  for (char c : s) {
    if (c < '0' || c > '9') return false;  // rejects "-1", "1e9", "banana"
    const size_t digit = static_cast<size_t>(c - '0');
    if (len > (SIZE_MAX - digit) / 10) return false;  // numeric overflow
    len = len * 10 + digit;
  }
  out = len;
  return true;
}

// Reads the declared body. kTooLarge/kBadRequest mean the connection
// can no longer be framed; a body cut short by EOF is returned as-is
// (the caller sees fewer bytes than Content-Length promised).
ReadStatus read_body(const std::function<size_t(void*, size_t)>& readFn,
                     const HeaderMap& headers, size_t maxBody, std::string& body) {
  body.clear();
  auto it = headers.find("Content-Length");
  if (it == headers.end()) return ReadStatus::kOk;
  size_t len = 0;
  if (!parse_content_length(it->second, len)) return ReadStatus::kBadRequest;
  if (len > maxBody) return ReadStatus::kTooLarge;
  body.resize(len);
  size_t got = 0;
  while (got < len) {
    const size_t n = readFn(body.data() + got, len - got);
    if (n == 0) break;
    got += n;
  }
  body.resize(got);
  return ReadStatus::kOk;
}

}  // namespace

ReadStatus read_request_status(const std::function<size_t(void*, size_t)>& readFn,
                               HttpRequest& out, size_t maxBody) {
  size_t budget = kMaxHeaderBytes;
  std::string line;
  const ReadStatus st = read_line(readFn, line, budget);
  if (st == ReadStatus::kTooLarge) return st;
  if (st != ReadStatus::kOk || line.empty()) return ReadStatus::kEof;
  std::istringstream ls(line);
  std::string version;
  ls >> out.method >> out.path >> version;
  if (out.method.empty() || out.path.empty() || version.empty())
    return ReadStatus::kBadRequest;  // truncated start-line ("GET /x")
  const ReadStatus hs = parse_headers(readFn, out.headers, budget);
  if (hs != ReadStatus::kOk) return hs;
  return read_body(readFn, out.headers, maxBody, out.body);
}

ReadStatus read_response_status(const std::function<size_t(void*, size_t)>& readFn,
                                HttpResponse& out, size_t maxBody) {
  size_t budget = kMaxHeaderBytes;
  std::string line;
  const ReadStatus st = read_line(readFn, line, budget);
  if (st == ReadStatus::kTooLarge) return st;
  if (st != ReadStatus::kOk || line.empty()) return ReadStatus::kEof;
  std::istringstream ls(line);
  std::string version;
  ls >> version >> out.status;
  if (version.empty() || out.status <= 0) return ReadStatus::kBadRequest;
  const ReadStatus hs = parse_headers(readFn, out.headers, budget);
  if (hs != ReadStatus::kOk) return hs;
  return read_body(readFn, out.headers, maxBody, out.body);
}

const char* reason_phrase(int status) {
  switch (status) {
    case 200: return "OK";
    case 201: return "Created";
    case 204: return "No Content";
    case 400: return "Bad Request";
    case 403: return "Forbidden";
    case 404: return "Not Found";
    case 408: return "Request Timeout";
    case 409: return "Conflict";
    case 413: return "Payload Too Large";
    case 429: return "Too Many Requests";
    case 500: return "Internal Server Error";
    case 503: return "Service Unavailable";
    default: break;
  }
  if (status >= 200 && status < 300) return "OK";
  if (status >= 300 && status < 400) return "Redirect";
  if (status >= 400 && status < 500) return "Client Error";
  return "Error";
}

std::string serialize(const HttpRequest& req) {
  std::ostringstream os;
  os << req.method << ' ' << req.path << " HTTP/1.1\r\n";
  for (const auto& [k, v] : req.headers) os << k << ": " << v << "\r\n";
  // A caller-set Content-Length (any spelling) is authoritative; only
  // synthesize one when the body needs framing and none was given.
  if (!req.body.empty() && req.headers.find("Content-Length") == req.headers.end())
    os << "Content-Length: " << req.body.size() << "\r\n";
  os << "\r\n" << req.body;
  return os.str();
}

std::string serialize(const HttpResponse& resp) {
  std::ostringstream os;
  os << "HTTP/1.1 " << resp.status << ' ' << reason_phrase(resp.status) << "\r\n";
  // The serializer owns body framing: a stale caller-set Content-Length
  // would desynchronize keep-alive connections, so it is dropped in
  // favor of the actual body size.
  for (const auto& [k, v] : resp.headers)
    if (resp.headers.key_comp()(k, "Content-Length") ||
        resp.headers.key_comp()("Content-Length", k))
      os << k << ": " << v << "\r\n";
  os << "Content-Length: " << resp.body.size() << "\r\n\r\n" << resp.body;
  return os.str();
}

// ---------------------------------------------------------------------------
// TxSocket
// ---------------------------------------------------------------------------

void TxSocket::connect(int port) {
  auto* tc = core::tls_context_if_present();
  if (tc && tc->txn.active()) {
    tc->txn.defer([this, port] { sock_ = Network::instance().connect(port); });
  } else {
    sock_ = Network::instance().connect(port);
  }
}

size_t TxSocket::read(void* out, size_t n) {
  // Loop shape matters for abort/retry: a retry resumes just after the
  // blocking split below and must serve the (rearmed) replay buffer
  // before touching the wire again, so every pass starts from the top.
  for (;;) {
    const bool inTxn = tio::register_with_txn(this);
    if (inTxn) {
      const size_t got = replay_.serve(out, n);
      if (got > 0) return got;
    }
    // Buffered bytes are taken without blocking, so the common case (the
    // parser reading a request that has already arrived) costs one pipe
    // lock and no safe-region entry. Only a read that can block below
    // enters a SafeScope.
    size_t fresh = sock_.try_read(out, n);
    if (fresh == 0) {
      auto& tc = core::tls_context();
      if (inTxn) {
        // Reading from an empty stream is waiting for another thread's
        // update: per §3.5 the waiter must end its section and release
        // its transaction id, or id-starved peers could never produce
        // the data (the 2N-threads > 56-ids case of the Tomcat
        // benchmark). Such a read is a REQUIRED split: composing it into
        // a noSplit block (§3.7) would deadlock, so it is rejected
        // outright — the paper's splitOptional rule.
        SBD_CHECK_MSG(tc.noSplitDepth == 0,
                      "blocking socket read inside a noSplit block (§3.7: this "
                      "operation must be able to split)");
        bool readable = true;
        core::split_section_releasing_id(tc, [&] {
          core::Safepoint::SafeScope safe(tc);
          readable = sock_.wait_readable();
        });
        if (!readable) return 0;  // peer closed with nothing buffered: EOF
        continue;  // fresh section: re-register and serve replay first
      }
      core::Safepoint::SafeScope safe(tc);
      fresh = sock_.read(out, n);
    }
    if (inTxn && fresh) replay_.consumed(static_cast<uint8_t*>(out), fresh);
    return fresh;
  }
}

void TxSocket::write(std::string_view data) {
  if (tio::register_with_txn(this)) {
    writeBuf_.append(data);
  } else {
    sock_.write(data.data(), data.size());
  }
}

void TxSocket::on_commit() {
  if (!writeBuf_.empty()) {
    sock_.write(writeBuf_.bytes().data(), writeBuf_.size());
    writeBuf_.clear();
  }
  replay_.on_commit();
}

void TxSocket::on_abort() {
  writeBuf_.clear();
  replay_.on_abort();
}

// ---------------------------------------------------------------------------
// SessionStore / StringManager
// ---------------------------------------------------------------------------

int64_t SessionStore::bump(const std::string& sid) { return ++counters_[sid]; }

int64_t SessionStore::lookup(const std::string& sid) const {
  auto it = counters_.find(sid);
  return it == counters_.end() ? 0 : it->second;
}

std::string StringManager::status_message(int code, const std::string& detail) {
  const std::string key = std::to_string(code) + ":" + detail;
  if (cacheEnabled_) {
    auto it = cache_.find(key);
    if (it != cache_.end()) return it->second;
  }
  std::string msg = "status " + std::to_string(code) + " (" + detail + ")";
  if (cacheEnabled_) cache_[key] = msg;
  return msg;
}

}  // namespace sbd::net
