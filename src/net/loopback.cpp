#include "net/loopback.h"

#include <algorithm>
#include <map>
#include <sstream>

#include "common/check.h"
#include "core/fault.h"
#include "core/obs.h"
#include "core/spin.h"

namespace sbd::net {

namespace {

std::atomic<uint64_t> gPipeWaitsSpun{0};
std::atomic<uint64_t> gPipeWaitsParked{0};

}  // namespace

PipeWaitCounts pipe_wait_counts() {
  return {gPipeWaitsSpun.load(std::memory_order_relaxed),
          gPipeWaitsParked.load(std::memory_order_relaxed)};
}

std::string metrics_section() {
  const PipeWaitCounts w = pipe_wait_counts();
  std::ostringstream os;
  os << "{\"pipeWaitsSpun\": " << w.spun << ", \"pipeWaitsParked\": " << w.parked << "}";
  return os.str();
}

// ---------------------------------------------------------------------------
// Pipe
// ---------------------------------------------------------------------------

template <class Ready>
bool Pipe::wait_locked(std::unique_lock<std::mutex>& lk, int& waiting, Ready ready) {
  if (ready()) return false;
  waiting++;
  cv_.wait(lk, ready);
  waiting--;
  return true;
}

std::unique_lock<std::mutex> Pipe::lock_readable() {
  const bool wasReadable = readable_.load(std::memory_order_relaxed);
  if (!wasReadable)
    core::spin_until([&] { return readable_.load(std::memory_order_relaxed); },
                     core::kWaitSpinNanos);
  std::unique_lock<std::mutex> lk(mu_);
  const bool parked =
      wait_locked(lk, readersWaiting_, [&] { return !buf_.empty() || writeClosed_; });
  if (parked)
    gPipeWaitsParked.fetch_add(1, std::memory_order_relaxed);
  else if (!wasReadable)
    gPipeWaitsSpun.fetch_add(1, std::memory_order_relaxed);
  return lk;
}

size_t Pipe::take_locked(void* out, size_t n) {
  const size_t take = std::min(n, buf_.size());
  const auto first = buf_.begin();
  std::copy(first, first + static_cast<std::ptrdiff_t>(take), static_cast<uint8_t*>(out));
  buf_.erase(first, first + static_cast<std::ptrdiff_t>(take));
  publish_readable_locked();
  if (take > 0 && writersWaiting_ > 0) cv_.notify_all();  // room for a writer
  return take;
}

size_t Pipe::read(void* out, size_t n) {
  std::unique_lock<std::mutex> lk = lock_readable();
  return take_locked(out, n);  // 0 = EOF
}

size_t Pipe::try_read(void* out, size_t n) {
  std::lock_guard<std::mutex> lk(mu_);
  return take_locked(out, n);
}

void Pipe::write(const void* data, size_t n) {
  const auto* p = static_cast<const uint8_t*>(data);
  size_t written = 0;
  while (written < n) {
    std::function<void()> fire;
    {
      std::unique_lock<std::mutex> lk(mu_);
      wait_locked(lk, writersWaiting_, [&] { return buf_.size() < capacity_ || readClosed_; });
      if (readClosed_) return;  // peer is gone; drop (like EPIPE w/o signal)
      const size_t room = capacity_ - buf_.size();
      const size_t take = std::min(room, n - written);
      buf_.insert(buf_.end(), p + written, p + written + take);
      written += take;
      publish_readable_locked();
      if (readersWaiting_ > 0) cv_.notify_all();
      fire = std::move(notify_);  // one-shot: consume the armed edge
      notify_ = nullptr;
    }
    if (fire) fire();  // outside the lock: the callback may take others
  }
}

void Pipe::close_write() {
  std::function<void()> fire;
  {
    std::lock_guard<std::mutex> lk(mu_);
    writeClosed_ = true;
    publish_readable_locked();
    cv_.notify_all();
    fire = std::move(notify_);  // EOF is a readiness edge too
    notify_ = nullptr;
  }
  if (fire) fire();
}

void Pipe::close_read() {
  std::lock_guard<std::mutex> lk(mu_);
  readClosed_ = true;
  cv_.notify_all();
}

size_t Pipe::available() const {
  std::lock_guard<std::mutex> lk(mu_);
  return buf_.size();
}

bool Pipe::wait_readable() {
  std::unique_lock<std::mutex> lk = lock_readable();
  return !buf_.empty();
}

void Pipe::arm_notify(std::function<void()> fn) {
  bool fireNow = false;
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (!buf_.empty() || writeClosed_) {
      fireNow = true;  // already readable: the edge fires immediately
    } else {
      notify_ = std::move(fn);
    }
  }
  if (fireNow) fn();
}

void Pipe::disarm_notify() {
  std::function<void()> drop;
  {
    std::lock_guard<std::mutex> lk(mu_);
    drop = std::move(notify_);
    notify_ = nullptr;
  }
  // `drop` destroyed outside the lock (its captures may own locks).
}

// ---------------------------------------------------------------------------
// Socket
// ---------------------------------------------------------------------------

void Socket::close() {
  if (out_) out_->close_write();
  if (in_) in_->close_read();
}

// ---------------------------------------------------------------------------
// Listener / Network
// ---------------------------------------------------------------------------

struct Listener::State {
  std::mutex mu;
  std::condition_variable cv;
  std::deque<Socket> pending;
  bool closed = false;
};

Socket Listener::accept() {
  std::unique_lock<std::mutex> lk(state_->mu);
  state_->cv.wait(lk, [&] { return !state_->pending.empty() || state_->closed; });
  if (state_->pending.empty()) return Socket();
  Socket s = std::move(state_->pending.front());
  state_->pending.pop_front();
  return s;
}

void Listener::close() {
  std::lock_guard<std::mutex> lk(state_->mu);
  state_->closed = true;
  state_->cv.notify_all();
}

struct Network::Impl {
  std::mutex mu;
  std::condition_variable cv;
  std::map<int, std::shared_ptr<Listener::State>> ports;
};

std::shared_ptr<Network::Impl> Network::init() { return std::make_shared<Impl>(); }

Network& Network::instance() {
  static Network* net = [] {
    obs::register_metrics_section("net", &metrics_section);
    return new Network();
  }();
  return *net;
}

Listener Network::listen(int port) {
  std::lock_guard<std::mutex> lk(impl_->mu);
  SBD_CHECK_MSG(impl_->ports.find(port) == impl_->ports.end() ||
                    impl_->ports[port]->closed,
                "port already bound");
  auto state = std::make_shared<Listener::State>();
  impl_->ports[port] = state;
  impl_->cv.notify_all();
  Listener l;
  l.state_ = state;
  return l;
}

Socket Network::connect(int port, uint64_t timeoutMs) {
  std::shared_ptr<Listener::State> state;
  {
    std::unique_lock<std::mutex> lk(impl_->mu);
    impl_->cv.wait_for(lk, std::chrono::milliseconds(timeoutMs), [&] {
      auto it = impl_->ports.find(port);
      return it != impl_->ports.end() && !it->second->closed;
    });
    auto it = impl_->ports.find(port);
    if (it == impl_->ports.end() || it->second->closed) {
      // No listener within the wait: hand back a dead socket (EOF on
      // read, writes dropped) — the same shape as the kSocketReset
      // fault below — so the caller can retry or degrade. The old
      // SBD_CHECK_MSG here turned a peer that was merely slow to bind
      // into a whole-process abort.
      auto* c2s = new Pipe();
      auto* s2c = new Pipe();
      Socket clientEnd(s2c, c2s);
      s2c->close_write();
      c2s->close_read();
      return clientEnd;
    }
    state = it->second;
  }
  // Connection pipes are network-owned (never freed): socket handles
  // must stay trivially destructible for checkpoint-restore safety, so
  // no handle can carry ownership. An in-memory connection costs two
  // drained deques — the moral equivalent of kernel socket buffers.
  auto* c2s = new Pipe();
  auto* s2c = new Pipe();
  // Fault plan: connection reset by peer. The client gets a socket that
  // is already dead — reads see EOF, writes are dropped — and the
  // server never learns the connection existed. Client code must cope
  // with the short read, exactly like a real RST.
  if (fault::should_fire(fault::Site::kSocketReset)) {
    Socket client(s2c, c2s);
    s2c->close_write();
    c2s->close_read();
    return client;
  }
  Socket client(s2c, c2s);
  Socket server(c2s, s2c);
  {
    std::lock_guard<std::mutex> lk(state->mu);
    state->pending.push_back(std::move(server));
    state->cv.notify_all();
  }
  return client;
}

void Network::reset() {
  std::lock_guard<std::mutex> lk(impl_->mu);
  for (auto& [port, state] : impl_->ports) {
    std::lock_guard<std::mutex> slk(state->mu);
    state->closed = true;
    state->cv.notify_all();
  }
  impl_->ports.clear();
}

}  // namespace sbd::net
