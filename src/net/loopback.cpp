#include "net/loopback.h"

#include <algorithm>
#include <map>
#include <sstream>

#include "common/check.h"
#include "core/fault.h"
#include "common/timing.h"
#include "core/obs.h"
#include "core/queue.h"

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

std::unique_lock<std::mutex> Pipe::await_readable() {
  return core::await_handoff(readable_, mu_, [this] { return !buf_.empty() || writeClosed_; },
                             gPipeWaitsSpun, gPipeWaitsParked);
}

size_t Pipe::take_locked(void* out, size_t n) {
  const bool wasFull = buf_.size() >= capacity_;
  const size_t take = std::min(n, buf_.size());
  const auto first = buf_.begin();
  std::copy(first, first + static_cast<std::ptrdiff_t>(take), static_cast<uint8_t*>(out));
  buf_.erase(first, first + static_cast<std::ptrdiff_t>(take));
  publish_locked();
  if (wasFull && take > 0) core::ParkingLot::instance().unpark_all(&writable_);
  return take;
}

size_t Pipe::read(void* out, size_t n) {
  std::unique_lock<std::mutex> lk = await_readable();
  return take_locked(out, n);  // 0 = EOF
}

size_t Pipe::try_read(void* out, size_t n) {
  std::lock_guard<std::mutex> lk(mu_);
  return take_locked(out, n);
}

void Pipe::write(const void* data, size_t n) {
  auto& lot = core::ParkingLot::instance();
  const auto* p = static_cast<const uint8_t*>(data);
  size_t written = 0;
  while (written < n) {
    lot.park(&writable_, [this] { return !writable_.load(std::memory_order_relaxed); }, 0,
             core::kNoDeadline);
    std::function<void()> fire;
    {
      std::lock_guard<std::mutex> lk(mu_);
      if (readClosed_) return;  // peer is gone; drop (like EPIPE w/o signal)
      if (buf_.size() >= capacity_) continue;  // another writer filled it
      const size_t take = std::min(capacity_ - buf_.size(), n - written);
      buf_.insert(buf_.end(), p + written, p + written + take);
      written += take;
      publish_locked();
      fire = std::move(notify_);  // one-shot: consume the armed edge
      notify_ = nullptr;
    }
    lot.unpark_all(&readable_);
    if (fire) fire();  // outside the lock: the callback may take others
  }
}

void Pipe::close_write() {
  std::function<void()> fire;
  {
    std::lock_guard<std::mutex> lk(mu_);
    writeClosed_ = true;
    publish_locked();
    fire = std::move(notify_);  // EOF is a readiness edge too
    notify_ = nullptr;
  }
  core::ParkingLot::instance().unpark_all(&readable_);
  if (fire) fire();
}

void Pipe::close_read() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    readClosed_ = true;
    publish_locked();
  }
  core::ParkingLot::instance().unpark_all(&writable_);
}

size_t Pipe::available() const {
  std::lock_guard<std::mutex> lk(mu_);
  return buf_.size();
}

bool Pipe::wait_readable() {
  std::unique_lock<std::mutex> lk = await_readable();
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

// Accepters park on &ready, connectors on &Network::Impl::listens.
struct Listener::State {
  std::mutex mu;
  std::deque<Socket> pending;
  bool closed = false;
  std::atomic<bool> ready{false};  // mirrors `!pending.empty() || closed`; under mu

  void publish_locked() {
    ready.store(!pending.empty() || closed, std::memory_order_relaxed);
  }
  void close() {
    {
      std::lock_guard<std::mutex> lk(mu);
      closed = true;
      publish_locked();
    }
    core::ParkingLot::instance().unpark_all(&ready);
  }
};

Socket Listener::accept() {
  State& st = *state_;
  for (;;) {
    core::ParkingLot::instance().park(
        &st.ready, [&st] { return !st.ready.load(std::memory_order_relaxed); }, 0,
        core::kNoDeadline);
    std::lock_guard<std::mutex> lk(st.mu);
    if (!st.pending.empty()) {
      Socket s = st.pending.front();
      st.pending.pop_front();
      st.publish_locked();
      return s;
    }
    if (st.closed) return Socket();
  }
}

void Listener::close() { state_->close(); }

struct Network::Impl {
  std::mutex mu;
  std::map<int, std::shared_ptr<Listener::State>> ports;
  std::atomic<uint64_t> listens{0};  // bumped under mu by every listen()
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
  auto state = std::make_shared<Listener::State>();
  {
    std::lock_guard<std::mutex> lk(impl_->mu);
    SBD_CHECK_MSG(impl_->ports.find(port) == impl_->ports.end() ||
                      impl_->ports[port]->closed,
                  "port already bound");
    impl_->ports[port] = state;
    impl_->listens.fetch_add(1, std::memory_order_relaxed);
  }
  core::ParkingLot::instance().unpark_all(&impl_->listens);
  Listener l;
  l.state_ = state;
  return l;
}

Socket Network::connect(int port, uint64_t timeoutMs) {
  const uint64_t deadline = now_nanos() + timeoutMs * 1'000'000;
  std::shared_ptr<Listener::State> state;
  for (;;) {
    uint64_t seen;
    {
      std::lock_guard<std::mutex> lk(impl_->mu);
      auto it = impl_->ports.find(port);
      if (it != impl_->ports.end() && !it->second->closed) {
        state = it->second;
        break;
      }
      seen = impl_->listens.load(std::memory_order_relaxed);
    }
    // Timed out = no listen() since `seen`, up to the deadline.
    if (core::ParkingLot::instance().park(
            &impl_->listens,
            [&] { return impl_->listens.load(std::memory_order_relaxed) == seen; }, 0,
            deadline) == core::ParkResult::kTimedOut)
      break;
  }
  // Connection pipes are network-owned (never freed): socket handles
  // must stay trivially destructible for checkpoint-restore safety, so
  // no handle can carry ownership. An in-memory connection costs two
  // drained deques — the moral equivalent of kernel socket buffers.
  auto* c2s = new Pipe();
  auto* s2c = new Pipe();
  Socket client(s2c, c2s);
  // No listener within the wait, or the fault plan's connection reset
  // by peer: the client gets a socket that is already dead — reads see
  // EOF, writes are dropped — and no server learns the connection
  // existed. Callers can retry or degrade, exactly as after a real RST
  // or ECONNREFUSED, instead of the process aborting.
  if (!state || fault::should_fire(fault::Site::kSocketReset)) {
    s2c->close_write();
    c2s->close_read();
    return client;
  }
  {
    std::lock_guard<std::mutex> lk(state->mu);
    state->pending.push_back(Socket(c2s, s2c));
    state->publish_locked();
  }
  core::ParkingLot::instance().unpark_one(&state->ready);
  return client;
}

void Network::reset() {
  std::lock_guard<std::mutex> lk(impl_->mu);
  for (auto& [port, state] : impl_->ports) state->close();
  impl_->ports.clear();
}

}  // namespace sbd::net
