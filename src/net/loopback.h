// In-memory loopback network — the paper's network I/O substitute.
// Provides blocking stream sockets and listeners with close semantics,
// so the HTTP substrate exercises real request/response framing and the
// transactional socket wrappers exercise real replay/deferral, without
// a kernel network stack.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string_view>
#include <type_traits>

namespace sbd::net {

// One direction of a connection: a bounded byte pipe.
class Pipe {
 public:
  explicit Pipe(size_t capacity = 256 * 1024) : capacity_(capacity) {}

  // Blocks until at least one byte is available or the writer closed.
  // Returns bytes read (0 = clean EOF).
  size_t read(void* out, size_t n);

  // Never blocks: takes what is buffered, up to `n`. Returns 0 both
  // when the pipe is empty and at EOF; callers that must tell the two
  // apart follow up with read() or wait_readable().
  size_t try_read(void* out, size_t n);

  // Blocks if the pipe is full; drops the data if the reader closed.
  void write(const void* data, size_t n);

  void close_write();
  void close_read();
  size_t available() const;

  // Blocks until data is readable or the writer closed; true if data.
  bool wait_readable();

  // One-shot readiness edge (the EPOLLONESHOT idiom): `fn` fires once,
  // from the writer's thread, when the pipe becomes readable or the
  // writer closes — or immediately from this call if it already is.
  // After firing the pipe is disarmed; the consumer re-arms after it
  // drains. `fn` is invoked with no pipe lock held and must be cheap
  // and non-blocking (sbd::serve pushes the connection onto a ready
  // queue). This is what lets one dispatcher thread multiplex N
  // connections onto a worker pool instead of parking a thread per
  // connection.
  void arm_notify(std::function<void()> fn);
  void disarm_notify();

 private:
  // Moves up to `n` buffered bytes out; mu_ held. Wakes a writer
  // waiting for room if it freed any.
  size_t take_locked(void* out, size_t n);

  // Waits on cv_ until `ready()`, counted in `waiting` meanwhile; mu_
  // held. cv_ is signalled only when someone waits on it: a waiter
  // counts itself under the same hold of mu_ in which it found `ready()`
  // false, and every state change is made under mu_, so the change
  // either comes before that check or sees the count.
  template <class Ready>
  void wait_locked(std::unique_lock<std::mutex>& lk, int& waiting, Ready ready);

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<uint8_t> buf_;
  size_t capacity_;
  int readersWaiting_ = 0;
  int writersWaiting_ = 0;
  bool writeClosed_ = false;
  bool readClosed_ = false;
  std::function<void()> notify_;  // armed = non-null; one-shot
};

// A bidirectional endpoint (one side of a socket pair).
//
// Restore-safety: Socket is TRIVIALLY DESTRUCTIBLE on purpose — socket
// handles live on SBD stacks that the abort path restores byte-wise,
// so they must not own heap state through destructors. The pipes
// behind a connection are owned by the network (never freed while the
// process runs, like kernel socket buffers); close() is idempotent.
class Socket {
 public:
  Socket() = default;
  Socket(Pipe* in, Pipe* out) : in_(in), out_(out) {}

  bool valid() const { return in_ != nullptr; }

  // Blocking; returns 0 at EOF (peer closed).
  size_t read(void* out, size_t n) { return in_->read(out, n); }
  // Non-blocking; returns 0 when nothing is buffered (see Pipe::try_read).
  size_t try_read(void* out, size_t n) { return in_->try_read(out, n); }
  void write(const void* data, size_t n) { out_->write(data, n); }
  void write(std::string_view s) { write(s.data(), s.size()); }

  size_t available() const { return in_->available(); }
  bool wait_readable() { return in_->wait_readable(); }

  // Edge-notify on the read side (see Pipe::arm_notify).
  void arm_read_notify(std::function<void()> fn) { in_->arm_notify(std::move(fn)); }
  void disarm_read_notify() { in_->disarm_notify(); }

  // shutdown(SHUT_RD): forces local reads to EOF once buffered data is
  // drained and WAKES a reader blocked in read()/wait_readable() — the
  // graceful-drain lever for unsticking a worker mid-request. The
  // peer's writes still complete (and are discarded by nobody reading).
  void shutdown_read() {
    if (in_) in_->close_write();
  }

  void close();

 private:
  Pipe* in_ = nullptr;
  Pipe* out_ = nullptr;
};
static_assert(std::is_trivially_destructible_v<Socket>,
              "socket handles must survive checkpoint restores");

// A listening port: accept() blocks for the next incoming connection.
class Listener {
 public:
  // Returns an invalid socket when the listener is closed.
  Socket accept();
  void close();

 private:
  friend class Network;
  struct State;
  std::shared_ptr<State> state_;
};

// The process-wide virtual network.
class Network {
 public:
  static Network& instance();

  // Binds a port; throws if already bound.
  Listener listen(int port);

  // Blocks until the port has a listener (up to `timeoutMs`), then
  // returns the client end of a fresh socket pair. When the wait
  // expires with no listener the returned socket is valid but DEAD —
  // reads see EOF, writes are dropped, exactly like the kSocketReset
  // fault — so callers can retry or degrade instead of the process
  // aborting (ECONNREFUSED semantics, not a crash).
  Socket connect(int port, uint64_t timeoutMs = 5000);

  // Unbinds everything (test isolation).
  void reset();

 private:
  Network() = default;
  struct Impl;
  std::shared_ptr<Impl> impl_ = init();
  static std::shared_ptr<Impl> init();
};

}  // namespace sbd::net
