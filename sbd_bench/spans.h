// Spans the bench records around each call it makes into a layer of
// the program (traced runs only). Each recording thread owns one
// SpanBuffer, so recording takes no lock; the SpanLog owns the buffers,
// answers duration queries after the run and writes every span to a
// file when the run ends.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/timing.h"

namespace sbd::bench {

struct Span {
  const char* name;  // a literal, or a string that outlives the log
  uint64_t startNs;
  uint64_t endNs;
  uint64_t id;
  uint64_t parent;   // 0: a root span
  uint64_t request;  // shared by every span of one request or operation
};

class SpanBuffer {
 public:
  SpanBuffer(uint32_t owner, size_t capacity) : owner_(owner), capacity_(capacity) {
    spans_.reserve(capacity < 4096 ? capacity : 4096);
  }

  // Ids are unique across buffers; 0 means "no span".
  uint64_t next_id() { return (static_cast<uint64_t>(owner_) << 40) | ++seq_; }

  // Spans past the capacity are counted, not kept.
  void add(const char* name, uint64_t startNs, uint64_t endNs, uint64_t id,
           uint64_t parent, uint64_t request) {
    if (spans_.size() >= capacity_) {
      dropped_++;
      return;
    }
    spans_.push_back({name, startNs, endNs, id, parent, request});
  }

  const std::vector<Span>& spans() const { return spans_; }
  uint64_t dropped() const { return dropped_; }

 private:
  uint32_t owner_;
  size_t capacity_;
  uint64_t seq_ = 0;
  uint64_t dropped_ = 0;
  std::vector<Span> spans_;
};

// Times its scope into `buf`; does nothing when `buf` is null, which is
// how untraced runs skip recording.
class ScopedSpan {
 public:
  ScopedSpan(SpanBuffer* buf, const char* name, uint64_t parent = 0, uint64_t request = 0)
      : buf_(buf), name_(name), parent_(parent), request_(request) {
    if (buf_) {
      id_ = buf_->next_id();
      start_ = now_nanos();
    }
  }
  ~ScopedSpan() {
    if (buf_) buf_->add(name_, start_, now_nanos(), id_, parent_, request_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanBuffer* buf_;
  const char* name_;
  uint64_t parent_;
  uint64_t request_;
  uint64_t id_ = 0;
  uint64_t start_ = 0;
};

class SpanLog {
 public:
  explicit SpanLog(size_t perBufferCapacity) : capacity_(perBufferCapacity) {}

  // A new buffer for one recording thread; stays valid for the log's life.
  SpanBuffer* buffer();

  // Durations in microseconds of every kept span called `name`.
  std::vector<double> durations_us(const std::string& name) const;

  size_t size() const;
  uint64_t dropped() const;

  // One span per line, oldest first:
  //   name <TAB> start_ns <TAB> end_ns <TAB> id <TAB> parent <TAB> request
  // Times are relative to the earliest span. Returns false on I/O error.
  bool write(const std::string& path) const;

 private:
  size_t capacity_;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<SpanBuffer>> buffers_;
};

}  // namespace sbd::bench
