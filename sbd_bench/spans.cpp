#include "spans.h"

#include <algorithm>
#include <cstdio>

namespace sbd::bench {

SpanBuffer* SpanLog::buffer() {
  std::lock_guard<std::mutex> lk(mu_);
  buffers_.push_back(
      std::make_unique<SpanBuffer>(static_cast<uint32_t>(buffers_.size() + 1), capacity_));
  return buffers_.back().get();
}

std::vector<double> SpanLog::durations_us(const std::string& name) const {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<double> out;
  for (const auto& b : buffers_)
    for (const Span& s : b->spans())
      if (name == s.name) out.push_back(static_cast<double>(s.endNs - s.startNs) / 1e3);
  return out;
}

size_t SpanLog::size() const {
  std::lock_guard<std::mutex> lk(mu_);
  size_t n = 0;
  for (const auto& b : buffers_) n += b->spans().size();
  return n;
}

uint64_t SpanLog::dropped() const {
  std::lock_guard<std::mutex> lk(mu_);
  uint64_t n = 0;
  for (const auto& b : buffers_) n += b->dropped();
  return n;
}

bool SpanLog::write(const std::string& path) const {
  std::vector<Span> all;
  {
    std::lock_guard<std::mutex> lk(mu_);
    for (const auto& b : buffers_) all.insert(all.end(), b->spans().begin(), b->spans().end());
  }
  std::sort(all.begin(), all.end(),
            [](const Span& a, const Span& b) { return a.startNs < b.startNs; });
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  const uint64_t t0 = all.empty() ? 0 : all.front().startNs;
  std::fprintf(f, "name\tstart_ns\tend_ns\tid\tparent\trequest\n");
  for (const Span& s : all)
    std::fprintf(f, "%s\t%llu\t%llu\t%llu\t%llu\t%llu\n", s.name,
                 static_cast<unsigned long long>(s.startNs - t0),
                 static_cast<unsigned long long>(s.endNs - t0),
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request));
  const bool ok = std::ferror(f) == 0;
  return std::fclose(f) == 0 && ok;
}

}  // namespace sbd::bench
