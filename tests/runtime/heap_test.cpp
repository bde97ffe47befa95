// Managed heap + conservative GC tests.
#include "runtime/heap.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <thread>

#include "api/sbd.h"

namespace sbd::runtime {
namespace {

class Node : public TypedRef<Node> {
 public:
  SBD_CLASS(Node, SBD_SLOT("v"), SBD_SLOT_REF("next"))
  SBD_FIELD_I64(0, v)
  SBD_FIELD_REF(1, next, Node)
};

TEST(Heap, ObjectSizeIncludesHeaderAndSlots) {
  EXPECT_EQ(Heap::object_size(Node::klass()), 48u);  // 24 header + 2*8, padded to 16
}

TEST(Heap, ArraySizes) {
  EXPECT_EQ(Heap::array_size(ElemKind::kI64, 0), 32u);   // header + length word
  EXPECT_GE(Heap::array_size(ElemKind::kI64, 4), 64u);
  EXPECT_LT(Heap::array_size(ElemKind::kI8, 7), Heap::array_size(ElemKind::kI64, 7));
}

TEST(Heap, AllocZeroInitializesSlots) {
  run_sbd([&] {
    Node n = Node::alloc();
    EXPECT_EQ(n.v(), 0);
    EXPECT_TRUE(n.next().is_null());
  });
}

TEST(Heap, FindObjectResolvesInteriorPointers) {
  run_sbd([&] {
    Node n = Node::alloc();
    auto* o = n.raw();
    EXPECT_EQ(Heap::instance().find_object(o), o);
    // Pointer into the middle of the object resolves to its start.
    EXPECT_EQ(Heap::instance().find_object(reinterpret_cast<char*>(o) + 17), o);
  });
}

TEST(Heap, FindObjectRejectsForeignPointers) {
  int stackVar = 0;
  EXPECT_EQ(Heap::instance().find_object(&stackVar), nullptr);
  EXPECT_EQ(Heap::instance().find_object(nullptr), nullptr);
  static int globalVar = 0;
  EXPECT_EQ(Heap::instance().find_object(&globalVar), nullptr);
}

TEST(Heap, LargeAllocation) {
  run_sbd([&] {
    I64Array big = I64Array::make(300000);  // > 1 MiB payload
    EXPECT_EQ(big.length(), 300000u);
    big.set(0, 1);
    big.set(299999, 2);
    EXPECT_EQ(big.get(0), 1);
    EXPECT_EQ(big.get(299999), 2);
    EXPECT_EQ(Heap::instance().find_object(big.raw()), big.raw());
    // Interior pointer into the later megabytes of the large object.
    EXPECT_EQ(Heap::instance().find_object(
                  reinterpret_cast<char*>(big.raw()) + (2 << 20) + 123),
              big.raw());
  });
}

TEST(Gc, CollectsUnreachableObjects) {
  const auto before = Heap::instance().stats();
  run_sbd([&] {
    for (int i = 0; i < 1000; i++) {
      Node n = Node::alloc();
      n.init_v(i);
    }
    split();  // publish (and drop) them
  });
  Heap::instance().collect();
  Heap::instance().collect();  // anything stale on the first scan's stack
  const auto after = Heap::instance().stats();
  EXPECT_GT(after.collections, before.collections);
  // The 1000 nodes are garbage; live bytes should not have grown by
  // anywhere near 1000 * 40 bytes.
  EXPECT_LT(after.liveBytes, before.liveBytes + 20000);
}

TEST(Gc, RootedObjectsSurvive) {
  GlobalRoot<Node> root;
  run_sbd([&] {
    Node head = Node::alloc();
    head.init_v(1);
    Node tail = Node::alloc();
    tail.init_v(2);
    head.set_next(tail);
    root.set(head);
  });
  Heap::instance().collect();
  run_sbd([&] {
    EXPECT_EQ(root.get().v(), 1);
    EXPECT_EQ(root.get().next().v(), 2);  // reachable through the chain
  });
}

TEST(Gc, StackReferencesSurvive) {
  run_sbd([&] {
    Node n = Node::alloc();
    n.init_v(77);
    Heap::instance().collect();  // conservative scan must see `n`
    EXPECT_EQ(n.v(), 77);
  });
}

TEST(Gc, LinkedListFullyTraced) {
  GlobalRoot<Node> root;
  run_sbd([&] {
    Node head = Node::alloc();
    head.init_v(0);
    Node cur = head;
    for (int i = 1; i < 200; i++) {
      Node n = Node::alloc();
      n.init_v(i);
      cur.set_next(n);
      cur = n;
    }
    root.set(head);
  });
  Heap::instance().collect();
  run_sbd([&] {
    Node cur = root.get();
    for (int i = 0; i < 200; i++) {
      EXPECT_EQ(cur.v(), i);
      cur = cur.next();
    }
    EXPECT_TRUE(cur.is_null());
  });
}

TEST(Gc, UndoLogOldValuesKeptAlive) {
  GlobalRoot<Node> root;
  run_sbd([&] {
    Node a = Node::alloc();
    a.init_v(1);
    Node keep = Node::alloc();
    keep.init_v(42);
    a.set_next(keep);
    root.set(a);
    split();
    // Overwrite the only reference to `keep`; its old value now lives
    // only in the undo log. A GC here must not reclaim it, because an
    // abort would resurrect the reference.
    root.get().set_next(Node());
    Heap::instance().collect();
    static bool aborted;
    if (!aborted) {
      aborted = true;
      core::abort_and_restart(core::tls_context());
    }
    split();
  });
  run_sbd([&] {
    // The retry overwrote next again (with null), so just verify the
    // heap did not corrupt: the root still works.
    EXPECT_EQ(root.get().v(), 1);
  });
}

TEST(Gc, LockStructuresFreedWithObjects) {
  const uint64_t before = core::gauges().lockStructBytes.load();
  run_sbd([&] {
    for (int i = 0; i < 100; i++) {
      Node n = Node::alloc();
      root_touch:;
      n.init_v(i);
      split();  // escape
      (void)n.v();  // materialize lock structures
      split();      // drop the stack ref next iteration
    }
  });
  Heap::instance().collect();
  Heap::instance().collect();
  const uint64_t after = core::gauges().lockStructBytes.load();
  EXPECT_LE(after, before + 1024) << "lock structures of dead objects must be freed";
}

TEST(Gc, AdaptiveThresholdTriggersAutomatically) {
  Heap::instance().set_gc_threshold(1 << 20);  // 1 MiB
  const auto before = Heap::instance().stats();
  run_sbd([&] {
    for (int i = 0; i < 2000; i++) {
      I64Array a = I64Array::make(128);  // ~1 KiB each -> ~2 MiB total
      a.init_set(0, i);
      if (i % 64 == 0) split();
    }
  });
  const auto after = Heap::instance().stats();
  EXPECT_GT(after.collections, before.collections)
      << "allocation pressure should have triggered a collection";
  Heap::instance().set_gc_threshold(48ULL << 20);
}

TEST(Gc, SurvivesConcurrentMutators) {
  GlobalRoot<Node> shared;
  run_sbd([&] {
    Node n = Node::alloc();
    n.init_v(0);
    shared.set(n);
  });
  Heap::instance().set_gc_threshold(1 << 20);
  {
    std::vector<SbdThread> ts;
    for (int t = 0; t < 3; t++) {
      ts.emplace_back([&] {
        for (int i = 0; i < 300; i++) {
          Node mine = Node::alloc();
          mine.init_v(i);
          Node s = shared.get();
          s.set_v(s.v() + 1);
          mine.set_next(s);
          split();
          EXPECT_EQ(mine.next().raw(), shared.get().raw());
        }
      });
    }
    for (auto& t : ts) t.start();
    for (auto& t : ts) t.join();
  }
  Heap::instance().set_gc_threshold(48ULL << 20);
  run_sbd([&] { EXPECT_EQ(shared.get().v(), 900); });
}

// Allocates a Node in its own (then dead) frame and returns its address
// XOR-masked, so no stack word left behind points at it.
constexpr uintptr_t kMask = 0x5a5a5a5a5a5a5a5aULL;
[[gnu::noinline]] uintptr_t alloc_masked_node(int64_t v) {
  Node n = Node::alloc();
  n.init_v(v);
  return reinterpret_cast<uintptr_t>(n.raw()) ^ kMask;
}

// A thread blocked in a safe region keeps the objects only its
// callee-saved registers refer to alive: SafeScope spills them at entry
// and the collector scans the spill. The reference is pinned to one such
// register (x86-64 r12, AArch64 x19) across the safe region; after the
// split that commits the allocation, nothing else refers to the object.
TEST(Gc, SafeRegionRegistersAreRoots) {
  std::atomic<uintptr_t> hidden{0};
  std::atomic<bool> parked{false};
  std::mutex mu;
  std::condition_variable cv;
  bool resume = false;  // guarded by mu
  SbdThread t([&] {
    hidden.store(alloc_masked_node(77));
    split();  // commit: the new-instance log no longer pins the node
#if defined(__x86_64__)
    register uintptr_t live asm("r12") = hidden.load() ^ kMask;
#elif defined(__aarch64__)
    register uintptr_t live asm("x19") = hidden.load() ^ kMask;
#else
    uintptr_t live = hidden.load() ^ kMask;
#endif
    asm volatile("" : "+r"(live));
    {
      // The wait writes nothing to this frame while the collector scans
      // it: a condvar wait, not a sleep loop.
      core::Safepoint::SafeScope safe(core::tls_context());
      std::unique_lock<std::mutex> lk(mu);
      parked.store(true);
      while (!resume) cv.wait(lk);
    }
    asm volatile("" : "+r"(live));
    EXPECT_EQ(Node::from_raw(reinterpret_cast<ManagedObject*>(live)).v(), 77);
  });
  t.start();
  while (!parked.load()) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  Heap::instance().collect();
  Heap::instance().collect();
  void* obj = reinterpret_cast<void*>(hidden.load() ^ kMask);
  EXPECT_EQ(Heap::instance().find_object(obj), obj) << "collected while still referenced";
  {
    std::lock_guard<std::mutex> lk(mu);
    resume = true;
  }
  cv.notify_all();
  t.join();
}

// The stop-the-world handshake under churn: mutators enter and leave
// safe regions, poll and allocate (the allocations start GCs, so a
// second stopper queues up) while this thread stops and resumes the
// world. While a stop holds, no mutator makes progress and every other
// registered thread settles into a stopped state.
TEST(Safepoint, StopResumeChurn) {
  constexpr int kThreads = 4;
  constexpr int kCycles = 2000;
  std::atomic<bool> done{false};
  std::atomic<int> started{0};
  std::atomic<uint64_t> progress[kThreads] = {};
  Heap::instance().set_gc_threshold(1 << 20);
  std::vector<SbdThread> ts;
  for (int t = 0; t < kThreads; t++) {
    ts.emplace_back([&, t] {
      auto& tc = core::tls_context();
      started.fetch_add(1);
      for (int i = 0; !done.load(); i++) {
        { core::Safepoint::SafeScope safe(tc); }
        progress[t].fetch_add(1);  // mutator work right after a safe region
        core::Safepoint::poll(tc);
        Node n = Node::alloc();
        n.init_v(i);
        if (i % 64 == 0) split();
      }
    });
  }
  for (auto& t : ts) t.start();
  while (started.load() < kThreads) std::this_thread::yield();
  auto& me = core::tls_context();
  int running = 0, moved = 0;
  for (int c = 0; c < kCycles; c++) {
    core::Safepoint::stop_world(me);
    uint64_t before[kThreads];
    for (int t = 0; t < kThreads; t++) before[t] = progress[t].load();
    // A thread leaving a safe region stores kRunning, sees the stop and
    // steps back: re-read the states until that transient settles.
    int stillRunning = 0;
    for (int tries = 0; tries < 2000; tries++) {
      stillRunning = 0;
      core::TxnManager::instance().for_each_thread([&](core::ThreadContext* tc) {
        stillRunning += tc != &me && tc->state.load() ==
                                         static_cast<int>(core::ThreadState::kRunning);
      });
      if (stillRunning == 0) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    running += stillRunning;
    for (int t = 0; t < kThreads; t++) moved += progress[t].load() != before[t];
    core::Safepoint::resume_world(me);
    // Let the mutators run, and a GC queued behind this stopper stop
    // the world in turn.
    std::this_thread::sleep_for(std::chrono::microseconds(20));
  }
  done.store(true);
  for (auto& t : ts) t.join();
  Heap::instance().set_gc_threshold(48ULL << 20);
  EXPECT_EQ(running, 0) << "a registered thread stayed running during a stop";
  EXPECT_EQ(moved, 0) << "a mutator made progress during a stop";
  for (int t = 0; t < kThreads; t++) EXPECT_GT(progress[t].load(), 0u);
}

// A thread that unregisters (exits) while a stop is pending, without
// ever polling, must still release the stopper.
TEST(Safepoint, ThreadExitDuringStopReleasesStopper) {
  std::atomic<bool> registered{false};
  std::thread leaver([&] {
    core::tls_context();  // registered and running; never polls
    registered.store(true);
    while (!core::Safepoint::stop_requested()) std::this_thread::yield();
  });
  while (!registered.load()) std::this_thread::yield();
  std::atomic<bool> finished{false};
  std::thread guard([&] {  // not an SBD thread: never stopped
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (!finished.load()) {
      if (std::chrono::steady_clock::now() > deadline) {
        std::fprintf(stderr, "stop_world still waiting 30 s after the last thread exited\n");
        std::abort();
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  });
  auto& me = core::tls_context();
  core::Safepoint::stop_world(me);
  core::Safepoint::resume_world(me);
  finished.store(true);
  guard.join();
  leaver.join();
}

TEST(Statics, TransactionalStaticSlots) {
  static ClassInfo* cls = register_class(
      "WithStatics", {SBD_SLOT("x")}, {SBD_SLOT("counter"), SBD_SLOT_REF("cache")});
  run_sbd([&] {
    static_write_i64(cls, 0, 5);
    EXPECT_EQ(static_read_i64(cls, 0), 5);
    split();
    EXPECT_EQ(static_read_i64(cls, 0), 5);
  });
}

TEST(Statics, InitGuardRunsOnce) {
  static ClassInfo* cls =
      register_class("GuardedInit", {}, {SBD_SLOT("guard"), SBD_SLOT("data")});
  static int initRuns;
  initRuns = 0;
  run_sbd([&] {
    for (int i = 0; i < 5; i++) {
      ensure_static_init(cls, 0, [&] {
        initRuns++;
        static_write_i64(cls, 1, 99);
      });
    }
    EXPECT_EQ(initRuns, 1);
    EXPECT_EQ(static_read_i64(cls, 1), 99);
  });
}

TEST(Statics, InitGuardRerunsAfterAbort) {
  static ClassInfo* cls =
      register_class("GuardedAbort", {}, {SBD_SLOT("guard"), SBD_SLOT("data")});
  static int initRuns;
  initRuns = 0;
  run_sbd([&] {
    static bool aborted;
    aborted = false;
    split();
    ensure_static_init(cls, 0, [&] {
      initRuns++;
      static_write_i64(cls, 1, 7);
    });
    if (!aborted) {
      aborted = true;
      core::abort_and_restart(core::tls_context());
    }
    split();
  });
  run_sbd([&] {
    // The abort rolled the guard back; the retry re-ran the initializer.
    EXPECT_EQ(initRuns, 2);
    EXPECT_EQ(static_read_i64(cls, 1), 7);
  });
}

TEST(MStringT, RoundTrip) {
  run_sbd([&] {
    MString s = MString::make("hello world");
    EXPECT_EQ(s.length(), 11u);
    EXPECT_EQ(s.str(), "hello world");
    EXPECT_TRUE(s.equals("hello world"));
    EXPECT_FALSE(s.equals("hello"));
    EXPECT_EQ(s.at(4), 'o');
  });
}

TEST(MStringT, HashStableAndDiscriminating) {
  run_sbd([&] {
    MString a = MString::make("abc");
    MString b = MString::make("abc");
    MString c = MString::make("abd");
    EXPECT_EQ(a.hash(), b.hash());
    EXPECT_NE(a.hash(), c.hash());
    EXPECT_TRUE(a.equals(b));
  });
}

TEST(RefArrayT, StoresAndTracesRefs) {
  GlobalRoot<RefArray<Node>> root;
  run_sbd([&] {
    auto arr = RefArray<Node>::make(10);
    for (int i = 0; i < 10; i++) {
      Node n = Node::alloc();
      n.init_v(i * 3);
      arr.init_set(i, n);
    }
    root.set(arr);
  });
  Heap::instance().collect();
  run_sbd([&] {
    for (int i = 0; i < 10; i++) EXPECT_EQ(root.get().get(i).v(), i * 3);
  });
}

}  // namespace
}  // namespace sbd::runtime
