// Adapted class library: managed collections under SBD semantics.
#include "jcl/collections.h"

#include <gtest/gtest.h>

#include <atomic>
#include <string>

#include "core/transaction.h"
#include "runtime/object.h"

namespace sbd::jcl {
namespace {

using runtime::ManagedObject;

class Item : public runtime::TypedRef<Item> {
 public:
  SBD_CLASS(Item, SBD_SLOT("v"))
  SBD_FIELD_I64(0, v)
  static Item make(int64_t v) {
    Item it = alloc();
    it.init_v(v);
    return it;
  }
};

TEST(MVectorT, PushGrowPopRoundTrip) {
  run_sbd([&] {
    MVector v = MVector::make(2);
    for (int i = 0; i < 50; i++) v.push(Item::make(i).raw());
    EXPECT_EQ(v.size(), 50);
    for (int i = 0; i < 50; i++) EXPECT_EQ(v.at<Item>(i).v(), i);
    for (int i = 49; i >= 0; i--) EXPECT_EQ(Item(v.pop()).v(), i);
    EXPECT_TRUE(v.empty());
    EXPECT_EQ(v.pop(), nullptr);
  });
}

TEST(MVectorT, SetOverwrites) {
  run_sbd([&] {
    MVector v = MVector::make();
    v.push(Item::make(1).raw());
    v.set(0, Item::make(9).raw());
    EXPECT_EQ(v.at<Item>(0).v(), 9);
  });
}

TEST(MVectorT, RolledBackByAbort) {
  runtime::GlobalRoot<MVector> root;
  run_sbd([&] {
    static bool aborted;
    aborted = false;
    root.set(MVector::make());
    root.get().push(Item::make(1).raw());
    split();
    root.get().push(Item::make(2).raw());
    if (!aborted) {
      aborted = true;
      core::abort_and_restart(core::tls_context());
    }
    split();
  });
  run_sbd([&] {
    // one push before the split + exactly one committed retry push
    EXPECT_EQ(root.get().size(), 2);
    EXPECT_EQ(root.get().at<Item>(1).v(), 2);
  });
}

TEST(MIntMapT, PutGetContains) {
  run_sbd([&] {
    MIntMap m = MIntMap::make();
    for (int64_t k = 0; k < 200; k++) m.put(k * 7, Item::make(k).raw());
    EXPECT_EQ(m.size(), 200);
    for (int64_t k = 0; k < 200; k++) {
      EXPECT_TRUE(m.contains(k * 7));
      EXPECT_EQ(m.at<Item>(k * 7).v(), k);
    }
    EXPECT_FALSE(m.contains(3));
    EXPECT_EQ(m.get(3), nullptr);
  });
}

TEST(MIntMapT, OverwriteKeepsSize) {
  run_sbd([&] {
    MIntMap m = MIntMap::make();
    m.put(5, Item::make(1).raw());
    m.put(5, Item::make(2).raw());
    EXPECT_EQ(m.size(), 1);
    EXPECT_EQ(m.at<Item>(5).v(), 2);
  });
}

TEST(MIntMapT, SurvivesRehashAndGc) {
  runtime::GlobalRoot<MIntMap> root;
  run_sbd([&] {
    MIntMap m = MIntMap::make(8);
    for (int64_t k = 0; k < 500; k++) m.put(k, Item::make(k * k).raw());
    root.set(m);
  });
  runtime::Heap::instance().collect();
  run_sbd([&] {
    for (int64_t k = 0; k < 500; k += 37) EXPECT_EQ(root.get().at<Item>(k).v(), k * k);
  });
}

TEST(MStrMapT, StringKeys) {
  run_sbd([&] {
    MStrMap m = MStrMap::make();
    m.put(runtime::MString::make("alpha"), Item::make(1).raw());
    m.put(runtime::MString::make("beta"), Item::make(2).raw());
    EXPECT_EQ(Item(m.get("alpha")).v(), 1);
    EXPECT_EQ(Item(m.get("beta")).v(), 2);
    EXPECT_EQ(m.get("gamma"), nullptr);
    EXPECT_EQ(m.size(), 2);
  });
}

TEST(MStrMapT, GetOrPutIdempotent) {
  run_sbd([&] {
    MStrMap m = MStrMap::make();
    int makes = 0;
    auto mk = [&] {
      makes++;
      return Item::make(7).raw();
    };
    ManagedObject* a = m.get_or_put("key", mk);
    ManagedObject* b = m.get_or_put("key", mk);
    EXPECT_EQ(a, b);
    EXPECT_EQ(makes, 1);
  });
}

TEST(MStrMapT, ManyKeysWithRehash) {
  run_sbd([&] {
    MStrMap m = MStrMap::make(8);
    for (int i = 0; i < 300; i++)
      m.put(runtime::MString::make("key" + std::to_string(i)), Item::make(i).raw());
    EXPECT_EQ(m.size(), 300);
    for (int i = 0; i < 300; i += 17)
      EXPECT_EQ(Item(m.get("key" + std::to_string(i))).v(), i);
  });
}

TEST(MTaskQueueT, FifoOrder) {
  run_sbd([&] {
    MTaskQueue q = MTaskQueue::make(16, /*useEmptyFlag=*/true);
    EXPECT_TRUE(q.empty_check());
    for (int i = 0; i < 10; i++) EXPECT_TRUE(q.put(Item::make(i).raw()));
    EXPECT_FALSE(q.empty_check());
    for (int i = 0; i < 10; i++) EXPECT_EQ(Item(q.take()).v(), i);
    EXPECT_TRUE(q.empty_check());
    EXPECT_EQ(q.take(), nullptr);
  });
}

TEST(MTaskQueueT, RespectsCapacity) {
  run_sbd([&] {
    MTaskQueue q = MTaskQueue::make(2, true);
    EXPECT_TRUE(q.put(Item::make(1).raw()));
    EXPECT_TRUE(q.put(Item::make(2).raw()));
    EXPECT_FALSE(q.put(Item::make(3).raw()));
  });
}

TEST(MTaskQueueT, WrapsAroundRing) {
  run_sbd([&] {
    MTaskQueue q = MTaskQueue::make(4, false);
    for (int round = 0; round < 5; round++) {
      for (int i = 0; i < 4; i++) ASSERT_TRUE(q.put(Item::make(round * 10 + i).raw()));
      for (int i = 0; i < 4; i++) ASSERT_EQ(Item(q.take()).v(), round * 10 + i);
    }
  });
}

// The Table 4 JCL claim, measured: with the isEmpty flag, a taker that
// finds the queue populated and a putter adding to a non-empty queue do
// NOT conflict on the same field; without it, both touch `size`.
TEST(MTaskQueueT, EmptyFlagReducesConflictSurface) {
  std::atomic<uint64_t> withFlagConflicts{0}, withoutFlagConflicts{0};
  auto measure = [&](bool useFlag) {
    runtime::GlobalRoot<MTaskQueue> q;
    run_sbd([&] {
      q.set(MTaskQueue::make(1024, useFlag));
      // Pre-fill so the queue never transitions to empty.
      for (int i = 0; i < 64; i++) q.get().put(Item::make(i).raw());
    });
    const auto before = core::TxnManager::instance().snapshot_stats();
    {
      threads::SbdThread producer([&] {
        for (int i = 0; i < 300; i++) {
          q.get().put(Item::make(i).raw());
          split();
        }
      });
      threads::SbdThread consumer([&] {
        for (int i = 0; i < 300; i++) {
          q.get().take();
          split();
        }
      });
      producer.start();
      consumer.start();
      producer.join();
      consumer.join();
    }
    const auto after = core::TxnManager::instance().snapshot_stats();
    return after.contendedAcquires - before.contendedAcquires;
  };
  withFlagConflicts = measure(true);
  withoutFlagConflicts = measure(false);
  // Both variants conflict on head/tail/size sometimes; the flag variant
  // must not be *worse*. (The strong separation shows up in the
  // dedicated ablation bench with more threads.)
  EXPECT_LE(withFlagConflicts.load(), withoutFlagConflicts.load() + 50);
}

// Every backing array comes from the JCL's own array classes: one lock
// word per array under the field and object process maps, and the
// process map's per-element stamps under versioned.
void expect_jcl_backing_array(ManagedObject* owner, uint32_t slot) {
  auto* arr = reinterpret_cast<ManagedObject*>(runtime::tx_read(owner, slot));
  ASSERT_NE(arr, nullptr);
  const runtime::LockMap map = arr->h.cls->lockMap;
  if (runtime::process_lock_map().versioned()) {
    EXPECT_TRUE(map.versioned()) << arr->h.cls->name;
    EXPECT_EQ(runtime::lock_count(arr), runtime::array_length(arr)) << arr->h.cls->name;
  } else {
    EXPECT_EQ(map, runtime::LockMap::object_map()) << arr->h.cls->name;
    EXPECT_EQ(runtime::lock_count(arr), 1u) << arr->h.cls->name;
  }
}

TEST(JclArrays, BackingArraysTakeOneLockWordUnlessVersioned) {
  run_sbd([&] {
    MVector v = MVector::make(40);
    for (int i = 0; i < 40; i++) v.push(Item::make(i).raw());  // grows once
    expect_jcl_backing_array(v.raw(), 0);
    MIntMap im = MIntMap::make(8);
    for (int64_t k = 0; k < 20; k++) im.put(k, Item::make(k).raw());  // rehashes
    for (uint32_t slot : {0u, 1u, 2u}) expect_jcl_backing_array(im.raw(), slot);
    MStrMap sm = MStrMap::make(8);
    for (int i = 0; i < 20; i++)
      sm.put(runtime::MString::make("k" + std::to_string(i)), Item::make(i).raw());
    for (uint32_t slot : {0u, 1u, 2u}) expect_jcl_backing_array(sm.raw(), slot);
    MTaskQueue q = MTaskQueue::make(8, true);
    expect_jcl_backing_array(q.raw(), 0);
  });
}

// Walking a published vector read-locks its backing array once, not
// once per element (the field and object maps; versioned reads lock
// nothing).
TEST(JclArrays, WalkingAVectorTakesOneArrayLock) {
  runtime::GlobalRoot<MVector> root;
  run_sbd([&] {
    root.set(MVector::make(64));
    for (int i = 0; i < 64; i++) root.get().push(Item::make(i).raw());
  });
  run_sbd([&] {
    auto& tc = core::tls_context();
    MVector v = root.get();
    const uint64_t before = tc.stats.acqRls;
    int present = 0;
    for (int64_t i = 0; i < v.size(); i++) present += v.get(i) != nullptr;
    EXPECT_EQ(present, 64);
    // The vector's size and data slots (one word under object), then the array.
    if (!runtime::process_lock_map().versioned()) {
      EXPECT_LE(tc.stats.acqRls - before, 3u);
    }
  });
}

// Two threads working on distinct keys and on one vector: with one lock
// word per array a reader and a writer of different elements now
// conflict, so the runs block or abort and replay more, and the
// contents must still come out exact.
TEST(JclArrays, TwoThreadsKeepExactContents) {
  constexpr int kPerThread = 200;
  runtime::GlobalRoot<MStrMap> map;
  runtime::GlobalRoot<MVector> vec;
  run_sbd([&] {
    map.set(MStrMap::make(8));
    vec.set(MVector::make(4));
  });
  std::atomic<int> mismatches{0};
  {
    std::vector<threads::SbdThread> ts;
    for (int t = 0; t < 2; t++) {
      ts.emplace_back([&, t] {
        for (int i = 0; i < kPerThread; i++) {
          {
            // Restore-safety: the key strings close before the split.
            const std::string key = "t" + std::to_string(t) + "." + std::to_string(i);
            map.get().put(runtime::MString::make(key), Item::make(t * 1000 + i).raw());
            if (i > 0) {
              const std::string prev = "t" + std::to_string(t) + "." + std::to_string(i - 1);
              ManagedObject* got = map.get().get(prev);
              if (!got || Item(got).v() != t * 1000 + i - 1) mismatches++;
            }
          }
          vec.get().push(Item::make(t * 1000 + i).raw());
          if (vec.get().at<Item>(vec.get().size() - 1).v() != t * 1000 + i) mismatches++;
          split();
        }
      });
    }
    for (auto& th : ts) th.start();
    for (auto& th : ts) th.join();
  }
  EXPECT_EQ(mismatches.load(), 0);
  run_sbd([&] {
    EXPECT_EQ(map.get().size(), 2 * kPerThread);
    for (int t = 0; t < 2; t++)
      for (int i = 0; i < kPerThread; i++) {
        ManagedObject* got = map.get().get("t" + std::to_string(t) + "." + std::to_string(i));
        ASSERT_NE(got, nullptr) << t << "." << i;
        EXPECT_EQ(Item(got).v(), t * 1000 + i);
      }
    // Each thread's pushes appear once, in its own order.
    ASSERT_EQ(vec.get().size(), 2 * kPerThread);
    int next[2] = {0, 0};
    for (int64_t j = 0; j < vec.get().size(); j++) {
      const int64_t val = vec.get().at<Item>(j).v();
      const int t = static_cast<int>(val / 1000);
      ASSERT_TRUE(t == 0 || t == 1) << val;
      EXPECT_EQ(val % 1000, next[t]++);
    }
    EXPECT_EQ(next[0], kPerThread);
    EXPECT_EQ(next[1], kPerThread);
  });
}

}  // namespace
}  // namespace sbd::jcl
