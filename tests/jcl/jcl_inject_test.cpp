// Failure injection over the managed collections: concurrent producers
// and consumers with forced aborts at every split must neither lose nor
// duplicate elements.
#include <gtest/gtest.h>

#include <atomic>
#include <set>

#include "core/fault.h"
#include "jcl/collections.h"

namespace sbd::jcl {
namespace {

class Token : public runtime::TypedRef<Token> {
 public:
  SBD_CLASS(InjToken, SBD_SLOT("v"))
  SBD_FIELD_I64(0, v)
  static Token make(int64_t v) {
    Token t = alloc();
    t.init_v(v);
    return t;
  }
};

TEST(JclInject, QueueTransfersExactlyOnce) {
  constexpr int kItems = 150;
  runtime::GlobalRoot<MTaskQueue> queue;
  runtime::GlobalRoot<runtime::I64Array> seen;  // per-item delivery count
  run_sbd([&] {
    queue.set(MTaskQueue::make(kItems + 1, true));
    seen.set(runtime::I64Array::make(kItems));
  });
  fault::PlanScope inject(fault::single_site(fault::Site::kSplitAbort, 0.15, 99));
  {
    threads::SbdThread producer([&] {
      for (int i = 0; i < kItems; i++) {
        queue.get().put(Token::make(i).raw());
        split();
      }
    });
    threads::SbdThread consumer([&] {
      int got = 0;
      while (got < kItems) {
        runtime::ManagedObject* item = queue.get().take();
        if (item) {
          Token t(item);
          seen.get().set(static_cast<uint64_t>(t.v()),
                         seen.get().get(static_cast<uint64_t>(t.v())) + 1);
          got++;
        }
        split();
      }
    });
    producer.start();
    consumer.start();
    producer.join();
    consumer.join();
  }
  EXPECT_GT(fault::fired(fault::Site::kSplitAbort), 0u);
  run_sbd([&] {
    for (int i = 0; i < kItems; i++)
      EXPECT_EQ(seen.get().get(static_cast<uint64_t>(i)), 1)
          << "item " << i << " delivered a wrong number of times";
  });
}

TEST(JclInject, MapInsertsSurviveRetryStorm) {
  runtime::GlobalRoot<MStrMap> map;
  run_sbd([&] { map.set(MStrMap::make(8)); });
  fault::PlanScope inject(fault::single_site(fault::Site::kSplitAbort, 0.2, 4242));
  {
    std::vector<threads::SbdThread> ts;
    for (int t = 0; t < 2; t++) {
      ts.emplace_back([&, t] {
        for (int i = 0; i < 80; i++) {
          const int key = t * 1000 + i;
          // Restore-safety: the key string dies before the split.
          {
            map.get().put(runtime::MString::make("k" + std::to_string(key)),
                          Token::make(key).raw());
          }
          split();
        }
      });
    }
    for (auto& t : ts) t.start();
    for (auto& t : ts) t.join();
  }
  EXPECT_GT(fault::fired(fault::Site::kSplitAbort), 0u);
  run_sbd([&] {
    EXPECT_EQ(map.get().size(), 160);
    for (int t = 0; t < 2; t++)
      for (int i = 0; i < 80; i += 13) {
        const int key = t * 1000 + i;
        Token tok(map.get().get("k" + std::to_string(key)));
        ASSERT_FALSE(tok.is_null());
        EXPECT_EQ(tok.v(), key);
      }
  });
}

TEST(JclInject, VectorPushesAtomicUnderAborts) {
  runtime::GlobalRoot<MVector> vec;
  run_sbd([&] { vec.set(MVector::make(4)); });
  fault::PlanScope inject(fault::single_site(fault::Site::kSplitAbort, 0.2, 777));
  {
    std::vector<threads::SbdThread> ts;
    for (int t = 0; t < 3; t++) {
      ts.emplace_back([&, t] {
        for (int i = 0; i < 60; i++) {
          vec.get().push(Token::make(t * 100 + i).raw());
          split();
        }
      });
    }
    for (auto& t : ts) t.start();
    for (auto& t : ts) t.join();
  }
  run_sbd([&] {
    ASSERT_EQ(vec.get().size(), 180);
    // Every element present exactly once.
    std::set<int64_t> values;
    for (int64_t i = 0; i < 180; i++)
      EXPECT_TRUE(values.insert(vec.get().at<Token>(i).v()).second);
  });
}

}  // namespace
}  // namespace sbd::jcl
