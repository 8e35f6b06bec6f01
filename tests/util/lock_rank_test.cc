// Tests for the lock-rank runtime (src/util/lock_rank.h, util/mutex.h):
// LockOrderGraph bookkeeping with golden JSON/DOT dumps, online cycle
// detection, and the enforcement aborts for rank inversion, re-entry,
// conflicting rank registration, and condvar waits holding a second lock.
// The enforcement cases run in every build: the binary links dj_guard,
// which turns the hooks on.
#include "util/lock_rank.h"

#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "util/mutex.h"

namespace deepjoin {
namespace {

using lock_rank::LockOrderGraph;

/// Deliberately violates CondVar::Wait's DJ_REQUIRES(mu) contract for the
/// death test below; the escape hatch keeps the Clang thread-safety build
/// from (correctly) rejecting the call at compile time.
void WaitWithoutHolding(Mutex& mu, CondVar& cv) DJ_NO_THREAD_SAFETY_ANALYSIS {
  cv.Wait(mu);
}

TEST(LockOrderGraphTest, CountsNodesAndDeduplicatesEdges) {
  LockOrderGraph g;
  g.RegisterNode("a.lock", 100, "a.cc:1");
  g.RegisterNode("b.lock", 200, "b.cc:2");
  g.RegisterNode("a.lock", 100, "a.cc:1");  // re-register: no-op
  EXPECT_EQ(g.node_count(), 2u);

  EXPECT_FALSE(g.AddEdge("a.lock", "b.lock", "a.cc:10", "a.cc:11"));
  EXPECT_FALSE(g.AddEdge("a.lock", "b.lock", "x.cc:99", "x.cc:99"));
  EXPECT_EQ(g.edge_count(), 1u);
  // The duplicate bumped the count but kept the first-observed sites.
  EXPECT_NE(g.ToJson().find("\"count\":2,\"from_site\":\"a.cc:10\""),
            std::string::npos)
      << g.ToJson();

  g.Clear();
  EXPECT_EQ(g.node_count(), 0u);
  EXPECT_EQ(g.edge_count(), 0u);
}

TEST(LockOrderGraphTest, GoldenJsonDump) {
  LockOrderGraph g;
  g.RegisterNode("a.lock", 100, "a.cc:1");
  g.RegisterNode("b.lock", 200, "b.cc:2");
  ASSERT_FALSE(g.AddEdge("a.lock", "b.lock", "a.cc:10", "a.cc:11"));
  EXPECT_EQ(
      g.ToJson(),
      "{\"nodes\":["
      "{\"name\":\"a.lock\",\"rank\":100,\"declared_at\":\"a.cc:1\"},"
      "{\"name\":\"b.lock\",\"rank\":200,\"declared_at\":\"b.cc:2\"}],"
      "\"edges\":["
      "{\"from\":\"a.lock\",\"to\":\"b.lock\",\"count\":1,"
      "\"from_site\":\"a.cc:10\",\"to_site\":\"a.cc:11\"}]}");
}

TEST(LockOrderGraphTest, GoldenDotDump) {
  LockOrderGraph g;
  g.RegisterNode("a.lock", 100, "a.cc:1");
  g.RegisterNode("b.lock", 200, "b.cc:2");
  ASSERT_FALSE(g.AddEdge("a.lock", "b.lock", "a.cc:10", "a.cc:11"));
  EXPECT_EQ(g.ToDot(),
            "digraph lock_order {\n"
            "  \"a.lock\" [label=\"a.lock\\nrank=100\"];\n"
            "  \"b.lock\" [label=\"b.lock\\nrank=200\"];\n"
            "  \"a.lock\" -> \"b.lock\" [label=\"1\"];\n"
            "}\n");
}

TEST(LockOrderGraphTest, OnlineCycleDetectionReportsThePath) {
  LockOrderGraph g;
  std::string cycle;
  EXPECT_FALSE(g.AddEdge("a", "b", "s", "s", &cycle));
  EXPECT_FALSE(g.AddEdge("b", "c", "s", "s", &cycle));
  EXPECT_FALSE(g.AddEdge("a", "c", "s", "s", &cycle));  // diamond: acyclic
  EXPECT_TRUE(g.AddEdge("c", "a", "s", "s", &cycle));
  EXPECT_EQ(cycle, "c -> a -> b -> c");
}

TEST(LockRankRuntimeTest, UphillAcquisitionMaintainsDepthAndRecordsEdge) {
  Mutex low("test.rt.low", 71);
  Mutex high("test.rt.high", 72);
  EXPECT_EQ(lock_rank::HeldDepth(), 0u);
  {
    MutexLock lo(low);
    EXPECT_EQ(lock_rank::HeldDepth(), 1u);
    MutexLock hi(high);
    EXPECT_EQ(lock_rank::HeldDepth(), 2u);
  }
  EXPECT_EQ(lock_rank::HeldDepth(), 0u);
  const std::string json = LockOrderGraph::Global().ToJson();
  EXPECT_NE(json.find("\"from\":\"test.rt.low\",\"to\":\"test.rt.high\""),
            std::string::npos)
      << json;
}

TEST(LockRankRuntimeTest, UnrankedLocksParticipateWithoutValidation) {
  Mutex named("test.rt.named", 77);
  Mutex plain;  // default ctor: unranked, skips rank checks
  MutexLock n(named);
  MutexLock p(plain);
  EXPECT_EQ(lock_rank::HeldDepth(), 2u);
}

TEST(LockRankRuntimeTest, TryLockDownhillIsAllowed) {
  // A try-acquire cannot block, so it cannot deadlock: rank order is not
  // enforced, but the acquisition still lands on the held stack.
  Mutex low("test.rt.try_low", 73);
  Mutex high("test.rt.try_high", 74);
  MutexLock hi(high);
  ASSERT_TRUE(low.TryLock());
  EXPECT_EQ(lock_rank::HeldDepth(), 2u);
  low.Unlock();
  EXPECT_EQ(lock_rank::HeldDepth(), 1u);
}

TEST(LockRankRuntimeTest, CondVarWaitSingleLockRoundTrips) {
  Mutex mu("test.rt.cv", 75);
  CondVar cv;
  bool ready = false;
  std::thread notifier([&] {
    MutexLock lock(mu);
    ready = true;
    cv.NotifyOne();
  });
  {
    MutexLock lock(mu);
    while (!ready) cv.Wait(mu);
    // The wakeup re-acquisition pushed the lock back.
    EXPECT_EQ(lock_rank::HeldDepth(), 1u);
  }
  notifier.join();
}

TEST(LockRankDeathTest, RankInversionAborts) {
  Mutex low("test.death.low", 11);
  Mutex high("test.death.high", 22);
  EXPECT_DEATH(
      {
        MutexLock hi(high);
        MutexLock lo(low);
      },
      "lock-rank inversion.*test\\.death\\.low.*test\\.death\\.high");
}

TEST(LockRankDeathTest, EqualRankAborts) {
  // Strictly increasing: equal ranks are an inversion too.
  Mutex a("test.death.eq_a", 33);
  Mutex b("test.death.eq_b", 33);
  EXPECT_DEATH(
      {
        MutexLock la(a);
        MutexLock lb(b);
      },
      "lock-rank inversion");
}

TEST(LockRankDeathTest, ReentrantAcquisitionAborts) {
  Mutex mu("test.death.reentrant", 44);
  EXPECT_DEATH(
      {
        MutexLock outer(mu);
        MutexLock inner(mu);
      },
      "re-entrant acquisition.*test\\.death\\.reentrant");
}

TEST(LockRankDeathTest, ConflictingRankRegistrationAborts) {
  EXPECT_DEATH(
      {
        Mutex first("test.death.mismatch", 51);
        Mutex second("test.death.mismatch", 52);
      },
      "exactly one rank");
}

TEST(LockRankDeathTest, CondVarWaitHoldingSecondLockAborts) {
  Mutex a("test.death.wait_a", 61);
  Mutex b("test.death.wait_b", 62);
  CondVar cv;
  EXPECT_DEATH(
      {
        MutexLock la(a);
        MutexLock lb(b);
        cv.Wait(b);
      },
      "holding other locks");
}

TEST(LockRankDeathTest, CondVarWaitOnUnheldMutexAborts) {
  Mutex mu("test.death.unheld", 63);
  CondVar cv;
  EXPECT_DEATH(WaitWithoutHolding(mu, cv), "does not hold");
}

}  // namespace
}  // namespace deepjoin
