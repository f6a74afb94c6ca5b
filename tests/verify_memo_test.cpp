// Verification-memo tests (src/crypto/verify_memo.hpp): miss-then-hit
// semantics, the FIFO bound, cached `false` verdicts, forged signatures
// inside a certificate tally (rejected by every replica, the second one
// through the memo), the memo's hit rate and the zero-copy path on an
// honest run, and the verified-signature cache's exact metered-verify
// accounting.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/crypto/signer.hpp"
#include "src/crypto/verify_memo.hpp"
#include "src/energy/meter.hpp"
#include "src/harness/cluster.hpp"
#include "src/net/network.hpp"
#include "src/smr/replica.hpp"

namespace eesmr {
namespace {

using crypto::VerifyMemo;
using harness::ClusterConfig;
using harness::Protocol;
using harness::RunResult;

Bytes text(const std::string& s) { return to_bytes(s); }

// ---------------------------------------------------------------------------
// VerifyMemo unit semantics
// ---------------------------------------------------------------------------

TEST(VerifyMemo, MissThenHits) {
  // Cross-node memoization: the first receiver of a frame verifies; the
  // other receivers of the same frame hit.
  VerifyMemo memo;
  int runs = 0;
  const auto check = [&runs] {
    ++runs;
    return true;
  };
  const Bytes pre = text("preimage");
  const Bytes sig = text("sig");
  EXPECT_TRUE(memo.verify(3, pre, sig, check));
  EXPECT_EQ(memo.stats().misses, 1u);
  EXPECT_EQ(memo.stats().hits, 0u);
  EXPECT_TRUE(memo.verify(3, pre, sig, check));
  EXPECT_TRUE(memo.verify(3, pre, sig, check));
  EXPECT_EQ(runs, 1);
  EXPECT_EQ(memo.stats().hits, 2u);
  // Any component of the key differing is a different verification.
  EXPECT_TRUE(memo.verify(4, pre, sig, check));
  EXPECT_TRUE(memo.verify(3, pre, text("sig2"), check));
  EXPECT_TRUE(memo.verify(3, text("preimage2"), sig, check));
  EXPECT_EQ(runs, 4);
  EXPECT_EQ(memo.stats().misses, 4u);
}

TEST(VerifyMemo, KeyFramesThePreimageLength) {
  // (preimage "ab", sig "c") and (preimage "a", sig "bc") concatenate to
  // the same bytes; the length prefix keeps them apart.
  EXPECT_NE(crypto::verify_key(1, text("ab"), text("c")),
            crypto::verify_key(1, text("a"), text("bc")));
}

TEST(VerifyMemo, CachesFalseVerdict) {
  VerifyMemo memo;
  int runs = 0;
  const auto forged = [&runs] {
    ++runs;
    return false;
  };
  EXPECT_FALSE(memo.verify(0, text("m"), text("bad"), forged));
  EXPECT_FALSE(memo.verify(0, text("m"), text("bad"), [] {
    ADD_FAILURE() << "check ran for a memoized verdict";
    return true;
  }));
  EXPECT_EQ(runs, 1);
  EXPECT_EQ(memo.stats().hits, 1u);
  EXPECT_EQ(memo.stats().misses, 1u);
}

TEST(VerifyMemo, FifoBoundEvictsOldestFirst) {
  VerifyMemo memo;
  const Bytes sig = text("s");
  for (std::size_t i = 0; i < VerifyMemo::kMaxEntries + 100; ++i) {
    (void)memo.verify(0, text("k" + std::to_string(i)), sig,
                      [] { return true; });
  }
  EXPECT_EQ(memo.size(), VerifyMemo::kMaxEntries);
  EXPECT_EQ(memo.stats().misses, VerifyMemo::kMaxEntries + 100);
  // The newest entry is still remembered; the oldest was evicted and
  // runs its check again.
  int runs = 0;
  const auto check = [&runs] {
    ++runs;
    return true;
  };
  const std::string newest = "k" + std::to_string(VerifyMemo::kMaxEntries + 99);
  (void)memo.verify(0, text(newest), sig, check);
  EXPECT_EQ(runs, 0);
  (void)memo.verify(0, text("k0"), sig, check);
  EXPECT_EQ(runs, 1);
  EXPECT_EQ(memo.size(), VerifyMemo::kMaxEntries);
}

TEST(VerifyMemo, NoMemoRunsEveryCheck) {
  int runs = 0;
  const auto check = [&runs] {
    ++runs;
    return true;
  };
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(
        crypto::memo_verify(nullptr, 0, text("m"), text("s"), check));
  }
  EXPECT_EQ(runs, 3);
}

// ---------------------------------------------------------------------------
// Forged signature inside a certificate tally
// ---------------------------------------------------------------------------

/// The smallest concrete replica: no protocol, just the base class's
/// metered certificate checks.
class QcProbe final : public smr::ReplicaBase {
 public:
  using ReplicaBase::ReplicaBase;
  void start() override {}
  bool check_qc(const smr::QuorumCert& qc) {
    return verify_qc(qc, quorum());
  }

 protected:
  void handle(NodeId, const smr::Msg&) override {}
};

TEST(VerifyMemo, ForgedVoteInQcRejectedByEveryReplica) {
  constexpr std::size_t kN = 4;
  const auto keyring =
      crypto::Keyring::simulated(crypto::SchemeId::kRsa1024, kN, /*seed=*/7);
  sim::Scheduler sched;
  std::vector<energy::Meter> meters(kN);
  net::Network net(sched, net::Hypergraph::full_mesh(kN),
                   net::TransportConfig{}, &meters);
  VerifyMemo memo;
  smr::ReplicaConfig rc;
  rc.n = kN;
  rc.f = 1;
  rc.keyring = keyring;
  rc.memo = &memo;
  rc.id = 0;
  QcProbe a(net, rc, &meters[0]);
  rc.id = 1;
  QcProbe b(net, rc, &meters[1]);

  std::vector<smr::Msg> votes;
  for (NodeId i = 1; i < kN; ++i) {
    smr::Msg m;
    m.type = smr::MsgType::kVote;
    m.view = 1;
    m.round = 5;
    m.author = i;
    m.data = text("block-5");
    m.sig = keyring->signer(i).sign(m.preimage());
    votes.push_back(m);
  }
  const smr::QuorumCert honest = smr::QuorumCert::combine(votes);
  smr::QuorumCert forged = honest;
  // Exactly one forged signature: node 2's key over another message.
  forged.sigs[1].second = keyring->signer(2).sign(text("something else"));

  EXPECT_FALSE(a.check_qc(forged));
  const VerifyMemo::Stats after_a = memo.stats();
  EXPECT_EQ(after_a.hits, 0u);
  // Replica b re-checks the same certificate: the memo answers the
  // signatures replica a already judged, the forged one included.
  EXPECT_FALSE(b.check_qc(forged));
  EXPECT_EQ(memo.stats().misses, after_a.misses);
  EXPECT_EQ(memo.stats().hits, after_a.misses);

  // Control: the honest certificate passes on both replicas; the
  // signature it shares with the forged one is answered by the memo.
  EXPECT_TRUE(a.check_qc(honest));
  EXPECT_TRUE(b.check_qc(honest));
  // Every signature was metered on both replicas, memo or not: 3 per
  // certificate check.
  EXPECT_EQ(meters[0].ops(energy::Category::kVerify), 6u);
  EXPECT_EQ(meters[1].ops(energy::Category::kVerify), 6u);
}

// ---------------------------------------------------------------------------
// The memo pays: cross-node hits and the zero-copy path on an honest run
// ---------------------------------------------------------------------------

TEST(VerifyMemo, HitsDominateAndZeroCopyOnHonestRun) {
  ClusterConfig cfg;
  cfg.protocol = Protocol::kSyncHotStuff;
  cfg.n = 4;
  cfg.f = 1;
  cfg.seed = 5;
  cfg.clients = 2;
  cfg.workload.mode = client::WorkloadSpec::Mode::kClosedLoop;
  cfg.workload.outstanding = 2;
  harness::Cluster cluster(cfg);
  const RunResult r = cluster.run_until_accepted(10, sim::seconds(60));
  EXPECT_GE(r.requests_accepted, 10u);
  // Broadcast frames are verified by their first receiver and answered
  // from the memo for every other one: hits must dominate misses.
  EXPECT_GT(r.prof.pipeline.join_misses, 0u);
  EXPECT_GT(r.prof.pipeline.join_hits, r.prof.pipeline.join_misses);
  // Zero-copy path: every scheduled delivery and every parsed packet
  // used to copy its frame/payload.
  EXPECT_GT(r.prof.pipeline.bytes_copy_saved, r.bytes_transmitted);
}

// ---------------------------------------------------------------------------
// Verified-signature cache: exact metered accounting
// ---------------------------------------------------------------------------

TEST(SigCache, SkipsExactlyTheCachedTallyVerifications) {
  // Sync HotStuff vote certificates re-verify signatures the replica
  // already checked when the individual votes arrived. The cache makes
  // each such tally check free; it changes no message traffic, so the
  // cache-on and cache-off runs are event-identical and the kVerify
  // meter-op delta is exactly the commit-time request re-checks (the
  // pool-time request cache) plus the certificate-tally hits (this
  // cache).
  ClusterConfig base;
  base.protocol = Protocol::kSyncHotStuff;
  base.n = 4;
  base.f = 1;
  base.seed = 23;
  base.clients = 2;
  base.workload.mode = client::WorkloadSpec::Mode::kClosedLoop;
  base.workload.outstanding = 1;
  base.workload.max_requests = 10;

  const auto run = [](ClusterConfig cfg) {
    harness::Cluster cluster(cfg);
    (void)cluster.run_until_accepted(20, sim::seconds(1000));
    return cluster.run_for(sim::seconds(2));  // quiesce tail commits
  };
  ClusterConfig with = base;
  with.verified_cache = true;
  ClusterConfig without = base;
  without.verified_cache = false;
  const RunResult a = run(with);
  const RunResult b = run(without);
  ASSERT_EQ(a.requests_accepted, 20u);
  ASSERT_EQ(b.requests_accepted, 20u);
  EXPECT_TRUE(a.safety_ok());
  EXPECT_TRUE(b.safety_ok());
  EXPECT_EQ(a.min_committed(), b.min_committed());

  const auto verify_ops = [&](const RunResult& r) {
    std::uint64_t ops = 0;
    for (std::size_t i = 0; i < base.n; ++i) {
      ops += r.meters[i].ops(energy::Category::kVerify);
    }
    return ops;
  };
  // The cached run knows exactly how many tally verifies it skipped.
  EXPECT_GT(a.prof.pipeline.sig_cache_hits, 0u);
  EXPECT_EQ(b.prof.pipeline.sig_cache_hits, 0u);
  EXPECT_EQ(verify_ops(b) - verify_ops(a),
            20u * base.n + a.prof.pipeline.sig_cache_hits);
}

}  // namespace
}  // namespace eesmr
