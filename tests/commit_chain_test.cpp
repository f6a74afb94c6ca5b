// commit_chain re-commit and conflict handling (src/smr/replica.cpp),
// driven directly through a protocol-less replica: committing the tip,
// a retained ancestor, genesis, or a block below the low-water mark
// again changes nothing, and a block on a conflicting branch still
// throws unless the replica tolerates a private fork.
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/crypto/signer.hpp"
#include "src/energy/meter.hpp"
#include "src/net/network.hpp"
#include "src/smr/app.hpp"
#include "src/smr/replica.hpp"

namespace eesmr {
namespace {

using smr::Block;
using smr::BlockHash;

/// The smallest concrete replica: no protocol, just the base class's
/// store and commit path.
class CommitProbe final : public smr::ReplicaBase {
 public:
  using ReplicaBase::ReplicaBase;
  using ReplicaBase::commit_chain;
  void start() override {}
  bool add(const Block& b) { return store_.add(b); }

 protected:
  void handle(NodeId, const smr::Msg&) override {}
};

Block child(const Block& parent, const std::string& cmd) {
  Block b;
  b.parent = parent.hash();
  b.height = parent.height + 1;
  b.view = 1;
  b.round = b.height + 2;
  b.proposer = 0;
  b.cmds = {smr::Command{to_bytes(cmd)}};
  return b;
}

/// genesis <- b1 <- ... <- b<len>, each block incrementing one counter,
/// so any re-execution shows in the app state.
std::vector<Block> chain(std::size_t len, const std::string& key) {
  std::vector<Block> out;
  const Block* parent = &smr::genesis_block();
  out.reserve(len);
  for (std::size_t i = 0; i < len; ++i) {
    out.push_back(child(*parent, "inc " + key));
    parent = &out.back();
  }
  return out;
}

/// A single replica (n = 1, f = 0) with a KvStore attached. With f = 0 a
/// replica's own attestation makes a checkpoint stable, so truncation
/// happens inside commit_chain.
struct Rig {
  explicit Rig(std::uint64_t checkpoint_interval = 0)
      : net(sched, net::Hypergraph::full_mesh(1), net::TransportConfig{},
            &meters) {
    smr::ReplicaConfig rc;
    rc.n = 1;
    rc.f = 0;
    rc.keyring =
        crypto::Keyring::simulated(crypto::SchemeId::kRsa1024, 1, /*seed=*/3);
    rc.checkpoint_interval = checkpoint_interval;
    replica = std::make_unique<CommitProbe>(net, rc, &meters[0]);
    replica->attach_app(&app);
  }

  /// Everything a repeated commit must leave untouched.
  struct State {
    std::vector<Block> log;
    std::uint64_t committed = 0;
    BlockHash tip;
    Bytes app;
    std::size_t results = 0;
    bool operator==(const State&) const = default;
  };
  [[nodiscard]] State state() const {
    return {replica->log(), replica->committed_blocks(),
            replica->committed_tip(), app.snapshot(),
            replica->execution_results().size()};
  }

  sim::Scheduler sched;
  std::vector<energy::Meter> meters = std::vector<energy::Meter>(1);
  net::Network net;
  smr::KvStore app;
  std::unique_ptr<CommitProbe> replica;
};

TEST(CommitChain, RecommittingTipAncestorOrGenesisIsANoOp) {
  Rig rig;
  const std::vector<Block> blocks = chain(5, "k");
  for (const Block& b : blocks) ASSERT_TRUE(rig.replica->add(b));
  rig.replica->commit_chain(blocks.back().hash());
  ASSERT_EQ(rig.replica->log().size(), 5u);
  ASSERT_EQ(rig.app.get("k"), "5");
  const Rig::State before = rig.state();

  rig.replica->commit_chain(blocks.back().hash());  // the tip
  rig.replica->commit_chain(blocks[2].hash());      // a retained ancestor
  rig.replica->commit_chain(blocks[0].hash());
  rig.replica->commit_chain(smr::genesis_hash());
  EXPECT_EQ(rig.state(), before);
  EXPECT_EQ(rig.app.get("k"), "5");
}

TEST(CommitChain, HashBelowLowWaterMarkIsANoOp) {
  Rig rig(/*checkpoint_interval=*/2);
  const std::vector<Block> blocks = chain(5, "k");
  for (const Block& b : blocks) ASSERT_TRUE(rig.replica->add(b));
  rig.replica->commit_chain(blocks.back().hash());
  // Checkpoints at heights 2 and 4 stabilized on the replica's own
  // attestation: the log keeps only b5, the store only b4 and b5.
  ASSERT_EQ(rig.replica->low_water_mark(), 4u);
  ASSERT_EQ(rig.replica->log().size(), 1u);
  ASSERT_FALSE(rig.replica->store().contains(blocks[1].hash()));
  const Rig::State before = rig.state();

  rig.replica->commit_chain(blocks[1].hash());  // truncated from the store
  rig.replica->commit_chain(blocks[3].hash());  // the retained root
  rig.replica->commit_chain(smr::genesis_hash());
  rig.replica->commit_chain(blocks.back().hash());
  EXPECT_EQ(rig.state(), before);
  EXPECT_EQ(rig.replica->committed_blocks(), 5u);
  EXPECT_EQ(rig.app.get("k"), "5");
}

TEST(CommitChain, ConflictingBranchThrowsUnlessForkTolerated) {
  Rig rig;
  const std::vector<Block> blocks = chain(3, "k");
  for (const Block& b : blocks) ASSERT_TRUE(rig.replica->add(b));
  rig.replica->commit_chain(blocks.back().hash());
  // A sibling of b2 and its child: neither extends the committed tip b3.
  const Block fork2 = child(blocks[0], "inc other");
  const Block fork3 = child(fork2, "inc other");
  ASSERT_TRUE(rig.replica->add(fork2));
  ASSERT_TRUE(rig.replica->add(fork3));
  const Rig::State before = rig.state();

  for (const Block* b : {&fork2, &fork3}) {
    try {
      rig.replica->commit_chain(b->hash());
      ADD_FAILURE() << "conflicting commit at height " << b->height;
    } catch (const std::logic_error& e) {
      EXPECT_NE(std::string(e.what()).find("commit_chain: conflicting commit"),
                std::string::npos)
          << e.what();
    }
  }
  EXPECT_EQ(rig.state(), before);

  rig.replica->set_tolerate_fork(true);
  EXPECT_NO_THROW(rig.replica->commit_chain(fork3.hash()));
  EXPECT_EQ(rig.state(), before);
  EXPECT_FALSE(rig.app.get("other").has_value());
}

}  // namespace
}  // namespace eesmr
