#include "src/smr/block.hpp"

#include <gtest/gtest.h>

#include "src/common/serde.hpp"
#include "src/smr/chain.hpp"
#include "src/smr/mempool.hpp"

namespace eesmr::smr {
namespace {

Block make_child(const Block& parent, std::uint64_t round,
                 const std::string& cmd) {
  Block b;
  b.parent = parent.hash();
  b.height = parent.height + 1;
  b.view = 1;
  b.round = round;
  b.proposer = 0;
  b.cmds = {Command{to_bytes(cmd)}};
  return b;
}

TEST(Block, GenesisIsStable) {
  EXPECT_EQ(genesis_block().height, 0u);
  EXPECT_TRUE(genesis_block().cmds.empty());
  EXPECT_EQ(genesis_hash(), genesis_block().hash());
  EXPECT_EQ(genesis_hash().size(), 32u);
}

TEST(Block, EncodeDecodeRoundTrip) {
  Block b = make_child(genesis_block(), 3, "cmd-a");
  b.cmds.push_back(Command{Bytes{1, 2, 3}});
  const Block decoded = Block::decode(b.encode());
  EXPECT_EQ(decoded, b);
  EXPECT_EQ(decoded.hash(), b.hash());
}

TEST(Block, HashBindsEveryField) {
  const Block base = make_child(genesis_block(), 3, "x");
  Block b1 = base;
  b1.round = 4;
  Block b2 = base;
  b2.view = 2;
  Block b3 = base;
  b3.cmds[0].data.push_back(0);
  Block b4 = base;
  b4.proposer = 1;
  for (const Block& b : {b1, b2, b3, b4}) {
    EXPECT_NE(b.hash(), base.hash());
  }
}

TEST(Block, PayloadBytes) {
  Block b = make_child(genesis_block(), 3, "12345");
  b.cmds.push_back(Command{Bytes(11, 0)});
  EXPECT_EQ(b.payload_bytes(), 16u);
}

TEST(Block, DecodeRejectsTrailingGarbage) {
  Bytes enc = genesis_block().encode();
  enc.push_back(0xff);
  EXPECT_THROW(Block::decode(enc), SerdeError);
}

// -- BlockStore -----------------------------------------------------------------

TEST(BlockStore, StartsWithGenesis) {
  BlockStore store;
  EXPECT_TRUE(store.contains(genesis_hash()));
  EXPECT_EQ(store.size(), 1u);
}

TEST(BlockStore, AddChainAndQueryAncestry) {
  BlockStore store;
  const Block b1 = make_child(genesis_block(), 3, "a");
  const Block b2 = make_child(b1, 4, "b");
  EXPECT_TRUE(store.add(b1));
  EXPECT_TRUE(store.add(b2));
  EXPECT_TRUE(store.extends(b2.hash(), genesis_hash()));
  EXPECT_TRUE(store.extends(b2.hash(), b1.hash()));
  EXPECT_TRUE(store.extends(b1.hash(), b1.hash()));  // reflexive
  EXPECT_FALSE(store.extends(b1.hash(), b2.hash()));
}

TEST(BlockStore, ConflictDetection) {
  BlockStore store;
  const Block b1 = make_child(genesis_block(), 3, "a");
  const Block fork = make_child(genesis_block(), 3, "b");
  store.add(b1);
  store.add(fork);
  EXPECT_TRUE(store.conflicts(b1.hash(), fork.hash()));
  EXPECT_FALSE(store.conflicts(b1.hash(), genesis_hash()));
}

TEST(BlockStore, RejectsMissingParent) {
  BlockStore store;
  const Block b1 = make_child(genesis_block(), 3, "a");
  const Block b2 = make_child(b1, 4, "b");
  EXPECT_FALSE(store.add(b2));  // parent unknown
  EXPECT_FALSE(store.contains(b2.hash()));
}

TEST(BlockStore, HeightMismatchThrows) {
  BlockStore store;
  Block bad = make_child(genesis_block(), 3, "a");
  bad.height = 5;
  EXPECT_THROW(store.add(bad), std::invalid_argument);
}

TEST(BlockStore, OrphanAdoption) {
  BlockStore store;
  const Block b1 = make_child(genesis_block(), 3, "a");
  const Block b2 = make_child(b1, 4, "b");
  const Block b3 = make_child(b2, 5, "c");
  store.add_orphan(b3);
  store.add_orphan(b2);
  EXPECT_EQ(store.orphan_count(), 2u);
  EXPECT_TRUE(store.adopt_orphans().empty());  // b1 still missing
  store.add(b1);
  const auto adopted = store.adopt_orphans();
  EXPECT_EQ(adopted.size(), 2u);
  EXPECT_TRUE(store.contains(b3.hash()));
  EXPECT_EQ(store.orphan_count(), 0u);
}

TEST(BlockStore, ChainBetween) {
  BlockStore store;
  const Block b1 = make_child(genesis_block(), 3, "a");
  const Block b2 = make_child(b1, 4, "b");
  const Block b3 = make_child(b2, 5, "c");
  store.add(b1);
  store.add(b2);
  store.add(b3);
  const auto chain = store.chain_between(b3.hash(), b1.hash());
  ASSERT_EQ(chain.size(), 2u);
  EXPECT_EQ(chain[0], b2);
  EXPECT_EQ(chain[1], b3);
  EXPECT_TRUE(store.chain_between(b1.hash(), b1.hash()).empty());
}

TEST(BlockStore, ChainBetweenRejectsNonAncestor) {
  BlockStore store;
  const Block b1 = make_child(genesis_block(), 3, "a");
  const Block fork = make_child(genesis_block(), 3, "b");
  store.add(b1);
  store.add(fork);
  EXPECT_THROW(store.chain_between(b1.hash(), fork.hash()),
               std::invalid_argument);
}

// Ancestry walks compare stored keys; after a re-root the walk must stop
// at the new root, whose parent is gone.
TEST(BlockStore, ReRootedStoreWalksStopAtRoot) {
  const Block b1 = make_child(genesis_block(), 3, "a");
  const Block b2 = make_child(b1, 4, "b");
  const Block b3 = make_child(b2, 5, "c");
  const Block b4 = make_child(b3, 6, "d");

  // Checkpoint truncation of a connected chain.
  BlockStore store;
  for (const Block* b : {&b1, &b2, &b3, &b4}) ASSERT_TRUE(store.add(*b));
  store.truncate_below(b2.hash());
  EXPECT_EQ(store.size(), 3u);
  EXPECT_FALSE(store.contains(genesis_hash()));
  EXPECT_FALSE(store.contains(b1.hash()));
  EXPECT_TRUE(store.extends(b4.hash(), b2.hash()));
  EXPECT_FALSE(store.extends(b4.hash(), b1.hash()));
  EXPECT_FALSE(store.extends(b4.hash(), genesis_hash()));
  const auto chain = store.chain_between(b4.hash(), b2.hash());
  ASSERT_EQ(chain.size(), 2u);
  EXPECT_EQ(chain[0], b3);
  EXPECT_EQ(chain[1], b4);
  EXPECT_THROW(store.chain_between(b4.hash(), b1.hash()),
               std::invalid_argument);

  // State transfer: the root arrives with no local ancestry at all.
  BlockStore adopted;
  adopted.adopt_root(b2);
  adopted.truncate_below(b2.hash());
  EXPECT_EQ(adopted.size(), 1u);
  EXPECT_FALSE(adopted.add(b4));  // b3 still missing
  ASSERT_TRUE(adopted.add(b3));
  EXPECT_TRUE(adopted.extends(b3.hash(), b2.hash()));
  EXPECT_FALSE(adopted.extends(b3.hash(), genesis_hash()));
  EXPECT_FALSE(adopted.conflicts(b3.hash(), b2.hash()));
  const auto tail = adopted.chain_between(b3.hash(), b2.hash());
  ASSERT_EQ(tail.size(), 1u);
  EXPECT_EQ(tail[0], b3);
  EXPECT_THROW(adopted.chain_between(b3.hash(), genesis_hash()),
               std::invalid_argument);
}

// Siblings at height >= 2: the walk has to pass a shared ancestor other
// than genesis before it can tell the branches apart.
TEST(BlockStore, ForkAboveGenesis) {
  BlockStore store;
  const Block b1 = make_child(genesis_block(), 3, "a");
  const Block b2 = make_child(b1, 4, "b");
  const Block b3 = make_child(b2, 5, "c");
  const Block c2 = make_child(b1, 4, "x");
  const Block c3 = make_child(c2, 5, "y");
  for (const Block* b : {&b1, &b2, &b3, &c2, &c3}) ASSERT_TRUE(store.add(*b));

  EXPECT_TRUE(store.conflicts(b2.hash(), c2.hash()));
  EXPECT_TRUE(store.conflicts(b3.hash(), c3.hash()));
  EXPECT_TRUE(store.conflicts(b3.hash(), c2.hash()));
  EXPECT_TRUE(store.conflicts(c3.hash(), b2.hash()));
  EXPECT_FALSE(store.conflicts(b3.hash(), b1.hash()));
  EXPECT_FALSE(store.conflicts(b3.hash(), b2.hash()));
  EXPECT_FALSE(store.conflicts(c3.hash(), b1.hash()));
  EXPECT_FALSE(store.conflicts(c3.hash(), c2.hash()));
  EXPECT_FALSE(store.conflicts(c3.hash(), genesis_hash()));

  const auto branch = store.chain_between(c3.hash(), b1.hash());
  ASSERT_EQ(branch.size(), 2u);
  EXPECT_EQ(branch[0], c2);
  EXPECT_EQ(branch[1], c3);
  EXPECT_THROW(store.chain_between(c3.hash(), b2.hash()),
               std::invalid_argument);
  EXPECT_THROW(store.chain_between(b3.hash(), c2.hash()),
               std::invalid_argument);
}

TEST(BlockStore, AdoptOrphansConnectsSiblings) {
  BlockStore store;
  const Block b1 = make_child(genesis_block(), 3, "a");
  const Block left = make_child(b1, 4, "l");
  const Block right = make_child(b1, 4, "r");
  store.add_orphan(left);
  store.add_orphan(right);
  ASSERT_TRUE(store.deepest_orphan().has_value());
  EXPECT_EQ(store.deepest_orphan()->height, 2u);
  EXPECT_TRUE(store.adopt_orphans().empty());  // b1 still missing

  ASSERT_TRUE(store.add(b1));
  const auto adopted = store.adopt_orphans();
  ASSERT_EQ(adopted.size(), 2u);
  EXPECT_NE(adopted[0], adopted[1]);
  for (const Block& b : adopted) {
    EXPECT_TRUE(b == left || b == right);
    EXPECT_TRUE(store.extends(b.hash(), b1.hash()));
  }
  EXPECT_EQ(store.orphan_count(), 0u);
  EXPECT_FALSE(store.deepest_orphan().has_value());
  EXPECT_TRUE(store.conflicts(left.hash(), right.hash()));
}

// -- Mempool ----------------------------------------------------------------------

TEST(Mempool, ExplicitSubmission) {
  Mempool pool(0);
  pool.submit(Command{to_bytes(std::string("one"))});
  pool.submit(Command{to_bytes(std::string("two"))});
  EXPECT_EQ(pool.pending(), 2u);
  const auto batch = pool.next_batch(5);
  EXPECT_EQ(batch.size(), 2u);  // no synthetic filler when disabled
  EXPECT_EQ(to_string(batch[0].data), "one");
}

TEST(Mempool, SyntheticWorkload) {
  Mempool pool(16);
  const auto batch = pool.next_batch(3);
  ASSERT_EQ(batch.size(), 3u);
  for (const Command& c : batch) EXPECT_EQ(c.data.size(), 16u);
  EXPECT_NE(batch[0].data, batch[1].data);  // distinct counters
  EXPECT_EQ(pool.synthesized(), 3u);
}

TEST(Mempool, CommittedCommandsRemoved) {
  Mempool pool(0);
  pool.submit(Command{to_bytes(std::string("keep"))});
  pool.submit(Command{to_bytes(std::string("drop"))});
  Block b;
  b.cmds = {Command{to_bytes(std::string("drop"))}};
  pool.remove_committed(b);
  EXPECT_EQ(pool.pending(), 1u);
  EXPECT_EQ(to_string(pool.next_batch(1)[0].data), "keep");
}

TEST(Mempool, ExplicitCommandsPrecedeSynthetic) {
  Mempool pool(8);
  pool.submit(Command{to_bytes(std::string("real"))});
  const auto batch = pool.next_batch(2);
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(to_string(batch[0].data), "real");
  EXPECT_EQ(batch[1].data.size(), 8u);
}

}  // namespace
}  // namespace eesmr::smr
