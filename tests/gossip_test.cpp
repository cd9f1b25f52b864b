// Tests for the epidemic dissemination engine: convergence, tunable
// period, push-on-write rumor mongering, resistance to forged updates, and
// metadata-only digest handling (no value is read to compare a digest).
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>

#include "core/sync.h"
#include "storage/lsm/lsm_store.h"
#include "storage/lsm/sst.h"
#include "testkit/cluster.h"
#include "util/serial.h"

namespace securestore {
namespace {

using core::ConsistencyModel;
using core::GroupPolicy;
using core::SecureStoreClient;
using core::SharingMode;
using core::SyncClient;
using testkit::Cluster;
using testkit::ClusterOptions;

constexpr GroupId kGroup{1};
constexpr ItemId kX1{101};

GroupPolicy mrc_policy() {
  return GroupPolicy{kGroup, ConsistencyModel::kMRC, SharingMode::kSingleWriter,
                     core::ClientTrust::kHonest};
}

SecureStoreClient::Options client_options() {
  SecureStoreClient::Options options;
  options.policy = mrc_policy();
  return options;
}

std::size_t servers_with_item(Cluster& cluster, ItemId item) {
  std::size_t count = 0;
  for (std::size_t s = 0; s < cluster.server_count(); ++s) {
    if (cluster.server(s).store().current(item) != nullptr) ++count;
  }
  return count;
}

TEST(Gossip, WriteConvergesToAllServers) {
  ClusterOptions options;
  options.n = 8;
  options.b = 2;
  options.gossip.period = milliseconds(200);
  Cluster cluster(options);
  cluster.set_group_policy(mrc_policy());

  auto client = cluster.make_client(ClientId{1}, client_options());
  SyncClient sync(*client, cluster.scheduler());
  ASSERT_TRUE(sync.write(kX1, to_bytes("spread me")).ok());

  // Written to b+1 = 3 servers; anti-entropy carries it to all 8.
  EXPECT_LT(servers_with_item(cluster, kX1), cluster.server_count());
  cluster.run_for(seconds(10));
  EXPECT_EQ(servers_with_item(cluster, kX1), cluster.server_count());
}

TEST(Gossip, BacklogLargerThanOneMessageConverges) {
  // 25 x 32 KiB of writes between rounds is more than one kGossipUpdates
  // message carries, so each exchange sends its records in several
  // messages; every one must arrive and apply.
  ClusterOptions options;
  options.n = 4;
  options.gossip.period = seconds(5);
  Cluster cluster(options);
  cluster.set_group_policy(mrc_policy());

  auto client = cluster.make_client(ClientId{1}, client_options());
  SyncClient sync(*client, cluster.scheduler());
  std::vector<ItemId> items;
  for (std::uint64_t i = 0; i < 25; ++i) {
    items.push_back(ItemId{1000 + i});
    ASSERT_TRUE(sync.write(items.back(), Bytes(32 * 1024, static_cast<std::uint8_t>(i))).ok());
  }
  cluster.run_for(seconds(30));
  for (const ItemId item : items) {
    EXPECT_EQ(servers_with_item(cluster, item), cluster.server_count()) << "item " << item.value;
  }
}

TEST(Gossip, NewerVersionOvertakesOlderEverywhere) {
  ClusterOptions options;
  options.n = 6;
  options.gossip.period = milliseconds(200);
  Cluster cluster(options);
  cluster.set_group_policy(mrc_policy());

  auto client = cluster.make_client(ClientId{1}, client_options());
  SyncClient sync(*client, cluster.scheduler());
  ASSERT_TRUE(sync.write(kX1, to_bytes("v1")).ok());
  cluster.run_for(seconds(10));  // v1 everywhere
  ASSERT_TRUE(sync.write(kX1, to_bytes("v2")).ok());
  cluster.run_for(seconds(10));

  for (std::size_t s = 0; s < cluster.server_count(); ++s) {
    const core::WriteRecord* record = cluster.server(s).store().current(kX1);
    ASSERT_NE(record, nullptr) << "server " << s;
    EXPECT_EQ(to_string(record->value), "v2") << "server " << s;
  }
}

TEST(Gossip, ShorterPeriodConvergesFaster) {
  auto time_to_converge = [](SimDuration period) {
    ClusterOptions options;
    options.n = 8;
    options.b = 2;
    options.gossip.period = period;
    options.seed = 42;
    Cluster cluster(options);
    cluster.set_group_policy(mrc_policy());

    auto client = cluster.make_client(ClientId{1}, client_options());
    SyncClient sync(*client, cluster.scheduler());
    EXPECT_TRUE(sync.write(kX1, to_bytes("race")).ok());

    const SimTime start = cluster.scheduler().now();
    while (servers_with_item(cluster, kX1) < cluster.server_count()) {
      cluster.run_for(milliseconds(50));
      if (cluster.scheduler().now() - start > seconds(120)) break;  // safety
    }
    return cluster.scheduler().now() - start;
  };

  const SimDuration fast = time_to_converge(milliseconds(100));
  const SimDuration slow = time_to_converge(seconds(2));
  EXPECT_LT(fast, slow);
}

TEST(Gossip, PushOnWriteSpreadsWithoutWaitingForTick) {
  ClusterOptions options;
  options.n = 6;
  options.gossip.period = seconds(60);  // ticks effectively never fire
  options.gossip.push_on_write = true;
  options.gossip.fanout = 2;
  Cluster cluster(options);
  cluster.set_group_policy(mrc_policy());

  // push_on_write is wired through the server's write handler only when the
  // engine is configured for it; writes land on b+1 servers which then push
  // to fanout peers immediately.
  auto client = cluster.make_client(ClientId{1}, client_options());
  SyncClient sync(*client, cluster.scheduler());
  ASSERT_TRUE(sync.write(kX1, to_bytes("rumor")).ok());
  cluster.run_for(seconds(2));  // far less than the 60 s tick period

  EXPECT_GT(servers_with_item(cluster, kX1), cluster.config().data_quorum_honest());
}

TEST(Gossip, EngineStartStop) {
  ClusterOptions options;
  options.start_gossip = false;
  Cluster cluster(options);
  cluster.set_group_policy(mrc_policy());

  auto& engine = cluster.server(0).gossip();
  EXPECT_FALSE(engine.running());
  engine.start();
  EXPECT_TRUE(engine.running());
  cluster.run_for(seconds(3));
  EXPECT_GT(engine.ticks(), 0u);

  engine.stop();
  const std::uint64_t ticks_at_stop = engine.ticks();
  cluster.run_for(seconds(3));
  EXPECT_EQ(engine.ticks(), ticks_at_stop);
}

TEST(Gossip, DigestExchangeIsBidirectional) {
  // Server 0 knows item A, server 1 knows item B; a single digest from 0 to
  // 1 must reconcile BOTH directions (push B's absence, pull A).
  ClusterOptions options;
  options.n = 2;
  options.b = 0;
  options.start_gossip = false;
  Cluster cluster(options);
  cluster.set_group_policy(mrc_policy());

  auto client = cluster.make_client(ClientId{1}, client_options());
  SyncClient sync(*client, cluster.scheduler());

  client->set_server_preference({NodeId{0}, NodeId{1}});
  ASSERT_TRUE(sync.write(ItemId{1}, to_bytes("item A")).ok());
  client->set_server_preference({NodeId{1}, NodeId{0}});
  ASSERT_TRUE(sync.write(ItemId{2}, to_bytes("item B")).ok());

  ASSERT_EQ(cluster.server(0).store().current(ItemId{2}), nullptr);
  ASSERT_EQ(cluster.server(1).store().current(ItemId{1}), nullptr);

  cluster.server(0).gossip().start();  // only one side gossips
  cluster.run_for(seconds(5));

  EXPECT_NE(cluster.server(0).store().current(ItemId{2}), nullptr);
  EXPECT_NE(cluster.server(1).store().current(ItemId{1}), nullptr);
}

TEST(Gossip, BadSignatureInBatchRejectsOnlyThatRecord) {
  // Byzantine peer slips one forged record into a multi-record update. The
  // batch verify path must fall back per-record: honest records apply, the
  // forged one is rejected and counted — one bad signature cannot poison
  // the batch (or sneak through under its cover).
  ClusterOptions options;
  options.n = 2;
  options.b = 0;
  options.start_gossip = false;
  Cluster cluster(options);
  cluster.set_group_policy(mrc_policy());

  auto client = cluster.make_client(ClientId{1}, client_options());
  SyncClient sync(*client, cluster.scheduler());
  client->set_server_preference({NodeId{0}, NodeId{1}});
  ASSERT_TRUE(sync.write(ItemId{1}, to_bytes("good one")).ok());
  ASSERT_TRUE(sync.write(ItemId{2}, to_bytes("to be forged")).ok());
  ASSERT_TRUE(sync.write(ItemId{3}, to_bytes("good two")).ok());
  // b = 0: the writes land only on the preferred server 0.
  ASSERT_EQ(cluster.server(1).store().current(ItemId{1}), nullptr);

  std::vector<core::WriteRecord> records;
  for (const ItemId item : {ItemId{1}, ItemId{2}, ItemId{3}}) {
    const core::WriteRecord* record = cluster.server(0).store().current(item);
    ASSERT_NE(record, nullptr);
    records.push_back(*record);
  }
  records[1].signature[0] ^= 0x01;

  Writer w;
  w.u32(static_cast<std::uint32_t>(records.size()));
  for (const core::WriteRecord& record : records) {
    record.encode(w);
    w.u8(0);  // no origin trace context
  }
  const Bytes body = w.take();

  auto& received = cluster.registry().counter("gossip.records_received");
  auto& rejected = cluster.registry().counter("gossip.records_rejected");
  const std::uint64_t received_before = received.value();
  const std::uint64_t rejected_before = rejected.value();

  cluster.server(1).gossip().handle(NodeId{0}, net::MsgType::kGossipUpdates, body);

  const core::WriteRecord* good_one = cluster.server(1).store().current(ItemId{1});
  const core::WriteRecord* forged = cluster.server(1).store().current(ItemId{2});
  const core::WriteRecord* good_two = cluster.server(1).store().current(ItemId{3});
  ASSERT_NE(good_one, nullptr);
  EXPECT_EQ(to_string(good_one->value), "good one");
  EXPECT_EQ(forged, nullptr);
  ASSERT_NE(good_two, nullptr);
  EXPECT_EQ(to_string(good_two->value), "good two");
  EXPECT_EQ(received.value() - received_before, 3u);
  EXPECT_EQ(rejected.value() - rejected_before, 1u);
}

// ---------------------------------------------------------------------------
// Digest handling decides push and pull from metadata only.
// ---------------------------------------------------------------------------

namespace fs = std::filesystem;

/// A unique, self-cleaning scratch directory per test.
struct TempDir {
  TempDir() {
    std::string tmpl = (fs::temp_directory_path() / "securestore_gossip_XXXXXX").string();
    path = mkdtemp(tmpl.data());
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  std::string path;
};

Bytes digest_body(const std::vector<std::pair<ItemId, core::Timestamp>>& entries) {
  Writer w;
  w.u32(static_cast<std::uint32_t>(entries.size()));
  for (const auto& [item, ts] : entries) {
    w.u64(item.value);
    ts.encode(w);
  }
  return w.take();
}

Bytes digest_of(const storage::StorageEngine& store) {
  std::vector<std::pair<ItemId, core::Timestamp>> entries;
  for (const storage::CurrentEntry& entry : store.current_index()) {
    entries.emplace_back(entry.item, entry.ts);
  }
  return digest_body(entries);
}

/// Flips one byte inside the body of every record frame of every SST in
/// `dir`, in place, so each frame fails its CRC on the next read.
void rot_every_frame(const std::string& dir) {
  std::size_t rotted = 0;
  for (const auto& file : fs::directory_iterator(dir)) {
    if (file.path().extension() != ".sst") continue;
    std::vector<std::uint64_t> positions;
    {
      const auto reader = storage::lsm::SstReader::open(file.path().string());
      ASSERT_NE(reader, nullptr) << file.path();
      for (const storage::lsm::SstIndexEntry& entry : reader->index()) {
        if (entry.kind != storage::lsm::SstEntryKind::kRecord) continue;
        positions.push_back(entry.offset + entry.frame_len - 1);
      }
    }
    std::fstream stream(file.path(), std::ios::in | std::ios::out | std::ios::binary);
    for (const std::uint64_t pos : positions) {
      stream.seekg(static_cast<std::streamoff>(pos));
      char byte = 0;
      stream.read(&byte, 1);
      byte = static_cast<char>(byte ^ 0x5A);
      stream.seekp(static_cast<std::streamoff>(pos));
      stream.write(&byte, 1);
      ++rotted;
    }
  }
  ASSERT_GT(rotted, 0u);
}

constexpr std::uint64_t kRotItems = 12;

/// Two LSM servers holding the same kRotItems records; server 1 has been
/// restarted from its flushed SSTs (so nothing is cached) and every one of
/// its SST record frames has then rotted in place.
class GossipRottedReceiver : public ::testing::Test {
 protected:
  void SetUp() override {
    ClusterOptions options;
    options.n = 2;
    options.b = 0;
    options.start_gossip = false;
    options.durability_dir = dir_.path;
    options.engine.kind = core::StorageEngineKind::kLsm;
    options.snapshot_period = seconds(100000);  // only explicit snapshots
    cluster_ = std::make_unique<Cluster>(options);
    cluster_->set_group_policy(mrc_policy());

    client_ = cluster_->make_client(ClientId{1}, client_options());
    SyncClient sync(*client_, cluster_->scheduler());
    client_->set_server_preference({NodeId{0}, NodeId{1}});
    for (std::uint64_t i = 1; i <= kRotItems; ++i) {
      ASSERT_TRUE(sync.write(ItemId{i}, Bytes(4096, static_cast<std::uint8_t>(i))).ok());
    }
    cluster_->server(0).gossip().start();
    cluster_->run_for(seconds(5));
    cluster_->server(0).gossip().stop();
    for (std::uint64_t i = 1; i <= kRotItems; ++i) {
      ASSERT_NE(cluster_->server(1).store().current(ItemId{i}), nullptr) << "item " << i;
    }

    // Flush to SSTs and truncate the WAL, then reopen: from here every
    // value of server 1 lives only in SST frames, none in memory.
    cluster_->server(1).save_snapshot_now();
    cluster_->restart_server(1, /*restore_state=*/true);
    rot_every_frame(dir_.path + "/server-1/lsm");
  }

  const storage::lsm::LsmStore& receiver_lsm() {
    return dynamic_cast<const storage::lsm::LsmStore&>(cluster_->server(1).store());
  }

  TempDir dir_;
  std::unique_ptr<Cluster> cluster_;
  std::unique_ptr<SecureStoreClient> client_;
};

TEST_F(GossipRottedReceiver, EqualDigestReadsNoValueAndSendsNothing) {
  auto& sent = cluster_->registry().counter("gossip.records_sent");
  const std::uint64_t sent_before = sent.value();
  ASSERT_EQ(receiver_lsm().stats().read_errors, 0u);

  cluster_->server(1).gossip().handle(NodeId{0}, net::MsgType::kGossipDigest,
                                      digest_of(cluster_->server(0).store()));

  // Both sides hold the same versions: nothing to push or pull, and the
  // comparison touched no SST frame — every one of them would have failed
  // its CRC and been counted.
  EXPECT_EQ(receiver_lsm().stats().read_errors, 0u);
  EXPECT_EQ(sent.value(), sent_before);

  // The rot is real: a value read does hit it.
  EXPECT_EQ(cluster_->server(1).store().current(ItemId{1}), nullptr);
  EXPECT_GT(receiver_lsm().stats().read_errors, 0u);
}

TEST_F(GossipRottedReceiver, DroppedRottedVersionIsPulledBackByNextDigest) {
  // A read finds the rotted frame and drops the version from the index
  // (RottedFrameDroppedFromIndexSoGossipCanRepair in lsm_test)...
  EXPECT_EQ(cluster_->server(1).store().current(ItemId{1}), nullptr);
  ASSERT_GT(receiver_lsm().stats().read_errors, 0u);

  // ...so the next digest from a healthy peer shows it ahead, and the
  // receiver pulls the record back.
  cluster_->server(1).gossip().handle(NodeId{0}, net::MsgType::kGossipDigest,
                                      digest_of(cluster_->server(0).store()));
  cluster_->run_for(seconds(2));

  const core::WriteRecord* repaired = cluster_->server(1).store().current(ItemId{1});
  ASSERT_NE(repaired, nullptr);
  EXPECT_EQ(repaired->value, Bytes(4096, 1));
}

TEST(Gossip, DuplicateDigestItemResolvedByFirstOccurrence) {
  ClusterOptions options;
  options.n = 2;
  options.b = 0;
  options.start_gossip = false;
  Cluster cluster(options);
  cluster.set_group_policy(mrc_policy());

  // Server 0 holds v1 and v2 of X and Y; server 1 holds X at v1 and Y at v2.
  auto client = cluster.make_client(ClientId{1}, client_options());
  SyncClient sync(*client, cluster.scheduler());
  client->set_server_preference({NodeId{0}, NodeId{1}});
  constexpr ItemId kX{1};
  constexpr ItemId kY{2};
  for (const ItemId item : {kX, kY}) {
    ASSERT_TRUE(sync.write(item, to_bytes("v1")).ok());
    ASSERT_TRUE(sync.write(item, to_bytes("v2")).ok());
  }
  const std::vector<core::WriteRecord> x_log = cluster.server(0).store().log(kX);
  const std::vector<core::WriteRecord> y_log = cluster.server(0).store().log(kY);
  ASSERT_EQ(x_log.size(), 2u);
  ASSERT_EQ(y_log.size(), 2u);
  ASSERT_TRUE(cluster.server(1).import_record(x_log[1]));  // X at v1
  ASSERT_TRUE(cluster.server(1).import_record(y_log[0]));  // Y at v2

  auto& sent = cluster.registry().counter("gossip.records_sent");
  const std::uint64_t sent_before = sent.value();

  // X listed ahead then behind: the first entry wins, so server 1 pulls X
  // and pushes nothing for it. Y listed behind then current: the first
  // entry wins, so server 1 pushes Y.
  const Bytes digest = digest_body(
      {{kX, x_log[0].ts}, {kX, x_log[1].ts}, {kY, y_log[1].ts}, {kY, y_log[0].ts}});
  cluster.server(1).gossip().handle(NodeId{0}, net::MsgType::kGossipDigest, digest);
  EXPECT_EQ(sent.value() - sent_before, 1u);  // Y only, pushed synchronously

  cluster.run_for(seconds(2));
  const core::WriteRecord* x = cluster.server(1).store().current(kX);
  ASSERT_NE(x, nullptr);
  EXPECT_EQ(to_string(x->value), "v2");  // pulled from server 0
}

TEST(Gossip, RecordShipsToAPeerOncePerPeriod) {
  // Two exchanges with one peer inside a round: the second digest predates
  // the first shipment's apply, so it still shows the peer behind on every
  // record. Each record ships once; a pull request for it inside the round
  // is not answered with a second copy either. After one period (transport
  // clock) it ships again, so a lost shipment only costs a round.
  ClusterOptions options;
  options.n = 2;
  options.b = 0;
  options.start_gossip = false;
  options.gossip.period = seconds(1);
  Cluster cluster(options);
  cluster.set_group_policy(mrc_policy());

  auto client = cluster.make_client(ClientId{1}, client_options());
  SyncClient sync(*client, cluster.scheduler());
  client->set_server_preference({NodeId{0}, NodeId{1}});
  for (const std::uint64_t i : {1, 2, 3}) {
    ASSERT_TRUE(sync.write(ItemId{i}, to_bytes("value " + std::to_string(i))).ok());
  }
  ASSERT_EQ(cluster.server(1).store().current(ItemId{1}), nullptr);

  auto& sent = cluster.registry().counter("gossip.records_sent");
  auto& suppressed = cluster.registry().counter("gossip.records_suppressed");
  const std::uint64_t sent_before = sent.value();
  const Bytes behind = digest_body({});  // the peer knows nothing yet
  auto& engine = cluster.server(0).gossip();

  engine.handle(NodeId{1}, net::MsgType::kGossipDigest, behind);
  EXPECT_EQ(sent.value() - sent_before, 3u);
  engine.handle(NodeId{1}, net::MsgType::kGossipDigest, behind);
  Writer request;
  request.u32(1);
  request.u64(2);
  engine.handle(NodeId{1}, net::MsgType::kGossipRequest, request.take());
  EXPECT_EQ(sent.value() - sent_before, 3u);
  EXPECT_EQ(suppressed.value(), 4u);

  cluster.run_for(options.gossip.period);
  EXPECT_NE(cluster.server(1).store().current(ItemId{3}), nullptr);
  engine.handle(NodeId{1}, net::MsgType::kGossipDigest, behind);
  EXPECT_EQ(sent.value() - sent_before, 6u);
}

}  // namespace
}  // namespace securestore
