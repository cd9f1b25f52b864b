// Epidemic dissemination between servers (§4, §5.2).
//
// "We assume that servers keep themselves informed about updates in which
// they do not directly participate via a gossip or dissemination protocol
// [Demers et al.]. A non-faulty server transmits all the updates it has
// seen to at least one other non-faulty server."
//
// This engine implements periodic anti-entropy: every `period`, a server
// picks `fanout` random peers and sends each a digest of its current
// (item, timestamp) pairs. The peer pushes back records the digest is
// missing or behind on, and pulls records the digest is ahead on. All
// received records pass through the owner's apply callback, which verifies
// the writer's signature — "a faulty server cannot propagate a non-existent
// or forged write to other servers since all writes that are propagated
// have to be accompanied by the signature of the client" (§4).
//
// A record goes to a given peer at most once per period: two exchanges
// with the same peer inside one round would otherwise both ship the whole
// difference, because the second digest predates the first shipment's
// apply — and the peer would verify every copy only to find a duplicate.
// After a period the record ships again, so a lost shipment costs one
// round of delay, never convergence.
//
// The tick period is the knob experiment E5 sweeps: it trades server
// bandwidth for read freshness, "a frequency that can be tuned according to
// the needs of the clients or the resources available to the servers"
// (§5.2).
#pragma once

#include <functional>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/record.h"
#include "net/rpc.h"
#include "obs/events.h"
#include "obs/metrics.h"
#include "storage/engine.h"
#include "util/rng.h"

namespace securestore::gossip {

class GossipEngine {
 public:
  struct Config {
    SimDuration period = milliseconds(500);
    unsigned fanout = 1;
    /// Also push each locally-applied client write immediately to `fanout`
    /// peers (rumor mongering), instead of waiting for the next tick.
    bool push_on_write = false;
    /// Appended verbatim to every metric name (e.g. "{shard=2}") so several
    /// replica groups sharing one registry stay distinguishable.
    std::string metric_suffix;
  };

  /// Applies an incoming record to the owner's store: verify writer
  /// signature, run causal-hold logic, etc. Returns true if the record was
  /// accepted (valid signature), false if rejected.
  using ApplyFn = std::function<bool(const core::WriteRecord& record, NodeId from)>;

  /// Batch variant: applies every record of one kGossipUpdates message in a
  /// single call so the owner can verify the writer signatures as one
  /// Ed25519 batch. Returns one accepted/rejected flag per record,
  /// index-aligned with the input.
  using ApplyBatchFn = std::function<std::vector<bool>(
      const std::vector<std::pair<core::WriteRecord, obs::TraceContext>>& records, NodeId from)>;

  GossipEngine(net::RpcNode& node, const storage::StorageEngine& store,
               std::vector<NodeId> peers, Config config, Rng rng, ApplyFn apply);
  ~GossipEngine();

  GossipEngine(const GossipEngine&) = delete;
  GossipEngine& operator=(const GossipEngine&) = delete;

  /// Begins periodic ticking. Idempotent.
  void start();
  /// Stops future ticks (in-flight messages still deliver).
  void stop();
  bool running() const { return running_; }

  /// Optional: installs the batch apply path. kGossipUpdates messages then
  /// go through `apply_batch` instead of per-record `apply_`.
  void set_apply_batch(ApplyBatchFn apply_batch) { apply_batch_ = std::move(apply_batch); }

  /// Sharded deployments (DESIGN.md §11): when set, every tick also offers
  /// the supplier's serialized signed ring state to the tick's peers as a
  /// kGossipRing one-way (empty bytes = nothing to offer), and incoming
  /// kGossipRing messages are handed to `on_ring`. The engine treats the
  /// bytes as opaque; verification belongs to the owner's install path.
  using RingSupplier = std::function<Bytes()>;
  using RingHandler = std::function<void(NodeId from, BytesView body)>;
  void set_ring_hooks(RingSupplier supplier, RingHandler on_ring) {
    ring_supplier_ = std::move(supplier);
    on_ring_ = std::move(on_ring);
  }

  /// Handles gossip one-way messages; the owning server routes
  /// kGossipDigest/kGossipUpdates/kGossipRequest/kGossipRing here.
  void handle(NodeId from, net::MsgType type, BytesView body);

  /// Rumor-mongering hook: owner calls this right after applying a fresh
  /// client write when push_on_write is on.
  void push_record(const core::WriteRecord& record);

  /// Remembers the trace context under which `record` became visible here,
  /// so gossip hand-offs of that record carry the originating operation's
  /// context onward (and receivers can measure write-to-visible lag).
  /// No-op for invalid contexts; newest timestamp per item wins.
  void note_origin(const core::WriteRecord& record, const obs::TraceContext& ctx);

  const Config& config() const { return config_; }
  std::uint64_t ticks() const { return ticks_; }
  /// Transport-clock time of the most recent anti-entropy tick (0 before
  /// the first). The introspection endpoint derives gossip staleness from
  /// it (PROTOCOL.md §13).
  SimTime last_tick_at() const { return last_tick_at_; }

 private:
  struct DigestEntry {
    ItemId item{};
    core::Timestamp ts;
  };

  /// Records handed to one peer within the last period (transport clock):
  /// item → the version shipped and when.
  struct Shipments {
    struct Shipped {
      core::Timestamp ts;
      SimTime at = 0;
    };
    std::unordered_map<ItemId, Shipped> items;
    SimTime swept_at = 0;  // expired entries are erased once per period
  };

  void tick();
  void send_digest(NodeId peer);
  /// Sends the current records named by `entries` — index metadata, so
  /// absent, scattered and recently shipped versions are skipped before
  /// anything is materialized — as kGossipUpdates messages of at most about
  /// kMaxUpdateBytes of values each.
  void send_records(NodeId to, const std::vector<storage::CurrentEntry>& entries);
  /// `to`'s shipment record, with entries older than one period erased.
  Shipments& shipments_to(NodeId to);
  /// True when `item` at `ts` was handed to the peer less than one period
  /// ago.
  bool shipped_recently(const Shipments& shipments, ItemId item,
                        const core::Timestamp& ts) const;
  std::vector<NodeId> pick_peers();

  static Bytes encode_digest(const std::vector<DigestEntry>& entries);
  static std::vector<DigestEntry> decode_digest(BytesView body);
  /// Member (not static): each record is suffixed with its origin trace
  /// context from `origins_`, when one is known.
  Bytes encode_updates(const std::vector<core::WriteRecord>& records) const;
  static std::vector<std::pair<core::WriteRecord, obs::TraceContext>> decode_updates(
      BytesView body);
  static Bytes encode_request(const std::vector<ItemId>& items);
  static std::vector<ItemId> decode_request(BytesView body);

  /// The context to attach to `record` on the wire; invalid when unknown.
  obs::TraceContext origin_of(const core::WriteRecord& record) const;

  net::RpcNode& node_;
  const storage::StorageEngine& store_;
  std::vector<NodeId> peers_;
  Config config_;
  Rng rng_;
  ApplyFn apply_;
  ApplyBatchFn apply_batch_;
  RingSupplier ring_supplier_;
  RingHandler on_ring_;
  // Anti-entropy accounting (handles into the transport's registry).
  obs::Counter& rounds_;
  obs::Counter& records_sent_;
  obs::Counter& records_suppressed_;  // not re-shipped inside one period
  obs::Counter& records_received_;
  obs::Counter& records_rejected_;
  obs::Counter& malformed_dropped_;
  obs::Counter& non_gossip_dropped_;
  obs::Histogram& digest_entries_;
  obs::Histogram& round_us_;  // wall time per anti-entropy round
  /// Transport-clock lag from a write's root-span origin to the moment it
  /// became visible HERE via gossip. Only meaningful where the nodes share
  /// a transport clock (sim/thread; TCP processes have distinct epochs).
  obs::Histogram& write_to_visible_us_;
  obs::EventLog& events_;
  /// Per item: the trace context of the newest write seen, carried onward
  /// with gossip hand-offs. Bounded by the number of distinct items.
  struct Origin {
    core::Timestamp ts;
    obs::TraceContext ctx;
  };
  std::unordered_map<ItemId, Origin> origins_;
  std::unordered_map<NodeId, Shipments> shipped_;
  bool running_ = false;
  std::uint64_t ticks_ = 0;
  SimTime last_tick_at_ = 0;
  std::uint64_t generation_ = 0;  // invalidates scheduled ticks after stop()
  // Scheduled tick callbacks outlive arbitrary engine lifetimes (server
  // restarts); they hold this flag and bail out once the engine is gone.
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
};

}  // namespace securestore::gossip
