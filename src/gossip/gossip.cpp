#include "gossip/gossip.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "obs/trace.h"
#include "util/serial.h"

namespace securestore::gossip {

namespace {

/// Value bytes per kGossipUpdates message. A peer that lags far behind (a
/// burst of writes between two rounds) is sent several messages, each
/// materialized and encoded only after the previous one is handed to the
/// transport, so an exchange's memory peak stays near one message's copies
/// instead of growing with the write rate.
constexpr std::size_t kMaxUpdateBytes = 256 * 1024;

}  // namespace

GossipEngine::GossipEngine(net::RpcNode& node, const storage::StorageEngine& store,
                           std::vector<NodeId> peers, Config config, Rng rng, ApplyFn apply)
    : node_(node),
      store_(store),
      peers_(std::move(peers)),
      config_(config),
      rng_(std::move(rng)),
      apply_(std::move(apply)),
      rounds_(node.transport().registry().counter("gossip.rounds" + config.metric_suffix)),
      records_sent_(
          node.transport().registry().counter("gossip.records_sent" + config.metric_suffix)),
      records_suppressed_(node.transport().registry().counter("gossip.records_suppressed" +
                                                              config.metric_suffix)),
      records_received_(
          node.transport().registry().counter("gossip.records_received" + config.metric_suffix)),
      records_rejected_(
          node.transport().registry().counter("gossip.records_rejected" + config.metric_suffix)),
      malformed_dropped_(
          node.transport().registry().counter("gossip.malformed_dropped" + config.metric_suffix)),
      non_gossip_dropped_(node.transport().registry().counter("gossip.non_gossip_dropped" +
                                                              config.metric_suffix)),
      digest_entries_(
          node.transport().registry().histogram("gossip.digest_entries" + config.metric_suffix)),
      round_us_(node.transport().registry().histogram("gossip.round_us" + config.metric_suffix)),
      write_to_visible_us_(node.transport().registry().histogram("gossip.write_to_visible_us" +
                                                                 config.metric_suffix)),
      events_(node.transport().events()) {
  // A node never gossips with itself.
  std::erase(peers_, node_.id());
}

void GossipEngine::note_origin(const core::WriteRecord& record, const obs::TraceContext& ctx) {
  if (!ctx.valid()) return;
  auto [it, inserted] = origins_.try_emplace(record.item, Origin{record.ts, ctx});
  if (!inserted && it->second.ts < record.ts) it->second = Origin{record.ts, ctx};
}

obs::TraceContext GossipEngine::origin_of(const core::WriteRecord& record) const {
  const auto it = origins_.find(record.item);
  if (it == origins_.end() || !(it->second.ts == record.ts)) return {};
  return it->second.ctx;
}

GossipEngine::~GossipEngine() { *alive_ = false; }

void GossipEngine::start() {
  if (running_) return;
  running_ = true;
  const std::uint64_t generation = ++generation_;
  node_.transport().schedule(config_.period, [this, alive = alive_, generation] {
    if (*alive && running_ && generation == generation_) tick();
  });
}

void GossipEngine::stop() {
  running_ = false;
  ++generation_;
}

std::vector<NodeId> GossipEngine::pick_peers() {
  std::vector<NodeId> shuffled = peers_;
  for (std::size_t i = shuffled.size(); i > 1; --i) {
    std::swap(shuffled[i - 1], shuffled[rng_.next_below(i)]);
  }
  if (shuffled.size() > config_.fanout) shuffled.resize(config_.fanout);
  return shuffled;
}

void GossipEngine::tick() {
  ++ticks_;
  last_tick_at_ = node_.transport().now();
  rounds_.inc();
  // Wall time: building/serializing digests is real CPU work even when the
  // deployment runs on virtual time.
  const std::uint64_t start = obs::wall_now_us();
  const std::vector<NodeId> peers = pick_peers();
  for (const NodeId peer : peers) send_digest(peer);
  // Ring dissemination rides the anti-entropy cadence (DESIGN.md §11): the
  // signed ring is small and idempotent to install, so each tick re-offers
  // it to the same peers the digest went to.
  if (ring_supplier_) {
    const Bytes ring = ring_supplier_();
    if (!ring.empty()) {
      for (const NodeId peer : peers) {
        node_.send_oneway(peer, net::MsgType::kGossipRing, ring);
      }
    }
  }
  round_us_.observe(static_cast<double>(obs::wall_now_us() - start));

  const std::uint64_t generation = generation_;
  node_.transport().schedule(config_.period, [this, alive = alive_, generation] {
    if (*alive && running_ && generation == generation_) tick();
  });
}

void GossipEngine::send_digest(NodeId peer) {
  std::vector<DigestEntry> entries;
  // The digest never materializes a value: the engine's current-version
  // index is (item, ts, flags) metadata, resident even for the disk-backed
  // engine. The digest stays honest against storage rot because the engine
  // drops a version from that index once its frame fails to materialize —
  // otherwise we would advertise a timestamp we cannot serve and peers,
  // comparing equal, would never re-send the record.
  for (const storage::CurrentEntry& entry : store_.current_index()) {
    // Scattered fragments are pinned to their server (see RecordFlags).
    if (entry.flags & core::kScattered) continue;
    entries.push_back(DigestEntry{entry.item, entry.ts});
  }
  digest_entries_.observe(static_cast<double>(entries.size()));
  node_.send_oneway(peer, net::MsgType::kGossipDigest, encode_digest(entries));
}

GossipEngine::Shipments& GossipEngine::shipments_to(NodeId to) {
  Shipments& shipments = shipped_[to];
  const SimTime now = node_.transport().now();
  if (now - shipments.swept_at >= config_.period) {
    std::erase_if(shipments.items,
                  [&](const auto& entry) { return now - entry.second.at >= config_.period; });
    shipments.swept_at = now;
  }
  return shipments;
}

bool GossipEngine::shipped_recently(const Shipments& shipments, ItemId item,
                                    const core::Timestamp& ts) const {
  const auto it = shipments.items.find(item);
  return it != shipments.items.end() && it->second.ts == ts &&
         node_.transport().now() - it->second.at < config_.period;
}

void GossipEngine::send_records(NodeId to, const std::vector<storage::CurrentEntry>& entries) {
  Shipments& shipments = shipments_to(to);
  const SimTime now = node_.transport().now();
  std::vector<core::WriteRecord> chunk;
  std::size_t chunk_bytes = 0;
  const auto flush = [&] {
    if (chunk.empty()) return;
    records_sent_.inc(chunk.size());
    node_.send_oneway(to, net::MsgType::kGossipUpdates, encode_updates(chunk));
    chunk.clear();
    chunk_bytes = 0;
  };
  for (const storage::CurrentEntry& entry : entries) {
    if (entry.flags & core::kScattered) continue;
    if (shipped_recently(shipments, entry.item, entry.ts)) {
      records_suppressed_.inc();
      continue;
    }
    // Copied before the next engine call: see the StorageEngine::current
    // pointer contract.
    const core::WriteRecord* record = store_.current(entry.item);
    if (record == nullptr || (record->flags & core::kScattered)) continue;
    shipments.items[entry.item] = Shipments::Shipped{record->ts, now};
    chunk.push_back(*record);
    chunk_bytes += record->value.size();
    if (chunk_bytes >= kMaxUpdateBytes) flush();
  }
  flush();
}

void GossipEngine::push_record(const core::WriteRecord& record) {
  Bytes updates;
  // A single-record push carries its origin context in the envelope too, so
  // the receiving server's verify/apply spans parent to the client write
  // that caused the push.
  const obs::TraceContext trace = origin_of(record);
  for (const NodeId peer : pick_peers()) {
    Shipments& shipments = shipments_to(peer);
    if (shipped_recently(shipments, record.item, record.ts)) {
      records_suppressed_.inc();
      continue;
    }
    shipments.items[record.item] = Shipments::Shipped{record.ts, node_.transport().now()};
    if (updates.empty()) updates = encode_updates({record});
    records_sent_.inc();
    node_.send_oneway(peer, net::MsgType::kGossipUpdates, updates, trace);
  }
}

void GossipEngine::handle(NodeId from, net::MsgType type, BytesView body) {
  try {
    switch (type) {
      case net::MsgType::kGossipDigest: {
        const std::vector<DigestEntry> remote = decode_digest(body);

        // Both directions are decided from metadata alone: the peer's
        // timestamps against one snapshot of our current-version index.
        // Nothing is read from storage here — only the records chosen for
        // sending are materialized, by send_records. A duplicated digest
        // item is resolved by its first occurrence.
        std::unordered_map<ItemId, std::size_t> first;
        first.reserve(remote.size());
        for (std::size_t i = 0; i < remote.size(); ++i) first.try_emplace(remote[i].item, i);

        // Push: records where we are ahead of (or unknown to) the digest.
        // Our version of each digest item is noted for the pull below.
        const std::vector<storage::CurrentEntry> index = store_.current_index();
        std::vector<const core::Timestamp*> ours(remote.size(), nullptr);
        std::vector<storage::CurrentEntry> to_send;
        for (const storage::CurrentEntry& entry : index) {
          const auto it = first.find(entry.item);
          if (it != first.end()) ours[it->second] = &entry.ts;
          if (entry.flags & core::kScattered) continue;
          if (it == first.end() || remote[it->second].ts < entry.ts) to_send.push_back(entry);
        }
        send_records(from, to_send);

        // Pull: items where the digest is ahead of us.
        std::vector<ItemId> wanted;
        for (std::size_t i = 0; i < remote.size(); ++i) {
          if (first.at(remote[i].item) != i) continue;  // a later duplicate
          if (ours[i] == nullptr || *ours[i] < remote[i].ts) wanted.push_back(remote[i].item);
        }
        if (!wanted.empty()) {
          node_.send_oneway(from, net::MsgType::kGossipRequest, encode_request(wanted));
        }
        return;
      }
      case net::MsgType::kGossipRequest: {
        // The requested items' current versions, from index metadata.
        const std::vector<ItemId> requested = decode_request(body);
        const std::unordered_set<ItemId> wanted(requested.begin(), requested.end());
        std::vector<storage::CurrentEntry> entries;
        for (storage::CurrentEntry& entry : store_.current_index()) {
          if (wanted.contains(entry.item)) entries.push_back(std::move(entry));
        }
        send_records(from, entries);
        return;
      }
      case net::MsgType::kGossipUpdates: {
        const auto updates = decode_updates(body);
        // Messages go through the batch apply path when one is installed,
        // so the owner verifies all writer signatures as one Ed25519 batch
        // (a lone record is a batch of one). The accounting below is
        // identical either way.
        std::vector<bool> accepted;
        if (apply_batch_) {
          accepted = apply_batch_(updates, from);
          // A short result vector rejects the tail — never accept a record
          // the owner did not explicitly vouch for.
          accepted.resize(updates.size(), false);
        } else {
          accepted.reserve(updates.size());
          for (const auto& [record, ctx] : updates) accepted.push_back(apply_(record, from));
        }
        for (std::size_t i = 0; i < updates.size(); ++i) {
          const auto& [record, ctx] = updates[i];
          records_received_.inc();
          if (!accepted[i]) {
            records_rejected_.inc();
            continue;
          }
          // Carry the origin context onward for this record's future
          // hand-offs, and account the hand-off on the trace timeline.
          note_origin(record, ctx);
          if (events_.want(ctx)) {
            const auto now = static_cast<std::uint64_t>(node_.transport().now());
            events_.span(node_.id().value, ctx, "gossip.apply", "gossip", now, 0);
            if (now >= ctx.origin_us) {
              write_to_visible_us_.observe(static_cast<double>(now - ctx.origin_us));
            }
          }
        }
        return;
      }
      case net::MsgType::kGossipRing: {
        // Opaque to the engine; the owner's handler verifies the authority
        // signature before installing anything.
        if (on_ring_) on_ring_(from, body);
        return;
      }
      default:
        // Not a gossip message. Silently eating these would hide a peer
        // spraying the gossip port with protocol traffic, so count it.
        non_gossip_dropped_.inc();
        return;
    }
  } catch (const DecodeError&) {
    // Malformed gossip from a (possibly malicious) peer: drop, visibly.
    malformed_dropped_.inc();
  }
}

Bytes GossipEngine::encode_digest(const std::vector<DigestEntry>& entries) {
  Writer w;
  w.u32(static_cast<std::uint32_t>(entries.size()));
  for (const DigestEntry& entry : entries) {
    w.u64(entry.item.value);
    entry.ts.encode(w);
  }
  return w.take();
}

std::vector<GossipEngine::DigestEntry> GossipEngine::decode_digest(BytesView body) {
  Reader r(body);
  const std::uint32_t count = r.u32();
  std::vector<DigestEntry> entries;
  // No reserve: count is attacker-controlled (see decode_records).
  for (std::uint32_t i = 0; i < count; ++i) {
    DigestEntry entry;
    entry.item = ItemId{r.u64()};
    entry.ts = core::Timestamp::decode(r);
    entries.push_back(std::move(entry));
  }
  r.expect_end();
  return entries;
}

Bytes GossipEngine::encode_updates(const std::vector<core::WriteRecord>& records) const {
  // PROTOCOL.md §4: u32 count, then per record: the record itself followed
  // by `u8 has_ctx` and, when 1, the origin trace context.
  Writer w;
  w.u32(static_cast<std::uint32_t>(records.size()));
  for (const core::WriteRecord& record : records) {
    record.encode(w);
    const obs::TraceContext ctx = origin_of(record);
    if (ctx.valid()) {
      w.u8(1);
      ctx.encode(w);
    } else {
      w.u8(0);
    }
  }
  return w.take();
}

std::vector<std::pair<core::WriteRecord, obs::TraceContext>> GossipEngine::decode_updates(
    BytesView body) {
  Reader r(body);
  const std::uint32_t count = r.u32();
  std::vector<std::pair<core::WriteRecord, obs::TraceContext>> records;
  for (std::uint32_t i = 0; i < count; ++i) {
    core::WriteRecord record = core::WriteRecord::decode(r);
    obs::TraceContext ctx;
    const std::uint8_t has_ctx = r.u8();
    if (has_ctx > 1) throw DecodeError("gossip updates: bad ctx marker");
    if (has_ctx == 1) {
      ctx = obs::TraceContext::decode(r);
      // Same sanitation as the rpc envelope: the context is advisory and
      // the peer may be Byzantine — only the sampled bit survives, and a
      // zero trace id means "no context".
      ctx.flags &= obs::TraceContext::kSampledFlag;
    }
    records.emplace_back(std::move(record), ctx);
  }
  r.expect_end();
  return records;
}

Bytes GossipEngine::encode_request(const std::vector<ItemId>& items) {
  Writer w;
  w.u32(static_cast<std::uint32_t>(items.size()));
  for (const ItemId item : items) w.u64(item.value);
  return w.take();
}

std::vector<ItemId> GossipEngine::decode_request(BytesView body) {
  Reader r(body);
  const std::uint32_t count = r.u32();
  std::vector<ItemId> items;
  for (std::uint32_t i = 0; i < count; ++i) items.push_back(ItemId{r.u64()});
  r.expect_end();
  return items;
}

}  // namespace securestore::gossip
