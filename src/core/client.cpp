#include "core/client.h"

#include <algorithm>
#include <map>

namespace securestore::core {

namespace {

/// Sort helper: newest timestamp first.
bool newer(const WriteRecord& a, const WriteRecord& b) { return b.ts < a.ts; }

}  // namespace

SecureStoreClient::SecureStoreClient(net::Transport& transport, NodeId network_id,
                                     ClientId client_id, crypto::KeyPair keys,
                                     StoreConfig config, Options options, Rng rng)
    : node_(transport, network_id),
      client_id_(client_id),
      keys_(std::move(keys)),
      config_(std::move(config)),
      options_(std::move(options)),
      rng_(std::move(rng)),
      fault_silent_(transport.registry().counter("client.fault.silent")),
      fault_forgery_(transport.registry().counter("client.fault.forgery")),
      deadline_exceeded_(transport.registry().counter("client.deadline_exceeded")),
      refused_(transport.registry().counter("client.refused")),
      breaker_trips_(transport.registry().counter("client.breaker_trips")) {
  config_.validate();
  if (!options_.codec) options_.codec = std::make_shared<PlainValueCodec>();
  if (options_.dynamic_quorums.has_value()) {
    FaultEstimator::Config estimator_config = *options_.dynamic_quorums;
    estimator_config.b_max = std::min(estimator_config.b_max, config_.b);
    estimator_.emplace(estimator_config);
  }

  // Default server preference: a seeded shuffle, so different clients load
  // different b+1 subsets.
  server_order_ = config_.servers;
  for (std::size_t i = server_order_.size(); i > 1; --i) {
    std::swap(server_order_[i - 1], server_order_[rng_.next_below(i)]);
  }
}

void SecureStoreClient::set_server_preference(std::vector<NodeId> order) {
  server_order_ = std::move(order);
}

void SecureStoreClient::set_codec(std::shared_ptr<ValueCodec> codec) {
  options_.codec = codec ? std::move(codec) : std::make_shared<PlainValueCodec>();
}

std::vector<NodeId> SecureStoreClient::pick_servers(std::size_t count, std::size_t skip) const {
  // Preference order, with servers the estimator distrusts OR the circuit
  // breaker holds open demoted to the back — they still serve as escalation
  // fallbacks, never first choices, so the quorum path routes around a
  // drowning replica the same way it routes around a suspected-faulty one.
  const auto demoted = [this](NodeId server) {
    if (estimator_.has_value() && estimator_->is_distrusted(server)) return true;
    return breaker_open(server);
  };
  std::vector<NodeId> ordered;
  ordered.reserve(server_order_.size());
  for (const NodeId server : server_order_) {
    if (!demoted(server)) ordered.push_back(server);
  }
  for (const NodeId server : server_order_) {
    if (demoted(server)) ordered.push_back(server);
  }

  std::vector<NodeId> out;
  for (std::size_t i = skip; i < ordered.size() && out.size() < count; ++i) {
    out.push_back(ordered[i]);
  }
  return out;
}

std::uint32_t SecureStoreClient::effective_b() const {
  return estimator_.has_value() ? estimator_->estimated_b() : config_.b;
}

void SecureStoreClient::note_responded(NodeId server) {
  if (estimator_.has_value()) estimator_->report_good_interaction(server);
}

void SecureStoreClient::note_silent(const std::vector<NodeId>& targets,
                                    const std::vector<NodeId>& responders) {
  for (const NodeId target : targets) {
    if (std::find(responders.begin(), responders.end(), target) == responders.end()) {
      fault_silent_.inc();
      if (estimator_.has_value()) estimator_->report_soft_evidence(target);
    }
  }
}

void SecureStoreClient::note_forgery(NodeId server) {
  fault_forgery_.inc();
  if (estimator_.has_value()) estimator_->report_hard_evidence(server);
}

bool SecureStoreClient::note_wrong_shard(net::MsgType type, BytesView resp_body) {
  if (type != net::MsgType::kWrongShard) return false;
  // Keep the first rejection's ring; a second rejecting server in the same
  // round adds nothing (the router verifies and version-checks anyway).
  if (wrong_shard_ring_.empty()) {
    wrong_shard_ring_.assign(resp_body.begin(), resp_body.end());
  }
  return true;
}

bool SecureStoreClient::breaker_open(NodeId server) const {
  const auto it = breakers_.find(server.value);
  return it != breakers_.end() && it->second.open_until > node_.transport().now();
}

bool SecureStoreClient::note_overloaded(NodeId from, net::MsgType type, BytesView resp_body) {
  if (type != net::MsgType::kOverloaded) {
    // The server answered with real content: it is keeping up again, so any
    // accumulated strikes are stale.
    const auto it = breakers_.find(from.value);
    if (it != breakers_.end()) breakers_.erase(it);
    return false;
  }
  refused_.inc();

  // The hint is honored only when the refusal authenticates: a correct
  // server signs overload_statement(retry_after_us) with its well-known
  // key. Unverifiable refusals still count (the server *did* refuse) but
  // contribute no hint a forger could inflate — and the clamp bounds even a
  // correctly signed hint, so a Byzantine server can slow this client by at
  // most retry_after_clamp per round.
  try {
    const OverloadedResp resp = OverloadedResp::deserialize(resp_body);
    const auto key = config_.server_keys.find(from);
    if (key != config_.server_keys.end() &&
        crypto::meter_verify(key->second, overload_statement(resp.retry_after_us),
                             resp.signature)) {
      const SimDuration hint = std::min<SimDuration>(
          microseconds(resp.retry_after_us), options_.retry_after_clamp);
      overload_hint_ = std::max(overload_hint_, hint);
    }
  } catch (const DecodeError&) {
  }

  if (options_.breaker_threshold > 0) {
    Breaker& breaker = breakers_[from.value];
    // Past the threshold every further refusal re-opens the breaker (this
    // is also what ends a failed half-open probe); strikes saturate so one
    // useful reply is always enough to close it again.
    breaker.strikes = std::min(breaker.strikes + 1, options_.breaker_threshold);
    if (breaker.strikes >= options_.breaker_threshold) {
      if (breaker.open_until <= node_.transport().now()) breaker_trips_.inc();
      breaker.open_until = node_.transport().now() + options_.breaker_cooldown;
    }
  }
  return true;
}

SimDuration SecureStoreClient::take_overload_hint() {
  const SimDuration hint = overload_hint_;
  overload_hint_ = 0;
  return hint;
}

Error SecureStoreClient::round_error(std::size_t refused, net::QuorumOutcome outcome) const {
  if (refused > 0) return Error::kOverloaded;
  return outcome == net::QuorumOutcome::kTimeout ? Error::kTimeout
                                                 : Error::kInsufficientQuorum;
}

SecureStoreClient::Trace SecureStoreClient::begin_trace(std::string op) {
  // Every public operation opens exactly one trace, so this doubles as the
  // start-of-op hook: drop any ring a previous rejection stashed and any
  // retry-after hint a previous operation never consumed.
  wrong_shard_ring_.clear();
  overload_hint_ = 0;
  // The transport clock keeps span semantics identical across worlds:
  // virtual microseconds under the simulator, wall microseconds since
  // transport start on the thread/TCP transports.
  auto trace = obs::start_trace(
      node_.transport().registry(), std::move(op),
      [this] { return static_cast<std::uint64_t>(node_.transport().now()); });
  // Enter the operation into the distributed trace (subject to the event
  // log's enable/sampling knobs); its context then rides out with every
  // rpc the operation issues.
  trace->attach_root(node_.transport().events(), node_.id().value);
  return trace;
}

SimTime SecureStoreClient::op_deadline() const {
  return node_.transport().now() + config_.op_timeout;
}

SimDuration SecureStoreClient::round_budget(SimTime deadline) const {
  const SimTime now = node_.transport().now();
  // Clamp before subtracting: SimTime is unsigned, and a backoff sleep (or
  // a slow wall-clock dispatch on the threaded transports) can overshoot
  // the absolute deadline, so `deadline - now` would wrap to a huge round
  // timeout. Zero tells every attempt loop to fail the op with a deadline
  // error instead of issuing that round.
  if (now >= deadline) {
    deadline_exceeded_.inc();
    return 0;
  }
  return std::min<SimDuration>(options_.round_timeout, deadline - now);
}

SimDuration SecureStoreClient::retry_backoff(unsigned round) {
  if (options_.backoff_base == 0) return 0;
  double backoff = static_cast<double>(options_.backoff_base);
  const double cap = static_cast<double>(std::max<SimDuration>(options_.backoff_cap, 1));
  for (unsigned i = 0; i < round && backoff < cap; ++i) backoff *= options_.backoff_multiplier;
  const auto capped = static_cast<SimDuration>(std::min(backoff, cap));
  // Jitter in [capped/2, capped]: enough spread to desynchronize clients,
  // never less than half so the wait stays a real wait.
  return capped / 2 + rng_.next_below(capped / 2 + 1);
}

std::string SecureStoreClient::data_op_name(std::string_view verb) const {
  const char* protocol = "p3";
  if (options_.policy.sharing == SharingMode::kMultiWriter) {
    protocol = options_.policy.trust == ClientTrust::kByzantine ? "p6" : "p5";
  } else if (verb == "read") {
    protocol = "p4";
  }
  return std::string("client.") + protocol + "." + std::string(verb);
}

const Bytes* SecureStoreClient::writer_key(ClientId writer) const {
  const auto it = config_.client_keys.find(writer.value);
  return it != config_.client_keys.end() ? &it->second : nullptr;
}

std::size_t SecureStoreClient::write_set_size() const {
  const bool hardened = options_.policy.sharing == SharingMode::kMultiWriter &&
                        options_.policy.trust == ClientTrust::kByzantine;
  // Dynamic sizing applies only to the honest-client paths, where safety
  // rests on signatures and a too-small set risks only liveness (fixed by
  // escalation). The hardened §5.3 quorums and the b+1 agreement threshold
  // are load-bearing for safety and always use the static bound.
  if (hardened) return config_.data_quorum_byzantine();
  return effective_b() + 1;
}

// ---------------------------------------------------------------------------
// P1: context acquisition (Fig. 1).
// ---------------------------------------------------------------------------

void SecureStoreClient::connect(GroupId group, VoidCb done) {
  connect_attempt(group, /*round=*/0, op_deadline(), begin_trace("client.p1.connect"),
                  std::move(done));
}

void SecureStoreClient::connect_attempt(GroupId group, unsigned round, SimTime deadline,
                                        Trace trace, VoidCb done) {
  const SimDuration budget = round_budget(deadline);
  if (budget == 0) {
    trace->finish(false);
    done(VoidResult(Error::kTimeout, "operation deadline passed"));
    return;
  }
  const std::size_t quorum = config_.context_quorum();
  const std::size_t target_count =
      std::min<std::size_t>(config_.n, quorum + round * config_.read_escalation_step);

  ContextReadReq req;
  req.owner = client_id_;
  req.group = group;
  const Bytes body = req.serialize();

  // Candidates are collected UNVERIFIED and checked lazily, newest first,
  // so the best case costs exactly one signature verification (§6: "in the
  // best case, context acquisition requires just one signature
  // verification").
  auto candidates = std::make_shared<std::vector<StoredContext>>();
  auto replies = std::make_shared<std::size_t>(0);
  auto refused = std::make_shared<std::size_t>(0);
  const std::vector<NodeId> targets = pick_servers(target_count);
  const std::size_t target_total = targets.size();

  trace->phase("quorum");
  net::QuorumCall::start(
      node_, targets, net::MsgType::kContextRead, body,
      [this, candidates, replies, refused, target_total, group, quorum](
          NodeId from, net::MsgType type, BytesView resp_body) {
        if (note_wrong_shard(type, resp_body)) return true;
        if (note_overloaded(from, type, resp_body)) {
          // Fast refusal: when the refusals leave too few possible
          // repliers, the round cannot reach quorum — end it now instead
          // of burning the rest of the round timeout.
          return target_total - ++*refused < quorum;
        }
        ++*replies;
        try {
          ContextReadResp resp = ContextReadResp::deserialize(resp_body);
          if (resp.stored.has_value() && resp.stored->owner == client_id_ &&
              resp.stored->context.group() == group) {
            const bool duplicate = std::any_of(
                candidates->begin(), candidates->end(),
                [&](const StoredContext& c) { return c.context == resp.stored->context; });
            if (!duplicate) candidates->push_back(std::move(*resp.stored));
          }
        } catch (const DecodeError&) {
          // Faulty server sent garbage; still counts as a (useless) reply.
        }
        return *replies >= quorum;
      },
      [this, candidates, replies, refused, group, quorum, round, deadline, trace,
       done](net::QuorumOutcome outcome, std::size_t) {
        if (wrong_shard_pending()) {
          trace->finish(false);
          done(VoidResult(Error::kWrongShard, "server does not own this group's shard"));
          return;
        }
        if (*replies >= quorum) {
          trace->phase("verify");
          // One client's honest contexts are totally ordered by dominance,
          // so the pointwise timestamp sum is a valid newest-first sort
          // key; forged "newer" contexts fail verification and we fall
          // through to the next candidate.
          std::sort(candidates->begin(), candidates->end(),
                    [](const StoredContext& a, const StoredContext& b) {
                      auto weight = [](const StoredContext& c) {
                        std::uint64_t sum = 0;
                        for (const auto& [item, ts] : c.context.entries()) sum += ts.time;
                        return sum;
                      };
                      return weight(a) > weight(b);
                    });
          context_ = Context(group);
          for (const StoredContext& candidate : *candidates) {
            if (candidate.verify(keys_.public_key)) {
              context_ = candidate.context;
              break;
            }
          }
          connected_ = true;
          trace->finish(true);
          done(VoidResult{});
          return;
        }
        const SimDuration backoff = std::max(retry_backoff(round), take_overload_hint());
        if (round + 1 < options_.max_read_rounds &&
            node_.transport().now() + backoff < deadline) {
          trace->add("retries");
          node_.transport().schedule(backoff, [this, group, round, deadline, trace, done]() {
            connect_attempt(group, round + 1, deadline, trace, done);
          });
          return;
        }
        trace->finish(false);
        done(VoidResult(round_error(*refused, outcome), "context read quorum not reached"));
      },
      net::QuorumCall::Options{budget, trace->ctx()});
}

void SecureStoreClient::disconnect(VoidCb done) {
  disconnect_attempt(/*round=*/0, op_deadline(), begin_trace("client.p1.disconnect"),
                     std::move(done));
}

void SecureStoreClient::disconnect_attempt(unsigned round, SimTime deadline, Trace trace,
                                           VoidCb done) {
  const SimDuration budget = round_budget(deadline);
  if (budget == 0) {
    trace->finish(false);
    done(VoidResult(Error::kTimeout, "operation deadline passed"));
    return;
  }
  const std::size_t quorum = config_.context_quorum();
  const std::size_t target_count =
      std::min<std::size_t>(config_.n, quorum + round * config_.read_escalation_step);

  trace->phase("sign");
  StoredContext stored;
  stored.owner = client_id_;
  stored.context = context_;
  stored.sign(keys_.signing_key);

  ContextWriteReq req;
  req.stored = std::move(stored);
  const Bytes body = req.serialize();

  auto acks = std::make_shared<std::size_t>(0);
  auto refused = std::make_shared<std::size_t>(0);
  const std::vector<NodeId> targets = pick_servers(target_count);
  const std::size_t target_total = targets.size();
  trace->phase("quorum");
  net::QuorumCall::start(
      node_, targets, net::MsgType::kContextWrite, body,
      [this, acks, refused, target_total, quorum](NodeId from, net::MsgType type,
                                                  BytesView resp_body) {
        if (note_wrong_shard(type, resp_body)) return true;
        if (note_overloaded(from, type, resp_body)) {
          return target_total - ++*refused < quorum;
        }
        try {
          if (AckResp::deserialize(resp_body).ok) ++*acks;
        } catch (const DecodeError&) {
        }
        return *acks >= quorum;
      },
      [this, acks, refused, quorum, round, deadline, trace, done](net::QuorumOutcome outcome,
                                                                  std::size_t) {
        if (wrong_shard_pending()) {
          trace->finish(false);
          done(VoidResult(Error::kWrongShard, "server does not own this group's shard"));
          return;
        }
        if (*acks >= quorum) {
          connected_ = false;
          trace->finish(true);
          done(VoidResult{});
          return;
        }
        const SimDuration backoff = std::max(retry_backoff(round), take_overload_hint());
        if (round + 1 < options_.max_read_rounds &&
            node_.transport().now() + backoff < deadline) {
          trace->add("retries");
          node_.transport().schedule(backoff, [this, round, deadline, trace, done]() {
            disconnect_attempt(round + 1, deadline, trace, done);
          });
          return;
        }
        trace->finish(false);
        done(VoidResult(round_error(*refused, outcome), "context write quorum not reached"));
      },
      net::QuorumCall::Options{budget, trace->ctx()});
}

// ---------------------------------------------------------------------------
// P2: context reconstruction (§5.1).
// ---------------------------------------------------------------------------

void SecureStoreClient::reconstruct_context(GroupId group, VoidCb done) {
  // "These items must be read from all servers. Only the faulty servers may
  // choose not to respond": require n-b responses.
  const std::size_t needed = config_.n - config_.b;

  ReconstructReq req;
  req.group = group;
  const Bytes body = req.serialize();

  auto rebuilt = std::make_shared<Context>(group);
  auto replies = std::make_shared<std::size_t>(0);
  auto refused = std::make_shared<std::size_t>(0);
  const std::size_t target_total = config_.servers.size();

  auto trace = begin_trace("client.p2.reconstruct");
  trace->phase("quorum");
  net::QuorumCall::start(
      node_, config_.servers, net::MsgType::kReconstruct, body,
      [this, rebuilt, replies, refused, target_total, needed, group](
          NodeId from, net::MsgType type, BytesView resp_body) {
        if (note_wrong_shard(type, resp_body)) return true;
        if (note_overloaded(from, type, resp_body)) {
          return target_total - ++*refused < needed;
        }
        ++*replies;
        try {
          for (const WriteRecord& meta : ReconstructResp::deserialize(resp_body).metas) {
            if (meta.group != group) continue;
            const Bytes* key = writer_key(meta.writer);
            // "the latest valid timestamp for each data item is used":
            // validity = the writer's signature over the meta-data verifies.
            if (key != nullptr && meta.verify_meta(*key)) {
              rebuilt->advance(meta.item, meta.ts);
            }
          }
        } catch (const DecodeError&) {
        }
        return false;  // hear from as many servers as possible
      },
      [this, rebuilt, replies, refused, needed, trace, done](net::QuorumOutcome outcome,
                                                             std::size_t) {
        if (wrong_shard_pending()) {
          trace->finish(false);
          done(VoidResult(Error::kWrongShard, "server does not own this group's shard"));
          return;
        }
        if (*replies >= needed) {
          context_ = *rebuilt;
          connected_ = true;
          trace->finish(true);
          done(VoidResult{});
          return;
        }
        trace->finish(false);
        done(VoidResult(round_error(*refused, outcome), "reconstruction needs n-b responses"));
      },
      net::QuorumCall::Options{options_.round_timeout, trace->ctx()});
}

void SecureStoreClient::list_group(GroupId group, ListCb done) {
  const std::size_t needed = config_.n - config_.b;

  ReconstructReq req;
  req.group = group;
  const Bytes body = req.serialize();

  // item -> newest verified meta.
  auto newest = std::make_shared<std::map<ItemId, WriteRecord>>();
  auto replies = std::make_shared<std::size_t>(0);
  auto refused = std::make_shared<std::size_t>(0);
  const std::size_t target_total = config_.servers.size();

  auto trace = begin_trace("client.p2.list");
  trace->phase("quorum");
  net::QuorumCall::start(
      node_, config_.servers, net::MsgType::kReconstruct, body,
      [this, newest, replies, refused, target_total, needed, group](
          NodeId from, net::MsgType type, BytesView resp_body) {
        if (note_wrong_shard(type, resp_body)) return true;
        if (note_overloaded(from, type, resp_body)) {
          return target_total - ++*refused < needed;
        }
        ++*replies;
        try {
          for (const WriteRecord& meta : ReconstructResp::deserialize(resp_body).metas) {
            if (meta.group != group) continue;
            const Bytes* key = writer_key(meta.writer);
            if (key == nullptr || !meta.verify_meta(*key)) continue;
            auto [it, inserted] = newest->try_emplace(meta.item, meta);
            if (!inserted && it->second.ts < meta.ts) it->second = meta;
          }
        } catch (const DecodeError&) {
        }
        return false;
      },
      [this, newest, replies, refused, needed, trace, done](net::QuorumOutcome outcome,
                                                            std::size_t) {
        if (wrong_shard_pending()) {
          trace->finish(false);
          done(Result<std::vector<GroupEntry>>(Error::kWrongShard,
                                               "server does not own this group's shard"));
          return;
        }
        if (*replies < needed) {
          trace->finish(false);
          done(Result<std::vector<GroupEntry>>(round_error(*refused, outcome),
                                               "group listing needs n-b responses"));
          return;
        }
        std::vector<GroupEntry> entries;
        entries.reserve(newest->size());
        for (const auto& [item, meta] : *newest) {
          entries.push_back(GroupEntry{item, meta.ts, meta.writer});
        }
        trace->finish(true);
        done(Result<std::vector<GroupEntry>>(std::move(entries)));
      },
      net::QuorumCall::Options{options_.round_timeout, trace->ctx()});
}

// ---------------------------------------------------------------------------
// Writes (Fig. 2 write, §5.3 hardened write).
// ---------------------------------------------------------------------------

Timestamp SecureStoreClient::next_timestamp(ItemId item, BytesView value_digest) {
  Timestamp ts;
  // "increment t_j in X_i to current clock value" — and never backwards.
  const std::uint64_t previous = context_.get(item).time;
  ts.time = std::max(previous + 1, static_cast<std::uint64_t>(node_.transport().now()));
  if (options_.random_ts_increment) {
    // §5.2: "the writer can increase it on each write by some random amount.
    // That will ensure that others cannot guess how many times the data item
    // has been updated."
    ts.time += rng_.next_in_range(1, 1u << 20);
  }
  if (options_.policy.sharing == SharingMode::kMultiWriter) {
    ts.writer = client_id_;
    ts.digest = Bytes(value_digest.begin(), value_digest.end());
  }
  return ts;
}

void SecureStoreClient::write(ItemId item, BytesView value, VoidCb done) {
  auto trace = begin_trace(data_op_name("write"));
  trace->phase("sign");
  auto record = std::make_shared<WriteRecord>();
  record->item = item;
  record->group = options_.policy.group;
  record->model = options_.policy.model;
  record->writer = client_id_;
  record->value = options_.codec->encode(item, value);

  // d(v) once: it goes into the multi-writer timestamp and the signature.
  Bytes digest = crypto::meter_digest(record->value);
  record->ts = next_timestamp(item, digest);

  if (options_.policy.model == ConsistencyModel::kCC) {
    // The context written with the value includes the new self entry
    // (Fig. 2: t_j is incremented before the write message is formed).
    Context writer_context = context_;
    writer_context.set(item, record->ts);
    record->writer_context = std::move(writer_context);
  } else {
    record->writer_context = Context(options_.policy.group);
  }

  record->sign(keys_.signing_key, std::move(digest));

  auto shares = std::make_shared<std::vector<Bytes>>();
  send_write(record, write_set_size(), /*round=*/0, op_deadline(), shares, std::move(trace),
             std::move(done));
}

void SecureStoreClient::send_write(std::shared_ptr<WriteRecord> record,
                                   std::size_t target_count, unsigned round, SimTime deadline,
                                   std::shared_ptr<std::vector<Bytes>> shares, Trace trace,
                                   VoidCb done) {
  const SimDuration budget = round_budget(deadline);
  if (budget == 0) {
    trace->finish(false);
    done(VoidResult(Error::kTimeout, "operation deadline passed"));
    return;
  }
  const std::size_t quorum = write_set_size();

  WriteReq req;
  req.record = *record;
  req.token = options_.token;
  const Bytes body = req.serialize();

  auto acks = std::make_shared<std::size_t>(0);
  auto refused = std::make_shared<std::size_t>(0);
  const std::vector<NodeId> targets = pick_servers(target_count);
  const std::size_t target_total = targets.size();
  trace->phase("quorum");
  net::QuorumCall::start(
      node_, targets, net::MsgType::kWrite, body,
      [this, acks, refused, target_total, shares, quorum](NodeId from, net::MsgType type,
                                                          BytesView resp_body) {
        if (note_wrong_shard(type, resp_body)) return true;
        if (note_overloaded(from, type, resp_body)) {
          return target_total - ++*refused < quorum;
        }
        try {
          const WriteResp resp = WriteResp::deserialize(resp_body);
          if (resp.ok) {
            ++*acks;
            if (!resp.stability_share.empty()) shares->push_back(resp.stability_share);
          }
        } catch (const DecodeError&) {
        }
        return *acks >= quorum;
      },
      [this, record, target_count, round, deadline, shares, acks, refused, quorum, trace,
       done](net::QuorumOutcome /*outcome*/, std::size_t) {
        if (wrong_shard_pending()) {
          trace->finish(false);
          done(VoidResult(Error::kWrongShard, "server does not own this group's shard"));
          return;
        }
        if (*acks >= quorum) {
          trace->finish(true);
          finish_write(*record, done);
          if (options_.stability_gc && !shares->empty() &&
              shares->size() >= config_.stability_threshold()) {
            broadcast_stability(*record, *shares, trace->ctx());
          }
          return;
        }
        // Not enough acks: escalate to a larger server set, Fig. 2's
        // "contact additional servers".
        const SimDuration backoff = std::max(retry_backoff(round), take_overload_hint());
        if (round + 1 >= options_.max_read_rounds ||
            node_.transport().now() + backoff >= deadline) {
          trace->finish(false);
          done(VoidResult(*refused > 0 ? Error::kOverloaded : Error::kTimeout,
                          "write quorum not reached after escalation"));
          return;
        }
        trace->add("retries");
        shares->clear();
        const std::size_t next_targets =
            std::min<std::size_t>(config_.n, target_count + config_.read_escalation_step);
        node_.transport().schedule(
            backoff, [this, record, next_targets, round, deadline, shares, trace, done]() {
              send_write(record, next_targets, round + 1, deadline, shares, trace, done);
            });
      },
      net::QuorumCall::Options{budget, trace->ctx()});
}

void SecureStoreClient::finish_write(const WriteRecord& record, VoidCb done) {
  context_.advance(record.item, record.ts);
  done(VoidResult{});
}

void SecureStoreClient::broadcast_stability(const WriteRecord& record,
                                            std::vector<Bytes> shares,
                                            const obs::TraceContext& trace) {
  // The ack order matched pick_servers(), so shares pair with those ids in
  // order of arrival; re-derive signer ids by verification against the
  // known server keys. (Cheap relative to the write itself and only on the
  // §5.3 path.)
  crypto::MultisigCertificate cert(stability_statement(record.item, record.ts));
  for (const Bytes& share : shares) {
    for (const auto& [server, key] : config_.server_keys) {
      if (crypto::meter_verify(key, cert.statement(), share)) {
        cert.add_share(server, share);
        break;
      }
    }
  }
  if (cert.shares().size() < config_.stability_threshold()) return;

  StabilityMsg msg;
  msg.item = record.item;
  msg.ts = record.ts;
  msg.certificate = std::move(cert);
  const Bytes body = msg.serialize();
  for (const NodeId server : config_.servers) {
    node_.send_oneway(server, net::MsgType::kStability, body, trace);
  }
}

// ---------------------------------------------------------------------------
// Reads.
// ---------------------------------------------------------------------------

void SecureStoreClient::read(ItemId item, ReadCb done) {
  const bool hardened = options_.policy.sharing == SharingMode::kMultiWriter &&
                        options_.policy.trust == ClientTrust::kByzantine;
  auto trace = begin_trace(data_op_name("read"));
  if (hardened) {
    read_multi_writer(item, /*round=*/0, op_deadline(), std::move(trace), std::move(done));
  } else {
    read_single_writer(item, /*round=*/0, op_deadline(), std::move(trace), std::move(done));
  }
}

void SecureStoreClient::read_single_writer(ItemId item, unsigned round, SimTime deadline,
                                           Trace trace, ReadCb done) {
  const SimDuration budget = round_budget(deadline);
  if (budget == 0) {
    trace->finish(false);
    done(Result<ReadOutput>(Error::kTimeout, "operation deadline passed"));
    return;
  }
  // Fig. 2 phase 1: "send (uid(x_j), t_j) to b+1 or more servers" — each
  // escalation round widens the set.
  const std::size_t target_count = std::min<std::size_t>(
      config_.n, effective_b() + 1 + round * config_.read_escalation_step);

  MetaReq req;
  req.item = item;
  req.group = options_.policy.group;
  req.requester = client_id_;
  req.include_value = options_.inline_reads;
  req.token = options_.token;
  const Bytes body = req.serialize();

  // Replies are collected UNVERIFIED here; signatures are checked lazily,
  // best-candidate first, so the common case costs one verification —
  // Fig. 2 verifies only the value it accepts. Senders ride along for the
  // fault estimator's evidence feed.
  struct Advertised {
    WriteRecord record;
    NodeId from;
    bool value_included = false;
  };
  auto metas = std::make_shared<std::vector<Advertised>>();
  auto responders = std::make_shared<std::vector<NodeId>>();
  auto refused = std::make_shared<std::size_t>(0);
  auto targets = std::make_shared<std::vector<NodeId>>(pick_servers(target_count));
  trace->phase("quorum");
  net::QuorumCall::start(
      node_, *targets, net::MsgType::kMetaRequest, body,
      [this, metas, responders, refused, targets, item](NodeId from, net::MsgType type,
                                                        BytesView resp_body) {
        if (note_wrong_shard(type, resp_body)) return true;
        if (note_overloaded(from, type, resp_body)) {
          // A refusal is a response (not silence): the server is alive, so
          // it must not feed the estimator's silent-evidence path.
          responders->push_back(from);
          // The meta round is useful with even one real reply; only a
          // clean sweep of refusals ends it early.
          return ++*refused >= targets->size();
        }
        responders->push_back(from);
        note_responded(from);
        try {
          MetaResp resp = MetaResp::deserialize(resp_body);
          if (resp.meta.has_value() && resp.meta->item == item &&
              resp.meta->model == options_.policy.model &&
              writer_key(resp.meta->writer) != nullptr) {
            metas->push_back(Advertised{std::move(*resp.meta), from, resp.value_included});
          }
        } catch (const DecodeError&) {
          // Channels are authenticated (§4), so a malformed reply is
          // conclusive evidence of a faulty server.
          note_forgery(from);
        }
        return false;  // collect every reply in the round: we want max t_r
      },
      [this, metas, responders, refused, targets, item, round, deadline, trace,
       done](net::QuorumOutcome /*outcome*/, std::size_t) {
        if (wrong_shard_pending()) {
          trace->finish(false);
          done(Result<ReadOutput>(Error::kWrongShard,
                                  "server does not own this group's shard"));
          return;
        }
        trace->phase("verify");
        note_silent(*targets, *responders);
        // Multi-writer (honest) equivocation check. Unverified claims are
        // not enough to condemn a writer — a malicious server could frame
        // one — so an equivocating pair counts only if BOTH metas carry
        // valid writer signatures.
        for (std::size_t i = 0; i < metas->size(); ++i) {
          for (std::size_t j = i + 1; j < metas->size(); ++j) {
            const WriteRecord& a = (*metas)[i].record;
            const WriteRecord& b = (*metas)[j].record;
            if (!a.ts.equivocates(b.ts)) continue;
            if (a.verify_meta(*writer_key(a.writer)) &&
                b.verify_meta(*writer_key(b.writer))) {
              trace->add("equivocations_seen");
              trace->finish(false);
              done(Result<ReadOutput>(Error::kFaultyWriter,
                                      "equivocating timestamps in meta replies"));
              return;
            }
          }
        }

        // Fig. 2: t_r = highest timestamp among replies; proceed iff
        // t_r >= t_j (the client's context entry). Dedup identical claims.
        const Timestamp floor = context_.get(item);
        std::vector<Advertised> candidates;
        for (const Advertised& meta : *metas) {
          if (meta.record.ts < floor) continue;
          const bool duplicate =
              std::any_of(candidates.begin(), candidates.end(), [&](const Advertised& c) {
                return c.record.ts == meta.record.ts &&
                       c.record.value_digest == meta.record.value_digest;
              });
          if (duplicate) continue;
          candidates.push_back(meta);
        }
        std::sort(candidates.begin(), candidates.end(),
                  [](const Advertised& a, const Advertised& b) {
                    return newer(a.record, b.record);
                  });

        if (!candidates.empty()) {
          if (options_.inline_reads) {
            // Values rode along with the metas: verify best-first and
            // accept the first that proves out.
            for (const Advertised& candidate : candidates) {
              if (candidate.value_included &&
                  candidate.record.verify(*writer_key(candidate.record.writer))) {
                if (options_.read_repair) {
                  // Push the accepted record to responders that advertised
                  // something older (or nothing).
                  WriteReq repair;
                  repair.record = candidate.record;
                  repair.token = options_.token;
                  const Bytes repair_body = repair.serialize();
                  for (const NodeId responder : *responders) {
                    const bool lagging = std::none_of(
                        metas->begin(), metas->end(), [&](const Advertised& m) {
                          return m.from == responder && !(m.record.ts < candidate.record.ts);
                        });
                    if (lagging) {
                      node_.send_request(responder, net::MsgType::kWrite, repair_body,
                                         [](NodeId, net::MsgType, BytesView) {},
                                         trace->ctx());
                    }
                  }
                }
                accept_read(candidate.record, trace, done);
                return;
              }
              // A server advertising an unverifiable record is provably
              // faulty (correct servers validate before storing).
              note_forgery(candidate.from);
            }
            // Every advertised candidate was a lie: fall through to
            // escalation below.
          } else {
            const std::size_t fetch_targets =
                std::min<std::size_t>(config_.n, effective_b() + 1 +
                                                     round * config_.read_escalation_step);
            auto fetchable = std::make_shared<std::vector<WriteRecord>>();
            for (Advertised& candidate : candidates) {
              fetchable->push_back(std::move(candidate.record));
            }
            fetch_candidate(item, std::move(fetchable),
                            std::make_shared<std::vector<NodeId>>(pick_servers(fetch_targets)),
                            /*candidate_idx=*/0, /*server_idx=*/0, round, deadline, trace,
                            done);
            return;
          }
        }

        // Stale (or nothing at all): escalate or give up.
        const SimDuration backoff = std::max(retry_backoff(round), take_overload_hint());
        if (round + 1 < options_.max_read_rounds &&
            node_.transport().now() + backoff < deadline) {
          trace->add("retries");
          node_.transport().schedule(backoff, [this, item, round, deadline, trace, done]() {
            read_single_writer(item, round + 1, deadline, trace, done);
          });
          return;
        }
        trace->finish(false);
        if (metas->empty() && *refused > 0) {
          done(Result<ReadOutput>(Error::kOverloaded, "servers shed the read"));
          return;
        }
        done(Result<ReadOutput>(metas->empty() ? Error::kNotFound : Error::kStale,
                                metas->empty() ? "no server returned the item"
                                               : "all replies older than context"));
      },
      net::QuorumCall::Options{budget, trace->ctx()});
}

void SecureStoreClient::fetch_candidate(ItemId item,
                                        std::shared_ptr<std::vector<WriteRecord>> candidates,
                                        std::shared_ptr<std::vector<NodeId>> servers,
                                        std::size_t candidate_idx, std::size_t server_idx,
                                        unsigned round, SimTime deadline, Trace trace,
                                        ReadCb done) {
  if (candidate_idx >= candidates->size()) {
    // No candidate could be substantiated from this round's servers:
    // escalate (Fig. 2: "contact additional servers or try later").
    const SimDuration backoff = std::max(retry_backoff(round), take_overload_hint());
    if (round + 1 < options_.max_read_rounds &&
        node_.transport().now() + backoff < deadline) {
      trace->add("retries");
      node_.transport().schedule(backoff, [this, item, round, deadline, trace, done]() {
        read_single_writer(item, round + 1, deadline, trace, done);
      });
    } else {
      trace->finish(false);
      done(Result<ReadOutput>(Error::kStale, "no advertised value could be fetched"));
    }
    return;
  }
  if (server_idx >= servers->size()) {
    fetch_candidate(item, candidates, servers, candidate_idx + 1, 0, round, deadline, trace,
                    done);
    return;
  }
  const SimDuration budget = round_budget(deadline);
  if (budget == 0) {
    trace->finish(false);
    done(Result<ReadOutput>(Error::kTimeout, "operation deadline passed"));
    return;
  }

  const Timestamp target_ts = (*candidates)[candidate_idx].ts;

  ReadReq req;
  req.item = item;
  req.group = options_.policy.group;
  req.ts = target_ts;
  req.requester = client_id_;
  req.token = options_.token;
  const Bytes body = req.serialize();

  auto accepted = std::make_shared<std::optional<WriteRecord>>();
  trace->phase("fetch");
  net::QuorumCall::start(
      node_, {(*servers)[server_idx]}, net::MsgType::kRead, body,
      [this, accepted, item, target_ts](NodeId from, net::MsgType type, BytesView resp_body) {
        if (note_wrong_shard(type, resp_body)) return true;
        // A shed fetch just moves on to the next server; the breaker and
        // hint bookkeeping still run.
        if (note_overloaded(from, type, resp_body)) return true;
        try {
          ReadResp resp = ReadResp::deserialize(resp_body);
          if (resp.record.has_value() && resp.record->item == item &&
              resp.record->model == options_.policy.model &&
              !(resp.record->ts < target_ts)) {
            const Bytes* key = writer_key(resp.record->writer);
            // Full verification: meta signature AND value matches d(v) —
            // "accept v if the signature is valid" (Fig. 2).
            if (key != nullptr && resp.record->verify(*key)) {
              *accepted = std::move(*resp.record);
            }
          }
        } catch (const DecodeError&) {
        }
        return true;  // single-server call: a reply ends it either way
      },
      [this, accepted, item, candidates, servers, candidate_idx, server_idx, round, deadline,
       trace, done](net::QuorumOutcome /*outcome*/, std::size_t) {
        if (wrong_shard_pending()) {
          trace->finish(false);
          done(Result<ReadOutput>(Error::kWrongShard,
                                  "server does not own this group's shard"));
          return;
        }
        if (accepted->has_value()) {
          accept_read(**accepted, trace, done);
          return;
        }
        fetch_candidate(item, candidates, servers, candidate_idx, server_idx + 1, round,
                        deadline, trace, done);
      },
      net::QuorumCall::Options{budget, trace->ctx()});
}

void SecureStoreClient::accept_read(const WriteRecord& record, Trace trace, ReadCb done) {
  const auto decoded = options_.codec->decode(record.item, record.value);
  if (!decoded.has_value()) {
    trace->finish(false);
    done(Result<ReadOutput>(Error::kBadSignature, "value failed authenticated decryption"));
    return;
  }

  // Context evolution per Fig. 2: MRC advances only this item's entry; CC
  // additionally absorbs X_writer so causally preceding writes become
  // floors for future reads.
  if (options_.policy.model == ConsistencyModel::kCC) {
    context_.merge(record.writer_context);
  }
  context_.advance(record.item, record.ts);

  ReadOutput output;
  output.value = *decoded;
  output.ts = record.ts;
  output.writer = record.writer;
  trace->finish(true);
  done(Result<ReadOutput>(std::move(output)));
}

// ---------------------------------------------------------------------------
// §5.3 hardened multi-writer read: 2b+1 logs, accept the newest write that
// appears in b+1 of them.
// ---------------------------------------------------------------------------

void SecureStoreClient::read_multi_writer(ItemId item, unsigned round, SimTime deadline,
                                          Trace trace, ReadCb done) {
  const SimDuration budget = round_budget(deadline);
  if (budget == 0) {
    trace->finish(false);
    done(Result<ReadOutput>(Error::kTimeout, "operation deadline passed"));
    return;
  }
  const std::size_t target_count = std::min<std::size_t>(
      config_.n, config_.data_quorum_byzantine() + round * config_.read_escalation_step);

  LogReadReq req;
  req.item = item;
  req.group = options_.policy.group;
  req.requester = client_id_;
  req.token = options_.token;
  const Bytes body = req.serialize();

  struct Tally {
    WriteRecord record;
    std::size_t servers = 0;
  };
  auto tallies = std::make_shared<std::vector<Tally>>();
  auto faulty_votes = std::make_shared<std::size_t>(0);
  auto any_log_entry = std::make_shared<bool>(false);
  auto refused = std::make_shared<std::size_t>(0);
  const std::vector<NodeId> targets = pick_servers(target_count);
  const std::size_t target_total = targets.size();

  trace->phase("quorum");
  net::QuorumCall::start(
      node_, targets, net::MsgType::kLogRead, body,
      [this, tallies, faulty_votes, any_log_entry, refused, target_total, item](
          NodeId from, net::MsgType type, BytesView resp_body) {
        if (note_wrong_shard(type, resp_body)) return true;
        if (note_overloaded(from, type, resp_body)) {
          // b+1 matching logs become impossible once too many servers
          // refuse: end the round without waiting out the timeout.
          return target_total - ++*refused < config_.agreement_threshold();
        }
        try {
          LogReadResp resp = LogReadResp::deserialize(resp_body);
          if (resp.faulty_writer) ++*faulty_votes;
          // Count each distinct write at most once per server.
          std::vector<std::pair<Timestamp, Bytes>> seen;
          for (const WriteRecord& record : resp.records) {
            if (record.item != item || record.model != options_.policy.model) continue;
            *any_log_entry = true;
            const bool duplicate_in_reply =
                std::any_of(seen.begin(), seen.end(), [&](const auto& s) {
                  return s.first == record.ts && s.second == record.value_digest;
                });
            if (duplicate_in_reply) continue;
            seen.emplace_back(record.ts, record.value_digest);

            auto it = std::find_if(tallies->begin(), tallies->end(), [&](const Tally& t) {
              return t.record.ts == record.ts && t.record.value_digest == record.value_digest;
            });
            if (it == tallies->end()) {
              tallies->push_back(Tally{record, 1});
            } else {
              ++it->servers;
            }
          }
        } catch (const DecodeError&) {
        }
        return false;  // need the full 2b+1 round for the b+1 count
      },
      [this, tallies, faulty_votes, any_log_entry, refused, item, round, deadline, trace,
       done](net::QuorumOutcome /*outcome*/, std::size_t) {
        if (wrong_shard_pending()) {
          trace->finish(false);
          done(Result<ReadOutput>(Error::kWrongShard,
                                  "server does not own this group's shard"));
          return;
        }
        trace->phase("verify");
        // b+1 servers vouching for "this writer equivocated" means at least
        // one correct server saw it.
        if (*faulty_votes >= config_.agreement_threshold()) {
          trace->add("equivocations_seen");
          trace->finish(false);
          done(Result<ReadOutput>(Error::kFaultyWriter,
                                  "b+1 servers flagged the writer as equivocating"));
          return;
        }

        // "accept a value as valid only if b+1 or more servers reply with
        // the same value" — choose the newest such value at or above the
        // context floor.
        const Timestamp floor = context_.get(item);
        const WriteRecord* best = nullptr;
        for (const Tally& tally : *tallies) {
          if (tally.servers < config_.agreement_threshold()) continue;
          if (tally.record.ts < floor) continue;
          if (best == nullptr || best->ts < tally.record.ts) best = &tally.record;
        }
        if (best != nullptr) {
          // Server-side validation substitutes for a client signature check
          // here (§6: "Clients do not have to do signature verification for
          // a read now since non-malicious servers do the validation before
          // reporting") — b+1 matching logs include at least one honest one.
          accept_read(*best, trace, done);
          return;
        }

        const SimDuration backoff = std::max(retry_backoff(round), take_overload_hint());
        if (round + 1 < options_.max_read_rounds &&
            node_.transport().now() + backoff < deadline) {
          trace->add("retries");
          node_.transport().schedule(backoff, [this, item, round, deadline, trace, done]() {
            read_multi_writer(item, round + 1, deadline, trace, done);
          });
          return;
        }
        trace->finish(false);
        if (!*any_log_entry && *refused > 0) {
          done(Result<ReadOutput>(Error::kOverloaded, "servers shed the read"));
          return;
        }
        done(Result<ReadOutput>(*any_log_entry ? Error::kNoAgreement : Error::kNotFound,
                                *any_log_entry
                                    ? "no value matched in b+1 logs at or above the context"
                                    : "no server logged the item"));
      },
      net::QuorumCall::Options{budget, trace->ctx()});
}

}  // namespace securestore::core
