// Load generator: launches the n=4 server hosts, hosts every client
// principal on one TcpTransport (one dispatch thread, one connection per
// server), runs the timed phases, checks correctness, and prints one raw
// JSON report line that run.py turns into metrics.
//
// All protocol work happens on the transport's dispatch thread; the main
// thread only coordinates phases, reads /proc and talks to the server
// hosts over their stdin/stdout.
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/utsname.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <future>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "core/client.h"
#include "core/messages.h"
#include "crypto/ed25519.h"
#include "crypto/ed25519_batch.h"
#include "net/introspect.h"
#include "net/tcp_transport.h"
#include "obs/export.h"
#include "testkit/oracle.h"
#include "timed_transport.h"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Host-wide (steal, total) CPU ticks from /proc/stat: the time this
/// virtual machine's vCPUs were runnable but held off by the hypervisor.
std::pair<std::uint64_t, std::uint64_t> steal_ticks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  std::uint64_t field = 0, total = 0, steal = 0;
  in >> cpu;
  for (int i = 0; i < 8 && in >> field; ++i) {
    total += field;
    if (i == 7) steal = field;
  }
  return {steal, total};
}

/// Progress line on stderr, stamped with seconds since the run began.
void progress(const std::string& what) {
  static const auto began = Clock::now();
  std::fprintf(stderr, "ledger [%7.2fs] %s\n", seconds_since(began), what.c_str());
}

// --- server host processes ------------------------------------------------

/// One launched server host: its pid and the two ends of its control pipe.
struct Host {
  pid_t pid = -1;
  int to_child = -1;
  int from_child = -1;
  std::string buffered;
  std::uint16_t port = 0;
  int dispatch_tid = 0;
  std::vector<int> engine_tids;
};

std::string self_exe() {
  char path[4096];
  const ssize_t n = readlink("/proc/self/exe", path, sizeof path - 1);
  if (n <= 0) throw std::runtime_error("cannot resolve /proc/self/exe");
  return std::string(path, static_cast<std::size_t>(n));
}

Host spawn_host(const Params& params, std::uint32_t id, std::uint16_t port = 0) {
  int down[2], up[2];
  if (pipe2(down, O_CLOEXEC) != 0 || pipe2(up, O_CLOEXEC) != 0) {
    throw std::runtime_error("pipe failed");
  }
  std::vector<std::string> args = {self_exe(), "server"};
  for (auto& a : params.server_args(id, port)) args.push_back(a);
  std::vector<char*> argv;
  for (auto& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  const pid_t pid = fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    dup2(down[0], STDIN_FILENO);
    dup2(up[1], STDOUT_FILENO);
    execv(argv[0], argv.data());
    _exit(127);
  }
  close(down[0]);
  close(up[1]);
  Host host;
  host.pid = pid;
  host.to_child = down[1];
  host.from_child = up[0];
  return host;
}

std::string read_line(Host& host, int timeout_ms) {
  const auto deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);
  for (;;) {
    const auto nl = host.buffered.find('\n');
    if (nl != std::string::npos) {
      std::string line = host.buffered.substr(0, nl);
      host.buffered.erase(0, nl + 1);
      return line;
    }
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(deadline - Clock::now());
    if (left.count() <= 0) throw std::runtime_error("server host " + std::to_string(host.pid) + " timed out");
    pollfd pfd{host.from_child, POLLIN, 0};
    if (poll(&pfd, 1, static_cast<int>(left.count())) <= 0) continue;
    char buffer[65536];
    const ssize_t n = read(host.from_child, buffer, sizeof buffer);
    if (n <= 0) throw std::runtime_error("server host " + std::to_string(host.pid) + " exited");
    host.buffered.append(buffer, static_cast<std::size_t>(n));
  }
}

void write_line(Host& host, const std::string& line) {
  const std::string data = line + "\n";
  if (write(host.to_child, data.data(), data.size()) != static_cast<ssize_t>(data.size())) {
    throw std::runtime_error("cannot command server host");
  }
}

std::string command(Host& host, const std::string& line, int timeout_ms = 20000) {
  write_line(host, line);
  return read_line(host, timeout_ms);
}

/// Parses the `ready {...}` line: the dispatch tid and the engine tids.
void parse_ready(Host& host, const std::string& line) {
  if (line.rfind("ready ", 0) != 0) throw std::runtime_error("bad ready line: " + line);
  const auto field = [&](const std::string& key) { return line.find("\"" + key + "\":"); };
  host.dispatch_tid = std::atoi(line.c_str() + field("dispatch_tid") + 15);
  host.engine_tids.clear();
  const auto open = line.find('[', field("engine_tids"));
  const auto close_at = line.find(']', open);
  std::istringstream list(line.substr(open + 1, close_at - open - 1));
  std::string tid;
  while (std::getline(list, tid, ',')) {
    if (!tid.empty()) host.engine_tids.push_back(std::stoi(tid));
  }
}

void reap(Host& host, bool kill_first) {
  if (host.pid <= 0) return;
  if (kill_first) kill(host.pid, SIGKILL);
  close(host.to_child);
  close(host.from_child);
  int status = 0;
  waitpid(host.pid, &status, 0);
  host.pid = -1;
}

// --- workload ------------------------------------------------------------

struct Op {
  std::uint64_t seq = 0;
  bool write = false;
  std::uint32_t principal = 0;
  std::uint32_t item = 0;  // index; ItemId is item + 1
  std::uint64_t due_ns = 0;  // open loop: scheduled arrival; closed: issue
};

ItemId item_id(std::uint32_t index) { return ItemId{index + 1}; }

/// Deterministic op stream for one phase: the same seed, workload and
/// phase name always yield the same sequence of ops.
class OpStream {
 public:
  OpStream(const Params& params, std::string_view phase, std::vector<std::uint32_t>& write_order,
           std::uint64_t& write_cursor, const std::vector<double>& zipf_cdf,
           const std::vector<std::uint32_t>& zipf_items)
      : params_(params),
        rng_(stream_seed(params, phase)),
        write_order_(write_order),
        write_cursor_(write_cursor),
        zipf_cdf_(zipf_cdf),
        zipf_items_(zipf_items) {}

  Op next(bool force_write = false) {
    Op op;
    op.write = force_write || rng_.next_bool(params_.write_frac);
    const bool single_writer = params_.policy == "sw-mrc";
    if (op.write) {
      // Preloads and sensors write in rotation: every item is written once
      // before any is rewritten, so live data grows to the full item set.
      const bool rotation = force_write || (single_writer && params_.zipf == 0);
      op.item = rotation ? write_order_[write_cursor_ % write_order_.size()]
                         : static_cast<std::uint32_t>(rng_.next_below(params_.items));
      ++write_cursor_;
      op.principal = single_writer ? op.item % params_.owners
                                   : static_cast<std::uint32_t>(rng_.next_below(kPrincipals));
    } else {
      if (params_.zipf > 0) {
        const double u = rng_.next_double();
        const auto at = std::lower_bound(zipf_cdf_.begin(), zipf_cdf_.end(), u) - zipf_cdf_.begin();
        op.item = zipf_items_[std::min<std::size_t>(static_cast<std::size_t>(at), zipf_items_.size() - 1)];
      } else if (single_writer) {
        // Uniform over items written long enough ago to be acked.
        constexpr std::uint64_t kAckLag = 1024;
        const std::uint64_t written = std::min<std::uint64_t>(write_cursor_, write_order_.size());
        const std::uint64_t pool =
            std::max<std::uint64_t>(std::min<std::uint64_t>(params_.preload, write_order_.size()),
                                    written > kAckLag ? written - kAckLag : 0);
        op.item = write_order_[rng_.next_below(std::max<std::uint64_t>(pool, 1))];
      } else {
        op.item = static_cast<std::uint32_t>(rng_.next_below(params_.items));
      }
      if (!single_writer) {
        op.principal = static_cast<std::uint32_t>(rng_.next_below(kPrincipals));
      } else if (params_.owners < kPrincipals) {
        op.principal = params_.owners + static_cast<std::uint32_t>(
                                            rng_.next_below(kPrincipals - params_.owners));
      } else {
        // Every principal owns items: read someone else's.
        const std::uint32_t owner = op.item % params_.owners;
        op.principal = (owner + 1 + static_cast<std::uint32_t>(
                                        rng_.next_below(kPrincipals - 1))) %
                       kPrincipals;
      }
    }
    return op;
  }

 private:
  const Params& params_;
  Rng rng_;
  std::vector<std::uint32_t>& write_order_;
  std::uint64_t& write_cursor_;
  const std::vector<double>& zipf_cdf_;
  const std::vector<std::uint32_t>& zipf_items_;
};

/// What one phase observed, filled on the dispatch thread.
struct PhaseResult {
  explicit PhaseResult(std::string phase_name) : name(std::move(phase_name)) {}

  std::string name;
  std::uint64_t attempted = 0;
  std::uint64_t ok = 0;
  std::uint64_t failed = 0;    // errors and timeouts
  std::uint64_t refused = 0;   // kOverloaded
  std::uint64_t overflow = 0;  // open loop: arrival found the in-flight cap full
  std::uint64_t writes_ok = 0;
  double wall_s = 0;
  double settle_s = 0;  // idle wait before the phase
  double steal_frac = 0;  // share of host CPU time stolen by the hypervisor
  std::vector<double> write_ms, read_ms, late_ms;  // open loop only
  std::string cpu_before, cpu_after;
  std::string cpu_wide_before, cpu_wide_after;
  std::string snap_before, snap_after;
};

/// Oracle input recorded on the dispatch thread and replayed into the
/// ConsistencyOracle after the phase, so the check costs no measured CPU.
struct OracleEvent {
  enum Kind { kAttempt, kAck, kRead } kind;
  std::uint32_t principal;
  std::uint32_t item;
  std::shared_ptr<const Bytes> value;
  core::Timestamp ts;
  std::shared_ptr<const core::Context> deps;
  core::ReadOutput read;
};

/// A JSON document folded onto one line, so the report stays one line.
std::string one_line(std::string json) {
  std::replace(json.begin(), json.end(), '\n', ' ');
  return json;
}

std::string doubles_json(const std::vector<double>& values) {
  std::ostringstream out;
  out.precision(6);
  out << "[";
  for (std::size_t i = 0; i < values.size(); ++i) out << (i ? "," : "") << values[i];
  out << "]";
  return out.str();
}

class LoadGen {
 public:
  explicit LoadGen(Params params)
      : params_(std::move(params)),
        keys_(derive_keys(params_)),
        config_(store_config(params_, keys_)),
        policy_(group_policy(params_)) {
    Rng rng(stream_seed(params_, "layout"));
    write_order_.resize(params_.items);
    std::iota(write_order_.begin(), write_order_.end(), 0u);
    for (std::size_t i = write_order_.size(); i > 1; --i) {
      std::swap(write_order_[i - 1], write_order_[rng.next_below(i)]);
    }
    if (params_.zipf > 0) {
      double total = 0;
      for (std::uint32_t r = 1; r <= params_.items; ++r) total += 1.0 / std::pow(r, params_.zipf);
      double running = 0;
      for (std::uint32_t r = 1; r <= params_.items; ++r) {
        running += 1.0 / std::pow(r, params_.zipf) / total;
        zipf_cdf_.push_back(running);
      }
      zipf_items_ = write_order_;  // hot ranks land on scattered items
    }
    filler_ = Rng(stream_seed(params_, "values")).bytes(64 * 1024 + params_.value_bytes);
  }

  ~LoadGen() { teardown(); }

  std::string run();

 private:
  // --- deployment lifecycle (main thread) ---
  void setup();
  void teardown();
  void connect_all();
  std::map<NodeId, net::TcpEndpoint> directory() const;
  std::string all_cpu_json();
  double settle();
  std::string snapshot_all(const std::string& label);
  double restart_server(std::uint32_t index);
  void final_readback();
  std::string unit_costs_json();
  std::string provenance_json();

  // --- load (dispatch thread) ---
  void run_closed(PhaseResult& result, std::string_view stream, std::uint64_t ops, bool writes_only);
  void run_open(PhaseResult& result);
  void submit(const Op& op);
  void start(const Op& op);
  void finish(const Op& op, bool ok, bool refused);
  void issue_next();
  void pump();
  Bytes make_value(const Op& op) const;

  /// Stops the generator's transport, so no callback can outlive the
  /// phase state it refers to, then fails the run.
  [[noreturn]] void abort_run(const std::string& why) {
    if (tcp_) tcp_->stop();
    throw std::runtime_error(why);
  }

  template <typename Fn>
  void on_dispatch(Fn fn) {
    std::promise<void> done;
    auto future = done.get_future();
    tcp_->schedule(0, [&] {
      fn();
      done.set_value();
    });
    if (future.wait_for(std::chrono::seconds(30)) != std::future_status::ready) {
      abort_run("dispatch thread unresponsive");
    }
  }

  Params params_;
  Keys keys_;
  core::StoreConfig config_;
  core::GroupPolicy policy_;
  std::vector<std::uint32_t> write_order_;
  std::uint64_t write_cursor_ = 0;
  std::vector<double> zipf_cdf_;
  std::vector<std::uint32_t> zipf_items_;
  Bytes filler_;

  std::vector<Host> hosts_;
  std::unique_ptr<net::TcpTransport> tcp_;
  std::unique_ptr<TimedTransport> transport_;
  std::unique_ptr<net::RpcNode> probe_;
  std::vector<std::unique_ptr<core::SecureStoreClient>> clients_;
  int dispatch_tid_ = 0;
  std::unique_ptr<testkit::ConsistencyOracle> oracle_;
  std::vector<OracleEvent> oracle_log_;
  std::uint64_t oracle_violations_seen_ = 0;

  // Dispatch-thread phase state.
  PhaseResult* phase_ = nullptr;
  std::unique_ptr<OpStream> stream_;
  std::uint64_t target_ = 0, issued_ = 0, completed_ = 0;
  bool open_loop_ = false;
  bool writes_only_ = false;
  std::vector<std::uint64_t> due_ns_;
  std::size_t next_arrival_ = 0;
  std::size_t inflight_ = 0;
  std::map<std::pair<std::uint32_t, std::uint32_t>, std::deque<Op>> busy_;  // (principal, item)
  std::uint64_t seq_ = 0;
  Busy issue_busy_;
  std::promise<void> phase_done_;
  bool timing_ = false;

  static constexpr std::size_t kClosedInFlight = 32;  // 16 principals × 2
  static constexpr std::size_t kOpenCap = 256;
};

std::map<NodeId, net::TcpEndpoint> LoadGen::directory() const {
  std::map<NodeId, net::TcpEndpoint> dir;
  for (std::uint32_t i = 0; i < kServers; ++i) dir[NodeId{i}] = {"127.0.0.1", hosts_[i].port};
  return dir;
}

void LoadGen::setup() {
  Params host_params = params_;
  host_params.dir = params_.dir + "/data";
  std::filesystem::create_directories(host_params.dir);
  hosts_.clear();
  for (std::uint32_t i = 0; i < kServers; ++i) hosts_.push_back(spawn_host(host_params, i));
  for (auto& host : hosts_) {
    const std::string line = read_line(host, 20000);
    if (line.rfind("port ", 0) != 0) throw std::runtime_error("bad port line: " + line);
    host.port = static_cast<std::uint16_t>(std::stoi(line.substr(5)));
  }
  std::string peers = "peers";
  for (const auto& host : hosts_) peers += " " + std::to_string(host.port);
  for (auto& host : hosts_) write_line(host, peers);
  for (auto& host : hosts_) parse_ready(host, read_line(host, 60000));

  tcp_ = std::make_unique<net::TcpTransport>(0, directory());
  transport_ = std::make_unique<TimedTransport>(*tcp_);
  probe_ = std::make_unique<net::RpcNode>(*tcp_, NodeId{kClientBase + 999});
  clients_.clear();
  for (std::uint32_t p = 0; p <= kPrincipals; ++p) {
    core::SecureStoreClient::Options options;
    options.policy = policy_;
    clients_.push_back(std::make_unique<core::SecureStoreClient>(
        *transport_, NodeId{kClientBase + p}, ClientId{p + 1}, keys_.clients[p], config_, options,
        Rng(stream_seed(params_, "client-" + std::to_string(p)))));
  }
  on_dispatch([&] { dispatch_tid_ = current_tid(); });
  oracle_ = std::make_unique<testkit::ConsistencyOracle>(params_.policy == "mw-cc-byz");
  oracle_log_.clear();
  write_cursor_ = 0;
  connect_all();
}

void LoadGen::connect_all() {
  auto pending = std::make_shared<std::atomic<std::uint32_t>>(kPrincipals + 1);
  auto failures = std::make_shared<std::atomic<std::uint32_t>>(0);
  auto done = std::make_shared<std::promise<void>>();
  auto future = done->get_future();
  tcp_->schedule(0, [&, pending, failures, done] {
    for (auto& client : clients_) {
      client->connect(kGroup, [pending, failures, done](VoidResult r) {
        if (!r.ok()) failures->fetch_add(1);
        if (pending->fetch_sub(1) == 1) done->set_value();
      });
    }
  });
  if (future.wait_for(std::chrono::seconds(30)) != std::future_status::ready || failures->load() != 0) {
    abort_run("client connect failed");
  }
}

void LoadGen::teardown() {
  if (tcp_) {
    tcp_->stop();
    if (params_.trace) {
      std::ofstream out(params_.dir + "/TRACE_loadgen.json");
      out << obs::to_chrome_trace(tcp_->events().snapshot());
    }
  }
  clients_.clear();
  probe_.reset();
  transport_.reset();
  tcp_.reset();
  for (auto& host : hosts_) {
    if (host.pid <= 0) continue;
    try {
      write_line(host, "quit");
    } catch (const std::exception&) {
    }
  }
  for (auto& host : hosts_) {
    if (host.pid <= 0) continue;
    // Give a clean exit a moment (trace files), then insist.
    for (int i = 0; i < 500; ++i) {
      int status = 0;
      if (waitpid(host.pid, &status, WNOHANG) == host.pid) {
        close(host.to_child);
        close(host.from_child);
        host.pid = -1;
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    reap(host, true);
  }
  hosts_.clear();
}

// --- dispatch-thread load machinery ---------------------------------------

Bytes LoadGen::make_value(const Op& op) const {
  Bytes value(params_.value_bytes);
  const std::size_t offset = (op.seq * 1031) % (filler_.size() - params_.value_bytes);
  std::memcpy(value.data(), filler_.data() + offset, params_.value_bytes);
  // Unique per op, so the oracle can tell every write apart.
  char header[48];
  const int n = std::snprintf(header, sizeof header, "op%llu/p%u/",
                              static_cast<unsigned long long>(op.seq), op.principal);
  std::memcpy(value.data(), header, std::min<std::size_t>(static_cast<std::size_t>(n), value.size()));
  return value;
}

void LoadGen::submit(const Op& op) {
  ++inflight_;
  auto [it, fresh] = busy_.try_emplace({op.principal, op.item});
  if (!fresh) {
    // One op per (principal, item) at a time: a principal never races
    // itself on an item, so the oracle's floors match what it was told.
    it->second.push_back(op);
    return;
  }
  start(op);
}

void LoadGen::start(const Op& op) {
  core::SecureStoreClient& client = *clients_[op.principal];
  const std::uint64_t cpu0 = timing_ ? thread_cpu_now_ns() : 0;
  if (op.write) {
    auto value = std::make_shared<const Bytes>(make_value(op));
    std::shared_ptr<const core::Context> deps;
    if (params_.policy == "mw-cc-byz") deps = std::make_shared<core::Context>(client.context());
    oracle_log_.push_back({OracleEvent::kAttempt, op.principal, op.item, value, {}, nullptr, {}});
    client.write(item_id(op.item), *value, [this, op, value, deps](VoidResult r) {
      if (r.ok()) {
        core::SecureStoreClient& c = *clients_[op.principal];
        const core::Timestamp ts = c.context().get(item_id(op.item));
        std::shared_ptr<const core::Context> ctx = deps;
        if (ctx) {
          auto with_self = std::make_shared<core::Context>(*deps);
          with_self->set(item_id(op.item), ts);
          ctx = with_self;
        }
        oracle_log_.push_back({OracleEvent::kAck, op.principal, op.item, value, ts, ctx, {}});
      }
      finish(op, r.ok(), !r.ok() && r.error() == Error::kOverloaded);
    });
  } else {
    client.read(item_id(op.item), [this, op](Result<core::ReadOutput> r) {
      if (r.ok()) {
        oracle_log_.push_back(
            {OracleEvent::kRead, op.principal, op.item, nullptr, {}, nullptr, std::move(r.value())});
      }
      finish(op, r.ok(), !r.ok() && r.error() == Error::kOverloaded);
    });
  }
  if (timing_) issue_busy_.add(1, thread_cpu_now_ns() - cpu0, 0);
}

void LoadGen::finish(const Op& op, bool ok, bool refused) {
  PhaseResult& result = *phase_;
  if (ok) {
    ++result.ok;
    if (op.write) ++result.writes_ok;
  } else if (refused) {
    ++result.refused;
  } else {
    ++result.failed;
  }
  if (open_loop_) {
    // Failed ops enter the sample at the op deadline.
    const double ms = ok ? static_cast<double>(wall_now_ns() - op.due_ns) / 1e6
                         : to_milliseconds(config_.op_timeout);
    (op.write ? result.write_ms : result.read_ms).push_back(ms);
  }
  --inflight_;
  ++completed_;

  auto it = busy_.find({op.principal, op.item});
  if (it->second.empty()) {
    busy_.erase(it);
  } else {
    const Op next = it->second.front();
    it->second.pop_front();
    start(next);
  }

  if (completed_ == target_) {
    phase_done_.set_value();
    return;
  }
  if (!open_loop_) issue_next();
}

void LoadGen::issue_next() {
  if (issued_ >= target_) return;
  ++issued_;
  Op op = stream_->next(writes_only_);
  op.seq = seq_++;
  op.due_ns = wall_now_ns();
  ++phase_->attempted;
  submit(op);
}

void LoadGen::pump() {
  const std::uint64_t now = wall_now_ns();
  while (next_arrival_ < due_ns_.size() && due_ns_[next_arrival_] <= now) {
    Op op = stream_->next();
    op.seq = seq_++;
    op.due_ns = due_ns_[next_arrival_++];
    ++issued_;
    ++phase_->attempted;
    phase_->late_ms.push_back(static_cast<double>(now - op.due_ns) / 1e6);
    if (inflight_ >= kOpenCap) {
      ++phase_->overflow;
      (op.write ? phase_->write_ms : phase_->read_ms).push_back(to_milliseconds(config_.op_timeout));
      if (++completed_ == target_) {
        phase_done_.set_value();
        return;
      }
      continue;
    }
    submit(op);
  }
  if (next_arrival_ < due_ns_.size()) {
    const std::uint64_t wait_ns = due_ns_[next_arrival_] - now;
    transport_->schedule(wait_ns / 1000, [this] { pump(); });
  }
}

void LoadGen::run_closed(PhaseResult& result, std::string_view stream, std::uint64_t ops,
                         bool writes_only) {
  phase_done_ = std::promise<void>();
  auto future = phase_done_.get_future();
  const auto start = Clock::now();
  tcp_->schedule(0, [&, stream = std::string(stream)] {
    phase_ = &result;
    stream_ = std::make_unique<OpStream>(params_, stream, write_order_, write_cursor_, zipf_cdf_,
                                         zipf_items_);
    target_ = ops;
    issued_ = completed_ = 0;
    open_loop_ = false;
    writes_only_ = writes_only;
    for (std::size_t i = 0; i < kClosedInFlight; ++i) issue_next();
  });
  if (future.wait_for(std::chrono::seconds(150)) != std::future_status::ready) {
    abort_run("closed-loop phase " + result.name + " did not finish");
  }
  result.wall_s = seconds_since(start);
}

void LoadGen::run_open(PhaseResult& result) {
  phase_done_ = std::promise<void>();
  auto future = phase_done_.get_future();
  Rng arrivals(stream_seed(params_, "arrivals"));
  std::vector<double> offsets_s;
  double t = 0;
  for (std::uint64_t i = 0; i < params_.open_ops; ++i) {
    t += arrivals.next_exponential(1.0 / params_.open_rate);
    offsets_s.push_back(t);
  }
  const auto start = Clock::now();
  tcp_->schedule(0, [&] {
    phase_ = &result;
    stream_ = std::make_unique<OpStream>(params_, "open", write_order_, write_cursor_, zipf_cdf_,
                                         zipf_items_);
    target_ = params_.open_ops;
    issued_ = completed_ = 0;
    open_loop_ = true;
    writes_only_ = false;
    const std::uint64_t base = wall_now_ns() + 5'000'000;
    due_ns_.clear();
    for (const double o : offsets_s) due_ns_.push_back(base + static_cast<std::uint64_t>(o * 1e9));
    next_arrival_ = 0;
    pump();
  });
  if (future.wait_for(std::chrono::duration<double>(t + 60)) != std::future_status::ready) {
    abort_run("open-loop phase did not finish");
  }
  result.wall_s = seconds_since(start);
  open_loop_ = false;
}

// --- measurement ----------------------------------------------------------

std::string LoadGen::all_cpu_json() {
  // Per process: CPU split by thread role. Processes 0..3 are the server
  // hosts, 4 the generator.
  std::ostringstream out;
  out << "[";
  for (std::size_t i = 0; i <= hosts_.size(); ++i) {
    const bool gen = i == hosts_.size();
    const int pid = gen ? getpid() : hosts_[i].pid;
    const int dispatch = gen ? dispatch_tid_ : hosts_[i].dispatch_tid;
    std::uint64_t total = 0, d = 0, main_ns = 0, engine = 0, io = 0;
    for (const auto& [tid, ns] : thread_cpu_ns(pid)) {
      total += ns;
      if (tid == dispatch) d += ns;
      else if (tid == pid) main_ns += ns;
      else if (!gen && std::find(hosts_[i].engine_tids.begin(), hosts_[i].engine_tids.end(), tid) !=
                           hosts_[i].engine_tids.end()) engine += ns;
      else io += ns;
    }
    out << (i ? "," : "") << "{\"total_ns\":" << total << ",\"dispatch_ns\":" << d
        << ",\"main_ns\":" << main_ns << ",\"engine_ns\":" << engine << ",\"io_ns\":" << io
        << ",\"io_write_bytes\":" << io_field(pid, "write_bytes")
        << ",\"rss_hwm_kb\":" << status_kb(pid, "VmHWM") << "}";
  }
  out << "]";
  return out.str();
}

/// One kIntrospect round trip from `node` (hosted on `transport`) to
/// `server`; nullopt when no answer arrives within `timeout_ms`.
/// Writes back the dirty pages of the work directory's filesystem, so a
/// phase's WAL syncs do not queue behind writeback of earlier data (an
/// earlier phase, set-up or run).
void flush_dirty(const std::string& dir) {
  const int fd = open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) return;
  syncfs(fd);
  close(fd);
}

double LoadGen::settle() {
  // Waits until the deployment has drained what the previous phase left
  // behind: all processes together use under a tenth of a core over a
  // 200 ms window, or their CPU rate stops falling (only the steady
  // background, such as gossip rounds, is left), or 5 s have passed.
  const auto start = Clock::now();
  flush_dirty(params_.dir);
  const auto total_ns = [&] {
    std::uint64_t total = 0;
    for (const auto& host : hosts_) {
      for (const auto& [tid, ns] : thread_cpu_ns(host.pid)) total += ns;
    }
    for (const auto& [tid, ns] : thread_cpu_ns(getpid())) total += ns;
    return total;
  };
  constexpr auto kWindow = std::chrono::milliseconds(200);
  double previous = -1;
  while (seconds_since(start) < 5) {
    const std::uint64_t before = total_ns();
    std::this_thread::sleep_for(kWindow);
    const double cores = static_cast<double>(total_ns() - before) / 1e9 /
                         std::chrono::duration<double>(kWindow).count();
    if (cores < 0.1 || (previous >= 0 && cores > 0.8 * previous)) break;
    previous = cores;
  }
  return seconds_since(start);
}

std::optional<net::IntrospectResponse> introspect(net::Transport& transport, net::RpcNode& node,
                                                  std::uint32_t server,
                                                  net::IntrospectFormat format, int timeout_ms) {
  using Answer = std::optional<net::IntrospectResponse>;
  auto promise = std::make_shared<std::promise<Answer>>();
  auto answered = std::make_shared<std::atomic<bool>>(false);
  auto future = promise->get_future();
  auto rpc_id = std::make_shared<std::uint64_t>(0);
  transport.schedule(0, [&node, server, format, promise, answered, rpc_id] {
    net::IntrospectRequest req;
    req.format = format;
    Writer w;
    req.encode(w);
    *rpc_id = node.send_request(
        NodeId{server}, net::MsgType::kIntrospect, w.take(),
        [promise, answered](NodeId, net::MsgType type, BytesView body) {
          if (answered->exchange(true)) return;
          Answer resp;
          if (type == net::MsgType::kAck) {
            try {
              Reader r(body);
              resp = net::IntrospectResponse::decode(r);
            } catch (const std::exception&) {
            }
          }
          promise->set_value(std::move(resp));
        });
  });
  if (future.wait_for(std::chrono::milliseconds(timeout_ms)) == std::future_status::ready) {
    return future.get();
  }
  transport.schedule(0, [&node, promise, answered, rpc_id] {
    node.cancel(*rpc_id);
    if (!answered->exchange(true)) promise->set_value(std::nullopt);
  });
  return std::nullopt;
}

std::string LoadGen::snapshot_all(const std::string& label) {
  std::ostringstream out;
  out << "{\"label\":\"" << label << "\",\"servers\":[";
  for (std::uint32_t i = 0; i < hosts_.size(); ++i) {
    const std::string snap = command(hosts_[i], "snap");
    if (snap.rfind("snap ", 0) != 0) throw std::runtime_error("bad snap reply: " + snap);
    std::optional<net::IntrospectResponse> json;
    for (int attempt = 0; attempt < 5 && !json; ++attempt) {
      json = introspect(*tcp_, *probe_, i, net::IntrospectFormat::kJson, 2000);
    }
    if (!json) throw std::runtime_error("server " + std::to_string(i) + " did not answer kIntrospect");
    out << (i ? "," : "") << "{\"host\":" << snap.substr(5) << ",\"registry\":" << one_line(json->text) << "}";
  }
  out << "],\"loadgen\":";
  on_dispatch([&] {
    const crypto::CryptoMeter& meter = crypto::CryptoMeter::instance();
    const sim::TransportStats& stats = tcp_->stats();
    out << "{\"signs\":" << meter.signs << ",\"verifies\":" << meter.verifies
        << ",\"deliveries\":{\"calls\":" << transport_->deliveries().calls
        << ",\"items\":" << transport_->deliveries().items
        << ",\"cpu_ns\":" << transport_->deliveries().cpu_ns << "}"
        << ",\"callbacks\":{\"calls\":" << transport_->callbacks().calls
        << ",\"cpu_ns\":" << transport_->callbacks().cpu_ns << "}"
        << ",\"issue\":{\"calls\":" << issue_busy_.calls << ",\"cpu_ns\":" << issue_busy_.cpu_ns
        << "}"
        << ",\"messages_sent\":" << stats.messages_sent << ",\"bytes_sent\":" << stats.bytes_sent
        << ",\"messages_dropped\":" << stats.messages_dropped;
  });
  out << ",\"registry\":" << one_line(obs::to_json(tcp_->registry().snapshot(), "loadgen")) << "}}";
  return out.str();
}

double LoadGen::restart_server(std::uint32_t index) {
  Host& victim = hosts_[index];
  const std::uint16_t port = victim.port;
  reap(victim, /*kill_first=*/true);
  Params host_params = params_;
  host_params.dir = params_.dir + "/data";
  // A fresh probe connection, so the measurement does not include the
  // generator's own reconnect backoff towards the dead server.
  net::TcpTransport probe_tcp(0, {{NodeId{index}, {"127.0.0.1", port}}});
  net::RpcNode probe(probe_tcp, NodeId{kClientBase + 998});
  struct StopOnExit {
    net::TcpTransport& transport;
    ~StopOnExit() { transport.stop(); }
  } stop_probe{probe_tcp};  // before `probe` dies, on every path
  const auto start = Clock::now();
  // Same port: peers and the generator keep their channels and reconnect.
  victim = spawn_host(host_params, index, port);
  const std::string line = read_line(victim, 20000);
  if (line != "port " + std::to_string(port)) throw std::runtime_error("bad port line: " + line);
  victim.port = port;
  std::string peers = "peers";
  for (const auto& host : hosts_) peers += " " + std::to_string(host.port);
  write_line(victim, peers);
  // Answering kIntrospect(kStatus) means recovery is over: the server's
  // node is registered before its WAL replay, so probes sent meanwhile
  // queue up and the first is answered right after recovery. Probes are
  // never cancelled; the first answer to any of them ends the wait.
  auto answered = std::make_shared<std::promise<void>>();
  auto done = answered->get_future();
  auto first = std::make_shared<std::atomic<bool>>(false);
  Writer w;
  net::IntrospectRequest{net::IntrospectFormat::kStatus}.encode(w);
  const Bytes status_request = w.take();
  while (done.wait_for(std::chrono::milliseconds(2)) != std::future_status::ready) {
    if (seconds_since(start) > 90) throw std::runtime_error("restarted server never answered");
    probe_tcp.schedule(0, [&probe, index, status_request, answered, first] {
      probe.send_request(NodeId{index}, net::MsgType::kIntrospect, status_request,
                         [answered, first](NodeId, net::MsgType type, BytesView) {
                           if (type == net::MsgType::kAck && !first->exchange(true)) {
                             answered->set_value();
                           }
                         });
    });
  }
  const double restart_s = seconds_since(start);
  parse_ready(victim, read_line(victim, 20000));
  if (params_.trace) command(victim, "trace 1");
  return restart_s;
}

void LoadGen::final_readback() {
  // A fresh principal (never used by the phases) reads back every acked
  // item; its empty context makes it trust nothing but the servers.
  struct ReadBack {
    std::vector<ItemId> items;
    std::vector<std::optional<core::ReadOutput>> results;
    std::size_t next = 0, finished = 0;  // dispatch thread only
    std::promise<void> done;
  };
  auto state = std::make_shared<ReadBack>();
  state->items = oracle_->acked_items();
  if (state->items.empty()) return;
  state->results.resize(state->items.size());
  auto future = state->done.get_future();
  core::SecureStoreClient* reader = clients_[kPrincipals].get();
  // Each completion issues the next read, keeping 32 in flight.
  auto issue = std::make_shared<std::function<void()>>();
  std::weak_ptr<std::function<void()>> again = issue;
  *issue = [state, reader, again] {
    if (state->next >= state->items.size()) return;
    const std::size_t i = state->next++;
    reader->read(state->items[i], [state, i, again](Result<core::ReadOutput> r) {
      if (r.ok()) state->results[i] = std::move(r.value());
      if (++state->finished == state->items.size()) {
        state->done.set_value();
      } else if (auto next = again.lock()) {
        (*next)();
      }
    });
  };
  tcp_->schedule(0, [issue] {
    for (int i = 0; i < 32; ++i) (*issue)();
  });
  if (future.wait_for(std::chrono::seconds(120)) != std::future_status::ready) {
    abort_run("read-back did not finish");
  }
  for (std::size_t i = 0; i < state->items.size(); ++i) {
    oracle_->note_final_read(state->items[i], state->results[i], 0);
  }
}

std::string LoadGen::unit_costs_json() {
  // Per-host unit costs, timed on this process's main thread while the
  // deployment is idle.
  Rng rng(stream_seed(params_, "unit-costs"));
  const crypto::KeyPair pair = crypto::KeyPair::generate(rng);
  const Bytes message = rng.bytes(96);
  const auto per_op_us = [](std::uint64_t reps, auto&& fn) {
    const std::uint64_t cpu0 = thread_cpu_now_ns();
    for (std::uint64_t i = 0; i < reps; ++i) fn(i);
    return static_cast<double>(thread_cpu_now_ns() - cpu0) / 1000.0 / static_cast<double>(reps);
  };
  Bytes signature;
  const double sign_us = per_op_us(200, [&](std::uint64_t) {
    signature = crypto::ed25519_sign(pair.seed, message);
  });
  bool all_ok = true;
  const double verify_us = per_op_us(200, [&](std::uint64_t) {
    all_ok &= crypto::ed25519_verify(pair.public_key, message, signature);
  });
  std::ostringstream out;
  out.precision(6);
  out << "{\"sign_us\":" << sign_us << ",\"verify_us\":" << verify_us << ",\"batch_us_per_sig\":{";
  const std::vector<std::size_t> sizes = {1, 2, 4, 8, 16, 32};
  std::vector<Bytes> sigs, msgs;
  for (std::size_t i = 0; i < 32; ++i) {
    msgs.push_back(rng.bytes(96));
    sigs.push_back(crypto::ed25519_sign(pair.seed, msgs.back()));
  }
  for (std::size_t s = 0; s < sizes.size(); ++s) {
    std::vector<crypto::BatchVerifyItem> batch;
    for (std::size_t i = 0; i < sizes[s]; ++i) batch.push_back({pair.public_key, msgs[i], sigs[i]});
    const std::uint64_t reps = std::max<std::uint64_t>(4, 256 / sizes[s]);
    const double us = per_op_us(reps, [&](std::uint64_t) {
      all_ok &= crypto::ed25519_batch_verify(batch).all_valid;
    });
    out << (s ? "," : "") << "\"" << sizes[s] << "\":" << us / static_cast<double>(sizes[s]);
  }
  out << "}";

  // Codec costs at the workload's value size.
  core::WriteRecord record;
  record.item = item_id(0);
  record.group = kGroup;
  record.model = policy_.model;
  record.writer = ClientId{1};
  record.ts.time = 7;
  if (policy_.sharing == core::SharingMode::kMultiWriter) {
    record.ts.writer = ClientId{1};
    record.value = rng.bytes(params_.value_bytes);
    record.ts.digest = crypto::meter_digest(record.value);
  } else {
    record.value = rng.bytes(params_.value_bytes);
  }
  record.writer_context = core::Context(kGroup);
  record.sign(keys_.clients[0].seed);
  core::WriteReq write_req;
  write_req.record = record;
  core::ReadResp read_resp;
  read_resp.record = record;
  const Bytes write_bytes = write_req.serialize();
  const Bytes read_bytes = read_resp.serialize();
  std::size_t sink = 0;
  out << ",\"write_req_encode_us\":"
      << per_op_us(2000, [&](std::uint64_t) { sink += write_req.serialize().size(); })
      << ",\"write_req_decode_us\":"
      << per_op_us(2000, [&](std::uint64_t) { sink += core::WriteReq::deserialize(write_bytes).record.value.size(); })
      << ",\"read_resp_encode_us\":"
      << per_op_us(2000, [&](std::uint64_t) { sink += read_resp.serialize().size(); })
      << ",\"read_resp_decode_us\":"
      << per_op_us(2000, [&](std::uint64_t) { sink += core::ReadResp::deserialize(read_bytes).record->value.size(); })
      << ",\"write_req_bytes\":" << write_bytes.size() << ",\"read_resp_bytes\":" << read_bytes.size()
      << ",\"self_check\":" << (all_ok && sink > 0 ? "true" : "false") << "}";
  return out.str();
}

std::string LoadGen::provenance_json() {
  std::string cpu_model = "unknown";
  {
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
      if (line.rfind("model name", 0) == 0) {
        cpu_model = line.substr(line.find(':') + 2);
        break;
      }
    }
  }
  utsname uts{};
  uname(&uts);
  const core::EngineConfig engine;
  std::ostringstream out;
  out << "{\"nproc\":" << std::thread::hardware_concurrency() << ",\"cpu_model\":\""
      << json_escape(cpu_model) << "\",\"kernel\":\"" << json_escape(uts.release)
      << "\",\"build_type\":\"" << PERFBENCH_BUILD_TYPE << "\",\"compiler\":\""
      << json_escape(__VERSION__) << "\",\"workload\":\"" << params_.workload
      << "\",\"seed\":" << params_.seed << ",\"policy\":\"" << params_.policy
      << "\",\"engine\":\"" << params_.engine << "\",\"fsync\":\"interval\",\"fsync_interval_ms\":"
      << kFsyncMs << ",\"gossip_period_ms\":" << params_.gossip_ms
      << ",\"gossip_fanout\":1,\"memtable_budget_bytes\":" << engine.memtable_budget_bytes
      << ",\"l0_compact_threshold\":" << engine.l0_compact_threshold
      << ",\"sst_target_bytes\":" << engine.sst_target_bytes << ",\"n\":" << kServers
      << ",\"b\":" << kFaultBound << ",\"items\":" << params_.items
      << ",\"value_bytes\":" << params_.value_bytes << ",\"principals\":" << kPrincipals
      << ",\"closed_in_flight\":" << kClosedInFlight << ",\"open_cap\":" << kOpenCap
      << ",\"closed_ops\":" << params_.closed_ops << ",\"open_ops\":" << params_.open_ops
      << ",\"open_rate\":" << params_.open_rate << ",\"op_timeout_ms\":"
      << to_milliseconds(config_.op_timeout) << "}";
  return out.str();
}

std::string phase_json(const PhaseResult& r) {
  std::ostringstream out;
  out.precision(9);
  out << "{\"name\":\"" << r.name << "\",\"attempted\":" << r.attempted << ",\"ok\":" << r.ok
      << ",\"failed\":" << r.failed << ",\"refused\":" << r.refused << ",\"overflow\":" << r.overflow
      << ",\"writes_ok\":" << r.writes_ok << ",\"wall_s\":" << r.wall_s
      << ",\"settle_s\":" << r.settle_s << ",\"steal_frac\":" << r.steal_frac
      << ",\"cpu_before\":" << r.cpu_before << ",\"cpu_after\":" << r.cpu_after
      << ",\"cpu_wide_before\":" << r.cpu_wide_before << ",\"cpu_wide_after\":" << r.cpu_wide_after
      << ",\"snap_before\":" << r.snap_before << ",\"snap_after\":" << r.snap_after
      << ",\"write_ms\":" << doubles_json(r.write_ms) << ",\"read_ms\":" << doubles_json(r.read_ms)
      << ",\"late_ms\":" << doubles_json(r.late_ms) << "}";
  return out.str();
}

std::string LoadGen::run() {
  progress("workload " + params_.workload + ", seed " + std::to_string(params_.seed));
  // Set-up, timed several times: all but the last deployment are torn down.
  std::vector<double> setup_s;
  // Snapshots taken just before processes end (set-up teardowns, SIGKILLs):
  // with the final one they hold every process's last counters, which the
  // correctness gate checks.
  std::vector<std::string> before_exit;
  for (std::uint32_t k = 0; k < params_.setups; ++k) {
    if (k > 0) {
      before_exit.push_back(snapshot_all("setup" + std::to_string(k) + ".end"));
      teardown();
    }
    std::filesystem::remove_all(params_.dir + "/data");
    flush_dirty(params_.dir);
    const auto start = Clock::now();
    setup();
    if (params_.preload > 0) {
      PhaseResult preload("preload");
      run_closed(preload, "preload", params_.preload, /*writes_only=*/true);
      if (preload.ok != preload.attempted) throw std::runtime_error("preload writes failed");
    }
    PhaseResult warmup("warmup");
    run_closed(warmup, "warmup", 256, false);
    setup_s.push_back(seconds_since(start));
    progress("set-up " + std::to_string(k + 1) + " done");
  }

  std::vector<PhaseResult> phases;
  const auto measure = [&](PhaseResult& phase, auto&& body) {
    phase.settle_s = settle();
    progress("phase " + phase.name);
    // The wide CPU window encloses the snapshots, so it covers every busy
    // interval the snapshots bracket; the tight one times the phase alone.
    phase.cpu_wide_before = all_cpu_json();
    phase.snap_before = snapshot_all(phase.name + ".before");
    phase.cpu_before = all_cpu_json();
    const auto [steal0, total0] = steal_ticks();
    body();
    const auto [steal1, total1] = steal_ticks();
    phase.steal_frac = total1 > total0 ? static_cast<double>(steal1 - steal0) /
                                             static_cast<double>(total1 - total0)
                                       : 0.0;
    phase.cpu_after = all_cpu_json();
    phase.snap_after = snapshot_all(phase.name + ".after");
    phase.cpu_wide_after = all_cpu_json();
  };
  // Traced runs bracket the traced closed loop with two untraced quarters:
  // their mean is the reference for the tracing overhead, and any linear
  // drift of the deployment over the run cancels out.
  const auto set_tracing = [&](bool on) {
    for (auto& host : hosts_) command(host, on ? "trace 1" : "trace 0");
    on_dispatch([&] {
      transport_->set_timing(on);
      timing_ = on;
    });
    tcp_->events().set_enabled(on);
  };
  const auto reference = [&](const std::string& name) {
    PhaseResult half(name);
    measure(half, [&] { run_closed(half, name, params_.closed_ops / 4, false); });
    phases.push_back(std::move(half));
  };
  if (params_.trace) {
    reference("closed_untraced_a");
    set_tracing(true);
  }
  PhaseResult closed("closed");
  measure(closed, [&] { run_closed(closed, "closed", params_.closed_ops, false); });
  phases.push_back(std::move(closed));
  if (params_.trace) {
    set_tracing(false);
    reference("closed_untraced_b");
    set_tracing(true);
  }
  PhaseResult open("open");
  measure(open, [&] { run_open(open); });
  phases.push_back(std::move(open));

  // Correctness: replay the recorded observations through the oracle.
  for (const OracleEvent& e : oracle_log_) {
    const ClientId who{e.principal + 1};
    switch (e.kind) {
      case OracleEvent::kAttempt: oracle_->note_write_attempt(who, item_id(e.item), *e.value); break;
      case OracleEvent::kAck:
        oracle_->note_write_ok(who, item_id(e.item), *e.value, e.ts,
                               e.deps ? *e.deps : core::Context(kGroup), 0);
        break;
      case OracleEvent::kRead: oracle_->note_read_ok(who, item_id(e.item), e.read, 0); break;
    }
  }
  oracle_log_.clear();

  std::uint64_t rss_kb = 0;
  for (const auto& host : hosts_) rss_kb = std::max(rss_kb, status_kb(host.pid, "VmHWM"));
  std::uint64_t data_bytes = dir_bytes(params_.dir + "/data");

  // Crash-restart three of the four servers, one at a time, in a seeded
  // order; restart_s is their median.
  std::vector<double> restart_s;
  for (std::uint32_t k = 0; k < kServers - 1; ++k) {
    before_exit.push_back(snapshot_all("restart" + std::to_string(k + 1) + ".before"));
    restart_s.push_back(restart_server(static_cast<std::uint32_t>((params_.seed + k) % kServers)));
    progress("restart " + std::to_string(k + 1) + " done");
  }
  // Let gossip bring the restarted replica (and every other) up to date
  // before a fresh client reads everything back.
  std::this_thread::sleep_for(std::chrono::milliseconds(std::max(3000u, 6 * params_.gossip_ms)));
  progress("read-back of " + std::to_string(oracle_->acked_items().size()) + " items");
  final_readback();
  progress("read-back done");
  const std::string final_snap = snapshot_all("final");
  const std::string units = unit_costs_json();

  std::ostringstream out;
  out.precision(9);
  out << "{\"provenance\":" << provenance_json() << ",\"setup_s\":" << doubles_json(setup_s)
      << ",\"restart_s\":" << doubles_json(restart_s)
      << ",\"server_rss_hwm_kb\":" << rss_kb << ",\"data_bytes_end\":" << data_bytes
      << ",\"acked_items\":" << oracle_->acked_items().size()
      << ",\"oracle\":{\"checks\":" << oracle_->checks()
      << ",\"reads_checked\":" << oracle_->reads_checked()
      << ",\"violations\":" << oracle_->violations().size() << ",\"report\":\""
      << json_escape(oracle_->report().substr(0, 4000)) << "\"}"
      << ",\"unit_costs\":" << units << ",\"final\":" << final_snap << ",\"before_exit\":[";
  for (std::size_t i = 0; i < before_exit.size(); ++i) out << (i ? "," : "") << before_exit[i];
  out << "],\"phases\":[";
  for (std::size_t i = 0; i < phases.size(); ++i) out << (i ? "," : "") << phase_json(phases[i]);
  out << "]}";
  return out.str();
}

}  // namespace

int loadgen_main(const Params& params) {
  signal(SIGPIPE, SIG_IGN);
  std::filesystem::create_directories(params.dir);
  std::string report;
  {
    LoadGen gen(params);
    report = gen.run();
  }
  std::fwrite(report.data(), 1, report.size(), stdout);
  std::fputc('\n', stdout);
  return 0;
}

}  // namespace perfbench
