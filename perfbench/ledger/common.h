// Shared by the ledger's server host and load generator: the workload
// parameters both sides derive the deployment from, the deterministic key
// and config derivation, and small /proc readers.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/config.h"
#include "crypto/keys.h"
#include "util/rng.h"

namespace perfbench {

using namespace securestore;

/// Everything that shapes a deployment and its load. The generator parses
/// it from its own command line and forwards the deployment half to every
/// server host it launches, so both sides derive identical keys and config.
struct Params {
  std::string workload;
  std::uint64_t seed = 1;
  std::string policy = "sw-mrc";  // sw-mrc | mw-cc-byz
  std::string engine = "memory";  // memory | lsm
  std::uint32_t items = 256;
  std::uint32_t owners = 16;  // single-writer: principals that own items
  std::uint32_t value_bytes = 256;
  double write_frac = 0.5;
  double zipf = 0.0;           // 0 = uniform reads
  std::uint32_t preload = 0;   // items written during set-up
  std::uint64_t closed_ops = 1000;
  std::uint64_t open_ops = 1000;
  double open_rate = 100;      // open-loop arrivals per second
  std::uint32_t setups = 1;    // set-ups timed (median reported)
  std::uint32_t gossip_ms = 500;  // the store's default period
  bool trace = false;
  std::string dir;             // work directory for this run
  std::uint32_t id = 0;        // server hosts only
  std::uint16_t port = 0;      // server hosts only; 0 = ephemeral

  /// Parses `--key value` pairs; unknown keys throw.
  static Params parse(int argc, char** argv, int first);
  /// The arguments a server host needs to rebuild the deployment.
  std::vector<std::string> server_args(std::uint32_t id, std::uint16_t port) const;
};

constexpr std::uint32_t kServers = 4;
constexpr std::uint32_t kFaultBound = 1;
/// Client principals of every workload (16 principals × 2 in flight).
constexpr std::uint32_t kPrincipals = 16;
/// WAL `interval` fsync period of every server.
constexpr std::uint32_t kFsyncMs = 5;
constexpr GroupId kGroup{1};
/// Client principals sit on node ids kClientBase + p; principal p signs as
/// ClientId{p + 1}. One extra principal (index kPrincipals) is reserved
/// for the post-run read-back, so it starts with an empty context.
constexpr std::uint32_t kClientBase = 1000;

core::GroupPolicy group_policy(const Params& params);

/// Key pairs of all servers and principals, derived from the seed and the
/// workload name only.
struct Keys {
  std::vector<crypto::KeyPair> servers;
  std::vector<crypto::KeyPair> clients;  // principals + 1 (read-back)
};
Keys derive_keys(const Params& params);

/// The deployment config every process agrees on.
core::StoreConfig store_config(const Params& params, const Keys& keys);

/// A seed for one named stream of the run (op mix, arrivals, values...).
std::uint64_t stream_seed(const Params& params, std::string_view stream);

// --- /proc ---------------------------------------------------------------

/// On-CPU nanoseconds of every live thread of `pid`, keyed by tid.
std::map<int, std::uint64_t> thread_cpu_ns(int pid);
/// Tids of the calling process.
std::vector<int> own_tids();
int current_tid();
/// A `Key:  value kB` field of /proc/<pid>/status, in kB (0 if absent).
std::uint64_t status_kb(int pid, const std::string& key);
/// A field of /proc/<pid>/io (0 if absent or unreadable).
std::uint64_t io_field(int pid, const std::string& key);
/// Total size of the regular files under `path`.
std::uint64_t dir_bytes(const std::string& path);

/// Minimal JSON string escaping for the report writer.
std::string json_escape(std::string_view text);

}  // namespace perfbench
