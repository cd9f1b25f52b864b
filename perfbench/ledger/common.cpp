#include "common.h"

#include <dirent.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace perfbench {

namespace {

std::uint64_t fnv1a(std::string_view text) {
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace

Params Params::parse(int argc, char** argv, int first) {
  Params p;
  for (int i = first; i < argc; i += 2) {
    const std::string key = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + key);
    const std::string value = argv[i + 1];
    if (key == "--workload") p.workload = value;
    else if (key == "--seed") p.seed = std::stoull(value);
    else if (key == "--policy") p.policy = value;
    else if (key == "--engine") p.engine = value;
    else if (key == "--items") p.items = static_cast<std::uint32_t>(std::stoul(value));
    else if (key == "--owners") p.owners = static_cast<std::uint32_t>(std::stoul(value));
    else if (key == "--value-bytes") p.value_bytes = static_cast<std::uint32_t>(std::stoul(value));
    else if (key == "--write-frac") p.write_frac = std::stod(value);
    else if (key == "--zipf") p.zipf = std::stod(value);
    else if (key == "--preload") p.preload = static_cast<std::uint32_t>(std::stoul(value));
    else if (key == "--closed-ops") p.closed_ops = std::stoull(value);
    else if (key == "--open-ops") p.open_ops = std::stoull(value);
    else if (key == "--open-rate") p.open_rate = std::stod(value);
    else if (key == "--setups") p.setups = static_cast<std::uint32_t>(std::stoul(value));
    else if (key == "--gossip-ms") p.gossip_ms = static_cast<std::uint32_t>(std::stoul(value));
    else if (key == "--trace") p.trace = value != "0";
    else if (key == "--dir") p.dir = value;
    else if (key == "--id") p.id = static_cast<std::uint32_t>(std::stoul(value));
    else if (key == "--port") p.port = static_cast<std::uint16_t>(std::stoul(value));
    else throw std::invalid_argument("unknown option " + key);
  }
  if (p.workload.empty() || p.dir.empty()) {
    throw std::invalid_argument("--workload and --dir are required");
  }
  if (p.policy != "sw-mrc" && p.policy != "mw-cc-byz") {
    throw std::invalid_argument("--policy must be sw-mrc or mw-cc-byz");
  }
  if (p.engine != "memory" && p.engine != "lsm") {
    throw std::invalid_argument("--engine must be memory or lsm");
  }
  if (p.owners == 0 || p.owners > kPrincipals || p.items == 0 || p.setups == 0) {
    throw std::invalid_argument("bad owners/items/setups");
  }
  return p;
}

std::vector<std::string> Params::server_args(std::uint32_t server, std::uint16_t listen_port) const {
  return {"--workload", workload,
          "--seed", std::to_string(seed),
          "--policy", policy,
          "--engine", engine,
          "--owners", std::to_string(owners),
          "--items", std::to_string(items),
          "--gossip-ms", std::to_string(gossip_ms),
          "--trace", trace ? "1" : "0",
          "--dir", dir,
          "--id", std::to_string(server),
          "--port", std::to_string(listen_port)};
}

core::GroupPolicy group_policy(const Params& params) {
  if (params.policy == "mw-cc-byz") {
    return core::GroupPolicy{kGroup, core::ConsistencyModel::kCC,
                             core::SharingMode::kMultiWriter, core::ClientTrust::kByzantine};
  }
  return core::GroupPolicy{kGroup, core::ConsistencyModel::kMRC,
                           core::SharingMode::kSingleWriter, core::ClientTrust::kHonest};
}

std::uint64_t stream_seed(const Params& params, std::string_view stream) {
  Rng rng(params.seed ^ fnv1a(params.workload) ^ (fnv1a(stream) * 0x9E3779B97F4A7C15ull));
  return rng.next_u64();
}

Keys derive_keys(const Params& params) {
  Rng rng(stream_seed(params, "keys"));
  Keys keys;
  for (std::uint32_t i = 0; i < kServers; ++i) keys.servers.push_back(crypto::KeyPair::generate(rng));
  for (std::uint32_t p = 0; p <= kPrincipals; ++p) {
    keys.clients.push_back(crypto::KeyPair::generate(rng));
  }
  return keys;
}

core::StoreConfig store_config(const Params& params, const Keys& keys) {
  core::StoreConfig config;
  config.n = kServers;
  config.b = kFaultBound;
  for (std::uint32_t i = 0; i < kServers; ++i) {
    config.servers.push_back(NodeId{i});
    config.server_keys[NodeId{i}] = keys.servers[i].public_key;
  }
  for (std::uint32_t p = 0; p < keys.clients.size(); ++p) {
    config.client_keys[p + 1] = keys.clients[p].public_key;
  }
  if (params.engine == "lsm") config.engine.kind = core::StorageEngineKind::kLsm;
  return config;
}

std::map<int, std::uint64_t> thread_cpu_ns(int pid) {
  std::map<int, std::uint64_t> out;
  const std::string base = "/proc/" + std::to_string(pid) + "/task";
  DIR* dir = opendir(base.c_str());
  if (dir == nullptr) return out;
  while (dirent* entry = readdir(dir)) {
    if (entry->d_name[0] < '0' || entry->d_name[0] > '9') continue;
    std::ifstream in(base + "/" + entry->d_name + "/schedstat");
    std::uint64_t ns = 0;
    if (in >> ns) out[std::atoi(entry->d_name)] = ns;
  }
  closedir(dir);
  return out;
}

std::vector<int> own_tids() {
  std::vector<int> tids;
  for (const auto& [tid, ns] : thread_cpu_ns(getpid())) tids.push_back(tid);
  return tids;
}

int current_tid() { return static_cast<int>(syscall(SYS_gettid)); }

std::uint64_t status_kb(int pid, const std::string& key) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key + ":", 0) == 0) {
      std::istringstream fields(line.substr(key.size() + 1));
      std::uint64_t kb = 0;
      fields >> kb;
      return kb;
    }
  }
  return 0;
}

std::uint64_t io_field(int pid, const std::string& key) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/io");
  std::string name;
  std::uint64_t value = 0;
  while (in >> name >> value) {
    if (name == key + ":") return value;
  }
  return 0;
}

std::uint64_t dir_bytes(const std::string& path) {
  std::error_code ec;
  std::uint64_t total = 0;
  for (auto it = std::filesystem::recursive_directory_iterator(path, ec);
       !ec && it != std::filesystem::recursive_directory_iterator(); it.increment(ec)) {
    std::error_code size_ec;
    if (it->is_regular_file(size_ec)) {
      const auto size = it->file_size(size_ec);
      if (!size_ec) total += size;
    }
  }
  return total;
}

std::string json_escape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof buffer, "\\u%04x", c);
          out += buffer;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace perfbench
