// Server host: one SecureStoreServer on its own loopback TcpTransport, in
// its own process, driven by line commands on stdin (answers on stdout):
//
//   (host prints)  port <p>
//   peers <p0> <p1> <p2> <p3>   → ready {dispatch_tid, engine_tids}
//   trace <0|1>                 → ok      (decorator timing + event log)
//   snap                        → snap {…} (read on the dispatch thread)
//   quit / EOF                  → exits 0 (trace mode: writes its events)
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <future>
#include <iostream>
#include <memory>
#include <sstream>

#include "common.h"
#include "core/server.h"
#include "net/tcp_transport.h"
#include "obs/export.h"
#include "timed_transport.h"

namespace perfbench {

namespace {

void say(const std::string& line) {
  std::fwrite(line.data(), 1, line.size(), stdout);
  std::fputc('\n', stdout);
  std::fflush(stdout);
}

/// Runs `fn` on the transport's dispatch thread and waits for it.
template <typename Fn>
void on_dispatch(net::Transport& transport, Fn fn) {
  std::promise<void> done;
  auto future = done.get_future();
  transport.schedule(0, [&] {
    fn();
    done.set_value();
  });
  future.wait();
}

std::string busy_json(const Busy& busy) {
  std::ostringstream out;
  out << "{\"calls\":" << busy.calls << ",\"items\":" << busy.items
      << ",\"cpu_ns\":" << busy.cpu_ns << ",\"wall_ns\":" << busy.wall_ns << "}";
  return out.str();
}

}  // namespace

int server_main(const Params& params) {
  const Keys keys = derive_keys(params);
  const core::StoreConfig config = store_config(params, keys);
  const std::uint32_t id = params.id;

  net::TcpTransport tcp(params.port, {});
  TimedTransport transport(tcp);
  say("port " + std::to_string(tcp.port()));

  std::string line;
  if (!std::getline(std::cin, line) || line.rfind("peers ", 0) != 0) return 2;
  {
    std::istringstream fields(line.substr(6));
    for (std::uint32_t i = 0; i < kServers; ++i) {
      unsigned port = 0;
      fields >> port;
      if (i != id) tcp.set_endpoint(NodeId{i}, net::TcpEndpoint{"127.0.0.1",
                                                                static_cast<std::uint16_t>(port)});
    }
  }

  core::SecureStoreServer::Options options;
  options.gossip.period = milliseconds(params.gossip_ms);
  options.gossip.fanout = 1;
  options.group_policies = {group_policy(params)};
  core::SecureStoreServer::DurabilityOptions durability;
  const std::string base = params.dir + "/server-" + std::to_string(id);
  durability.wal_dir = base + "/wal";
  durability.data_dir = base + "/lsm";
  durability.fsync = storage::FsyncPolicy::kInterval;
  durability.flush_interval = milliseconds(kFsyncMs);
  options.durability = durability;

  // The server is built (and replays its WAL) on the dispatch thread: it
  // registers its node before recovery, and peers already know this port,
  // so building it anywhere else would race their deliveries.
  // Threads born during the build belong to the storage engine (the LSM
  // compactor). Peers first connect at their first gossip tick, well after
  // a fresh build, so no connection thread is mistaken for it.
  std::unique_ptr<core::SecureStoreServer> server;
  std::vector<int> engine_tids;
  int dispatch_tid = 0;
  on_dispatch(transport, [&] {
    dispatch_tid = current_tid();
    const std::vector<int> before = own_tids();
    server = std::make_unique<core::SecureStoreServer>(
        transport, NodeId{id}, config, keys.servers[id], options,
        Rng(stream_seed(params, "server-" + std::to_string(id))));
    server->set_group_policy(group_policy(params));
    for (const int tid : own_tids()) {
      if (std::find(before.begin(), before.end(), tid) == before.end()) engine_tids.push_back(tid);
    }
  });
  {
    std::ostringstream out;
    out << "ready {\"dispatch_tid\":" << dispatch_tid << ",\"engine_tids\":[";
    for (std::size_t i = 0; i < engine_tids.size(); ++i) out << (i ? "," : "") << engine_tids[i];
    out << "]}";
    say(out.str());
  }

  while (std::getline(std::cin, line)) {
    if (line == "quit") break;
    if (line.rfind("trace ", 0) == 0) {
      const bool on = line.substr(6) != "0";
      on_dispatch(transport, [&] {
        transport.set_timing(on);
        transport.reset_timings();
      });
      tcp.events().set_enabled(on);
      say("ok");
    } else if (line == "snap") {
      std::ostringstream out;
      on_dispatch(transport, [&] {
        const crypto::CryptoMeter& meter = crypto::CryptoMeter::instance();
        const Tail tail = tail_of(transport.invocation_wall_ns());
        const storage::WalStats* wal = server->wal_stats();
        out << "snap {\"signs\":" << meter.signs << ",\"verifies\":" << meter.verifies
            << ",\"digests\":" << meter.digests
            << ",\"deliveries\":" << busy_json(transport.deliveries())
            << ",\"callbacks\":" << busy_json(transport.callbacks())
            << ",\"stall_p99_ns\":" << tail.p99_ns << ",\"stall_max_ns\":" << tail.max_ns
            << ",\"invocations\":" << transport.invocation_wall_ns().size()
            << ",\"wal_appends\":" << (wal ? wal->appends : 0)
            << ",\"wal_bytes\":" << (wal ? wal->bytes_appended : 0)
            << ",\"wal_fsyncs\":" << (wal ? wal->fsyncs : 0) << "}";
        transport.clear_walls();
      });
      say(out.str());
    } else {
      say("error unknown command");
    }
  }

  tcp.stop();
  if (tcp.events().enabled() || params.trace) {
    std::ofstream out(params.dir + "/TRACE_server" + std::to_string(id) + ".json");
    out << obs::to_chrome_trace(tcp.events().snapshot());
  }
  server.reset();
  return 0;
}

}  // namespace perfbench
