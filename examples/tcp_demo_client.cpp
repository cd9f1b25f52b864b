// Multi-process demo, client side: joins the deployment written by
// tcp_demo_server over real TCP, runs a session, writes and reads.
//
//   ./tcp_demo_client /tmp/securestore.deployment [message...]
#include <cstdio>
#include <fstream>
#include <future>
#include <sstream>

#include "core/client.h"
#include "net/tcp_transport.h"

using namespace securestore;

namespace {

constexpr GroupId kGroup{1};
constexpr ItemId kNote{101};

core::GroupPolicy policy() {
  return core::GroupPolicy{kGroup, core::ConsistencyModel::kMRC,
                           core::SharingMode::kSingleWriter, core::ClientTrust::kHonest};
}

}  // namespace

int main(int argc, char** argv) {
  const std::string deployment_path =
      argc > 1 ? argv[1] : "/tmp/securestore.deployment";
  std::string message = "hello from another process";
  if (argc > 2) {
    std::ostringstream joined;
    for (int i = 2; i < argc; ++i) joined << (i > 2 ? " " : "") << argv[i];
    message = joined.str();
  }

  // Parse the deployment file.
  std::ifstream in(deployment_path);
  if (!in) {
    std::printf("cannot read %s — is tcp_demo_server running?\n", deployment_path.c_str());
    return 1;
  }
  std::uint16_t server_port = 0;
  std::uint32_t n = 0, b = 0;
  in >> server_port >> n >> b;
  core::StoreConfig config;
  config.n = n;
  config.b = b;
  std::map<NodeId, net::TcpEndpoint> directory;
  for (std::uint32_t i = 0; i < n; ++i) {
    std::string key_hex;
    in >> key_hex;
    config.servers.push_back(NodeId{i});
    config.server_keys[NodeId{i}] = from_hex(key_hex);
    directory[NodeId{i}] = net::TcpEndpoint{"127.0.0.1", server_port};
  }
  std::string public_hex, seed_hex;
  in >> public_hex >> seed_hex;
  const crypto::KeyPair client_pair = crypto::KeyPair::from_seed(from_hex(seed_hex));
  config.client_keys[1] = client_pair.public_key;

  net::TcpTransport transport(0, std::move(directory));

  core::SecureStoreClient::Options options;
  options.policy = policy();
  options.round_timeout = seconds(2);
  core::SecureStoreClient client(transport, NodeId{1000}, ClientId{1}, client_pair, config,
                                 options, Rng(system_entropy_seed()));

  auto wait_void = [&](auto op) {
    auto promise = std::make_shared<std::promise<VoidResult>>();
    auto future = promise->get_future();
    transport.schedule(0, [op, promise] {
      op([promise](VoidResult r) { promise->set_value(std::move(r)); });
    });
    return future.get();
  };

  if (!wait_void([&](auto cb) { client.connect(kGroup, cb); }).ok()) {
    std::printf("connect failed — server process reachable?\n");
    transport.stop();
    return 1;
  }
  std::printf("connected over TCP (context: %zu entries)\n", client.context().size());

  if (auto previous_ts = client.context().get(kNote); !previous_ts.is_zero()) {
    auto promise = std::make_shared<std::promise<Result<core::ReadOutput>>>();
    auto future = promise->get_future();
    transport.schedule(0, [&client, promise] {
      client.read(kNote, [promise](Result<core::ReadOutput> r) {
        promise->set_value(std::move(r));
      });
    });
    const auto previous = future.get();
    if (previous.ok()) {
      std::printf("previous note: \"%s\"\n", to_string(previous->value).c_str());
    }
  }

  if (!wait_void([&](auto cb) { client.write(kNote, to_bytes(message), cb); }).ok()) {
    std::printf("write failed\n");
    transport.stop();
    return 1;
  }
  std::printf("wrote: \"%s\"\n", message.c_str());

  if (!wait_void([&](auto cb) { client.disconnect(cb); }).ok()) {
    std::printf("disconnect failed\n");
    transport.stop();
    return 1;
  }
  std::printf("session stored; run me again to see read-your-writes across processes\n");

  transport.stop();
  const auto& stats = transport.stats();
  std::printf("transport: %llu sent (%llu bytes out, %llu in), %llu dropped, "
              "%llu connect failures, queue high-water %llu\n",
              static_cast<unsigned long long>(stats.messages_sent),
              static_cast<unsigned long long>(stats.bytes_sent),
              static_cast<unsigned long long>(stats.bytes_received),
              static_cast<unsigned long long>(stats.messages_dropped),
              static_cast<unsigned long long>(stats.connect_failures),
              static_cast<unsigned long long>(stats.send_queue_highwater));
  return 0;
}
