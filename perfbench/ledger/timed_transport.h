// A Transport decorator that times, from outside the protocol code, every
// call the transport makes into the layer above it: each delivery (batch)
// handed to a registered node and each scheduled callback.
//
// Both kinds of invocation run on the wrapped transport's single dispatch
// thread, so the accumulators are plain fields: they are written by the
// dispatch thread and must only be read from it too (`schedule` a reader).
// Timing is off until `set_timing(true)`; off, the wrapper costs one
// relaxed load per invocation.
#pragma once

#include <time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <vector>

#include "net/transport.h"

namespace perfbench {

inline std::uint64_t thread_cpu_now_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

inline std::uint64_t wall_now_ns() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

/// CPU and wall time spent in one kind of invocation since the last reset.
struct Busy {
  std::uint64_t calls = 0;
  std::uint64_t items = 0;  // messages delivered (deliveries only)
  std::uint64_t cpu_ns = 0;
  std::uint64_t wall_ns = 0;

  void add(std::uint64_t n_items, std::uint64_t cpu, std::uint64_t wall) {
    ++calls;
    items += n_items;
    cpu_ns += cpu;
    wall_ns += wall;
  }
};

class TimedTransport final : public securestore::net::Transport {
 public:
  using NodeId = securestore::NodeId;

  explicit TimedTransport(securestore::net::Transport& inner) : inner_(inner) {}

  void set_timing(bool on) { timing_.store(on, std::memory_order_relaxed); }
  bool timing() const { return timing_.load(std::memory_order_relaxed); }

  // Dispatch-thread-only accessors.
  const Busy& deliveries() const { return deliveries_; }
  const Busy& callbacks() const { return callbacks_; }
  /// Wall nanoseconds of every timed invocation since the last reset: a
  /// long one is a stall for everything queued behind it.
  const std::vector<std::uint64_t>& invocation_wall_ns() const { return walls_; }
  void reset_timings() {
    deliveries_ = {};
    callbacks_ = {};
    walls_.clear();
  }
  /// Starts a new stall window; the busy totals keep accumulating.
  void clear_walls() { walls_.clear(); }

  void register_node(NodeId node, DeliverFn deliver) override {
    inner_.register_node(node, [this, deliver = std::move(deliver)](NodeId from,
                                                                    securestore::BytesView p) {
      timed(deliveries_, 1, [&] { deliver(from, p); });
    });
  }
  void register_node_batched(NodeId node, BatchDeliverFn deliver) override {
    inner_.register_node_batched(
        node, [this, deliver = std::move(deliver)](std::vector<securestore::net::Delivery>& batch) {
          timed(deliveries_, batch.size(), [&] { deliver(batch); });
        });
  }
  void unregister_node(NodeId node) override { inner_.unregister_node(node); }
  void send(NodeId from, NodeId to, securestore::Bytes payload) override {
    inner_.send(from, to, std::move(payload));
  }
  securestore::SimTime now() const override { return inner_.now(); }
  void schedule(securestore::SimDuration delay, std::function<void()> callback) override {
    inner_.schedule(delay, [this, callback = std::move(callback)] {
      timed(callbacks_, 0, callback);
    });
  }
  std::size_t backlog(NodeId node) const override { return inner_.backlog(node); }
  void refund_service(NodeId node) override { inner_.refund_service(node); }
  const securestore::sim::TransportStats& stats() const override { return inner_.stats(); }
  void reset_stats() override { inner_.reset_stats(); }
  securestore::obs::Registry& registry() override { return inner_.registry(); }
  securestore::obs::EventLog& events() override { return inner_.events(); }

 private:
  template <typename Fn>
  void timed(Busy& busy, std::size_t items, const Fn& fn) {
    if (!timing()) {
      fn();
      return;
    }
    const std::uint64_t cpu0 = thread_cpu_now_ns();
    const std::uint64_t wall0 = wall_now_ns();
    fn();
    const std::uint64_t wall = wall_now_ns() - wall0;
    busy.add(items, thread_cpu_now_ns() - cpu0, wall);
    walls_.push_back(wall);
  }

  securestore::net::Transport& inner_;
  std::atomic<bool> timing_{false};
  Busy deliveries_;
  Busy callbacks_;
  std::vector<std::uint64_t> walls_;
};

/// p99 and max of a set of nanosecond samples (sorts a copy).
struct Tail {
  double p99_ns = 0;
  double max_ns = 0;
};
inline Tail tail_of(std::vector<std::uint64_t> samples) {
  if (samples.empty()) return {};
  std::sort(samples.begin(), samples.end());
  const std::size_t rank = std::min(samples.size() - 1, (samples.size() * 99) / 100);
  return Tail{static_cast<double>(samples[rank]), static_cast<double>(samples.back())};
}

}  // namespace perfbench
