// Microbenchmark for the zero-copy buffer pipeline.
//
// Part 1 times the three buffer idioms the refactor replaced, old style vs
// chain, on the access patterns the simulator actually performs:
//   - enqueue:   stage a response body for output (copy vs shared slice);
//   - segment:   cut MSS-sized send segments, including retransmit re-cuts
//                (rebuild a fresh vector vs alias the send chain);
//   - consume:   drain a buffer from the front in small reads
//                (vector erase-front vs chain pop_front).
//
// Part 2 runs one full PPP first-visit experiment (the Table 8 pipelined
// row) and reports the global copy/alloc counters. In a default build the
// counters read zero — configure with -DHSIM_COUNT_COPIES=ON to see the
// payload-byte accounting that EXPERIMENTS.md quotes.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <numeric>
#include <vector>

#include "buf/bytes.hpp"
#include "harness/experiment.hpp"

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

constexpr std::size_t kBody = 40'000;   // the paper's GIF-heavy page scale
constexpr std::size_t kMss = 1460;
constexpr int kRounds = 2'000;

volatile std::uint8_t g_sink = 0;  // defeat dead-code elimination

void enqueue_old(const std::vector<std::uint8_t>& asset) {
  std::vector<std::uint8_t> out_buffer;
  for (int i = 0; i < kRounds; ++i) {
    out_buffer.resize(asset.size());
    std::memcpy(out_buffer.data(), asset.data(), asset.size());
    g_sink = out_buffer[i % out_buffer.size()];
  }
}

void enqueue_chain(const hsim::buf::Bytes& asset) {
  for (int i = 0; i < kRounds; ++i) {
    hsim::buf::Chain out_buffer;
    out_buffer.append(asset);
    g_sink = out_buffer[i % out_buffer.size()];
  }
}

void segment_old(const std::vector<std::uint8_t>& body) {
  for (int i = 0; i < kRounds / 10; ++i) {
    for (std::size_t off = 0; off < body.size(); off += kMss) {
      const std::size_t n = std::min(kMss, body.size() - off);
      std::vector<std::uint8_t> payload(body.begin() + off,
                                        body.begin() + off + n);
      g_sink = payload[0];
    }
  }
}

void segment_chain(const hsim::buf::Chain& send_buf) {
  for (int i = 0; i < kRounds / 10; ++i) {
    for (std::size_t off = 0; off < send_buf.size(); off += kMss) {
      const std::size_t n = std::min(kMss, send_buf.size() - off);
      const hsim::buf::Bytes payload = send_buf.slice_bytes(off, n);
      g_sink = payload[0];
    }
  }
}

void consume_old(const std::vector<std::uint8_t>& body) {
  for (int i = 0; i < kRounds / 100; ++i) {
    std::vector<std::uint8_t> buffer(body.begin(), body.end());
    while (!buffer.empty()) {
      const std::size_t n = std::min<std::size_t>(kMss, buffer.size());
      g_sink = buffer[0];
      buffer.erase(buffer.begin(),
                   buffer.begin() + static_cast<std::ptrdiff_t>(n));
    }
  }
}

void consume_chain(const hsim::buf::Bytes& body) {
  for (int i = 0; i < kRounds / 100; ++i) {
    hsim::buf::Chain buffer;
    buffer.append(body);
    while (!buffer.empty()) {
      const std::size_t n = std::min<std::size_t>(kMss, buffer.size());
      g_sink = buffer[0];
      buffer.pop_front(n);
    }
  }
}

template <typename Fn>
double timed(Fn&& fn) {
  const auto start = Clock::now();
  fn();
  return ms_since(start);
}

void report(const char* op, double old_ms, double chain_ms) {
  std::printf("  %-28s %9.2f ms %9.2f ms %8.1fx\n", op, old_ms, chain_ms,
              chain_ms > 0 ? old_ms / chain_ms : 0.0);
}

}  // namespace

int main() {
  std::vector<std::uint8_t> raw(kBody);
  std::iota(raw.begin(), raw.end(), 0);
  const hsim::buf::Bytes asset{
      std::span<const std::uint8_t>(raw.data(), raw.size())};
  hsim::buf::Chain send_buf;
  send_buf.append(asset);

  std::printf("=== Buffer pipeline microbenchmarks ===\n");
  std::printf("body=%zu B, mss=%zu, rounds=%d\n\n", kBody, kMss, kRounds);
  std::printf("  %-28s %12s %12s %9s\n", "operation", "copying", "chain",
              "speedup");
  report("enqueue response body", timed([&] { enqueue_old(raw); }),
         timed([&] { enqueue_chain(asset); }));
  report("cut MSS send segments", timed([&] { segment_old(raw); }),
         timed([&] { segment_chain(send_buf); }));
  report("front-consume in MSS reads", timed([&] { consume_old(raw); }),
         timed([&] { consume_chain(asset); }));

  std::printf("\n=== Copy accounting: one PPP first visit (pipelined) ===\n");
  hsim::harness::ExperimentSpec spec;
  spec.network = hsim::harness::ppp_profile();
  spec.client =
      hsim::harness::robot_config(hsim::client::ProtocolMode::kHttp11Pipelined);
  spec.scenario = hsim::harness::Scenario::kFirstVisit;
  hsim::buf::counters().reset();
  const auto result =
      hsim::harness::run_once(spec, hsim::harness::shared_site());
  const auto& c = hsim::buf::counters();
  const double body_bytes = static_cast<double>(result.robot.body_bytes);
  std::printf("payload bytes delivered to client : %12.0f\n", body_bytes);
  std::printf("bytes memcpy'd through buffers    : %12llu\n",
              static_cast<unsigned long long>(c.bytes_copied));
  std::printf("bytes moved by reference          : %12llu\n",
              static_cast<unsigned long long>(c.bytes_shared));
  std::printf("buffer block allocations          : %12llu\n",
              static_cast<unsigned long long>(c.allocations));
  std::printf("chain node-array allocations      : %12llu\n",
              static_cast<unsigned long long>(c.node_allocations));
  if (c.bytes_copied == 0 && c.bytes_shared == 0) {
    std::printf("(counters disabled: configure with -DHSIM_COUNT_COPIES=ON)\n");
  } else {
    std::printf("copies per delivered payload byte : %12.2f\n",
                body_bytes > 0 ? static_cast<double>(c.bytes_copied) /
                                     body_bytes
                               : 0.0);
  }
  return 0;
}
