// Google-benchmark microbenchmarks for the library's substrates: deflate,
// inflate, GIF-LZW, Huffman construction, HTTP parsing and the event-driven
// TCP simulator itself.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "content/gif.hpp"
#include "deflate/deflate.hpp"
#include "deflate/huffman.hpp"
#include "deflate/inflate.hpp"
#include "harness/experiment.hpp"
#include "http/parser.hpp"
#include "sim/event_queue.hpp"
#include "sim/random.hpp"

namespace {

using namespace hsim;

std::vector<std::uint8_t> html_bytes() {
  const std::string& html = harness::shared_site().html;
  return {html.begin(), html.end()};
}

void BM_DeflateHtml(benchmark::State& state) {
  const auto input = html_bytes();
  const int level = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        deflate::zlib_compress(input, deflate::DeflateOptions{level}));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(input.size()));
}
BENCHMARK(BM_DeflateHtml)->Arg(1)->Arg(6)->Arg(9);

void BM_InflateHtml(benchmark::State& state) {
  const auto compressed = deflate::zlib_compress(html_bytes());
  for (auto _ : state) {
    benchmark::DoNotOptimize(deflate::zlib_decompress(compressed));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(compressed.size()));
}
BENCHMARK(BM_InflateHtml);

void BM_InflateStreaming(benchmark::State& state) {
  const auto compressed = deflate::zlib_compress(html_bytes());
  const std::size_t chunk = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    deflate::Inflater inf;
    std::vector<std::uint8_t> out;
    for (std::size_t i = 0; i < compressed.size(); i += chunk) {
      const std::size_t n = std::min(chunk, compressed.size() - i);
      inf.feed(std::span(compressed.data() + i, n), out);
    }
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_InflateStreaming)->Arg(64)->Arg(1460);

void BM_GifLzwCompress(benchmark::State& state) {
  content::SyntheticSpec spec;
  spec.kind = content::ImageKind::kPhoto;
  spec.width = 200;
  spec.height = 150;
  spec.colors = 128;
  const content::IndexedImage img = content::generate_image(spec);
  for (auto _ : state) {
    benchmark::DoNotOptimize(content::gif_lzw_compress(img.pixels, 8));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(img.pixels.size()));
}
BENCHMARK(BM_GifLzwCompress);

void BM_HuffmanBuild(benchmark::State& state) {
  sim::Rng rng(1);
  std::vector<std::uint32_t> freqs(288);
  for (auto& f : freqs) {
    f = rng.chance(0.2) ? 0 : static_cast<std::uint32_t>(rng.uniform(1, 5000));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(deflate::build_code_lengths(freqs, 15));
  }
}
BENCHMARK(BM_HuffmanBuild);

void BM_HttpRequestParse(benchmark::State& state) {
  const std::string wire =
      "GET /images/img07.gif HTTP/1.1\r\n"
      "Host: www.microscape.test\r\n"
      "User-Agent: libwww-robot/5.1\r\n"
      "Accept: image/gif, image/png, text/html, */*\r\n"
      "Accept-Language: en\r\n"
      "Accept-Charset: iso-8859-1,*\r\n\r\n";
  const std::span<const std::uint8_t> bytes(
      reinterpret_cast<const std::uint8_t*>(wire.data()), wire.size());
  for (auto _ : state) {
    http::RequestParser parser;
    parser.feed(bytes);
    benchmark::DoNotOptimize(parser.next());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(wire.size()));
}
BENCHMARK(BM_HttpRequestParse);

void BM_SimulatedPipelinedRevalidation(benchmark::State& state) {
  // Wall-clock cost of simulating a full pipelined revalidation over the
  // WAN: the simulator's end-to-end event throughput.
  const content::MicroscapeSite& site = harness::shared_site();
  harness::ExperimentSpec spec;
  spec.network = harness::wan_profile();
  spec.client =
      harness::robot_config(client::ProtocolMode::kHttp11Pipelined);
  spec.scenario = harness::Scenario::kRevalidation;
  std::uint64_t seed = 1;
  for (auto _ : state) {
    spec.seed = seed++;
    benchmark::DoNotOptimize(harness::run_once(spec, site));
  }
}
BENCHMARK(BM_SimulatedPipelinedRevalidation)->Unit(benchmark::kMillisecond);

void BM_EventQueueThroughput(benchmark::State& state) {
  for (auto _ : state) {
    sim::EventQueue q;
    int fired = 0;
    for (int i = 0; i < 10000; ++i) {
      q.schedule_at(sim::microseconds(i), [&fired] { ++fired; });
    }
    q.run();
    benchmark::DoNotOptimize(fired);
  }
}
BENCHMARK(BM_EventQueueThroughput);

// Event-core churn shaped like a TCP fleet: each delivered segment re-arms
// its connection's RTO timer (a cancel plus a schedule, as on every ACK),
// starts or cancels a delayed-ACK timer, and schedules the connection's next
// delivery with a 72-byte capture, the size of net::Link's [this, Packet]
// delivery lambda. Most RTO arms are cancelled long before they fire, so
// the heap carries the dead entries real runs do.
class ChurnFleet {
 public:
  static constexpr std::uint32_t kConns = 2000;

  explicit ChurnFleet(sim::EventQueue& q) : q_(q), rng_(7) {
    for (std::uint32_t c = 0; c < kConns; ++c) {
      conns_.push_back(std::make_unique<Conn>(q));
      send(c);
    }
  }

  std::uint64_t delivered() const { return delivered_; }

 private:
  struct Segment {
    std::uint32_t conn;
    std::uint32_t len;
    std::uint64_t fill[7];  // pads the segment to net::Packet's 64 bytes
  };
  struct Conn {
    explicit Conn(sim::EventQueue& q) : rto(q), delack(q) {}
    sim::Timer rto;
    sim::Timer delack;
    std::uint64_t rto_fires = 0;
  };

  void send(std::uint32_t c) {
    Segment seg{c, 1460, {}};
    const sim::Time delay = sim::microseconds(rng_.uniform(50, 5000));
    q_.schedule_in(delay, [this, seg] { deliver(seg); });
  }

  void deliver(const Segment& seg) {
    ++delivered_;
    Conn& conn = *conns_[seg.conn];
    conn.rto.arm(sim::milliseconds(200), [&conn] { ++conn.rto_fires; });
    if (conn.delack.armed()) {
      conn.delack.cancel();  // the second segment acks at once
    } else {
      conn.delack.arm(sim::milliseconds(40), [] {});
    }
    send(seg.conn);
  }

  sim::EventQueue& q_;
  sim::Rng rng_;
  std::vector<std::unique_ptr<Conn>> conns_;
  std::uint64_t delivered_ = 0;
};

void BM_EventQueueChurn(benchmark::State& state) {
  std::uint64_t events = 0;
  for (auto _ : state) {
    sim::EventQueue q;
    ChurnFleet fleet(q);
    events += q.run_until(sim::seconds(2));
    benchmark::DoNotOptimize(fleet.delivered());
  }
  state.counters["events/s"] = benchmark::Counter(
      static_cast<double>(events), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_EventQueueChurn)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
