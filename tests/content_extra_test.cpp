// Additional content-module coverage: synthetic image generation, size
// fitting, animations, and the robot's perceived-performance metrics.
#include <gtest/gtest.h>

#include "content/gif.hpp"
#include "content/image.hpp"
#include "harness/experiment.hpp"

namespace hsim {
namespace {

using namespace content;

TEST(ImageGenTest, DeterministicForSameSpec) {
  SyntheticSpec spec;
  spec.kind = ImageKind::kLogo;
  spec.width = 40;
  spec.height = 30;
  spec.colors = 16;
  spec.seed = 77;
  const IndexedImage a = generate_image(spec);
  const IndexedImage b = generate_image(spec);
  EXPECT_EQ(a.pixels, b.pixels);
  EXPECT_EQ(a.palette, b.palette);
  spec.seed = 78;
  const IndexedImage c = generate_image(spec);
  EXPECT_NE(a.pixels, c.pixels);
}

TEST(ImageGenTest, PaletteRoundedToPowerOfTwo) {
  SyntheticSpec spec;
  spec.colors = 5;
  const IndexedImage img = generate_image(spec);
  EXPECT_EQ(img.palette.size(), 8u);
  EXPECT_EQ(img.bit_depth(), 3u);
}

TEST(ImageGenTest, PixelsStayWithinPalette) {
  for (const ImageKind kind :
       {ImageKind::kSpacer, ImageKind::kBullet, ImageKind::kTextBanner,
        ImageKind::kPhoto, ImageKind::kLogo}) {
    SyntheticSpec spec;
    spec.kind = kind;
    spec.width = 30;
    spec.height = 20;
    spec.colors = 8;
    spec.seed = 3;
    const IndexedImage img = generate_image(spec);
    for (const std::uint8_t px : img.pixels) {
      EXPECT_LT(px, img.palette.size()) << static_cast<int>(kind);
    }
  }
}

TEST(ImageGenTest, FitSpecLandsNearTarget) {
  SyntheticSpec base;
  base.kind = ImageKind::kLogo;
  base.colors = 16;
  base.width = 24;
  base.height = 16;
  base.seed = 9;
  for (const std::size_t target : {300u, 1500u, 6000u}) {
    const SyntheticSpec fitted = fit_spec_to_size(
        base, target,
        [](const SyntheticSpec& s) {
          return encode_gif(generate_image(s)).size();
        });
    const std::size_t actual = encode_gif(generate_image(fitted)).size();
    EXPECT_NEAR(static_cast<double>(actual), static_cast<double>(target),
                0.2 * target)
        << target;
  }
}

TEST(AnimationTest, FramesShareGeometryAndPalette) {
  SyntheticSpec spec;
  spec.kind = ImageKind::kLogo;
  spec.width = 32;
  spec.height = 24;
  spec.colors = 8;
  spec.seed = 13;
  const Animation anim = generate_animation(spec, 6);
  ASSERT_EQ(anim.frames.size(), 6u);
  for (const IndexedImage& f : anim.frames) {
    EXPECT_EQ(f.width, anim.frames[0].width);
    EXPECT_EQ(f.height, anim.frames[0].height);
    EXPECT_EQ(f.palette, anim.frames[0].palette);
  }
  // Successive frames differ (it is an animation)...
  EXPECT_NE(anim.frames[0].pixels, anim.frames[1].pixels);
  // ...but share most pixels (delta-friendly).
  std::size_t same = 0;
  for (std::size_t i = 0; i < anim.frames[0].pixels.size(); ++i) {
    if (anim.frames[0].pixels[i] == anim.frames[1].pixels[i]) ++same;
  }
  EXPECT_GT(same * 2, anim.frames[0].pixels.size());
}

TEST(RenderMetricsTest, CompressionAcceleratesHtmlCompletion) {
  auto run = [](client::ProtocolMode mode) {
    sim::EventQueue queue;
    sim::Rng rng(23);
    const auto network = harness::ppp_profile();
    net::Channel channel(queue, network.channel_config(), rng.fork());
    tcp::Host client_host(queue, 1, "c", rng.fork());
    tcp::Host server_host(queue, 2, "s", rng.fork());
    channel.attach_a(&client_host);
    channel.attach_b(&server_host);
    client_host.attach_uplink(&channel.uplink_from_a());
    server_host.attach_uplink(&channel.uplink_from_b());
    server::HttpServer server(
        server_host,
        harness::server_site(harness::shared_site()),
        server::jigsaw_config(), rng.fork());
    server.start(80);
    client::ClientConfig config = harness::robot_config(mode);
    config.tcp.recv_buffer =
        std::min(config.tcp.recv_buffer, network.client_recv_buffer);
    client::Robot robot(client_host, 2, 80, config);
    robot.start_first_visit("/index.html", [] {});
    queue.run_until(sim::seconds(600));
    return robot.stats();
  };
  const auto plain = run(client::ProtocolMode::kHttp11Pipelined);
  const auto compressed =
      run(client::ProtocolMode::kHttp11PipelinedCompressed);
  ASSERT_TRUE(plain.complete);
  ASSERT_TRUE(compressed.complete);
  EXPECT_GT(plain.seconds_to_first_html(), 0.0);
  EXPECT_GT(plain.seconds_to_html_complete(),
            plain.seconds_to_first_html());
  // The deflated document finishes parsing at least 2x sooner.
  EXPECT_LT(2 * compressed.seconds_to_html_complete(),
            plain.seconds_to_html_complete());
  EXPECT_GT(plain.first_image_done_at, plain.started);
}

}  // namespace
}  // namespace hsim
