#include "content/gif.hpp"

#include <gtest/gtest.h>

#include "sim/random.hpp"

namespace hsim::content {
namespace {

TEST(LzwTest, RoundtripSimpleSequence) {
  std::vector<std::uint8_t> data = {0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2, 3};
  const auto compressed = gif_lzw_compress(data, 2);
  const auto decompressed = gif_lzw_decompress(compressed, 2);
  ASSERT_TRUE(decompressed.has_value());
  EXPECT_EQ(*decompressed, data);
}

TEST(LzwTest, RoundtripEmpty) {
  const auto compressed = gif_lzw_compress({}, 2);
  const auto decompressed = gif_lzw_decompress(compressed, 2);
  ASSERT_TRUE(decompressed.has_value());
  EXPECT_TRUE(decompressed->empty());
}

TEST(LzwTest, RoundtripSingleSymbol) {
  std::vector<std::uint8_t> data = {3};
  const auto decompressed = gif_lzw_decompress(gif_lzw_compress(data, 2), 2);
  ASSERT_TRUE(decompressed.has_value());
  EXPECT_EQ(*decompressed, data);
}

TEST(LzwTest, LongRunsCompress) {
  std::vector<std::uint8_t> data(50'000, 1);
  const auto compressed = gif_lzw_compress(data, 2);
  EXPECT_LT(compressed.size(), data.size() / 20);
  const auto decompressed = gif_lzw_decompress(compressed, 2);
  ASSERT_TRUE(decompressed.has_value());
  EXPECT_EQ(*decompressed, data);
}

TEST(LzwTest, DictionaryResetAt4096Codes) {
  // Enough distinct material to overflow the 12-bit code space: random
  // 8-bit symbols force dictionary growth to the reset point.
  sim::Rng rng(3);
  std::vector<std::uint8_t> data(60'000);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.uniform(0, 255));
  const auto compressed = gif_lzw_compress(data, 8);
  const auto decompressed = gif_lzw_decompress(compressed, 8);
  ASSERT_TRUE(decompressed.has_value());
  EXPECT_EQ(*decompressed, data);
}

TEST(LzwTest, KOmegaKCase) {
  // "ababab..." triggers the code == dict.size() special case early.
  std::vector<std::uint8_t> data;
  for (int i = 0; i < 100; ++i) {
    data.push_back(0);
    data.push_back(1);
  }
  const auto decompressed = gif_lzw_decompress(gif_lzw_compress(data, 2), 2);
  ASSERT_TRUE(decompressed.has_value());
  EXPECT_EQ(*decompressed, data);
}

TEST(LzwTest, RejectsGarbage) {
  std::vector<std::uint8_t> junk = {0xFF, 0xFF, 0xFF, 0xFF, 0xFF};
  // May decode some prefix, but without a valid EOI the decoder must
  // report failure rather than silently succeed.
  const auto result = gif_lzw_decompress(junk, 2);
  EXPECT_FALSE(result.has_value());
}

class LzwProperty : public ::testing::TestWithParam<int> {};

TEST_P(LzwProperty, RandomIndexStreamsRoundtrip) {
  sim::Rng rng(static_cast<std::uint64_t>(GetParam()) * 101 + 5);
  const unsigned mcs = static_cast<unsigned>(rng.uniform(2, 8));
  const std::size_t n = static_cast<std::size_t>(rng.uniform(0, 20'000));
  std::vector<std::uint8_t> data(n);
  const std::uint8_t max_sym = static_cast<std::uint8_t>((1u << mcs) - 1);
  // Mixture of runs and noise.
  std::size_t i = 0;
  while (i < n) {
    if (rng.chance(0.5)) {
      const auto run = static_cast<std::size_t>(rng.uniform(1, 200));
      const auto sym = static_cast<std::uint8_t>(rng.uniform(0, max_sym));
      for (std::size_t j = 0; j < run && i < n; ++j) data[i++] = sym;
    } else {
      data[i++] = static_cast<std::uint8_t>(rng.uniform(0, max_sym));
    }
  }
  const auto decompressed =
      gif_lzw_decompress(gif_lzw_compress(data, mcs), mcs);
  ASSERT_TRUE(decompressed.has_value());
  EXPECT_EQ(*decompressed, data);
}

INSTANTIATE_TEST_SUITE_P(Sweep, LzwProperty, ::testing::Range(0, 20));

TEST(GifTest, EncodeDecodeStaticImage) {
  SyntheticSpec spec;
  spec.kind = ImageKind::kLogo;
  spec.width = 60;
  spec.height = 40;
  spec.colors = 16;
  spec.seed = 7;
  const IndexedImage img = generate_image(spec);
  const auto gif = encode_gif(img);
  const GifDecodeResult decoded = decode_gif(gif);
  ASSERT_TRUE(decoded.ok) << decoded.error;
  ASSERT_EQ(decoded.frames.size(), 1u);
  EXPECT_EQ(decoded.frames[0].width, img.width);
  EXPECT_EQ(decoded.frames[0].height, img.height);
  EXPECT_EQ(decoded.frames[0].pixels, img.pixels);
  EXPECT_EQ(decoded.frames[0].palette, img.palette);
}

TEST(GifTest, SpacerGifIsTiny) {
  // The paper's smallest image is 70 bytes — a 1x1-ish invisible spacer.
  SyntheticSpec spec;
  spec.kind = ImageKind::kSpacer;
  spec.width = 1;
  spec.height = 1;
  spec.colors = 2;
  const auto gif = encode_gif(generate_image(spec));
  EXPECT_LT(gif.size(), 80u);
  EXPECT_TRUE(decode_gif(gif).ok);
}

TEST(GifTest, EncodeDecodeAnimation) {
  SyntheticSpec spec;
  spec.kind = ImageKind::kLogo;
  spec.width = 40;
  spec.height = 30;
  spec.colors = 8;
  spec.seed = 11;
  const Animation anim = generate_animation(spec, 5);
  const auto gif = encode_animated_gif(anim);
  const GifDecodeResult decoded = decode_gif(gif);
  ASSERT_TRUE(decoded.ok) << decoded.error;
  ASSERT_EQ(decoded.frames.size(), 5u);
  for (std::size_t f = 0; f < 5; ++f) {
    EXPECT_EQ(decoded.frames[f].pixels, anim.frames[f].pixels) << f;
  }
}

TEST(GifTest, AnimationLargerThanSingleFrame) {
  SyntheticSpec spec;
  spec.kind = ImageKind::kLogo;
  spec.width = 40;
  spec.height = 30;
  spec.colors = 8;
  const auto single = encode_gif(generate_image(spec));
  const auto anim = encode_animated_gif(generate_animation(spec, 8));
  EXPECT_GT(anim.size(), single.size());
}

TEST(GifTest, DecodeRejectsCorruptSignature) {
  std::vector<std::uint8_t> junk = {'J', 'P', 'E', 'G', '0', '0',
                                    0,   0,   0,   0,   0,   0,  0};
  EXPECT_FALSE(decode_gif(junk).ok);
}

TEST(GifTest, DecodeRejectsTruncation) {
  SyntheticSpec spec;
  spec.width = 30;
  spec.height = 30;
  auto gif = encode_gif(generate_image(spec));
  gif.resize(gif.size() / 2);
  EXPECT_FALSE(decode_gif(gif).ok);
}

TEST(GifTest, PhotoCompressesWorseThanBanner) {
  SyntheticSpec photo;
  photo.kind = ImageKind::kPhoto;
  photo.width = 100;
  photo.height = 80;
  photo.colors = 128;
  SyntheticSpec banner = photo;
  banner.kind = ImageKind::kTextBanner;
  banner.colors = 4;
  const auto photo_gif = encode_gif(generate_image(photo));
  const auto banner_gif = encode_gif(generate_image(banner));
  EXPECT_GT(photo_gif.size(), 2 * banner_gif.size());
}

// FNV-1a 64-bit digest: pins encoder output byte for byte.
std::uint64_t fnv1a(std::span<const std::uint8_t> data) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (std::uint8_t b : data) {
    h ^= b;
    h *= 0x100000001b3ull;
  }
  return h;
}

// xorshift32 symbols in [0, mod): fixed here so the pins do not depend on
// sim::Rng.
std::vector<std::uint8_t> xorshift_symbols(std::size_t n, unsigned mod,
                                           std::uint32_t seed) {
  std::vector<std::uint8_t> out(n);
  std::uint32_t x = seed;
  for (auto& b : out) {
    x ^= x << 13;
    x ^= x >> 17;
    x ^= x << 5;
    b = static_cast<std::uint8_t>(x % mod);
  }
  return out;
}

TEST(LzwTest, CompressorOutputIsPinnedAcrossTableResets) {
  // The first three inputs emit far more than 4096 codes, so the encoder
  // clears its string table several times; the last stays below one reset.
  struct Pin {
    std::size_t n;
    unsigned mod;
    std::uint32_t seed;
    unsigned min_code_size;
    std::size_t size;
    std::uint64_t digest;
  };
  const Pin pins[] = {
      {20'000, 256, 1, 8, 27'300, 0xedd2cfad2ee43ca6ull},
      {60'000, 4, 2, 2, 17'314, 0xf94f8561696cbf2eull},
      {100'000, 16, 3, 4, 60'742, 0x3f53fbb7f469cdbfull},
      {30'000, 2, 4, 2, 4'495, 0xd990a504d209e1d6ull},
  };
  for (const Pin& pin : pins) {
    const auto data = xorshift_symbols(pin.n, pin.mod, pin.seed);
    const auto compressed = gif_lzw_compress(data, pin.min_code_size);
    EXPECT_EQ(compressed.size(), pin.size) << pin.n << "/" << pin.mod;
    EXPECT_EQ(fnv1a(compressed), pin.digest) << pin.n << "/" << pin.mod;
    const auto decompressed =
        gif_lzw_decompress(compressed, pin.min_code_size);
    ASSERT_TRUE(decompressed.has_value());
    EXPECT_EQ(*decompressed, data);
  }
}

}  // namespace
}  // namespace hsim::content
