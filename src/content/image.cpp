#include "content/image.hpp"

#include <algorithm>
#include <cmath>

namespace hsim::content {

unsigned IndexedImage::bit_depth() const {
  unsigned bits = 1;
  while ((1u << bits) < palette.size()) ++bits;
  return std::min(bits, 8u);
}

namespace {

unsigned round_up_pow2(unsigned v) {
  unsigned p = 2;
  while (p < v) p <<= 1;
  return std::min(p, 256u);
}

std::vector<std::uint32_t> make_palette(unsigned colors, sim::Rng& rng) {
  std::vector<std::uint32_t> palette(round_up_pow2(colors));
  for (auto& c : palette) {
    c = rng.next_u32() & 0xFFFFFF;
  }
  // Entry 0 is conventionally the background.
  palette[0] = 0xFFFFFF;
  return palette;
}

void draw_text_strokes(IndexedImage& img, sim::Rng& rng, std::uint8_t ink) {
  // Block-letter-like strokes: vertical and horizontal bars in cells.
  const unsigned cell_w = 8, cell_h = img.height;
  for (unsigned cx = 1; cx * cell_w + 6 < img.width; ++cx) {
    const unsigned x0 = cx * cell_w;
    const bool vert_left = rng.chance(0.7);
    const bool vert_right = rng.chance(0.5);
    const bool bar_top = rng.chance(0.5);
    const bool bar_mid = rng.chance(0.6);
    const bool bar_bot = rng.chance(0.5);
    const unsigned inset = cell_h / 5;
    for (unsigned y = inset; y + inset < cell_h; ++y) {
      if (vert_left) img.at(x0, y) = ink;
      if (vert_right) img.at(x0 + 4, y) = ink;
    }
    for (unsigned x = x0; x <= x0 + 4; ++x) {
      if (bar_top) img.at(x, inset) = ink;
      if (bar_mid) img.at(x, cell_h / 2) = ink;
      if (bar_bot) img.at(x, cell_h - inset - 1) = ink;
    }
  }
}

}  // namespace

IndexedImage generate_image(const SyntheticSpec& spec) {
  sim::Rng rng(spec.seed);
  IndexedImage img;
  img.width = std::max(1u, spec.width);
  img.height = std::max(1u, spec.height);
  img.palette = make_palette(std::max(2u, spec.colors), rng);
  img.pixels.assign(static_cast<std::size_t>(img.width) * img.height, 0);
  const auto ncolors = static_cast<std::uint8_t>(img.palette.size());

  switch (spec.kind) {
    case ImageKind::kSpacer:
      // Every pixel background: maximally compressible (70-byte GIFs).
      break;

    case ImageKind::kBullet: {
      // A filled disc with a border colour.
      const double cx = img.width / 2.0, cy = img.height / 2.0;
      const double r = std::min(cx, cy) * 0.8;
      for (unsigned y = 0; y < img.height; ++y) {
        for (unsigned x = 0; x < img.width; ++x) {
          const double d = std::hypot(x - cx, y - cy);
          if (d < r * 0.7) {
            img.at(x, y) = 1 % ncolors;
          } else if (d < r) {
            img.at(x, y) = 2 % ncolors;
          }
        }
      }
      break;
    }

    case ImageKind::kTextBanner: {
      // Flat tinted background with text strokes, like Figure 1's
      // "solutions" banner. Antialiasing dither along rows keeps the image
      // from being unrealistically regular (real text GIFs carried edge
      // dither that limited how much better PNG could do).
      const std::uint8_t bg = 1 % ncolors;
      const std::uint8_t ink = 2 % ncolors;
      std::fill(img.pixels.begin(), img.pixels.end(), bg);
      draw_text_strokes(img, rng, ink);
      // Edge antialiasing: background pixels horizontally adjacent to ink
      // randomly take an intermediate colour, as font rasterisation did.
      for (unsigned y = 0; y < img.height; ++y) {
        for (unsigned x = 1; x + 1 < img.width; ++x) {
          if (img.at(x, y) != bg) continue;
          const bool near_ink =
              img.at(x - 1, y) == ink || img.at(x + 1, y) == ink;
          if (near_ink && rng.chance(0.5)) {
            img.at(x, y) = static_cast<std::uint8_t>(3 % ncolors);
          }
        }
      }
      break;
    }

    case ImageKind::kPhoto: {
      // Heavily dithered photographic content: the typical profile of the
      // page's large hero image. Dither dominates the gradients, which is
      // what quantized-to-palette photos of the era looked like — hard for
      // LZW and nearly as hard for PNG's predictive filters.
      for (unsigned y = 0; y < img.height; ++y) {
        for (unsigned x = 0; x < img.width; ++x) {
          const double v =
              128 + 55 * std::sin(x * 0.05 + y * 0.017) +
              20 * std::sin(y * 0.11) +
              static_cast<double>(rng.uniform(-70, 70));
          const int idx =
              std::clamp(static_cast<int>(v), 0, 255) * ncolors / 256;
          img.at(x, y) = static_cast<std::uint8_t>(idx);
        }
      }
      break;
    }

    case ImageKind::kLogo: {
      // Flat colour blocks with occasional detail rows.
      const unsigned bands = 3 + static_cast<unsigned>(rng.uniform(0, 3));
      for (unsigned y = 0; y < img.height; ++y) {
        const std::uint8_t band_color =
            static_cast<std::uint8_t>((y * bands / img.height) % ncolors);
        for (unsigned x = 0; x < img.width; ++x) {
          img.at(x, y) = band_color;
        }
      }
      draw_text_strokes(img, rng, 3 % ncolors);
      // A sprinkle of detail pixels.
      const unsigned dots =
          static_cast<unsigned>(img.pixels.size() / 40);
      for (unsigned i = 0; i < dots; ++i) {
        const auto x = static_cast<unsigned>(rng.uniform(0, img.width - 1));
        const auto y = static_cast<unsigned>(rng.uniform(0, img.height - 1));
        img.at(x, y) = static_cast<std::uint8_t>(rng.uniform(0, ncolors - 1));
      }
      break;
    }
  }
  return img;
}

Animation generate_animation(const SyntheticSpec& spec,
                             unsigned frame_count) {
  Animation anim;
  IndexedImage base = generate_image(spec);
  sim::Rng rng(spec.seed ^ 0xA11CE);
  for (unsigned f = 0; f < frame_count; ++f) {
    IndexedImage frame = base;
    const auto ncolors = static_cast<std::uint8_t>(frame.palette.size());
    // A wide moving highlight band plus scattered sparkle pixels: banner-ad
    // animations of the era redrew a substantial part of each frame, which
    // is what keeps MNG's delta frames from being trivially empty.
    const unsigned band_x =
        (f * frame.width / std::max(1u, frame_count)) % frame.width;
    const unsigned band_w = std::max(4u, frame.width / 4);
    for (unsigned y = 0; y < frame.height; ++y) {
      for (unsigned x = band_x; x < std::min(band_x + band_w, frame.width);
           ++x) {
        frame.at(x, y) = static_cast<std::uint8_t>(
            (frame.at(x, y) + 1 + f % 3) % ncolors);
      }
    }
    const unsigned sparkles =
        static_cast<unsigned>(frame.pixels.size() / 36);
    for (unsigned i = 0; i < sparkles; ++i) {
      const auto x = static_cast<unsigned>(rng.uniform(0, frame.width - 1));
      const auto y = static_cast<unsigned>(rng.uniform(0, frame.height - 1));
      frame.at(x, y) =
          static_cast<std::uint8_t>(rng.uniform(0, ncolors - 1));
    }
    anim.frames.push_back(std::move(frame));
  }
  return anim;
}

// ---- Modern codec size models ---------------------------------------------

std::string_view to_string(ModernCodec codec) {
  return codec == ModernCodec::kWebP ? "webp" : "avif";
}

std::string_view extension(ModernCodec codec) {
  return codec == ModernCodec::kWebP ? ".webp" : ".avif";
}

double modern_size_factor(ImageKind kind, bool animated, ModernCodec codec) {
  if (animated) return codec == ModernCodec::kWebP ? 0.55 : 0.42;
  switch (kind) {
    case ImageKind::kSpacer:
      // Already near the container floor either way.
      return codec == ModernCodec::kWebP ? 0.80 : 0.78;
    case ImageKind::kBullet:
      return codec == ModernCodec::kWebP ? 0.72 : 0.66;
    case ImageKind::kTextBanner:
      return codec == ModernCodec::kWebP ? 0.60 : 0.52;
    case ImageKind::kLogo:
      return codec == ModernCodec::kWebP ? 0.62 : 0.50;
    case ImageKind::kPhoto:
      // Lossy re-encode of dithered photographic content: the big win.
      return codec == ModernCodec::kWebP ? 0.35 : 0.24;
  }
  return 1.0;
}

namespace {
/// Minimum sensible container size: RIFF/VP8L wrapper for WebP, ftyp+meta
/// boxes for AVIF.
std::size_t container_floor(ModernCodec codec) {
  return codec == ModernCodec::kWebP ? 26 : 48;
}
}  // namespace

std::size_t modern_encoded_size(std::size_t gif_bytes, ImageKind kind,
                                bool animated, ModernCodec codec) {
  const double factor = modern_size_factor(kind, animated, codec);
  const auto modelled = static_cast<std::size_t>(
      std::llround(static_cast<double>(gif_bytes) * factor));
  return std::max(modelled, container_floor(codec));
}

std::vector<std::uint8_t> modern_container_bytes(ModernCodec codec,
                                                 std::size_t size,
                                                 std::uint64_t seed) {
  std::vector<std::uint8_t> out;
  if (codec == ModernCodec::kWebP) {
    // RIFF <size> WEBP VP8L — enough structure to look like a real file.
    const std::uint32_t riff_size =
        size >= 8 ? static_cast<std::uint32_t>(size - 8) : 0;
    const auto le = [riff_size](int i) {
      return static_cast<std::uint8_t>(riff_size >> (8 * i));
    };
    out = {'R', 'I', 'F', 'F', le(0), le(1), le(2), le(3),
           'W', 'E', 'B', 'P', 'V', 'P', '8', 'L'};
  } else {
    out = {0, 0, 0, 0x1c, 'f', 't', 'y', 'p', 'a', 'v', 'i', 'f'};
  }
  out.reserve(size);
  // Seeded incompressible payload: arithmetic-coded codec output has no
  // byte-level redundancy left, so the deflate transfer-coding experiments
  // must see noise here, not structure.
  sim::Rng rng(seed ^ 0x5EBAF00D);
  while (out.size() < size) {
    std::uint64_t word = rng.next_u64();
    for (int i = 0; i < 8 && out.size() < size; ++i) {
      out.push_back(static_cast<std::uint8_t>(word >> (8 * i)));
    }
  }
  out.resize(size);
  return out;
}

}  // namespace hsim::content
