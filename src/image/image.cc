#include "image/image.h"

#include <algorithm>
#include <cmath>

#include "image/image_prepost.h"

namespace thali {

void Image::BlendPixel(int y, int x, const Color& color, float alpha) {
  if (x < 0 || x >= width_ || y < 0 || y >= height_) return;
  if (alpha <= 0.0f) return;
  alpha = std::min(alpha, 1.0f);
  Color old = GetPixel(y, x);
  SetPixel(y, x,
           Color{alpha * color.r + (1 - alpha) * old.r,
                 alpha * color.g + (1 - alpha) * old.g,
                 alpha * color.b + (1 - alpha) * old.b});
}

void Image::FillColor(const Color& color) {
  THALI_CHECK_GE(channels_, 3);
  const size_t plane = static_cast<size_t>(width_) * height_;
  std::fill(data_.begin(), data_.begin() + plane, color.r);
  std::fill(data_.begin() + plane, data_.begin() + 2 * plane, color.g);
  std::fill(data_.begin() + 2 * plane, data_.begin() + 3 * plane, color.b);
}

void Image::Clamp01() {
  for (float& v : data_) v = std::clamp(v, 0.0f, 1.0f);
}

Image Resize(const Image& src, int new_width, int new_height) {
  THALI_CHECK(!src.empty());
  Image dst(new_width, new_height, src.channels());
  ResizeIntoPlanes(src, new_width, new_height, dst.data());
  return dst;
}

Letterbox LetterboxImage(const Image& src, int target_w, int target_h) {
  Letterbox out;
  out.image = Image(target_w, target_h, src.channels());
  const LetterboxGeometry g =
      LetterboxIntoPlanes(src, target_w, target_h, out.image.data());
  out.scale = g.scale;
  out.pad_x = g.pad_x;
  out.pad_y = g.pad_y;
  return out;
}

namespace internal {

Image ResizeReference(const Image& src, int new_width, int new_height) {
  THALI_CHECK(!src.empty());
  Image dst(new_width, new_height, src.channels());
  const float sx =
      new_width > 1 ? static_cast<float>(src.width() - 1) / (new_width - 1)
                    : 0.0f;
  const float sy =
      new_height > 1 ? static_cast<float>(src.height() - 1) / (new_height - 1)
                     : 0.0f;
  for (int c = 0; c < src.channels(); ++c) {
    for (int y = 0; y < new_height; ++y) {
      const float fy = y * sy;
      const int y0 = static_cast<int>(fy);
      const int y1 = std::min(y0 + 1, src.height() - 1);
      const float wy = fy - y0;
      for (int x = 0; x < new_width; ++x) {
        const float fx = x * sx;
        const int x0 = static_cast<int>(fx);
        const int x1 = std::min(x0 + 1, src.width() - 1);
        const float wx = fx - x0;
        const float v = (1 - wy) * ((1 - wx) * src.at(c, y0, x0) +
                                    wx * src.at(c, y0, x1)) +
                        wy * ((1 - wx) * src.at(c, y1, x0) +
                              wx * src.at(c, y1, x1));
        dst.set(c, y, x, v);
      }
    }
  }
  return dst;
}

Letterbox LetterboxReference(const Image& src, int target_w, int target_h) {
  Letterbox out;
  out.image = Image(target_w, target_h, src.channels());
  const float scale =
      std::min(static_cast<float>(target_w) / src.width(),
               static_cast<float>(target_h) / src.height());
  const int new_w = std::max(1, static_cast<int>(src.width() * scale));
  const int new_h = std::max(1, static_cast<int>(src.height() * scale));
  Image resized = ResizeReference(src, new_w, new_h);

  out.pad_x = (target_w - new_w) / 2;
  out.pad_y = (target_h - new_h) / 2;
  out.scale = scale;
  // Grey-fill only the pad bands; Paste overwrites the interior rectangle
  // exactly, so pre-filling the whole canvas was wasted work.
  const int64_t plane = static_cast<int64_t>(target_w) * target_h;
  for (int c = 0; c < src.channels(); ++c) {
    float* p = out.image.data() + c * plane;
    std::fill(p, p + static_cast<int64_t>(out.pad_y) * target_w, 0.5f);
    float* bottom = p + static_cast<int64_t>(out.pad_y + new_h) * target_w;
    std::fill(bottom, p + plane, 0.5f);
    for (int y = 0; y < new_h; ++y) {
      float* row = p + static_cast<int64_t>(out.pad_y + y) * target_w;
      std::fill(row, row + out.pad_x, 0.5f);
      std::fill(row + out.pad_x + new_w, row + target_w, 0.5f);
    }
  }
  Paste(resized, out.pad_x, out.pad_y, out.image);
  return out;
}

}  // namespace internal

void RgbToHsv(float r, float g, float b, float* h, float* s, float* v) {
  const float mx = std::max({r, g, b});
  const float mn = std::min({r, g, b});
  const float d = mx - mn;
  *v = mx;
  *s = mx > 0 ? d / mx : 0.0f;
  if (d <= 1e-12f) {
    *h = 0.0f;
    return;
  }
  float hh;
  if (mx == r) {
    hh = (g - b) / d;
    if (hh < 0) hh += 6.0f;
  } else if (mx == g) {
    hh = (b - r) / d + 2.0f;
  } else {
    hh = (r - g) / d + 4.0f;
  }
  *h = hh / 6.0f;
}

void HsvToRgb(float h, float s, float v, float* r, float* g, float* b) {
  h = h - std::floor(h);  // wrap into [0,1)
  const float hh = h * 6.0f;
  const int i = static_cast<int>(hh) % 6;
  const float f = hh - std::floor(hh);
  const float p = v * (1 - s);
  const float q = v * (1 - s * f);
  const float t = v * (1 - s * (1 - f));
  switch (i) {
    case 0: *r = v; *g = t; *b = p; break;
    case 1: *r = q; *g = v; *b = p; break;
    case 2: *r = p; *g = v; *b = t; break;
    case 3: *r = p; *g = q; *b = v; break;
    case 4: *r = t; *g = p; *b = v; break;
    default: *r = v; *g = p; *b = q; break;
  }
}

void DistortImageHsv(Image& img, float hue_shift, float sat_scale,
                     float val_scale) {
  THALI_CHECK_GE(img.channels(), 3);
  for (int y = 0; y < img.height(); ++y) {
    for (int x = 0; x < img.width(); ++x) {
      Color c = img.GetPixel(y, x);
      float h, s, v;
      RgbToHsv(c.r, c.g, c.b, &h, &s, &v);
      h += hue_shift;
      s = std::clamp(s * sat_scale, 0.0f, 1.0f);
      v = std::clamp(v * val_scale, 0.0f, 1.0f);
      HsvToRgb(h, s, v, &c.r, &c.g, &c.b);
      img.SetPixel(y, x, c);
    }
  }
}

void FlipHorizontal(Image& img) {
  for (int c = 0; c < img.channels(); ++c) {
    for (int y = 0; y < img.height(); ++y) {
      for (int x = 0; x < img.width() / 2; ++x) {
        const int mx = img.width() - 1 - x;
        const float a = img.at(c, y, x);
        img.set(c, y, x, img.at(c, y, mx));
        img.set(c, y, mx, a);
      }
    }
  }
}

void Paste(const Image& src, int x, int y, Image& dst) {
  THALI_CHECK_EQ(src.channels(), dst.channels());
  const int x0 = std::max(0, -x);
  const int y0 = std::max(0, -y);
  const int x1 = std::min(src.width(), dst.width() - x);
  const int y1 = std::min(src.height(), dst.height() - y);
  for (int c = 0; c < src.channels(); ++c) {
    for (int sy = y0; sy < y1; ++sy) {
      for (int sx = x0; sx < x1; ++sx) {
        dst.set(c, sy + y, sx + x, src.at(c, sy, sx));
      }
    }
  }
}

Image Crop(const Image& src, int x, int y, int w, int h) {
  Image out(w, h, src.channels());
  for (int c = 0; c < src.channels(); ++c) {
    for (int oy = 0; oy < h; ++oy) {
      for (int ox = 0; ox < w; ++ox) {
        out.set(c, oy, ox, src.GetClipped(c, y + oy, x + ox));
      }
    }
  }
  return out;
}

}  // namespace thali
