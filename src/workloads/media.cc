#include "src/workloads/media.h"

#include <algorithm>
#include <cmath>

namespace ofc::workloads {

const std::vector<std::string>& ImageFormats() {
  static const std::vector<std::string> kFormats = {"jpeg", "png", "webp", "bmp"};
  return kFormats;
}

const std::vector<std::string>& AudioFormats() {
  static const std::vector<std::string> kFormats = {"mp3", "flac", "wav", "ogg"};
  return kFormats;
}

const std::vector<std::string>& VideoFormats() {
  static const std::vector<std::string> kFormats = {"h264", "vp9", "mpeg2"};
  return kFormats;
}

const std::vector<std::string>& TextFormats() {
  static const std::vector<std::string> kFormats = {"plain", "gz"};
  return kFormats;
}

double CompressionRatio(InputKind kind, int format) {
  switch (kind) {
    case InputKind::kImage: {
      static const double kRatios[] = {0.10, 0.42, 0.07, 1.0};  // jpeg png webp bmp
      return kRatios[format];
    }
    case InputKind::kAudio: {
      static const double kRatios[] = {0.09, 0.55, 1.0, 0.08};  // mp3 flac wav ogg
      return kRatios[format];
    }
    case InputKind::kVideo: {
      static const double kRatios[] = {0.015, 0.010, 0.035};  // h264 vp9 mpeg2
      return kRatios[format];
    }
    case InputKind::kText: {
      static const double kRatios[] = {1.0, 0.3};  // plain gz
      return kRatios[format];
    }
  }
  return 1.0;
}

Bytes MediaDescriptor::DecodedBytes() const {
  switch (kind) {
    case InputKind::kImage:
      // 3 channels, 8 bits, as decoded into a raster buffer.
      return static_cast<Bytes>(width) * height * 3;
    case InputKind::kAudio:
      // 44.1 kHz, 16-bit PCM.
      return static_cast<Bytes>(duration_s * 44100.0 * 2.0 * channels);
    case InputKind::kVideo:
      // Full decoded stream volume (frames x raster); functions typically keep
      // a working window of this, modelled per function.
      return static_cast<Bytes>(duration_s * fps * width * height * 3);
    case InputKind::kText:
      return byte_size > 0 ? byte_size : KiB(64);
  }
  return 0;
}

MediaDescriptor MediaGenerator::Generate(InputKind kind) {
  return GenerateWithByteSize(kind, 0);
}

MediaDescriptor MediaGenerator::GenerateWithByteSize(InputKind kind, Bytes target) {
  // scale = 1 draws from the natural range; a byte-size target adjusts the
  // content volume after an initial draw.
  MediaDescriptor desc;
  switch (kind) {
    case InputKind::kImage:
      desc = GenerateImage(1.0);
      break;
    case InputKind::kAudio:
      desc = GenerateAudio(1.0);
      break;
    case InputKind::kVideo:
      desc = GenerateVideo(1.0);
      break;
    case InputKind::kText:
      desc = GenerateText(1.0);
      break;
  }
  if (target > 0 && desc.byte_size > 0) {
    const double scale = static_cast<double>(target) / static_cast<double>(desc.byte_size);
    switch (kind) {
      case InputKind::kImage: {
        const double side = std::sqrt(scale);
        desc.width = std::max(16, static_cast<int>(desc.width * side));
        desc.height = std::max(16, static_cast<int>(desc.height * side));
        break;
      }
      case InputKind::kAudio:
      case InputKind::kVideo:
        desc.duration_s = std::max(0.5, desc.duration_s * scale);
        break;
      case InputKind::kText:
        break;  // byte_size set directly below.
    }
    if (kind == InputKind::kText) {
      desc.byte_size = target;
    } else {
      desc.byte_size = static_cast<Bytes>(static_cast<double>(desc.DecodedBytes()) *
                                          CompressionRatio(kind, desc.format) * desc.entropy);
      desc.byte_size = std::max<Bytes>(desc.byte_size, 256);
    }
  }
  return desc;
}

MediaDescriptor MediaGenerator::GenerateImage(double scale) {
  MediaDescriptor desc;
  desc.kind = InputKind::kImage;
  // Real-world images cluster around standard capture/display resolutions
  // (VGA, HD, 2-3 Mpx web exports, 6-12 Mpx camera sensors) with mild jitter
  // from cropping. This clustering is what makes per-function models learnable
  // from few invocations (§7.1.3).
  static const double kMpxClusters[] = {0.3, 0.5, 0.9, 2.1, 3.7, 6.0, 8.3, 12.0};
  static const double kAspects[] = {4.0 / 3.0, 3.0 / 2.0, 16.0 / 9.0, 1.0};
  const double mpx = kMpxClusters[rng_.Index(8)] * rng_.Uniform(0.92, 1.08) * scale;
  const double aspect = kAspects[rng_.Index(4)] * rng_.Uniform(0.97, 1.03);
  desc.width = std::max(16, static_cast<int>(std::sqrt(mpx * 1e6 * aspect)));
  desc.height = std::max(16, static_cast<int>(std::sqrt(mpx * 1e6 / aspect)));
  desc.format = static_cast<int>(rng_.Index(ImageFormats().size()));
  desc.entropy = rng_.Uniform(0.5, 1.5);
  desc.byte_size = std::max<Bytes>(
      static_cast<Bytes>(static_cast<double>(desc.DecodedBytes()) *
                         CompressionRatio(desc.kind, desc.format) * desc.entropy),
      256);
  return desc;
}

MediaDescriptor MediaGenerator::GenerateAudio(double scale) {
  MediaDescriptor desc;
  desc.kind = InputKind::kAudio;
  // Clips cluster around common content lengths (voice notes, songs, podcasts
  // segments) with jitter.
  static const double kDurations[] = {10.0, 30.0, 90.0, 180.0, 300.0};
  desc.duration_s = kDurations[rng_.Index(5)] * rng_.Uniform(0.85, 1.15) * scale;
  desc.channels = rng_.Bernoulli(0.8) ? 2 : 1;
  desc.format = static_cast<int>(rng_.Index(AudioFormats().size()));
  desc.entropy = rng_.Uniform(0.5, 1.5);
  desc.byte_size = std::max<Bytes>(
      static_cast<Bytes>(static_cast<double>(desc.DecodedBytes()) *
                         CompressionRatio(desc.kind, desc.format) * desc.entropy),
      256);
  return desc;
}

MediaDescriptor MediaGenerator::GenerateVideo(double scale) {
  MediaDescriptor desc;
  desc.kind = InputKind::kVideo;
  static const int kWidths[] = {640, 1280, 1920};
  static const int kHeights[] = {360, 720, 1080};
  const std::size_t res = rng_.Index(3);
  desc.width = kWidths[res];
  desc.height = kHeights[res];
  desc.fps = rng_.Bernoulli(0.5) ? 30.0 : 24.0;
  static const double kDurations[] = {6.0, 15.0, 30.0, 60.0, 120.0};
  desc.duration_s = kDurations[rng_.Index(5)] * rng_.Uniform(0.85, 1.15) * scale;
  desc.format = static_cast<int>(rng_.Index(VideoFormats().size()));
  desc.entropy = rng_.Uniform(0.5, 1.5);
  desc.byte_size = std::max<Bytes>(
      static_cast<Bytes>(static_cast<double>(desc.DecodedBytes()) *
                         CompressionRatio(desc.kind, desc.format) * desc.entropy),
      256);
  return desc;
}

MediaDescriptor MediaGenerator::GenerateText(double scale) {
  MediaDescriptor desc;
  desc.kind = InputKind::kText;
  desc.format = static_cast<int>(rng_.Index(TextFormats().size()));
  desc.entropy = rng_.Uniform(0.5, 1.5);
  desc.byte_size = static_cast<Bytes>(rng_.Uniform(64.0, 4096.0) * 1024.0 * scale);
  return desc;
}

}  // namespace ofc::workloads
