// Synthetic media inputs for the OFC workloads.
//
// Each input object is a MediaDescriptor: the observable metadata (byte size,
// pixel dimensions, duration, format — exactly the per-category feature sets of
// §5.1.2) plus a *hidden* content-entropy factor. Entropy drives the compressed
// byte size but is not exposed as an ML feature, which reproduces the paper's
// Figure 2 premise: byte size alone does not determine decoded footprint, so
// memory cannot be predicted from file size without the other features.
#ifndef OFC_WORKLOADS_MEDIA_H_
#define OFC_WORKLOADS_MEDIA_H_

#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/common/units.h"

namespace ofc::workloads {

enum class InputKind { kImage, kAudio, kVideo, kText };

// Format tables (nominal ML features). Indexes into these lists are stored in
// MediaDescriptor::format.
const std::vector<std::string>& ImageFormats();  // jpeg, png, webp, bmp
const std::vector<std::string>& AudioFormats();  // mp3, flac, wav, ogg
const std::vector<std::string>& VideoFormats();  // h264, vp9, mpeg2
const std::vector<std::string>& TextFormats();   // plain, gz

struct MediaDescriptor {
  InputKind kind = InputKind::kImage;
  Bytes byte_size = 0;    // Compressed size as stored in the RSDS.
  int width = 0;          // Image / video.
  int height = 0;         // Image / video.
  double duration_s = 0;  // Audio / video.
  int channels = 0;       // Audio.
  double fps = 0;         // Video.
  int format = 0;         // Index into the per-kind format table.
  double entropy = 1.0;   // Hidden content-complexity factor (not a feature).

  // Decoded in-memory footprint of the raw media (bytes). This is what drives
  // function memory usage; byte_size relates to it only through format + the
  // hidden entropy.
  Bytes DecodedBytes() const;
};

// Deterministic generators; draw parameters from realistic ranges, then derive
// byte_size from the decoded content, format compression ratio, and entropy.
class MediaGenerator {
 public:
  explicit MediaGenerator(Rng rng) : rng_(rng) {}

  MediaDescriptor Generate(InputKind kind);

  // Generates with the decoded content scaled so that byte_size lands near
  // `target` (used for the input-size sweeps of Figures 3 and 7).
  MediaDescriptor GenerateWithByteSize(InputKind kind, Bytes target);

 private:
  MediaDescriptor GenerateImage(double scale);
  MediaDescriptor GenerateAudio(double scale);
  MediaDescriptor GenerateVideo(double scale);
  MediaDescriptor GenerateText(double scale);
  Rng rng_;
};

// Compression ratio (compressed bytes per decoded byte) for a kind + format.
double CompressionRatio(InputKind kind, int format);

}  // namespace ofc::workloads

#endif  // OFC_WORKLOADS_MEDIA_H_
