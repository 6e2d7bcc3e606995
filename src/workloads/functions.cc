#include "src/workloads/functions.h"

#include <algorithm>
#include <cmath>

namespace ofc::workloads {

std::vector<double> SampleArgs(const FunctionSpec& spec, Rng& rng) {
  std::vector<double> args;
  args.reserve(spec.args.size());
  for (const ArgSpec& arg : spec.args) {
    double v = rng.Uniform(arg.lo, arg.hi);
    if (arg.integer) {
      v = std::floor(v);
    }
    args.push_back(v);
  }
  return args;
}

namespace {

// Normalizes arg[0] into [0, 1]; functions without arguments normalize to 0.
double NormalizedArg0(const FunctionSpec& spec, const std::vector<double>& args) {
  if (spec.args.empty() || args.empty()) {
    return 0.0;
  }
  const ArgSpec& a = spec.args[0];
  if (a.hi <= a.lo) {
    return 0.0;
  }
  return std::clamp((args[0] - a.lo) / (a.hi - a.lo), 0.0, 1.0);
}

}  // namespace

InvocationDemand ComputeDemand(const FunctionSpec& spec, const MediaDescriptor& media,
                               const std::vector<double>& args, Rng* rng) {
  InvocationDemand demand;
  const double decoded_mb = static_cast<double>(media.DecodedBytes()) / (1024.0 * 1024.0);
  const double arg = NormalizedArg0(spec, args);

  double mem_mb = spec.base_mem_mb + decoded_mb * (spec.mem_copies + spec.mem_arg_coeff * arg);
  if (rng != nullptr && spec.mem_noise > 0.0) {
    mem_mb *= std::max(0.5, 1.0 + rng->Gaussian(0.0, spec.mem_noise));
  }
  demand.memory = static_cast<Bytes>(mem_mb * 1024.0 * 1024.0);

  const double processed_mb = decoded_mb * spec.work_scale;
  double compute_us = processed_mb * spec.compute_us_per_mb * (1.0 + spec.compute_arg_coeff * arg);
  compute_us += 1500.0;  // Interpreter dispatch floor.
  if (rng != nullptr) {
    compute_us *= rng->Uniform(0.95, 1.05);
  }
  demand.compute = static_cast<SimDuration>(compute_us);

  double out = static_cast<double>(media.byte_size) * spec.output_ratio;
  if (spec.output_arg_power != 0.0 && arg > 0.0) {
    out *= std::pow(arg, spec.output_arg_power);
  }
  demand.output_size = std::max<Bytes>(static_cast<Bytes>(out), 128);
  return demand;
}

MediaDescriptor OutputMedia(const FunctionSpec& spec, const MediaDescriptor& input,
                            Bytes output_size) {
  const InputKind out_kind = spec.output_kind.value_or(spec.kind);
  if (out_kind != input.kind) {
    // Modality change (decoded frames, extracted text, audio track...): the
    // downstream consumer sees opaque data of the output size.
    MediaDescriptor out;
    out.kind = out_kind;
    out.byte_size = output_size;
    out.entropy = 1.0;
    return out;
  }
  MediaDescriptor out = input;
  out.byte_size = output_size;
  if (input.byte_size > 0) {
    // Scale content volume with the byte-size change (e.g. resized images
    // carry proportionally fewer pixels).
    const double ratio =
        static_cast<double>(output_size) / static_cast<double>(input.byte_size);
    switch (out.kind) {
      case InputKind::kImage: {
        const double side = std::sqrt(std::max(ratio, 1e-6));
        out.width = std::max(8, static_cast<int>(out.width * side));
        out.height = std::max(8, static_cast<int>(out.height * side));
        break;
      }
      case InputKind::kAudio:
      case InputKind::kVideo:
        out.duration_s = std::max(0.1, out.duration_s * ratio);
        break;
      case InputKind::kText:
        break;
    }
  }
  return out;
}

std::vector<ml::Attribute> FeatureAttributes(const FunctionSpec& spec) {
  // Besides the raw descriptive metadata, each category carries a derived
  // content-volume feature (megapixels / PCM minutes / frame volume): decision
  // trees split on one attribute at a time, so exposing the product feature
  // directly is what makes interval-level accuracy reachable with few
  // invocations (§5.1.2's per-category feature engineering).
  std::vector<ml::Attribute> attrs;
  attrs.push_back(ml::Attribute::Numeric("file_kb"));
  switch (spec.kind) {
    case InputKind::kImage:
      attrs.push_back(ml::Attribute::Numeric("width"));
      attrs.push_back(ml::Attribute::Numeric("height"));
      attrs.push_back(ml::Attribute::Numeric("megapixels"));
      attrs.push_back(ml::Attribute::Nominal("format", ImageFormats()));
      break;
    case InputKind::kAudio:
      attrs.push_back(ml::Attribute::Numeric("duration_s"));
      attrs.push_back(ml::Attribute::Numeric("channels"));
      attrs.push_back(ml::Attribute::Numeric("pcm_mb"));
      attrs.push_back(ml::Attribute::Nominal("format", AudioFormats()));
      break;
    case InputKind::kVideo:
      attrs.push_back(ml::Attribute::Numeric("width"));
      attrs.push_back(ml::Attribute::Numeric("height"));
      attrs.push_back(ml::Attribute::Numeric("duration_s"));
      attrs.push_back(ml::Attribute::Numeric("fps"));
      attrs.push_back(ml::Attribute::Numeric("frame_volume_mb"));
      attrs.push_back(ml::Attribute::Nominal("format", VideoFormats()));
      break;
    case InputKind::kText:
      attrs.push_back(ml::Attribute::Nominal("format", TextFormats()));
      break;
  }
  for (const ArgSpec& arg : spec.args) {
    attrs.push_back(ml::Attribute::Numeric("arg_" + arg.name));
  }
  return attrs;
}

std::vector<double> ExtractFeatures(const FunctionSpec& spec, const MediaDescriptor& media,
                                    const std::vector<double>& args) {
  // One allocation per call (this runs twice per OFC invocation): the byte
  // size, the kind's media features appended below, then the args.
  constexpr std::size_t kMediaFeatures[] = {4, 4, 6, 1};  // Image, audio, video, text.
  std::vector<double> features;
  features.reserve(1 + kMediaFeatures[static_cast<int>(spec.kind)] + args.size());
  features.push_back(static_cast<double>(media.byte_size) / 1024.0);
  switch (spec.kind) {
    case InputKind::kImage:
      features.push_back(media.width);
      features.push_back(media.height);
      features.push_back(static_cast<double>(media.width) * media.height / 1e6);
      features.push_back(media.format);
      break;
    case InputKind::kAudio:
      features.push_back(media.duration_s);
      features.push_back(media.channels);
      features.push_back(media.duration_s * 44100.0 * 2.0 * media.channels / 1e6);
      features.push_back(media.format);
      break;
    case InputKind::kVideo:
      features.push_back(media.width);
      features.push_back(media.height);
      features.push_back(media.duration_s);
      features.push_back(media.fps);
      features.push_back(media.duration_s * media.fps * media.width * media.height * 3.0 /
                         1e6);
      features.push_back(media.format);
      break;
    case InputKind::kText:
      features.push_back(media.format);
      break;
  }
  for (double a : args) {
    features.push_back(a);
  }
  return features;
}

namespace {

std::vector<FunctionSpec> BuildAllFunctions() {
  std::vector<FunctionSpec> fns;
  auto add = [&fns](FunctionSpec spec) { fns.push_back(std::move(spec)); };

  // ---- Image functions (ImageMagick-style: ~16 B/pixel working quantum, i.e.
  // ~5.3x the 3 B/pixel decoded raster, plus per-filter extra copies). --------
  add({.name = "wand_blur",
       .kind = InputKind::kImage,
       .args = {{"sigma", 0.0, 6.0, false}},
       .base_mem_mb = 42,
       .mem_copies = 6.0,
       .mem_arg_coeff = 2.0,
       .compute_us_per_mb = 400,
       .compute_arg_coeff = 1.5,
       .output_ratio = 1.0});
  add({.name = "wand_resize",
       .kind = InputKind::kImage,
       .args = {{"scale", 0.1, 1.0, false}},
       .base_mem_mb = 40,
       .mem_copies = 5.5,
       .mem_arg_coeff = 1.5,
       .compute_us_per_mb = 20,
       .compute_arg_coeff = 0.8,
       .output_ratio = 1.0,
       .output_arg_power = 2.0});
  add({.name = "wand_sepia",
       .kind = InputKind::kImage,
       .args = {{"threshold", 0.0, 1.0, false}},
       .base_mem_mb = 40,
       .mem_copies = 5.4,
       .mem_arg_coeff = 0.3,
       .compute_us_per_mb = 15,
       .output_ratio = 1.0});
  add({.name = "wand_rotate",
       .kind = InputKind::kImage,
       .args = {{"angle", 0.0, 360.0, false}},
       .base_mem_mb = 41,
       .mem_copies = 6.2,
       .mem_arg_coeff = 1.0,
       .compute_us_per_mb = 18,
       .output_ratio = 1.05});
  add({.name = "wand_denoise",
       .kind = InputKind::kImage,
       .args = {{"radius", 0.0, 5.0, false}},
       .base_mem_mb = 44,
       .mem_copies = 6.5,
       .mem_arg_coeff = 2.5,
       .compute_us_per_mb = 1200,
       .compute_arg_coeff = 2.0,
       .output_ratio = 1.0});
  add({.name = "wand_edge",
       .kind = InputKind::kImage,
       .args = {{"radius", 0.0, 4.0, false}},
       .base_mem_mb = 42,
       .mem_copies = 6.0,
       .mem_arg_coeff = 1.2,
       .compute_us_per_mb = 25,
       .compute_arg_coeff = 0.8,
       .output_ratio = 0.9});
  add({.name = "wand_sharpen",
       .kind = InputKind::kImage,
       .args = {{"sigma", 0.0, 5.0, false}},
       .base_mem_mb = 42,
       .mem_copies = 6.0,
       .mem_arg_coeff = 1.8,
       .compute_us_per_mb = 600,
       .compute_arg_coeff = 1.2,
       .output_ratio = 1.0});
  add({.name = "wand_grayscale",
       .kind = InputKind::kImage,
       .base_mem_mb = 38,
       .mem_copies = 4.8,
       .compute_us_per_mb = 10,
       .output_ratio = 0.6});
  add({.name = "wand_thumbnail",
       .kind = InputKind::kImage,
       .args = {{"size_px", 32.0, 512.0, true}},
       .base_mem_mb = 36,
       .mem_copies = 4.5,
       .mem_arg_coeff = 0.5,
       .compute_us_per_mb = 12,
       .output_ratio = 0.05,
       .output_arg_power = 1.0});
  add({.name = "wand_format_convert",
       .kind = InputKind::kImage,
       .args = {{"quality", 10.0, 95.0, true}},
       .base_mem_mb = 40,
       .mem_copies = 5.2,
       .mem_arg_coeff = 0.4,
       .compute_us_per_mb = 22,
       .output_ratio = 0.8,
       .output_arg_power = 1.0});
  add({.name = "sharp_resize",  // libvips-based; streaming, so fewer copies.
       .kind = InputKind::kImage,
       .args = {{"scale", 0.1, 1.0, false}},
       .base_mem_mb = 50,
       .mem_copies = 3.2,
       .mem_arg_coeff = 1.0,
       .compute_us_per_mb = 8,
       .compute_arg_coeff = 0.5,
       .output_ratio = 1.0,
       .output_arg_power = 2.0});
  add({.name = "img_watermark",
       .kind = InputKind::kImage,
       .args = {{"opacity", 0.0, 1.0, false}},
       .base_mem_mb = 43,
       .mem_copies = 5.8,
       .mem_arg_coeff = 0.3,
       .compute_us_per_mb = 16,
       .output_ratio = 1.0});
  add({.name = "face_blur",
       .kind = InputKind::kImage,
       .args = {{"strength", 1.0, 5.0, false}},
       .base_mem_mb = 90,  // Detection model resident.
       .mem_copies = 7.0,
       .mem_arg_coeff = 1.5,
       .compute_us_per_mb = 2500,
       .compute_arg_coeff = 1.0,
       .output_ratio = 1.0});

  // ---- Audio functions (decoded = PCM). ---------------------------------------
  add({.name = "audio_compress",
       .kind = InputKind::kAudio,
       .args = {{"bitrate_kbps", 32.0, 320.0, true}},
       .base_mem_mb = 35,
       .mem_copies = 2.5,
       .mem_arg_coeff = 0.5,
       .compute_us_per_mb = 2000,
       .compute_arg_coeff = 0.6,
       .output_ratio = 0.35,
       .output_arg_power = 1.0});
  add({.name = "audio_normalize",
       .kind = InputKind::kAudio,
       .args = {{"target_db", -30.0, 0.0, false}},
       .base_mem_mb = 34,
       .mem_copies = 3.0,
       .mem_arg_coeff = 0.2,
       .compute_us_per_mb = 18,
       .output_ratio = 1.0});
  add({.name = "speech_to_text",
       .kind = InputKind::kAudio,
       .args = {{"beam", 1.0, 10.0, true}},
       .base_mem_mb = 180,  // Acoustic + language model resident.
       .mem_copies = 4.0,
       .mem_arg_coeff = 1.0,
       .compute_us_per_mb = 300,
       .compute_arg_coeff = 1.5,
       .output_ratio = 0.002});

  // ---- Video functions (windowed processing: small fraction of the stream
  // volume resident at once). ---------------------------------------------------
  add({.name = "video_grayscale",
       .kind = InputKind::kVideo,
       .args = {{"quality", 1.0, 10.0, true}},
       .base_mem_mb = 60,
       .mem_copies = 0.018,
       .mem_arg_coeff = 0.010,
       .compute_us_per_mb = 300,
       .compute_arg_coeff = 0.4,
       .output_ratio = 0.8});
  add({.name = "video_extract_audio",
       .kind = InputKind::kVideo,
       .base_mem_mb = 48,
       .mem_copies = 0.008,
       .compute_us_per_mb = 1.5,
       .output_ratio = 0.05});

  // ---- Text. --------------------------------------------------------------------
  add({.name = "text_summarize",
       .kind = InputKind::kText,
       .args = {{"ratio", 0.05, 0.5, false}},
       .base_mem_mb = 120,  // NLP pipeline resident.
       .mem_copies = 9.0,   // Token/graph structures dwarf the raw text.
       .mem_arg_coeff = 2.0,
       .compute_us_per_mb = 200,
       .compute_arg_coeff = 1.0,
       .output_ratio = 0.3,
       .output_arg_power = 1.0});

  return fns;
}

std::vector<FunctionSpec> BuildPipelineStageFunctions() {
  std::vector<FunctionSpec> fns;
  auto add = [&fns](FunctionSpec spec) { fns.push_back(std::move(spec)); };

  // MapReduce word count (§7: "map_reduce"): chunked text -> per-chunk counts
  // -> merged counts.
  add({.name = "mr_map",
       .kind = InputKind::kText,
       .base_mem_mb = 48,
       .mem_copies = 6.0,
       .compute_us_per_mb = 100000,
       .output_ratio = 0.12});
  add({.name = "mr_reduce",
       .kind = InputKind::kText,
       .base_mem_mb = 52,
       .mem_copies = 5.0,
       .compute_us_per_mb = 30000,
       .output_ratio = 0.3});

  // THIS (Thousand Island Scanner): distributed video processing. Stage 1
  // decodes segment chunks, stage 2 runs per-segment analysis, stage 3 merges.
  add({.name = "this_decode",
       .kind = InputKind::kVideo,
       .base_mem_mb = 70,
       .mem_copies = 0.02,
       .compute_us_per_mb = 400,
       .output_ratio = 2.0,  // Decoded segment frames are bulkier.
       .output_kind = InputKind::kText});  // Raw frame data, not a video file.
  add({.name = "this_detect",
       .kind = InputKind::kText,  // Operates on decoded chunk objects.
       .base_mem_mb = 150,
       .mem_copies = 4.0,
       .compute_us_per_mb = 15000,
       .output_ratio = 0.05});
  add({.name = "this_merge",
       .kind = InputKind::kText,
       .base_mem_mb = 60,
       .mem_copies = 3.0,
       .compute_us_per_mb = 5000,
       .output_ratio = 0.5});

  // IMAD: Illegitimate Mobile App Detector, reimplemented as a sequence
  // (unpack -> static analysis -> verdict).
  add({.name = "imad_unpack",
       .kind = InputKind::kText,
       .base_mem_mb = 55,
       .mem_copies = 3.5,
       .compute_us_per_mb = 5000,
       .output_ratio = 1.8});
  add({.name = "imad_static_analysis",
       .kind = InputKind::kText,
       .base_mem_mb = 160,
       .mem_copies = 6.0,
       .compute_us_per_mb = 30000,
       .output_ratio = 0.08});
  add({.name = "imad_verdict",
       .kind = InputKind::kText,
       .base_mem_mb = 70,
       .mem_copies = 2.0,
       .compute_us_per_mb = 5000,
       .output_ratio = 0.02});

  // ServerlessBench Image Processing: thumbnail pipeline
  // (extract-metadata -> transform -> thumbnail).
  add({.name = "ip_extract_meta",
       .kind = InputKind::kImage,
       .base_mem_mb = 36,
       .mem_copies = 3.4,
       .compute_us_per_mb = 6,
       .output_ratio = 1.0});
  add({.name = "ip_transform",
       .kind = InputKind::kImage,
       .args = {{"scale", 0.2, 0.9, false}},
       .base_mem_mb = 40,
       .mem_copies = 5.5,
       .mem_arg_coeff = 1.2,
       .compute_us_per_mb = 18,
       .output_ratio = 1.0,
       .output_arg_power = 2.0});
  add({.name = "ip_thumbnail",
       .kind = InputKind::kImage,
       .base_mem_mb = 36,
       .mem_copies = 4.0,
       .compute_us_per_mb = 10,
       .output_ratio = 0.04});

  return fns;
}

}  // namespace

const std::vector<FunctionSpec>& AllFunctions() {
  static const std::vector<FunctionSpec> kFunctions = BuildAllFunctions();
  return kFunctions;
}

const std::vector<FunctionSpec>& PipelineStageFunctions() {
  static const std::vector<FunctionSpec> kFunctions = BuildPipelineStageFunctions();
  return kFunctions;
}

const FunctionSpec* FindFunction(const std::string& name) {
  for (const FunctionSpec& spec : AllFunctions()) {
    if (spec.name == name) {
      return &spec;
    }
  }
  for (const FunctionSpec& spec : PipelineStageFunctions()) {
    if (spec.name == name) {
      return &spec;
    }
  }
  return nullptr;
}

}  // namespace ofc::workloads
