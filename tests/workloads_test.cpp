// Unit tests for the workload models: media generation, demand models, feature
// extraction, registries, pipelines — including the Figure 2 property that
// byte size alone does not determine memory.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "src/workloads/functions.h"
#include "src/workloads/media.h"
#include "src/workloads/pipelines.h"

namespace ofc::workloads {
namespace {

TEST(MediaTest, ImageDescriptorsAreConsistent) {
  MediaGenerator gen(Rng(3));
  for (int i = 0; i < 200; ++i) {
    const MediaDescriptor d = gen.Generate(InputKind::kImage);
    EXPECT_GT(d.width, 0);
    EXPECT_GT(d.height, 0);
    EXPECT_GT(d.byte_size, 0);
    EXPECT_EQ(d.DecodedBytes(), static_cast<Bytes>(d.width) * d.height * 3);
    EXPECT_GE(d.format, 0);
    EXPECT_LT(d.format, static_cast<int>(ImageFormats().size()));
  }
}

TEST(MediaTest, AudioAndVideoDurationsPositive) {
  MediaGenerator gen(Rng(5));
  for (int i = 0; i < 100; ++i) {
    const MediaDescriptor audio = gen.Generate(InputKind::kAudio);
    EXPECT_GT(audio.duration_s, 0);
    EXPECT_GT(audio.channels, 0);
    const MediaDescriptor video = gen.Generate(InputKind::kVideo);
    EXPECT_GT(video.duration_s, 0);
    EXPECT_GT(video.fps, 0);
    EXPECT_GT(video.DecodedBytes(), video.byte_size);  // Video compresses well.
  }
}

TEST(MediaTest, TargetByteSizeIsApproximatelyHit) {
  MediaGenerator gen(Rng(7));
  for (Bytes target : {KiB(16), KiB(128), MiB(1), MiB(3)}) {
    const MediaDescriptor d = gen.GenerateWithByteSize(InputKind::kImage, target);
    EXPECT_GT(d.byte_size, target / 2);
    EXPECT_LT(d.byte_size, target * 2);
  }
}

TEST(MediaTest, CompressionRatiosDistinguishFormats) {
  // Same pixel content, different formats -> different byte sizes (this is the
  // hidden-variable structure behind Figure 2).
  EXPECT_LT(CompressionRatio(InputKind::kImage, 0),   // jpeg
            CompressionRatio(InputKind::kImage, 3));  // bmp
  EXPECT_LT(CompressionRatio(InputKind::kVideo, 1),   // vp9
            CompressionRatio(InputKind::kVideo, 2));  // mpeg2
}

TEST(FunctionsTest, RegistryHas19Functions) {
  EXPECT_EQ(AllFunctions().size(), 19u);
  std::set<std::string> names;
  for (const FunctionSpec& spec : AllFunctions()) {
    names.insert(spec.name);
  }
  EXPECT_EQ(names.size(), 19u);  // Unique names.
  // The six Figure 7 functions plus Figure 3's sharp_resize must exist.
  for (const char* name : {"wand_blur", "wand_resize", "wand_sepia", "wand_rotate",
                           "wand_denoise", "wand_edge", "sharp_resize"}) {
    EXPECT_TRUE(names.contains(name)) << name;
  }
}

TEST(FunctionsTest, FindFunctionCoversBothRegistries) {
  EXPECT_NE(FindFunction("wand_blur"), nullptr);
  EXPECT_NE(FindFunction("mr_map"), nullptr);
  EXPECT_EQ(FindFunction("not_a_function"), nullptr);
}

TEST(FunctionsTest, DemandScalesWithContent) {
  const FunctionSpec* blur = FindFunction("wand_blur");
  ASSERT_NE(blur, nullptr);
  MediaDescriptor small;
  small.kind = InputKind::kImage;
  small.width = 640;
  small.height = 480;
  small.byte_size = KiB(80);
  MediaDescriptor large = small;
  large.width = 4000;
  large.height = 3000;
  large.byte_size = MiB(3);
  const auto d_small = ComputeDemand(*blur, small, {3.0}, nullptr);
  const auto d_large = ComputeDemand(*blur, large, {3.0}, nullptr);
  EXPECT_GT(d_large.memory, d_small.memory);
  EXPECT_GT(d_large.compute, d_small.compute);
  EXPECT_GT(d_large.output_size, d_small.output_size);
}

TEST(FunctionsTest, DemandScalesWithArgument) {
  const FunctionSpec* blur = FindFunction("wand_blur");
  MediaDescriptor media;
  media.kind = InputKind::kImage;
  media.width = 2000;
  media.height = 1500;
  media.byte_size = MiB(1);
  const auto lo = ComputeDemand(*blur, media, {0.5}, nullptr);
  const auto hi = ComputeDemand(*blur, media, {5.5}, nullptr);
  EXPECT_GT(hi.memory, lo.memory);
  EXPECT_GT(hi.compute, lo.compute);
}

TEST(FunctionsTest, NoiseFreeDemandIsDeterministic) {
  const FunctionSpec* spec = FindFunction("wand_sepia");
  MediaDescriptor media;
  media.kind = InputKind::kImage;
  media.width = 1000;
  media.height = 1000;
  media.byte_size = KiB(300);
  const auto a = ComputeDemand(*spec, media, {0.5}, nullptr);
  const auto b = ComputeDemand(*spec, media, {0.5}, nullptr);
  EXPECT_EQ(a.memory, b.memory);
  EXPECT_EQ(a.compute, b.compute);
  EXPECT_EQ(a.output_size, b.output_size);
}

TEST(FunctionsTest, ByteSizeAloneDoesNotDetermineMemory) {
  // Figure 2's premise: two inputs with (nearly) identical byte sizes can need
  // very different memory because format/entropy hide the decoded footprint.
  const FunctionSpec* blur = FindFunction("wand_blur");
  MediaDescriptor jpeg;  // Heavily compressed: small file, big raster.
  jpeg.kind = InputKind::kImage;
  jpeg.width = 4000;
  jpeg.height = 3000;
  jpeg.format = 0;  // jpeg
  jpeg.entropy = 1.0;
  jpeg.byte_size = static_cast<Bytes>(
      static_cast<double>(jpeg.DecodedBytes()) * CompressionRatio(jpeg.kind, 0));
  MediaDescriptor bmp;  // Uncompressed: same file size, tiny raster.
  bmp.kind = InputKind::kImage;
  bmp.width = 1095;
  bmp.height = 1095;
  bmp.format = 3;  // bmp
  bmp.entropy = 1.0;
  bmp.byte_size = static_cast<Bytes>(
      static_cast<double>(bmp.DecodedBytes()) * CompressionRatio(bmp.kind, 3));
  // Byte sizes within 15% of each other...
  const double ratio = static_cast<double>(jpeg.byte_size) / static_cast<double>(bmp.byte_size);
  EXPECT_GT(ratio, 0.85);
  EXPECT_LT(ratio, 1.15);
  // ...but memory differs by many x.
  const auto mem_jpeg = ComputeDemand(*blur, jpeg, {3.0}, nullptr).memory;
  const auto mem_bmp = ComputeDemand(*blur, bmp, {3.0}, nullptr).memory;
  EXPECT_GT(static_cast<double>(mem_jpeg) / static_cast<double>(mem_bmp), 3.0);
}

TEST(FunctionsTest, FeatureSchemaMatchesExtraction) {
  for (const FunctionSpec& spec : AllFunctions()) {
    const auto attrs = FeatureAttributes(spec);
    MediaGenerator gen(Rng(11));
    Rng rng(13);
    const MediaDescriptor media = gen.Generate(spec.kind);
    const auto args = SampleArgs(spec, rng);
    const auto features = ExtractFeatures(spec, media, args);
    ASSERT_EQ(features.size(), attrs.size()) << spec.name;
    EXPECT_EQ(features.capacity(), features.size()) << spec.name;  // One exact allocation.
    // Nominal features must be valid indexes.
    for (std::size_t i = 0; i < attrs.size(); ++i) {
      if (attrs[i].kind == ml::AttributeKind::kNominal) {
        EXPECT_GE(features[i], 0.0);
        EXPECT_LT(features[i], static_cast<double>(attrs[i].num_values()));
        EXPECT_EQ(features[i], std::floor(features[i]));
      }
    }
  }
}

TEST(FunctionsTest, SampleArgsRespectsRanges) {
  Rng rng(17);
  for (const FunctionSpec& spec : AllFunctions()) {
    for (int i = 0; i < 50; ++i) {
      const auto args = SampleArgs(spec, rng);
      ASSERT_EQ(args.size(), spec.args.size());
      for (std::size_t a = 0; a < args.size(); ++a) {
        EXPECT_GE(args[a], spec.args[a].lo);
        EXPECT_LE(args[a], spec.args[a].hi);
        if (spec.args[a].integer) {
          EXPECT_EQ(args[a], std::floor(args[a]));
        }
      }
    }
  }
}

TEST(FunctionsTest, MemoryDemandsWithinOwkRange) {
  // Everything must fit in OWK's [0, 2 GB] classification range.
  Rng rng(19);
  MediaGenerator gen(Rng(23));
  for (const FunctionSpec& spec : AllFunctions()) {
    for (int i = 0; i < 100; ++i) {
      const MediaDescriptor media = gen.Generate(spec.kind);
      const auto args = SampleArgs(spec, rng);
      const auto demand = ComputeDemand(spec, media, args, &rng);
      EXPECT_GT(demand.memory, 0) << spec.name;
      EXPECT_LT(demand.memory, GiB(2)) << spec.name;
    }
  }
}

TEST(PipelinesTest, RegistryHasFourPipelines) {
  EXPECT_EQ(AllPipelines().size(), 4u);
  for (const char* name : {"map_reduce", "THIS", "IMAD", "image_processing"}) {
    EXPECT_NE(FindPipeline(name), nullptr) << name;
  }
  EXPECT_EQ(FindPipeline("nope"), nullptr);
}

TEST(PipelinesTest, StageFunctionsResolve) {
  for (const PipelineSpec& pipeline : AllPipelines()) {
    for (const PipelineStage& stage : pipeline.stages) {
      EXPECT_NE(FindFunction(stage.function), nullptr)
          << pipeline.name << "/" << stage.function;
    }
  }
}

TEST(PipelinesTest, ChunkingCoversInput) {
  const PipelineSpec* mr = FindPipeline("map_reduce");
  EXPECT_EQ(mr->NumChunks(MiB(30)), 60);
  EXPECT_EQ(mr->NumChunks(KiB(100)), 1);
  EXPECT_EQ(mr->NumChunks(0), 1);
  EXPECT_EQ(mr->NumChunks(KiB(513)), 2);
}

TEST(PipelinesTest, LastStageIsFanIn) {
  for (const PipelineSpec& pipeline : AllPipelines()) {
    EXPECT_EQ(pipeline.stages.back().fixed_tasks, 1) << pipeline.name;
  }
}

}  // namespace
}  // namespace ofc::workloads
