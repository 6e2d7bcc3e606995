// Quickstart: the smallest end-to-end OFC setup.
//
// Builds an OFC environment (OpenWhisk-style platform + RAMCloud cache + Swift
// RSDS), registers one image function, pretrains its models, and invokes it
// twice on the same input — the first invocation misses the cache (and admits
// the object), the second is a local RAM hit. Compare the Extract phases.
//
// Run: ./build/examples/quickstart
#include <cstdio>

#include "src/faasload/environment.h"
#include "src/faasload/injector.h"

using namespace ofc;

int main() {
  // 1. One call builds the whole stack wired together (Figure 4 of the paper):
  //    controller hooks (Predictor/Sizer/Monitor), per-worker cache instances,
  //    the data-plane proxy, and the backing object store.
  faasload::EnvironmentOptions options;
  options.platform.num_workers = 4;
  options.platform.worker_memory = GiB(8);
  options.seed = 7;
  faasload::Environment env(faasload::Mode::kOfc, options);

  // 2. Register a function the way a tenant would: code (here: a workload
  //    model) plus a booked memory size.
  const workloads::FunctionSpec* blur = workloads::FindFunction("wand_blur");
  faas::FunctionConfig config;
  config.spec = *blur;
  config.tenant = "alice";
  config.booked_memory = GiB(2);  // Generously overbooked -- OFC hoards the rest.
  if (!env.platform().RegisterFunction(config).ok()) {
    return 1;
  }

  // 3. Warm up the ML models offline (the artifact ships pretrained models; a
  //    production deployment matures them online after ~100-450 invocations).
  Rng rng(13);
  Rng pretrain_rng = rng.Fork();
  env.ofc()->trainer().Pretrain(*blur, 1000, pretrain_rng);

  // 4. Upload an input image to the object store.
  workloads::MediaGenerator generator(rng.Fork());
  const workloads::MediaDescriptor photo =
      generator.GenerateWithByteSize(workloads::InputKind::kImage, KiB(512));
  env.rsds().Seed("photos/cat.jpg", photo.byte_size, faas::MediaToTags(photo));

  // 5. Invoke twice; the platform reports per-phase timings.
  auto invoke = [&](const char* label) {
    faas::InvocationRecord record;
    bool done = false;
    env.platform().Invoke("wand_blur", {faas::InputObject{"photos/cat.jpg", photo}},
                          {3.0},  // blur sigma
                          [&](const faas::InvocationRecord& r) {
                            record = r;
                            done = true;
                          });
    while (!done && env.loop().Step()) {
    }
    std::printf("%-18s E=%-10s T=%-10s L=%-10s total=%-10s limit=%s\n", label,
                FormatDuration(record.extract_time).c_str(),
                FormatDuration(record.compute_time).c_str(),
                FormatDuration(record.load_time).c_str(),
                FormatDuration(record.total).c_str(),
                FormatBytes(record.memory_limit).c_str());
    return record;
  };

  std::printf("Invoking wand_blur on a %s image (booked 2 GiB):\n\n",
              FormatBytes(photo.byte_size).c_str());
  invoke("cold + cache miss");
  invoke("warm + cache hit");

  // Every component counts into the environment's metrics registry.
  const obs::MetricsRegistry& m = env.metrics();
  std::printf("\nCache: %llu hit(s), %llu miss(es), %llu admission(s)\n",
              static_cast<unsigned long long>(m.CounterValue("ofc.proxy.cache_hits")),
              static_cast<unsigned long long>(m.CounterValue("ofc.proxy.cache_misses")),
              static_cast<unsigned long long>(m.CounterValue("ofc.proxy.admissions")));
  std::printf("Predicted sandbox size came from the ML model: %s\n",
              m.CounterValue("ofc.predictor.model_predictions") > 0 ? "yes" : "no");
  return 0;
}
