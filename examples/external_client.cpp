// External-client consistency walkthrough (§6.2): a non-FaaS application reads
// and writes the object store directly while OFC's cache holds newer data.
//
// Demonstrates the shadow-object + webhook machinery:
//   1. A function writes its output: the store gets a shadow (empty
//      placeholder, new version); the payload sits in the RAM cache.
//   2. An external reader hits the store *before* the persistor ran: the read
//      webhook blocks the request, boosts the persistor, and only then serves
//      the (now current) payload — the reader can never observe stale data.
//   3. An external writer updates an object that is cached: the write webhook
//      invalidates the cached copy first, so functions re-fetch the new data.
//
// Run: ./build/examples/external_client
#include <cstdio>

#include "src/faasload/environment.h"
#include "src/faasload/injector.h"

using namespace ofc;

int main() {
  faasload::EnvironmentOptions options;
  options.platform.num_workers = 2;
  options.seed = 77;
  faasload::Environment env(faasload::Mode::kOfc, options);

  const workloads::FunctionSpec* spec = workloads::FindFunction("wand_sepia");
  faas::FunctionConfig config;
  config.spec = *spec;
  config.tenant = "shared-bucket-app";
  config.booked_memory = GiB(2);
  if (!env.platform().RegisterFunction(config).ok()) {
    return 1;
  }
  Rng rng(5);
  Rng pretrain_rng = rng.Fork();
  env.ofc()->trainer().Pretrain(*spec, 1000, pretrain_rng);

  workloads::MediaGenerator generator(rng.Fork());
  const workloads::MediaDescriptor photo =
      generator.GenerateWithByteSize(workloads::InputKind::kImage, KiB(512));
  env.rsds().Seed("bucket/in.jpg", photo.byte_size, faas::MediaToTags(photo));

  // 1. Run the function; stop the clock right at its completion, before the
  //    asynchronous persistor fires.
  std::string output_key;
  bool done = false;
  env.platform().Invoke("wand_sepia", {faas::InputObject{"bucket/in.jpg", photo}}, {0.4},
                        [&](const faas::InvocationRecord& record) {
                          output_key = record.output_key;
                          done = true;
                        });
  while (!done && env.loop().Step()) {
  }
  const auto meta = env.rsds().Stat(output_key);
  std::printf("function completed; store holds version %llu (payload present: %s)\n",
              static_cast<unsigned long long>(meta->latest_version),
              meta->IsShadow() ? "no - shadow only" : "yes");

  // 2. External read: the webhook must deliver the real payload.
  bool served = false;
  env.rsds().ExternalRead(output_key, [&](Result<store::ObjectMetadata> doc) {
    std::printf("external read served: size=%s, shadow=%s (persistor was boosted)\n",
                FormatBytes(doc->size).c_str(), doc->IsShadow() ? "yes" : "no");
    served = true;
  });
  while (!served && env.loop().Step()) {
  }

  // 3. External write to the (cached) input invalidates the cached copy.
  std::printf("\ncached input before external write: %s\n",
              env.cluster()->Contains("bucket/in.jpg") ? "yes" : "no");
  bool written = false;
  env.rsds().ExternalWrite("bucket/in.jpg", KiB(700), [&](Status) { written = true; });
  while (!written && env.loop().Step()) {
  }
  std::printf("cached input after external write:  %s (invalidated)\n",
              env.cluster()->Contains("bucket/in.jpg") ? "yes" : "no");
  const obs::MetricsRegistry& m = env.metrics();
  std::printf("external-read persistor boosts: %llu, invalidations: %llu\n",
              static_cast<unsigned long long>(m.CounterValue("ofc.proxy.external_read_boosts")),
              static_cast<unsigned long long>(
                  m.CounterValue("ofc.proxy.external_write_invalidations")));
  return 0;
}
