// Fault tolerance walkthrough (§6.1): OFC's cache survives a worker crash,
// and when the whole cache path degrades the proxy's circuit breaker routes
// traffic around it (DESIGN.md §10).
//
// Act 1 — node crash: objects are cached with one in-memory master copy and
// on-disk backup replicas on other nodes. When a node fail-stops, the
// surviving nodes promote their backups to masters (partitioned, parallel
// recovery), so cached data stays available — and the external-consistency
// machinery (shadow objects + persistors) guarantees the RSDS never serves
// stale payloads either way.
//
// Act 2 — cache-path brownout: consecutive cache failures trip the breaker
// open; reads serve RSDS-direct (the no-cache baseline path) until half-open
// probes find the cache healthy again and close it.
//
// Run: ./build/examples/fault_tolerance
#include <cstdio>
#include <string>

#include "src/core/proxy.h"
#include "src/ramcloud/cluster.h"
#include "src/sim/event_loop.h"
#include "src/store/object_store.h"

using namespace ofc;

namespace {

const char* BreakerStateName(core::Proxy::BreakerState state) {
  switch (state) {
    case core::Proxy::BreakerState::kClosed:
      return "closed";
    case core::Proxy::BreakerState::kOpen:
      return "open";
    case core::Proxy::BreakerState::kHalfOpen:
      return "half-open";
  }
  return "?";
}

void BreakerDemo() {
  std::printf("\n--- Act 2: cache-path circuit breaker ---\n");
  sim::EventLoop loop;
  store::ObjectStore rsds(&loop, sim::LatencyProfiles::SwiftRequest(), Rng(1), "swift",
                          sim::LatencyProfiles::SwiftControl());
  rc::ClusterOptions cluster_options;
  cluster_options.default_capacity = GiB(1);
  cluster_options.replication_factor = 1;
  rc::Cluster cluster(&loop, 2, cluster_options, Rng(2));
  core::ProxyOptions proxy_options;
  proxy_options.breaker_failure_threshold = 3;
  proxy_options.breaker_open_duration = Seconds(5);
  proxy_options.breaker_half_open_probes = 2;
  core::Proxy proxy(&loop, &cluster, &rsds, proxy_options);

  faas::InvocationContext ctx;
  ctx.worker = 0;
  ctx.function = "demo";
  ctx.should_cache = true;
  auto read = [&](const std::string& key) {
    bool ok = false;
    proxy.Read(ctx, key, [&ok](Result<Bytes> r) { ok = r.ok(); });
    loop.Run();
    return ok;
  };
  for (int i = 0; i < 8; ++i) {
    rsds.Seed("media/" + std::to_string(i), MiB(1), {});
  }

  // The cache path browns out for 3 simulated seconds: every cache op fails,
  // but functions keep getting their data from the RSDS underneath.
  proxy.InjectCacheFaultUntil(loop.now() + Seconds(3));
  for (int i = 0; i < 4; ++i) {
    const bool ok = read("media/" + std::to_string(i));
    std::printf("read %d during brownout: %s; breaker %s\n", i,
                ok ? "served (RSDS)" : "FAILED",
                BreakerStateName(proxy.breaker_state()));
  }
  std::printf("breaker tripped after %d consecutive cache failures; %llu read(s)\n"
              "bypassed the sick cache entirely while open.\n",
              proxy_options.breaker_failure_threshold,
              static_cast<unsigned long long>(
                  proxy.metrics().CounterValue("ofc.breaker.bypassed_reads")));

  // Past the open window the fault has healed: probes succeed and it closes.
  loop.RunUntil(loop.now() + Seconds(6));
  for (int i = 4; i < 6; ++i) {
    read("media/" + std::to_string(i));
    std::printf("probe read %d: breaker %s\n", i,
                BreakerStateName(proxy.breaker_state()));
  }
  std::printf("breaker closed after %llu healthy probe(s); cache path restored\n"
              "(opens=%llu closes=%llu).\n",
              static_cast<unsigned long long>(proxy.metrics().CounterValue("ofc.breaker.probes")),
              static_cast<unsigned long long>(proxy.metrics().CounterValue("ofc.breaker.opens")),
              static_cast<unsigned long long>(proxy.metrics().CounterValue("ofc.breaker.closes")));
}

}  // namespace

int main() {
  sim::EventLoop loop;
  rc::ClusterOptions options;
  options.replication_factor = 2;
  options.default_capacity = GiB(1);
  rc::Cluster cluster(&loop, 4, options, Rng(3));

  // Populate the cache: 40 objects of 1-8 MiB mastered on node 0.
  Rng rng(9);
  Bytes total = 0;
  for (int i = 0; i < 40; ++i) {
    const Bytes size = MiB(rng.UniformInt(1, 8));
    total += size;
    cluster.Write(0, "obj/" + std::to_string(i), size, 1, rc::ObjectClass::kInput, false,
                  [](Status) {});
  }
  loop.Run();
  std::printf("Cached %zu objects (%s) with master copies on node 0;\n",
              cluster.NumObjects(), FormatBytes(total).c_str());
  std::printf("each object has %d on-disk backup replicas on other nodes.\n\n",
              options.replication_factor);

  // Fail-stop node 0.
  const rc::RecoveryResult recovery = cluster.CrashNode(0);
  std::printf("Node 0 crashed.\n");
  std::printf("  recovered objects : %zu\n", recovery.objects_recovered);
  std::printf("  lost objects      : %zu\n", recovery.objects_lost);
  std::printf("  recovery makespan : %s (parallel backup promotion)\n\n",
              FormatDuration(recovery.duration).c_str());

  // Every object is still readable from its new master.
  int readable = 0;
  for (int i = 0; i < 40; ++i) {
    cluster.Read(1, "obj/" + std::to_string(i), [&](Result<rc::ReadHit> obj) {
      readable += obj.ok();
    });
  }
  loop.Run();
  std::printf("Post-crash reads served from promoted masters: %d / 40\n", readable);

  // The node comes back empty and resumes its backup/master duties.
  cluster.RestartNode(0);
  bool rewrite_ok = false;
  cluster.Write(0, "obj/new", MiB(2), 1, rc::ObjectClass::kInput, false,
                [&](Status status) { rewrite_ok = status.ok(); });
  loop.Run();
  std::printf("Node 0 restarted; new writes placed on it again: %s\n",
              rewrite_ok ? "yes" : "no");

  BreakerDemo();
  return 0;
}
