// Latency models for storage and network transfers.
//
// Every data-path cost in the simulation reduces to: fixed per-operation latency
// plus size divided by bandwidth, optionally jittered. Profiles below are
// calibrated so the baselines reproduce the paper's measurements (Figure 3 E&L
// fractions, §7.2.1 micro-latencies).
#ifndef OFC_SIM_LATENCY_H_
#define OFC_SIM_LATENCY_H_

#include "src/common/rng.h"
#include "src/common/units.h"

namespace ofc::sim {

// Fixed + size-proportional latency with multiplicative jitter.
struct LatencyModel {
  SimDuration base = 0;              // Per-operation fixed cost.
  double bytes_per_second = 1e12;    // Transfer bandwidth.
  double jitter_fraction = 0.0;      // Uniform in [1-j, 1+j] applied to the total.

  // Cost of moving `size` bytes in one operation. `rng` may be null for a
  // deterministic (jitter-free) cost.
  SimDuration Cost(Bytes size, Rng* rng = nullptr) const;
};

// Catalogue of calibrated profiles.
//
// The RSDS profiles model a Swift/S3-style object store front end: tens of
// milliseconds of request latency and modest per-stream bandwidth, which makes
// E&L dominate small-object function time (Figure 3). The Redis profile models a
// co-located ElastiCache-style IMOC. RAMCloud profiles model kernel-bypass RTTs
// from the RAMCloud paper, scaled to the testbed's 10 GbE.
struct LatencyProfiles {
  // Remote shared data store, Swift deployment used in §7 (same switch).
  static LatencyModel SwiftRequest() {
    return LatencyModel{Millis(18), 120e6, 0.05};
  }
  // AWS S3-style RSDS used in the §2.2.3 motivation experiment.
  static LatencyModel S3Request() {
    return LatencyModel{Millis(28), 80e6, 0.10};
  }
  // Metadata-only (control) operations: Swift's shadow-object persist measures
  // a constant ~11 ms (§7.2.1).
  static LatencyModel SwiftControl() { return LatencyModel{Millis(11), 0.0, 0.05}; }
  // Redis IMOC (ElastiCache in §2.2.3, OWK-Redis baseline in §7.2).
  static LatencyModel RedisRequest() {
    return LatencyModel{Micros(350), 1.1e9, 0.05};
  }
  // RAMCloud access from the same node (loopback + in-memory copy).
  static LatencyModel RamcloudLocal() {
    return LatencyModel{Micros(120), 4.5e9, 0.03};
  }
  // RAMCloud access across the 10 GbE switch.
  static LatencyModel RamcloudRemote() {
    return LatencyModel{Micros(280), 1.05e9, 0.03};
  }
  // Backup (SSD) reads used during recovery / backup promotion. Calibrated to
  // the paper's migration times: 0.18 ms @ 8 MB ... 13.5 ms @ 1 GB, i.e. mostly
  // bandwidth-bound at ~75 GB/s effective (page-cache-warm reads).
  static LatencyModel BackupDiskRead() {
    return LatencyModel{Micros(70), 75e9, 0.05};
  }
  // Backup (SSD) writes on the persistence path.
  static LatencyModel BackupDiskWrite() {
    return LatencyModel{Micros(90), 1.4e9, 0.05};
  }
};

}  // namespace ofc::sim

#endif  // OFC_SIM_LATENCY_H_
