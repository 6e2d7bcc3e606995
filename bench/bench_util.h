// Shared helpers for the reproduction benches: fixed-width table printing and
// simple correlation statistics. Every bench binary regenerates one table or
// figure from the paper and prints it in a comparable textual form.
#ifndef OFC_BENCH_BENCH_UTIL_H_
#define OFC_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "src/common/units.h"
#include "src/obs/metrics.h"

namespace ofc::bench {

// Observability export flags for a bench that threads a MetricsRegistry
// through its runs: it accepts --metrics-json=PATH --metrics-csv=PATH and
// dumps machine-readable snapshots next to its textual table. Any other
// argument prints a usage line and exits 2.
struct ObsFlags {
  std::string metrics_json;
  std::string metrics_csv;
};

inline ObsFlags ParseObsFlags(int argc, char** argv) {
  ObsFlags flags;
  auto match = [](const char* arg, const char* name, std::string* out) {
    const std::size_t len = std::strlen(name);
    if (std::strncmp(arg, name, len) == 0 && arg[len] == '=') {
      *out = arg + len + 1;
      return true;
    }
    return false;
  };
  for (int i = 1; i < argc; ++i) {
    if (!match(argv[i], "--metrics-json", &flags.metrics_json) &&
        !match(argv[i], "--metrics-csv", &flags.metrics_csv)) {
      std::fprintf(stderr, "unknown argument %s\nusage: %s [--metrics-json=PATH] "
                   "[--metrics-csv=PATH]\n", argv[i], argv[0]);
      std::exit(2);
    }
  }
  return flags;
}

// Writes the requested snapshots; unset paths are skipped.
inline void ExportObs(const ObsFlags& flags, const obs::MetricsRegistry& metrics,
                      SimTime now) {
  auto write = [](const std::string& path, const std::string& body) {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return;
    }
    std::fwrite(body.data(), 1, body.size(), f);
    std::fclose(f);
  };
  if (!flags.metrics_json.empty()) {
    write(flags.metrics_json, metrics.SnapshotJson(now));
  }
  if (!flags.metrics_csv.empty()) {
    write(flags.metrics_csv, metrics.SnapshotCsv(now));
  }
}

// Prints a banner naming the experiment being reproduced.
inline void Banner(const std::string& title, const std::string& paper_ref) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("Reproduces: %s\n", paper_ref.c_str());
  std::printf("================================================================\n");
}

class Table {
 public:
  explicit Table(std::vector<std::string> headers) : headers_(std::move(headers)) {}

  void AddRow(std::vector<std::string> row) { rows_.push_back(std::move(row)); }

  void Print() const {
    std::vector<std::size_t> widths(headers_.size(), 0);
    for (std::size_t c = 0; c < headers_.size(); ++c) {
      widths[c] = headers_[c].size();
    }
    for (const auto& row : rows_) {
      for (std::size_t c = 0; c < row.size() && c < widths.size(); ++c) {
        widths[c] = std::max(widths[c], row[c].size());
      }
    }
    auto print_row = [&](const std::vector<std::string>& row) {
      for (std::size_t c = 0; c < row.size(); ++c) {
        std::printf("%-*s  ", static_cast<int>(widths[c]), row[c].c_str());
      }
      std::printf("\n");
    };
    print_row(headers_);
    std::string rule;
    for (std::size_t c = 0; c < headers_.size(); ++c) {
      rule.append(widths[c], '-');
      rule.append("  ");
    }
    std::printf("%s\n", rule.c_str());
    for (const auto& row : rows_) {
      print_row(row);
    }
  }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

inline std::string Fmt(const char* format, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), format, value);
  return buf;
}

// Pearson correlation coefficient; 0 when degenerate.
inline double Pearson(const std::vector<double>& x, const std::vector<double>& y) {
  if (x.size() != y.size() || x.size() < 2) {
    return 0.0;
  }
  const double n = static_cast<double>(x.size());
  double sx = 0;
  double sy = 0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    sx += x[i];
    sy += y[i];
  }
  const double mx = sx / n;
  const double my = sy / n;
  double sxy = 0;
  double sxx = 0;
  double syy = 0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    sxy += (x[i] - mx) * (y[i] - my);
    sxx += (x[i] - mx) * (x[i] - mx);
    syy += (y[i] - my) * (y[i] - my);
  }
  if (sxx <= 0 || syy <= 0) {
    return 0.0;
  }
  return sxy / std::sqrt(sxx * syy);
}

}  // namespace ofc::bench

#endif  // OFC_BENCH_BENCH_UTIL_H_
