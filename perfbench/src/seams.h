// Wall-clock attribution at the platform's two seams, measured from outside.
//
// The platform talks to OFC (or to the baseline store) only through
// faas::DataService and faas::PlatformHooks. The traced run wraps both in the
// decorators below, and wraps the `done` continuations they hand back to the
// platform, so every call into a layer and every resumption of platform code
// opens a span. A span's self time is its wall time minus the wall time of the
// spans nested inside it. The decorators only forward: the simulated run they
// wrap is identical to the untraced one, which the fingerprint gate checks.
#ifndef OFC_PERFBENCH_SEAMS_H_
#define OFC_PERFBENCH_SEAMS_H_

#include <array>
#include <chrono>  // simlint: allow(wall-clock) -- the benchmark measures the simulator's own wall time
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/faas/platform.h"
#include "src/sim/event_loop.h"

namespace ofc::perfbench {

inline std::int64_t WallNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())  // simlint: allow(wall-clock) -- benchmark self-timing
      .count();
}

// Who the code inside a span belongs to.
enum class Span : int {
  kDriver,          // The benchmark's own arrival and completion handlers.
  kPlatformInvoke,  // Platform::Invoke / InvokePipeline.
  kPlatformResume,  // Platform code resumed by a DataService continuation.
  kProxyRead,       // DataService::Read (core::Proxy or DirectDataService).
  kProxyWrite,      // DataService::Write.
  kProxyOther,      // DataService::OnPipelineComplete.
  kMlPredict,       // PlatformHooks::SizeInvocation (Predictor + Sizer).
  kMlTrain,         // PlatformHooks::OnInvocationComplete (ModelTrainer).
  kCacheAgent,      // OnSandboxMemoryChange / TryRaiseMemory.
  kRouting,         // PickSandbox / PickWorkerForNewSandbox.
  kObs,             // Timeline scrape + SLO evaluation.
  kCount,
};

// A stack of open spans. Single-threaded, like the simulator.
class Tracer {
 public:
  void Begin() { stack_.push_back(Frame{WallNs(), 0}); }

  // Closes the innermost span as `span`; returns its full wall time.
  std::int64_t End(Span span) {
    const std::int64_t now = WallNs();
    const Frame frame = stack_.back();
    stack_.pop_back();
    const std::int64_t wall = now - frame.start;
    const auto i = static_cast<std::size_t>(span);
    self_ns_[i] += wall - frame.child;
    ++calls_[i];
    if (!stack_.empty()) {
      stack_.back().child += wall;
    } else if (in_step_) {
      step_covered_ns_ += wall;
    }
    return wall;
  }

  // Brackets one EventLoop::Step(); seam spans opened inside it count as
  // covered, the rest of the step's wall time is unattributed.
  void set_in_step(bool in_step) { in_step_ = in_step; }

  std::int64_t self_ns(Span span) const { return self_ns_[static_cast<std::size_t>(span)]; }
  std::uint64_t calls(Span span) const { return calls_[static_cast<std::size_t>(span)]; }
  std::int64_t step_covered_ns() const { return step_covered_ns_; }

 private:
  struct Frame {
    std::int64_t start;
    std::int64_t child;  // Wall time of directly nested spans.
  };
  std::vector<Frame> stack_;
  std::array<std::int64_t, static_cast<std::size_t>(Span::kCount)> self_ns_{};
  std::array<std::uint64_t, static_cast<std::size_t>(Span::kCount)> calls_{};
  std::int64_t step_covered_ns_ = 0;
  bool in_step_ = false;
};

// Times the DataService seam and the platform continuations it resumes, and
// records each call's simulated latency (call to `done`).
class TimedDataService : public faas::DataService {
 public:
  TimedDataService(faas::DataService* inner, sim::EventLoop* loop, Tracer* tracer)
      : inner_(inner), loop_(loop), tracer_(tracer) {}

  void Read(const faas::InvocationContext& ctx, const std::string& key,
            std::function<void(Result<Bytes>)> done) override;
  void Write(const faas::InvocationContext& ctx, const std::string& key, Bytes size,
             const workloads::MediaDescriptor& media, std::function<void(Status)> done) override;
  void OnPipelineComplete(std::uint64_t pipeline_id) override;

  const std::vector<double>& read_sim_ms() const { return read_sim_ms_; }
  const std::vector<double>& write_sim_ms() const { return write_sim_ms_; }
  Bytes read_bytes() const { return read_bytes_; }
  Bytes written_bytes() const { return written_bytes_; }
  // Sum of the sizes of the distinct keys read successfully.
  Bytes distinct_read_bytes() const { return distinct_read_bytes_; }

 private:
  faas::DataService* inner_;
  sim::EventLoop* loop_;
  Tracer* tracer_;
  std::vector<double> read_sim_ms_;
  std::vector<double> write_sim_ms_;
  Bytes read_bytes_ = 0;
  Bytes written_bytes_ = 0;
  Bytes distinct_read_bytes_ = 0;
  std::unordered_map<std::string, Bytes> read_keys_;
};

// Times the PlatformHooks seam, one span kind per OFC component behind it.
class TimedHooks : public faas::PlatformHooks {
 public:
  TimedHooks(faas::PlatformHooks* inner, Tracer* tracer) : inner_(inner), tracer_(tracer) {}

  Sizing SizeInvocation(const faas::FunctionConfig& fn,
                        const std::vector<faas::InputObject>& inputs,
                        const std::vector<double>& args) override;
  std::size_t PickSandbox(const std::vector<faas::SandboxInfo>& candidates, Bytes wanted_limit,
                          const std::vector<faas::InputObject>& inputs) override;
  int PickWorkerForNewSandbox(const faas::FunctionConfig& fn,
                              const std::vector<faas::InputObject>& inputs,
                              const std::vector<int>& candidates) override;
  void OnSandboxMemoryChange(const faas::SandboxMemoryEvent& event) override;
  bool TryRaiseMemory(int worker, Bytes current_limit, Bytes needed,
                      SimDuration expected_compute) override;
  void OnInvocationComplete(const faas::FunctionConfig& fn,
                            const std::vector<faas::InputObject>& inputs,
                            const std::vector<double>& args,
                            const faas::InvocationRecord& record) override;

  // Wall time of every SizeInvocation call, in microseconds.
  const std::vector<double>& predict_us() const { return predict_us_; }

 private:
  faas::PlatformHooks* inner_;
  Tracer* tracer_;
  std::vector<double> predict_us_;
};

}  // namespace ofc::perfbench

#endif  // OFC_PERFBENCH_SEAMS_H_
