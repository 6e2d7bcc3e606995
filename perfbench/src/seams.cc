#include "perfbench/src/seams.h"

#include <utility>

namespace ofc::perfbench {

void TimedDataService::Read(const faas::InvocationContext& ctx, const std::string& key,
                            std::function<void(Result<Bytes>)> done) {
  tracer_->Begin();
  inner_->Read(ctx, key,
               [this, key, issued = loop_->now(), done = std::move(done)](Result<Bytes> result) {
                 // The bookkeeping is the benchmark's own cost.
                 tracer_->Begin();
                 read_sim_ms_.push_back(static_cast<double>(loop_->now() - issued) / 1e3);
                 if (result.ok()) {
                   read_bytes_ += result.value();
                   if (read_keys_.emplace(key, result.value()).second) {
                     distinct_read_bytes_ += result.value();
                   }
                 }
                 tracer_->End(Span::kDriver);
                 tracer_->Begin();
                 done(std::move(result));
                 tracer_->End(Span::kPlatformResume);
               });
  tracer_->End(Span::kProxyRead);
}

void TimedDataService::Write(const faas::InvocationContext& ctx, const std::string& key,
                             Bytes size, const workloads::MediaDescriptor& media,
                             std::function<void(Status)> done) {
  tracer_->Begin();
  written_bytes_ += size;
  inner_->Write(ctx, key, size, media,
                [this, issued = loop_->now(), done = std::move(done)](Status status) {
                  tracer_->Begin();
                  write_sim_ms_.push_back(static_cast<double>(loop_->now() - issued) / 1e3);
                  tracer_->End(Span::kDriver);
                  tracer_->Begin();
                  done(std::move(status));
                  tracer_->End(Span::kPlatformResume);
                });
  tracer_->End(Span::kProxyWrite);
}

void TimedDataService::OnPipelineComplete(std::uint64_t pipeline_id) {
  tracer_->Begin();
  inner_->OnPipelineComplete(pipeline_id);
  tracer_->End(Span::kProxyOther);
}

faas::PlatformHooks::Sizing TimedHooks::SizeInvocation(
    const faas::FunctionConfig& fn, const std::vector<faas::InputObject>& inputs,
    const std::vector<double>& args) {
  tracer_->Begin();
  const Sizing sizing = inner_->SizeInvocation(fn, inputs, args);
  predict_us_.push_back(static_cast<double>(tracer_->End(Span::kMlPredict)) / 1e3);
  return sizing;
}

std::size_t TimedHooks::PickSandbox(const std::vector<faas::SandboxInfo>& candidates,
                                    Bytes wanted_limit,
                                    const std::vector<faas::InputObject>& inputs) {
  tracer_->Begin();
  const std::size_t pick = inner_->PickSandbox(candidates, wanted_limit, inputs);
  tracer_->End(Span::kRouting);
  return pick;
}

int TimedHooks::PickWorkerForNewSandbox(const faas::FunctionConfig& fn,
                                        const std::vector<faas::InputObject>& inputs,
                                        const std::vector<int>& candidates) {
  tracer_->Begin();
  const int worker = inner_->PickWorkerForNewSandbox(fn, inputs, candidates);
  tracer_->End(Span::kRouting);
  return worker;
}

void TimedHooks::OnSandboxMemoryChange(const faas::SandboxMemoryEvent& event) {
  tracer_->Begin();
  inner_->OnSandboxMemoryChange(event);
  tracer_->End(Span::kCacheAgent);
}

bool TimedHooks::TryRaiseMemory(int worker, Bytes current_limit, Bytes needed,
                                SimDuration expected_compute) {
  tracer_->Begin();
  const bool raised = inner_->TryRaiseMemory(worker, current_limit, needed, expected_compute);
  tracer_->End(Span::kCacheAgent);
  return raised;
}

void TimedHooks::OnInvocationComplete(const faas::FunctionConfig& fn,
                                      const std::vector<faas::InputObject>& inputs,
                                      const std::vector<double>& args,
                                      const faas::InvocationRecord& record) {
  tracer_->Begin();
  inner_->OnInvocationComplete(fn, inputs, args, record);
  tracer_->End(Span::kMlTrain);
}

}  // namespace ofc::perfbench
