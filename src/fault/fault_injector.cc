#include "src/fault/fault_injector.h"

#include <string>

#include "src/common/logging.h"

namespace ofc::fault {

FaultInjector::FaultInjector(sim::EventLoop* loop, FaultInjectorTargets targets,
                             FaultInjectorOptions options)
    : loop_(loop), targets_(targets) {
  metrics_ = options.metrics;
  if (metrics_ == nullptr) {
    owned_metrics_ = std::make_unique<obs::MetricsRegistry>();
    metrics_ = owned_metrics_.get();
  }
  emit_ = obs::Emitter(options.trace, options.flight, {obs::kPidFaults});
  injected_ = metrics_->GetCounter("ofc.fault.injected");
  healed_ = metrics_->GetCounter("ofc.fault.healed");
  active_ = metrics_->GetGauge("ofc.fault.active");
}

Status FaultInjector::Schedule(const FaultPlan& plan) {
  const int num_workers = targets_.platform != nullptr ? targets_.platform->num_workers() : 0;
  const int num_nodes = targets_.cluster != nullptr ? targets_.cluster->num_nodes() : 0;
  OFC_RETURN_IF_ERROR(plan.Validate(num_workers, num_nodes));
  for (const FaultEvent& event : plan.events) {
    switch (event.kind) {
      case FaultKind::kWorkerCrash:
        if (targets_.platform == nullptr) {
          return FailedPreconditionError("plan crashes a worker but no platform is wired");
        }
        break;
      case FaultKind::kNodeCrash:
        if (targets_.cluster == nullptr) {
          return FailedPreconditionError("plan crashes a node but no cluster is wired");
        }
        break;
      case FaultKind::kMachineCrash:
        if (targets_.platform == nullptr || targets_.cluster == nullptr) {
          return FailedPreconditionError(
              "plan crashes a machine but platform/cluster are not both wired");
        }
        break;
      case FaultKind::kStoreOutage:
      case FaultKind::kStoreBrownout:
      case FaultKind::kWebhookDrop:
        if (targets_.rsds == nullptr) {
          return FailedPreconditionError("plan perturbs the store but no RSDS is wired");
        }
        break;
      case FaultKind::kPersistorDrop:
        if (targets_.proxy == nullptr) {
          return FailedPreconditionError("plan drops persistors but no proxy is wired");
        }
        break;
      case FaultKind::kCacheDegraded:
        if (targets_.proxy == nullptr) {
          return FailedPreconditionError("plan degrades the cache but no proxy is wired");
        }
        break;
      case FaultKind::kCorruptReplica:
      case FaultKind::kCorruptSegment:
        if (targets_.cluster == nullptr) {
          return FailedPreconditionError(
              "plan corrupts cache copies but no cluster is wired");
        }
        break;
      case FaultKind::kStoreRot:
        if (targets_.rsds == nullptr) {
          return FailedPreconditionError("plan rots the store but no RSDS is wired");
        }
        break;
    }
  }
  for (const FaultEvent& event : plan.events) {
    loop_->ScheduleAt(event.at, [this, event] { Fire(event); });
  }
  return OkStatus();
}

void FaultInjector::Fire(const FaultEvent& event) {
  const std::uint64_t fault_id = next_fault_id_++;
  ++*injected_;
  metrics_->GetCounter("ofc.fault.injected_by_kind",
                       std::string(FaultKindName(event.kind)))
      ->Add(1);
  active_->Add(1.0);
  emit_.Emit({.kind = obs::FlightEventKind::kFaultInject, .time = loop_->now(), .parent = fault_id,
              .worker = event.target, .subject = FaultKindName(event.kind)});
  switch (event.kind) {
    case FaultKind::kWorkerCrash:
      if (++worker_crash_depth_[event.target] == 1) {
        targets_.platform->CrashWorker(event.target);
      }
      break;
    case FaultKind::kNodeCrash:
      if (++node_crash_depth_[event.target] == 1) {
        (void)targets_.cluster->CrashNode(event.target);
      }
      break;
    case FaultKind::kMachineCrash:
      // Invoker first (in-flight work re-dispatches), then its storage server.
      if (++worker_crash_depth_[event.target] == 1) {
        targets_.platform->CrashWorker(event.target);
      }
      if (++node_crash_depth_[event.target] == 1) {
        (void)targets_.cluster->CrashNode(event.target);
      }
      break;
    case FaultKind::kStoreOutage:
      ++outage_depth_;
      targets_.rsds->SetAvailable(false);
      break;
    case FaultKind::kStoreBrownout:
      ++brownout_depth_;
      targets_.rsds->SetLatencyFactor(event.severity);
      break;
    case FaultKind::kPersistorDrop:
      targets_.proxy->InjectPersistorDropUntil(loop_->now() + event.duration);
      break;
    case FaultKind::kCacheDegraded:
      targets_.proxy->InjectCacheFaultUntil(loop_->now() + event.duration);
      break;
    case FaultKind::kWebhookDrop:
      ++webhook_drop_depth_;
      targets_.rsds->SetWebhooksEnabled(false);
      break;
    case FaultKind::kCorruptReplica:
      metrics_->GetCounter("ofc.fault.objects_corrupted")
          ->Add(static_cast<std::uint64_t>(targets_.cluster->CorruptReplica(
              event.target, static_cast<int>(event.severity))));
      break;
    case FaultKind::kCorruptSegment:
      metrics_->GetCounter("ofc.fault.objects_corrupted")
          ->Add(static_cast<std::uint64_t>(targets_.cluster->CorruptSegment(
              event.target, static_cast<int>(event.severity))));
      break;
    case FaultKind::kStoreRot:
      metrics_->GetCounter("ofc.fault.objects_corrupted")
          ->Add(static_cast<std::uint64_t>(
              targets_.rsds->Rot(static_cast<int>(event.severity))));
      break;
  }
  if (event.kind == FaultKind::kCorruptReplica ||
      event.kind == FaultKind::kCorruptSegment || event.kind == FaultKind::kStoreRot) {
    // Corruption fires and completes in the same instant — the damage outlives
    // the event, but there is no open window for `ofc.fault.active` to track.
    active_->Add(-1.0);
  }
  if (event.duration > 0) {
    loop_->ScheduleAfter(event.duration, [this, event, fault_id] { Heal(event, fault_id); });
  }
}

void FaultInjector::Heal(const FaultEvent& event, std::uint64_t fault_id) {
  ++*healed_;
  active_->Add(-1.0);
  emit_.Emit({.kind = obs::FlightEventKind::kFaultHeal, .time = loop_->now(), .parent = fault_id,
              .worker = event.target, .subject = FaultKindName(event.kind)});
  switch (event.kind) {
    case FaultKind::kWorkerCrash:
      if (--worker_crash_depth_[event.target] == 0) {
        targets_.platform->RestoreWorker(event.target);
      }
      break;
    case FaultKind::kNodeCrash:
      if (--node_crash_depth_[event.target] == 0) {
        targets_.cluster->RestartNode(event.target);
      }
      break;
    case FaultKind::kMachineCrash:
      if (--node_crash_depth_[event.target] == 0) {
        targets_.cluster->RestartNode(event.target);
      }
      if (--worker_crash_depth_[event.target] == 0) {
        targets_.platform->RestoreWorker(event.target);
      }
      break;
    case FaultKind::kStoreOutage:
      if (--outage_depth_ == 0) {
        targets_.rsds->SetAvailable(true);
      }
      break;
    case FaultKind::kStoreBrownout:
      if (--brownout_depth_ == 0) {
        targets_.rsds->SetLatencyFactor(1.0);
      }
      break;
    case FaultKind::kPersistorDrop:
    case FaultKind::kCacheDegraded:
      break;  // The window expires on its own.
    case FaultKind::kWebhookDrop:
      if (--webhook_drop_depth_ == 0) {
        targets_.rsds->SetWebhooksEnabled(true);
      }
      break;
    case FaultKind::kCorruptReplica:
    case FaultKind::kCorruptSegment:
    case FaultKind::kStoreRot:
      // Unreachable: Validate rejects corruption events with a duration, so no
      // heal is ever scheduled — repair belongs to scrub/self-healing reads.
      break;
  }
}

}  // namespace ofc::fault
