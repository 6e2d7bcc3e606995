// An OpenWhisk-style FaaS platform (§2.1) as a discrete-event model.
//
// Reproduced behaviours:
//   * Controller + Loadbalancer: requests route to an idle warm sandbox of the
//     same function when one exists; otherwise a new sandbox is created
//     immediately (no queueing behind long-running requests). The default home
//     worker is hash(function, tenant) % workers, probed linearly for capacity.
//   * Invoker/sandbox lifecycle: Docker-like sandboxes with cold-start latency,
//     per-sandbox memory limits (cgroup), a keep-alive timeout (600 s in OWK),
//     one invocation at a time per sandbox, and no cross-function reuse.
//   * OOM semantics (§5.3.1): an invocation whose actual footprint exceeds its
//     sandbox limit is killed and retried once with the tenant-booked memory —
//     unless the Monitor hook rescues it by raising the cap mid-flight
//     (only possible for invocations running >= 3 s).
//   * ETL phases: Extract reads every input object through a DataService,
//     Transform consumes the workload model's compute time, Load writes the
//     outputs. Per-phase durations are measured into InvocationRecord.
//   * Pipelines (§2.1 "sequences"): barrier-synchronized stages with fan-out /
//     fan-in tasks over chunked objects.
//
// OFC integrates exclusively through two seams, mirroring the paper's
// color-filled boxes in Figure 4: DataService (the Proxy/rclib interposition)
// and PlatformHooks (Predictor/Sizer/Monitor/ModelTrainer + routing policy).
#ifndef OFC_FAAS_PLATFORM_H_
#define OFC_FAAS_PLATFORM_H_

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/common/record_pool.h"
#include "src/common/recycling_pool.h"
#include "src/common/rng.h"
#include "src/common/status.h"
#include "src/common/units.h"
#include "src/obs/emitter.h"
#include "src/obs/metrics.h"
#include "src/sim/event_loop.h"
#include "src/workloads/functions.h"
#include "src/workloads/pipelines.h"

namespace ofc::faas {

struct PlatformOptions {
  int num_workers = 4;
  Bytes worker_memory = GiB(8);        // Invoker memory pool (sandboxes + cache).
  Bytes min_sandbox_memory = MiB(64);  // Smallest configurable limit in OWK.
  Bytes max_sandbox_memory = GiB(2);   // OWK's permitted-allocation ceiling.
  SimDuration keep_alive = Seconds(600);        // OWK default.
  SimDuration cold_start = Millis(180);         // Container cold start under load.
  SimDuration dispatch_overhead = Millis(8);    // Empty-function e2e time (§6.4).
  SimDuration cgroup_resize = Micros(23800);    // docker update total (§7.2.1).
  SimDuration retry_delay = Millis(10);
  // ---- Overload protection (bounded admission & load shedding) -----------------
  // All limits default to 0 = disabled, preserving the unbounded behaviour.
  // A request that cannot be admitted — the wait queue is at `max_queue_depth`,
  // or it has been queued for `queue_deadline` — is *shed*: completed exactly
  // once with `failed` set and `final_status == kResourceExhausted`, instead of
  // parking in the queue forever.
  std::size_t max_queue_depth = 0;       // Wait-queue slots (0 = unbounded).
  SimDuration queue_deadline = 0;        // Max queue wait (0 = no deadline).
  int max_concurrency_per_function = 0;  // Running invocations per function.
  int max_concurrency_per_tenant = 0;    // Running invocations per tenant.
  // Observability sinks (src/obs/). When `metrics` is null the platform owns a
  // private registry (standalone construction in unit tests); `trace` may stay
  // null — lifecycle spans are then skipped entirely; `flight` may stay null —
  // black-box lifecycle records are then skipped entirely.
  obs::MetricsRegistry* metrics = nullptr;
  obs::TraceRecorder* trace = nullptr;
  obs::FlightRecorder* flight = nullptr;
};

struct FunctionConfig {
  workloads::FunctionSpec spec;
  std::string tenant = "default";
  Bytes booked_memory = GiB(2);
  // Dense per-platform function index, assigned at registration (1, 2, ...).
  // 0 = not registered. Rides along in InvocationContext / InvocationRecord so
  // hot-path metric-cell lookups index a vector instead of hashing the name.
  std::uint32_t fn_index = 0;
};

// One input object of an invocation: its store key plus the descriptive
// metadata (tags) that the platform fetched alongside the function metadata.
struct InputObject {
  std::string key;
  workloads::MediaDescriptor media;
};

struct InvocationRecord {
  std::uint64_t id = 0;
  std::string function;
  std::uint32_t fn_index = 0;  // FunctionConfig::fn_index (0 = unregistered).
  int worker = -1;
  bool cold_start = false;
  bool oom_killed = false;   // At least one OOM kill occurred (before retry).
  bool oom_rescued = false;  // Monitor raised the cap mid-flight.
  bool failed = false;       // Unrecoverable (retry also failed).
  bool shed = false;         // Rejected by overload protection (never ran).
  // Terminal disposition: kOk on success, kResourceExhausted when shed,
  // kInternal for execution failures. Lets callers tell load shedding apart
  // from genuine failures without string matching.
  StatusCode final_status = StatusCode::kOk;
  int retries = 0;
  SimDuration startup_time = 0;  // Dispatch + (cold start | warm reuse).
  SimDuration extract_time = 0;
  SimDuration compute_time = 0;
  SimDuration load_time = 0;
  SimDuration total = 0;  // Request arrival to completion.
  Bytes memory_limit = 0;  // Final sandbox limit the invocation ran under.
  Bytes memory_used = 0;   // Actual peak footprint (ground truth).
  Bytes input_bytes = 0;
  Bytes output_bytes = 0;
  bool should_cache = false;  // Sizing decision that applied to this run.
  // Output object produced by the Load phase (pipeline drivers chain on it).
  std::string output_key;
  workloads::MediaDescriptor output_media;
};

struct PipelineRecord {
  std::uint64_t id = 0;
  std::string pipeline;
  bool failed = false;
  SimDuration total = 0;
  // Sums over all stage tasks (Figure 7 reports stacked E/T/L contributions).
  SimDuration extract_time = 0;
  SimDuration compute_time = 0;
  SimDuration load_time = 0;
  std::size_t num_tasks = 0;
};

// Context handed to the data plane for every read/write.
struct InvocationContext {
  std::uint64_t invocation_id = 0;
  std::string function;
  // FunctionConfig::fn_index — a per-read fast path for data services that
  // cache per-function metric cells (0 = unassigned; name lookup applies).
  // Hand-built contexts may leave it 0; consumers must validate `function`
  // before trusting a cached slot.
  std::uint32_t fn_index = 0;
  int worker = -1;
  std::uint64_t pipeline_id = 0;  // 0 for single-stage invocations.
  bool final_stage = true;
  bool should_cache = false;
};

// Data-plane interposition point (the paper's Proxy seam). Implementations:
// DirectDataService (OWK-Swift / OWK-Redis baselines) and core::Proxy (OFC).
class DataService {
 public:
  virtual ~DataService() = default;
  // Reads `key`; reports the payload size once available to the function.
  virtual void Read(const InvocationContext& ctx, const std::string& key,
                    std::function<void(Result<Bytes>)> done) = 0;
  // Writes an output object of `size` bytes.
  virtual void Write(const InvocationContext& ctx, const std::string& key, Bytes size,
                     const workloads::MediaDescriptor& media,
                     std::function<void(Status)> done) = 0;
  // Fired when a pipeline's last stage completes (intermediate cleanup, §6.3).
  virtual void OnPipelineComplete(std::uint64_t pipeline_id) {
    (void)pipeline_id;
  }
};

// Idle-sandbox candidate handed to the routing policy.
struct SandboxInfo {
  std::uint64_t sandbox_id = 0;
  int worker = -1;
  Bytes current_limit = 0;
  SimTime last_used = 0;
};

// Sandbox memory accounting event. The scheduler reserves the tenant-*booked*
// memory for every sandbox (vanilla OWK behaviour); the Sizer sets the actual
// cgroup limit. The hoardable amount — what OFC's cache may use — is the
// booked-but-unused difference (§2.2.1's "wasted memory").
struct SandboxMemoryEvent {
  int worker = -1;
  Bytes booked = 0;
  Bytes old_limit = 0;
  Bytes new_limit = 0;
  Bytes old_hoard() const { return std::max<Bytes>(0, old_limit == 0 ? 0 : booked - old_limit); }
  Bytes new_hoard() const { return std::max<Bytes>(0, new_limit == 0 ? 0 : booked - new_limit); }
};

// Control-plane seam (the paper's Predictor / Sizer / Monitor / routing
// changes). The default implementation reproduces vanilla OWK.
class PlatformHooks {
 public:
  virtual ~PlatformHooks() = default;

  struct Sizing {
    Bytes memory_limit = 0;     // Sandbox limit for this invocation.
    bool should_cache = false;  // Caching-benefit prediction (§5.2).
  };

  // Memory sizing for one invocation. Default: the tenant-booked memory.
  virtual Sizing SizeInvocation(const FunctionConfig& fn,
                                const std::vector<InputObject>& inputs,
                                const std::vector<double>& args);

  // Picks among idle warm sandboxes (§6.5 criteria). `candidates` is non-empty.
  // Default: most recently used.
  virtual std::size_t PickSandbox(const std::vector<SandboxInfo>& candidates,
                                  Bytes wanted_limit,
                                  const std::vector<InputObject>& inputs);

  // Picks the worker for a new sandbox from `candidates` (workers with
  // capacity, home-first order). Default: first candidate.
  virtual int PickWorkerForNewSandbox(const FunctionConfig& fn,
                                      const std::vector<InputObject>& inputs,
                                      const std::vector<int>& candidates);

  // Sandbox memory changed on a worker (creation: old_limit == 0; destruction:
  // new_limit == 0). OFC's CacheAgent hoards/releases the booked-minus-limit
  // difference here.
  virtual void OnSandboxMemoryChange(const SandboxMemoryEvent& event);

  // Monitor seam: may raise a running invocation's limit to `needed`.
  // `expected_compute` gates the >= 3 s monitoring rule. Default: never.
  virtual bool TryRaiseMemory(int worker, Bytes current_limit, Bytes needed,
                              SimDuration expected_compute);

  // Completion feedback (ModelTrainer seam).
  virtual void OnInvocationComplete(const FunctionConfig& fn,
                                    const std::vector<InputObject>& inputs,
                                    const std::vector<double>& args,
                                    const InvocationRecord& record);
};

class Platform {
 public:
  using InvokeCallback = std::function<void(const InvocationRecord&)>;
  using PipelineCallback = std::function<void(const PipelineRecord&)>;

  // `data` must outlive the platform; `hooks` may be null (vanilla OWK).
  Platform(sim::EventLoop* loop, PlatformOptions options, DataService* data,
           PlatformHooks* hooks, Rng rng);

  Status RegisterFunction(FunctionConfig config);
  const FunctionConfig* GetFunction(const std::string& name) const;

  // Invokes a single-stage function.
  void Invoke(const std::string& function, std::vector<InputObject> inputs,
              std::vector<double> args, InvokeCallback done);

  // Runs a pipeline over pre-chunked input objects.
  void InvokePipeline(const workloads::PipelineSpec& spec, std::vector<InputObject> chunks,
                      PipelineCallback done);

  // ---- Worker fail-stop (§6.1: OWK retries failed/timed-out invocations) -------

  // Crashes a worker: its sandboxes disappear, in-flight invocations on it are
  // aborted and retried on surviving workers, and the load balancer stops
  // placing work there until RestoreWorker().
  void CrashWorker(int worker);
  void RestoreWorker(int worker);
  bool WorkerAlive(int worker) const {
    return worker_alive_[static_cast<std::size_t>(worker)];
  }

  // ---- Introspection -----------------------------------------------------------

  int num_workers() const { return options_.num_workers; }
  const PlatformOptions& options() const { return options_; }
  // Memory reserved by sandboxes on a worker. As in OpenWhisk, the scheduler
  // accounts the tenant-booked amount per sandbox, regardless of the (possibly
  // smaller) cgroup limit the Sizer applied.
  Bytes SandboxReserved(int worker) const;
  Bytes WorkerFree(int worker) const;
  std::size_t NumSandboxes(int worker) const;
  std::size_t NumIdleSandboxes(const std::string& function) const;
  obs::MetricsRegistry& metrics() { return *metrics_; }

  // Aggregate media descriptor for demand evaluation over multiple inputs; also
  // used by hooks that need one descriptor for feature extraction.
  static workloads::MediaDescriptor AggregateMedia(const std::vector<InputObject>& inputs);

 private:
  struct Sandbox {
    std::uint64_t id = 0;
    std::uint32_t fn_index = 0;  // FunctionConfig::fn_index of its function.
    int worker = -1;
    bool busy = false;
    Bytes booked = 0;  // Scheduler reservation (tenant-configured).
    Bytes limit = 0;   // Actual cgroup limit (Sizer-controlled).
    SimTime last_used = 0;
    sim::EventLoop::EventId keepalive_event = 0;
  };

  static constexpr std::size_t kNotInFlight = static_cast<std::size_t>(-1);

  struct Request {
    std::uint64_t id = 0;
    std::string function;
    // Resolved at first dispatch (null until then); functions_ never erases,
    // so the pointer stays valid for the request's lifetime.
    const FunctionConfig* fn = nullptr;
    std::vector<InputObject> inputs;
    std::vector<double> args;
    InvokeCallback done;
    SimTime arrival = 0;
    int retries = 0;
    bool oom_killed = false;
    Bytes forced_limit = 0;  // Retry path: run with the booked memory.
    std::uint64_t pipeline_id = 0;
    bool final_stage = true;
    bool has_demand = false;
    workloads::InvocationDemand demand;  // Fixed at first dispatch (retries reuse it).
    // Bumped when the running worker crashes, so the stale execution's pending
    // continuations are discarded while the request is re-dispatched.
    std::uint64_t crash_epoch = 0;
    int running_worker = -1;
    // The running attempt, reset by RunOnSandbox except for its output key
    // ("out/<function>/<id>" unless a pipeline names it), which is built once
    // per request. Its event-loop continuations capture only (this, request,
    // crash_epoch) and find everything else here.
    InvocationRecord record;
    std::uint64_t sandbox_id = 0;
    std::size_t next_input = 0;  // Extract cursor: the next input to read.
    SimTime extract_start = 0;
    // Admission bookkeeping: first wait-queue entry time (0 = never queued)
    // and the absolute shed-if-still-queued instant (0 = no deadline armed).
    SimTime first_queued = 0;
    SimTime queue_deadline_at = 0;
    bool queue_wait_recorded = false;  // Observe queue_wait_ms at most once.
    std::size_t in_flight_slot = kNotInFlight;  // Its slot in in_flight_ while running.
  };

  // One data-service call in flight: what its completion needs to resume the
  // request. Pooled, so the completion handed to the DataService captures
  // only (this, record): 16 trivially copyable bytes, which std::function
  // keeps in its local buffer.
  struct PendingIo {
    std::shared_ptr<Request> request;
    std::uint64_t epoch = 0;  // The request's crash epoch when the call began.
    std::size_t input = 0;    // Extract: the input being read.
    SimTime load_start = 0;   // Load: when the write began.
  };

  // Registry cells (counters and the phase-latency series); bumped on the hot
  // path through cached pointers.
  struct Metrics {
    obs::Counter* invocations = nullptr;
    obs::Counter* cold_starts = nullptr;
    obs::Counter* warm_starts = nullptr;
    obs::Counter* oom_kills = nullptr;
    obs::Counter* oom_rescues = nullptr;
    obs::Counter* failed_invocations = nullptr;
    obs::Counter* retries = nullptr;
    obs::Counter* sandbox_reclaims = nullptr;  // Idle sandboxes evicted for capacity.
    obs::Counter* queued_requests = nullptr;
    obs::Counter* worker_crashes = nullptr;
    obs::Counter* worker_restores = nullptr;
    obs::Counter* crash_retries = nullptr;  // Invocations re-dispatched after a crash.
    obs::Counter* input_bytes = nullptr;
    obs::Counter* output_bytes = nullptr;
    obs::Counter* shed_queue_full = nullptr;  // ofc.overload.shed{queue_full}
    obs::Counter* shed_deadline = nullptr;    // ofc.overload.shed{deadline}
    obs::Series* queue_wait_ms = nullptr;     // Wait-queue residence on dispatch/shed.
    obs::Series* startup_ms = nullptr;
    obs::Series* extract_ms = nullptr;
    obs::Series* transform_ms = nullptr;
    obs::Series* load_ms = nullptr;
    obs::Series* total_ms = nullptr;
  };
  // Per-function label cells, cached so the hot path pays one hash lookup.
  struct FnMetrics {
    obs::Counter* invocations = nullptr;
    obs::Counter* cold_starts = nullptr;
    obs::Series* total_ms = nullptr;
  };
  FnMetrics& FnMetricsFor(const std::string& function);
  // Index fast path: record/context fn_index values are platform-assigned, so
  // a non-zero index resolves through fn_metrics_by_index_ without hashing
  // `function`; 0 (unregistered function) falls back to the name lookup.
  FnMetrics& FnMetricsAt(std::uint32_t fn_index, const std::string& function);
  void RecordCompletion(const InvocationRecord& record);

  void InvokeInternal(std::shared_ptr<Request> request);

  void Dispatch(std::shared_ptr<Request> request);
  void RunOnSandbox(std::shared_ptr<Request> request, Sandbox* sandbox,
                    PlatformHooks::Sizing sizing, bool cold, SimDuration startup);
  // ETL phases of the running attempt. Extract issues the next input read, or
  // ends the phase once every input has arrived; Transform applies the memory
  // check and computes; Load writes the output.
  void Extract(std::shared_ptr<Request> request);
  void OnInputRead(PendingIo& io, const Result<Bytes>& size);
  void Transform(std::shared_ptr<Request> request);
  void Load(std::shared_ptr<Request> request);
  void OnOutputWritten(PendingIo& io, const Status& status);
  // Moves the request out of `io` and returns the record to the pool.
  std::shared_ptr<Request> TakeRequest(PendingIo& io);
  // in_flight_ bookkeeping: a running request holds one slot.
  void AddInFlight(const std::shared_ptr<Request>& request);
  void RemoveInFlight(Request& request);
  InvocationContext ContextFor(const Request& request) const;
  void FinishInvocation(std::shared_ptr<Request> request);
  void FailAndMaybeRetry(std::shared_ptr<Request> request);
  void ReleaseSandbox(std::uint64_t sandbox_id);
  void DestroySandbox(std::uint64_t sandbox_id);
  // Add an idle sandbox to, or remove it from, its function's idle index.
  void IndexIdle(Sandbox* sandbox);
  void UnindexIdle(const Sandbox& sandbox);
  void ArmKeepAlive(Sandbox* sandbox);
  Sandbox* FindSandbox(std::uint64_t id);
  // Reserves capacity for a new sandbox on some worker; may reclaim idle
  // sandboxes. Returns worker id or -1 (request must wait).
  int PlaceNewSandbox(const FunctionConfig& fn, const std::vector<InputObject>& inputs,
                      Bytes limit);
  void SetSandboxLimit(Sandbox* sandbox, Bytes new_limit);
  int HomeWorker(const FunctionConfig& fn) const;
  void DrainWaitQueue();

  // ---- Overload protection (see PlatformOptions) -------------------------------
  // Queues `request` unless the wait queue is at capacity or the request's
  // deadline has passed (both shed). Arms the queue deadline on first entry.
  void EnqueueOrShed(std::shared_ptr<Request> request);
  // Queue-deadline event: sheds the request iff it is still waiting.
  void ShedExpired(std::uint64_t request_id);
  // Completes `request` with kResourceExhausted without running it.
  void Shed(std::shared_ptr<Request> request, obs::Counter* cell, const char* reason);
  // True when dispatching `fn` now would exceed a concurrency limit.
  bool OverConcurrencyLimit(const FunctionConfig& fn) const;
  // Concurrency accounting paired with in_flight_ insert (+1) / erase (-1).
  void TrackRunning(const Request& request, int delta);

  sim::EventLoop* loop_;
  PlatformOptions options_;
  DataService* data_;
  PlatformHooks* hooks_;  // Never null; defaults installed when none given.
  std::unique_ptr<PlatformHooks> default_hooks_;
  Rng rng_;

  std::map<std::string, FunctionConfig> functions_;
  // std::map: Sandbox addresses must stay stable across insertions because
  // async completions re-resolve by id while other sandboxes are created, and
  // idle_by_function_ points at its nodes.
  std::map<std::uint64_t, Sandbox> sandboxes_;
  // idle_by_function_[fn_index]: that function's idle sandboxes in ascending
  // id, so that dispatch scans no sandboxes_. Its order is the order of the
  // candidates Dispatch hands PickSandbox; limit and last_used are read live
  // through the pointer. It changes only when a sandbox turns idle
  // (ReleaseSandbox) or busy (the warm pick), or goes away (DestroySandbox,
  // CrashWorker). Reclaim still scans sandboxes_: it runs only under memory
  // pressure.
  std::vector<std::vector<Sandbox*>> idle_by_function_;
  std::vector<Bytes> worker_reserved_;
  std::vector<bool> worker_alive_;
  std::uint64_t crash_epoch_ = 0;
  // Requests currently executing, for crash-time abort/retry, by slot; free
  // slots are empty and listed in free_in_flight_.
  std::vector<std::shared_ptr<Request>> in_flight_;
  std::vector<std::size_t> free_in_flight_;
  RecordPool<PendingIo> pending_io_;
  // PickSandbox's candidates, rebuilt in place by every warm dispatch.
  std::vector<SandboxInfo> pick_candidates_;
  std::deque<std::shared_ptr<Request>> wait_queue_;
  bool drain_scheduled_ = false;
  // Running-invocation counts behind the per-function / per-tenant concurrency
  // limits. Only maintained when a limit is configured.
  std::map<std::string, int> running_per_function_;
  std::map<std::string, int> running_per_tenant_;
  std::unique_ptr<obs::MetricsRegistry> owned_metrics_;  // When none injected.
  obs::MetricsRegistry* metrics_ = nullptr;
  obs::Emitter emit_;
  Metrics m_;
  // Node-based: fn_metrics_by_index_ holds pointers into it, so cell addresses
  // must stay stable as functions are added.
  std::map<std::string, FnMetrics> fn_metrics_;
  // fn_index → cell pointers into fn_metrics_.
  std::vector<FnMetrics*> fn_metrics_by_index_;
  std::uint32_t next_fn_index_ = 1;
  // Request blocks are recycled: completion frees into the pool and the next
  // Invoke() reuses the block, so a request costs no allocation of its own.
  // Each Request is constructed afresh, though: its strings and vectors
  // allocate again for every invocation when they outgrow their inline size.
  RecyclingPool<Request> request_pool_;
  std::uint64_t next_invocation_id_ = 1;
  std::uint64_t next_sandbox_id_ = 1;
  std::uint64_t next_pipeline_id_ = 1;
};

}  // namespace ofc::faas

#endif  // OFC_FAAS_PLATFORM_H_
