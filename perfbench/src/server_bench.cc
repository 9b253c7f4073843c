// certify-hot and certify-churn: podsd driven over the wire by PodsClient
// connections against an in-process PodsDaemon, every answer checked
// against an in-process CertifyWorkflowBatch reference.
//
// Traced runs add two phases after an untraced one: the same traffic with
// client-side spans (recording the request frames), then an in-process
// replay of those frames through HandleFrame and, layer by layer, through
// the sequence HandleCertify / HandleRegister use. The replay's bytes must
// equal HandleFrame's (the drift guard), so the per-layer times describe
// the work the wire requests did.
#include <algorithm>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/bitset64.h"
#include "common/exec_control.h"
#include "common/rng.h"
#include "common/task_graph.h"
#include "generators/random_workflow.h"
#include "privacy/standalone_privacy.h"
#include "privacy/verdict_cache.h"
#include "privacy/workflow_privacy.h"
#include "secureview/serialization.h"
#include "server/admission.h"
#include "server/client.h"
#include "server/daemon.h"
#include "server/handler.h"
#include "server/protocol.h"
#include "server/registry.h"
#include "server/stats.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace provview;

constexpr int kPoolSize = 256;
constexpr const char* kRandName = "random-100";
/// certify-churn owner cycle shape.
constexpr int kChurnWorkflows = 64;
constexpr int kBatchesPerCycle = 4;
constexpr int kItemsPerBatch = 32;
constexpr double kDoomedShare = 0.125;
/// How long before a light request's due time its generator stops sleeping
/// and spins.
constexpr std::chrono::microseconds kLightSpin{300};
/// Frames kept per thread for the traced replay.
constexpr size_t kMaxReplayFrames = 20000;
/// Owner cycles replayed layer by layer on certify-churn.
constexpr int kReplayCycles = 4;


// ---------------------------------------------------------------- fixtures --

/// A certification item with its expected verdict.
struct PoolItem {
  std::string workflow;
  CertifyItem item;
  PrivacyCertificate want;
};

RandomWorkflowOptions HundredModuleOptions() {
  // The E10 layered shape at ~100 modules: cheap to certify per module,
  // but every item looks up 100 private-module verdicts.
  RandomWorkflowOptions o;
  o.num_modules = 100;
  o.num_layers = 6;
  o.min_inputs = 2;
  o.max_inputs = 3;
  o.max_outputs = 2;
  o.gamma_bound = 3;
  o.reuse_probability = 0.8;
  return o;
}

RandomWorkflowOptions WideModuleOptions() {
  // The bench_memo shape: wide modules (up to 2^8-row relations) make every
  // cold item pay real Algorithm-2 row passes.
  RandomWorkflowOptions o;
  o.num_modules = 8;
  o.min_inputs = 6;
  o.max_inputs = 8;
  o.max_outputs = 3;
  return o;
}

CertifyItem RandomItem(const Workflow& wf, Rng* rng, int64_t gamma) {
  CertifyItem item;
  item.gamma = gamma;
  for (int a : wf.used_attrs().ToVector()) {
    if (rng->NextBernoulli(0.5)) item.hidden_attrs.push_back(static_cast<uint32_t>(a));
  }
  return item;
}

WorkflowCertificationRequest ToRequest(const Workflow& wf,
                                       const CertifyItem& item) {
  WorkflowCertificationRequest r;
  r.gamma = item.gamma;
  r.hidden = Bitset64(wf.catalog()->size());
  for (uint32_t a : item.hidden_attrs) r.hidden.Set(static_cast<int>(a));
  return r;
}

/// In-process reference verdicts: a private cache, one thread.
std::vector<PrivacyCertificate> Reference(const Workflow& wf,
                                          const std::vector<CertifyItem>& items) {
  std::vector<WorkflowCertificationRequest> reqs;
  for (const CertifyItem& it : items) reqs.push_back(ToRequest(wf, it));
  WorkflowBatchOptions opts;
  opts.num_threads = 1;
  WorkflowBatchResult res = CertifyWorkflowBatch(wf, reqs, opts);
  std::vector<PrivacyCertificate> out;
  for (WorkflowBatchEntry& e : res.entries) out.push_back(std::move(e.certificate));
  return out;
}

bool SameEntry(const CertifyEntry& got, const PrivacyCertificate& want) {
  if (got.certified != want.certified) return false;
  if (got.module_gammas != want.module_gammas) return false;
  if (got.required_privatizations.size() != want.required_privatizations.size()) {
    return false;
  }
  for (size_t i = 0; i < got.required_privatizations.size(); ++i) {
    if (got.required_privatizations[i] !=
        static_cast<uint32_t>(want.required_privatizations[i])) {
      return false;
    }
  }
  return true;
}

/// The hot pool: (workflow, Γ, hidden set) items over the five built-ins
/// and one REGISTERed ~100-module random workflow, with reference verdicts.
struct HotFixture {
  WorkflowRegistry builtins;  // reference copies of the daemon's built-ins
  GeneratedWorkflow random;
  std::string random_bytes;
  std::vector<PoolItem> pool;

  const Workflow& Get(const std::string& name) const {
    if (name == kRandName) return *random.workflow;
    return *builtins.Find(name)->workflow;
  }
};

void BuildHotFixture(uint64_t seed, HotFixture* fx) {
  fx->builtins.RegisterBuiltins();
  Rng rng(seed * 0x9E3779B97F4A7C15ull + 0x686f74);
  fx->random = MakeRandomWorkflow(HundredModuleOptions(), &rng);
  PV_CHECK_MSG(SerializeWorkflowBinary(*fx->random.workflow, &fx->random_bytes).ok(),
               "serializing the random workflow failed");
  std::vector<std::string> names = fx->builtins.Names();
  names.push_back(kRandName);
  std::vector<std::vector<size_t>> by_wf(names.size());
  for (int i = 0; i < kPoolSize; ++i) {
    const size_t w = static_cast<size_t>(rng.NextBelow(names.size()));
    PoolItem p;
    p.workflow = names[w];
    p.item = RandomItem(fx->Get(p.workflow), &rng,
                        2 + static_cast<int64_t>(rng.NextBelow(3)));
    by_wf[w].push_back(fx->pool.size());
    fx->pool.push_back(std::move(p));
  }
  for (size_t w = 0; w < names.size(); ++w) {
    std::vector<CertifyItem> items;
    for (size_t i : by_wf[w]) items.push_back(fx->pool[i].item);
    std::vector<PrivacyCertificate> want = Reference(fx->Get(names[w]), items);
    for (size_t k = 0; k < by_wf[w].size(); ++k) {
      fx->pool[by_wf[w][k]].want = std::move(want[k]);
    }
  }
}

/// A running daemon over its own registry.
struct Served {
  std::unique_ptr<WorkflowRegistry> registry;
  std::unique_ptr<PodsDaemon> daemon;
};

Served StartServed(const VerdictCacheConfig& config) {
  Served s;
  s.registry = std::make_unique<WorkflowRegistry>(config);
  s.registry->RegisterBuiltins();
  s.daemon = std::make_unique<PodsDaemon>(s.registry.get());
  PV_CHECK_MSG(s.daemon->Start().ok(), "daemon failed to start");
  return s;
}

uint64_t StatValue(const StatSnapshot& snap, const std::string& key) {
  for (const auto& [k, v] : snap) {
    if (k == key) return v;
  }
  return 0;
}

StatSnapshot TakeStat(PodsClient* client) {
  StatSnapshot snap;
  PV_CHECK_MSG(client->Stat(&snap).ok(), "STAT failed");
  return snap;
}

/// One recorded request of a traced phase.
struct Frame {
  std::string bytes;
  MessageType type = MessageType::kCertify;
  double rtt_us = 0;
  bool doomed = false;
  int cycle = -1;  // owner frames: the cycle they belong to
};

/// Sends one request the way the typed PodsClient verbs do (encode, frame,
/// round trip). Traced calls split it into spans and keep the frame.
Status Call(PodsClient* client, MessageType type, const std::string& body,
            uint32_t request_id, std::string* payload, SpanBuffer* buf,
            uint64_t rid, std::vector<Frame>* frames, double* rtt_us) {
  ScopedSpan root(buf, "client.request", rid);
  std::string frame;
  {
    ScopedSpan s(buf, "client.encode", rid);
    frame = BuildRequestFrame(type, request_id, body);
  }
  const Clock::time_point t0 = Clock::now();
  Status st;
  {
    ScopedSpan s(buf, "client.round_trip", rid);
    st = client->RoundTrip(frame, payload);
  }
  *rtt_us = UsBetween(t0, Clock::now());
  if (frames != nullptr && frames->size() < kMaxReplayFrames) {
    Frame f;
    f.bytes = std::move(frame);
    f.type = type;
    f.rtt_us = *rtt_us;
    frames->push_back(std::move(f));
  }
  return st;
}

/// One single-item CERTIFY, checked against the pool reference. Returns the
/// round-trip latency in ms. `hits`/`checks` accumulate the response's
/// cache counters.
double CertifyOne(PodsClient* client, const PoolItem& p, uint32_t request_id,
                  Report* report, SpanBuffer* buf, uint64_t rid,
                  std::vector<Frame>* frames, uint64_t* hits,
                  uint64_t* checks) {
  CertifyRequest req;
  req.workflow = p.workflow;
  req.items.push_back(p.item);
  CertifyResponse resp;
  Status st;
  double rtt_us = 0;
  if (buf == nullptr) {
    const Clock::time_point t0 = Clock::now();
    st = client->Certify(req, /*batch=*/false, &resp);
    rtt_us = UsBetween(t0, Clock::now());
  } else {
    std::string body;
    {
      ScopedSpan s(buf, "client.encode", rid);
      EncodeCertifyRequest(req, /*batch=*/false, &body);
    }
    std::string payload;
    st = Call(client, MessageType::kCertify, body, request_id, &payload, buf,
              rid, frames, &rtt_us);
    if (st.ok()) {
      ScopedSpan s(buf, "client.decode", rid);
      st = DecodeCertifyResponse(payload, &resp);
    }
  }
  report->Attempt();
  if (!st.ok()) {
    report->Fail("CERTIFY " + p.workflow + ": " + st.ToString());
  } else if (resp.entries.size() != 1 || !SameEntry(resp.entries[0], p.want)) {
    report->Fail("CERTIFY " + p.workflow + ": verdict differs from reference");
  } else {
    *hits += resp.cache_hits;
    *checks += resp.checker_calls;
  }
  return rtt_us / 1e3;
}

// ------------------------------------------------------------------ replay --

/// Context of an in-process replay: a private stats block and admission gate
/// in the daemon's default configuration, over `registry`.
struct ReplayContext {
  DaemonStats stats;
  AdmissionController admission{PodsDaemon::Options().max_pending,
                                PodsDaemon::Options().memory_budget};
  RequestContext ctx;

  ReplayContext(WorkflowRegistry* registry, TaskGraphExecutor* executor) {
    ctx.registry = registry;
    ctx.stats = &stats;
    ctx.executor = executor;
    ctx.admission = &admission;
    ctx.reactor_threads = PodsDaemon::Options().reactor_threads;
    ctx.caller_helps = true;
  }
};

/// The HandleCertify sequence, one span per layer. Returns the response
/// frame and, through `items`/`checker_calls`, the work it did.
std::string ReplayCertify(const RequestContext& ctx, std::string_view frame,
                          SpanBuffer* buf, uint64_t rid, int64_t* items,
                          int64_t* checker_calls) {
  ScopedSpan root(buf, "replay.certify", rid);
  FrameHeader header;
  CertifyRequest req;
  Status decoded;
  {
    ScopedSpan s(buf, "protocol.decode", rid);
    decoded = DecodeFrameHeader(frame.substr(0, kFrameHeaderSize), &header);
    if (decoded.ok()) {
      decoded = DecodeCertifyRequest(
          frame.substr(kFrameHeaderSize),
          header.type == static_cast<uint16_t>(MessageType::kCertifyBatch), &req);
    }
  }
  if (!decoded.ok()) return BuildResponseFrame(header.type, header.request_id, decoded);
  std::shared_ptr<const RegisteredWorkflow> entry;
  {
    ScopedSpan s(buf, "registry.find", rid);
    entry = ctx.registry->Find(req.workflow);
  }
  if (entry == nullptr) {
    return BuildResponseFrame(
        header.type, header.request_id,
        Status::NotFound("unknown workflow '" + req.workflow + "'"));
  }
  const Workflow& workflow = *entry->workflow;
  std::vector<WorkflowCertificationRequest> requests;
  {
    ScopedSpan s(buf, "handler.prepare", rid);
    for (const CertifyItem& item : req.items) {
      requests.push_back(ToRequest(workflow, item));
    }
  }
  const int64_t units = static_cast<int64_t>(req.items.size()) + 1;
  Status admitted;
  {
    ScopedSpan s(buf, "admission.admit", rid);
    admitted = ctx.admission->Admit(units);
  }
  if (!admitted.ok()) return BuildResponseFrame(header.type, header.request_id, admitted);
  AdmissionSlot slot(ctx.admission, units);
  ExecControl control;
  if (req.deadline_ms > 0) control.set_deadline_ms(req.deadline_ms);
  if (req.memory_budget > 0) control.set_memory_budget(req.memory_budget);
  control.set_shared_budget(ctx.admission->memory());
  WorkflowBatchOptions opts;
  opts.control = &control;
  if (ctx.executor != nullptr) {
    opts.executor = ctx.executor;
    opts.num_threads = ctx.executor->num_threads() + (ctx.caller_helps ? 1 : 0);
  } else {
    opts.num_threads = 1;
  }
  WorkflowBatchResult result;
  {
    ScopedSpan s(buf, "workflow_privacy.certify_batch", rid);
    result = CertifyWorkflowBatch(workflow, requests, opts, entry->verdicts.get());
  }
  *items += static_cast<int64_t>(requests.size());
  *checker_calls += result.stats.checker_calls;
  if (!result.status.ok()) {
    return BuildResponseFrame(header.type, header.request_id, result.status);
  }
  ScopedSpan s(buf, "protocol.encode", rid);
  CertifyResponse resp;
  resp.checker_calls = static_cast<uint64_t>(result.stats.checker_calls);
  resp.cache_hits = static_cast<uint64_t>(result.stats.cache_hits);
  for (const WorkflowBatchEntry& e : result.entries) {
    CertifyEntry out;
    out.certified = e.certificate.certified;
    out.module_gammas = e.certificate.module_gammas;
    for (int m : e.certificate.required_privatizations) {
      out.required_privatizations.push_back(static_cast<uint32_t>(m));
    }
    resp.entries.push_back(std::move(out));
  }
  std::string payload;
  EncodeCertifyResponse(resp, &payload);
  return BuildResponseFrame(header.type, header.request_id, Status::OK(), payload);
}

/// The HandleRegister sequence, one span per layer.
std::string ReplayRegister(const RequestContext& ctx, std::string_view frame,
                           SpanBuffer* buf, uint64_t rid) {
  ScopedSpan root(buf, "replay.register", rid);
  FrameHeader header;
  RegisterRequest req;
  Status decoded;
  {
    ScopedSpan s(buf, "protocol.decode", rid);
    decoded = DecodeFrameHeader(frame.substr(0, kFrameHeaderSize), &header);
    if (decoded.ok()) decoded = DecodeRegisterRequest(frame.substr(kFrameHeaderSize), &req);
  }
  if (!decoded.ok()) return BuildResponseFrame(header.type, header.request_id, decoded);
  Status admitted;
  {
    ScopedSpan s(buf, "admission.admit", rid);
    admitted = ctx.admission->Admit(1);
  }
  if (!admitted.ok()) return BuildResponseFrame(header.type, header.request_id, admitted);
  AdmissionSlot slot(ctx.admission, 1);
  Result<WorkflowBundle> bundle = Status::Internal("unset");
  {
    ScopedSpan s(buf, "serialization.decode_workflow", rid);
    bundle = DeserializeWorkflowBinary(req.workflow_bytes);
  }
  if (!bundle.ok()) return BuildResponseFrame(header.type, header.request_id, bundle.status());
  RegisterResponse resp;
  resp.num_attrs = static_cast<uint32_t>(bundle.value().workflow->num_attrs());
  resp.num_modules = static_cast<uint32_t>(bundle.value().workflow->num_modules());
  resp.num_private_modules = static_cast<uint32_t>(
      bundle.value().workflow->PrivateModuleIndices().size());
  Status registered;
  {
    ScopedSpan s(buf, "registry.register", rid);
    registered = ctx.registry->TryRegister(req.name,
                                           std::move(bundle.value().catalog),
                                           std::move(bundle.value().workflow));
  }
  if (!registered.ok()) return BuildResponseFrame(header.type, header.request_id, registered);
  ScopedSpan s(buf, "protocol.encode", rid);
  std::string payload;
  EncodeRegisterResponse(resp, &payload);
  return BuildResponseFrame(header.type, header.request_id, Status::OK(), payload);
}

/// HandleFrame on the recorded frame, timed as its own span.
std::string HandleRecorded(const RequestContext& ctx, std::string_view frame,
                           SpanBuffer* buf, uint64_t rid, double* us) {
  FrameHeader header;
  PV_CHECK_MSG(DecodeFrameHeader(frame.substr(0, kFrameHeaderSize), &header).ok(),
               "recorded frame has a bad header");
  const Clock::time_point t0 = Clock::now();
  std::string out;
  {
    ScopedSpan s(buf, "handler.handle_frame", rid);
    out = HandleFrame(ctx, header, frame.substr(kFrameHeaderSize));
  }
  *us = UsBetween(t0, Clock::now());
  return out;
}

/// Replays single-item CERTIFY frames: HandleFrame, then the layer-by-layer
/// sequence, on `threads` threads against `ctx`. Adds the per-frame
/// round-trip minus HandleFrame time to `hop_us`.
void ReplayCertifyFrames(const RequestContext& ctx,
                         const std::vector<std::vector<Frame>>& frames,
                         std::vector<SpanBuffer>* bufs, Report* report,
                         Samples* hop_us) {
  std::vector<Samples> hops(frames.size());
  std::vector<std::thread> threads;
  for (size_t t = 0; t < frames.size(); ++t) {
    threads.emplace_back([&, t] {
      SpanBuffer* buf = &(*bufs)[t];
      uint64_t rid = (uint64_t{t} << 40) | (uint64_t{1} << 39);
      for (const Frame& f : frames[t]) {
        ++rid;
        double handle_us = 0;
        const std::string want = HandleRecorded(ctx, f.bytes, buf, rid, &handle_us);
        int64_t items = 0, checks = 0;
        const std::string got = ReplayCertify(ctx, f.bytes, buf, rid, &items, &checks);
        if (got != want) report->Fail("drift: layered CERTIFY replay differs from HandleFrame");
        hops[t].Add(f.rtt_us - handle_us);
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (const Samples& s : hops) hop_us->Append(s);
}

/// Cache counters between two STAT snapshots.
struct CacheDelta {
  double hit_rate = 0;
  double evictions = 0;
  double bytes = 0;
  double namespaces = 0;
};

CacheDelta CacheBetween(const StatSnapshot& a, const StatSnapshot& b) {
  auto d = [&](const char* key) {
    return static_cast<double>(StatValue(b, key)) - static_cast<double>(StatValue(a, key));
  };
  const double hits = d("verdict_cache_signature_hits") + d("verdict_cache_projection_hits");
  const double misses =
      d("verdict_cache_signature_misses") + d("verdict_cache_projection_misses");
  CacheDelta c;
  c.hit_rate = hits + misses > 0 ? hits / (hits + misses) : 0.0;
  c.evictions = d("verdict_cache_signature_evictions") + d("verdict_cache_projection_evictions");
  c.bytes = static_cast<double>(StatValue(b, "verdict_cache_bytes"));
  c.namespaces = static_cast<double>(StatValue(b, "verdict_cache_namespaces"));
  return c;
}

void SetCacheMetrics(Report* report, const CacheDelta& c) {
  report->Set("verdict_cache.hit_rate", c.hit_rate, "ratio");
  report->Set("verdict_cache.evictions", c.evictions, "count");
  report->Set("verdict_cache.bytes", c.bytes, "bytes");
  report->Set("verdict_cache.namespaces", c.namespaces, "count");
}

void SetAdmissionMetrics(Report* report, const StatSnapshot& a, const StatSnapshot& b) {
  report->Set("admission.rejected",
              static_cast<double>(StatValue(b, "admission_rejected") -
                                  StatValue(a, "admission_rejected")),
              "count");
  report->Set("admission.peak_depth",
              static_cast<double>(StatValue(b, "admission_peak_depth")), "count");
}

/// Sets the span-derived per-layer metrics of a CERTIFY replay.
void SetReplayLayers(Report* report, const std::map<std::string, SpanTotals>& spans) {
  auto self = [&](const char* name) {
    auto it = spans.find(name);
    return it == spans.end() ? 0.0 : it->second.MeanSelfUs();
  };
  report->Set("protocol.decode_us", self("protocol.decode"), "us");
  report->Set("protocol.encode_us", self("protocol.encode"), "us");
  report->Set("registry.find_us", self("registry.find"), "us");
  report->Set("admission.admit_us", self("admission.admit"), "us");
  report->Set("workflow_privacy.certify_batch_us", self("workflow_privacy.certify_batch"), "us");
  report->Set("handler.handle_frame_us", self("handler.handle_frame"), "us");
}

std::vector<const SpanBuffer*> Ptrs(const std::vector<SpanBuffer>& bufs) {
  std::vector<const SpanBuffer*> out;
  for (const SpanBuffer& b : bufs) out.push_back(&b);
  return out;
}

void DumpSpans(const Args& args, const std::vector<SpanBuffer>& bufs, Report* report) {
  const std::string path = args.out_dir + "/trace-" + args.workload + "-" +
                           std::to_string(args.seed) + ".json";
  size_t total = 0;
  for (const SpanBuffer& b : bufs) total += b.spans().size();
  WriteSpans(path, Ptrs(bufs), 200000);
  report->Set("trace.spans", static_cast<double>(total), "count");
  Line("trace: spans=%zu file=%s", total, path.c_str());
}

// -------------------------------------------------------------- certify-hot --

struct HotServer {
  Served served;
  std::vector<std::unique_ptr<PodsClient>> clients;
};

/// Starts a daemon, REGISTERs the random workflow and warms every pool
/// verdict over the wire. Returns the set-up seconds.
double SetUpHot(const HotFixture& fx, const VerdictCacheConfig& config,
                int connections, Report* report, HotServer* out) {
  const Clock::time_point t0 = Clock::now();
  out->served = StartServed(config);
  out->clients.clear();
  for (int c = 0; c < connections; ++c) {
    out->clients.push_back(std::make_unique<PodsClient>());
    PV_CHECK_MSG(out->clients.back()->Connect(out->served.daemon->port()).ok(),
                 "connect failed");
  }
  RegisterResponse rr;
  const Status reg = out->clients[0]->Register(kRandName, fx.random_bytes, &rr);
  report->Attempt();
  if (!reg.ok()) report->Fail("REGISTER " + std::string(kRandName) + ": " + reg.ToString());
  uint64_t hits = 0, checks = 0;
  for (const PoolItem& p : fx.pool) {
    CertifyOne(out->clients[0].get(), p, 0, report, nullptr, 0, nullptr, &hits, &checks);
  }
  return MsBetween(t0, Clock::now()) / 1e3;
}

struct LoopOut {
  explicit LoopOut(const Window& window) : latency_ms(window) {}
  int64_t ops = 0;
  double seconds = 0;
  Timeline latency_ms;
  uint64_t hits = 0, checks = 0;
};

/// Closed loop of single-item CERTIFYs on every client until the window
/// ends.
LoopOut HotLoop(HotServer* hs, const HotFixture& fx, uint64_t seed, const Window& window,
                Report* report, std::vector<SpanBuffer>* bufs,
                std::vector<std::vector<Frame>>* frames) {
  const size_t n = hs->clients.size();
  const Clock::time_point start = window.start();
  const Clock::time_point end = window.end();
  std::vector<LoopOut> per(n, LoopOut(window));
  std::vector<std::thread> threads;
  for (size_t t = 0; t < n; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(seed * 1000003 + t);
      SpanBuffer* buf = bufs == nullptr ? nullptr : &(*bufs)[t];
      std::vector<Frame>* fr = frames == nullptr ? nullptr : &(*frames)[t];
      uint32_t id = 1;
      uint64_t rid = uint64_t{t} << 40;
      while (Clock::now() < end) {
        const PoolItem& p = fx.pool[rng.NextBelow(fx.pool.size())];
        const double ms = CertifyOne(hs->clients[t].get(), p, id++, report, buf, ++rid, fr,
                                     &per[t].hits, &per[t].checks);
        per[t].latency_ms.Add(Clock::now(), ms);
        ++per[t].ops;
      }
    });
  }
  for (std::thread& th : threads) th.join();
  LoopOut out(window);
  out.seconds = MsBetween(start, Clock::now()) / 1e3;
  for (LoopOut& p : per) {
    out.ops += p.ops;
    out.latency_ms.Append(p.latency_ms);
    out.hits += p.hits;
    out.checks += p.checks;
  }
  return out;
}

}  // namespace

void RunCertifyHot(const Args& args, Report* report) {
  HotFixture fx;
  BuildHotFixture(args.seed, &fx);
  const int clients = ClientsOf(args.workload);
  Line("certify-hot: clients=%d pool=%d workflows=6 loop=closed", clients, kPoolSize);

  std::vector<double> setup_s;
  HotServer hs;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    hs = HotServer();
    setup_s.push_back(SetUpHot(fx, VerdictCacheConfig(), clients, report, &hs));
  }

  const double phase_a = args.trace ? args.seconds * 0.35 : args.seconds;
  const StatSnapshot s0 = TakeStat(hs.clients[0].get());
  Window wa(phase_a);
  LoopOut a = HotLoop(&hs, fx, args.seed, wa, report, nullptr, nullptr);
  wa.Finish();
  const StatSnapshot s1 = TakeStat(hs.clients[0].get());
  const double rps = a.ops / a.seconds;
  Samples all = a.latency_ms.Kept();
  const double p50 = all.Percentile(50), p90 = all.Percentile(90), p99 = all.Percentile(99);
  Line("certify-hot: requests=%lld seconds=%.3f certify_rps=%.1f certify_p50_ms=%.4f "
       "certify_p90_ms=%.4f certify_p99_ms=%.4f samples=%zu",
       static_cast<long long>(a.ops), a.seconds, rps, p50, p90, p99,
       static_cast<size_t>(a.latency_ms.count()));
  if (!args.trace) {
    SetEndToEnd(report, wa, nullptr, a.latency_ms, MedianOf(setup_s));
    return;
  }

  // Per-layer counters of the untraced phase.
  const double certs = static_cast<double>(StatValue(s1, "certify_requests") -
                                           StatValue(s0, "certify_requests"));
  const double bytes =
      static_cast<double>(StatValue(s1, "bytes_received") - StatValue(s0, "bytes_received") +
                          StatValue(s1, "bytes_sent") - StatValue(s0, "bytes_sent"));
  report->Set("protocol.bytes_per_req", certs > 0 ? bytes / certs : 0.0, "bytes");
  SetCacheMetrics(report, CacheBetween(s0, s1));
  SetAdmissionMetrics(report, s0, s1);
  report->Set("safety_memo.checker_calls_per_item",
              a.ops > 0 ? static_cast<double>(a.checks) / a.ops : 0.0, "count");

  // Traced wire phase, then the in-process replay of its frames.
  std::vector<SpanBuffer> wire_bufs(hs.clients.size());
  std::vector<std::vector<Frame>> frames(hs.clients.size());
  Window wb(args.seconds * 0.35);
  LoopOut b = HotLoop(&hs, fx, args.seed + 1, wb, report, &wire_bufs, &frames);
  wb.Finish();
  SetTraceOverhead(report, rps, b.ops / b.seconds);

  ReplayContext rc(hs.served.registry.get(), hs.served.daemon->executor());
  std::vector<SpanBuffer> replay_bufs(hs.clients.size());
  Samples hop;
  ReplayCertifyFrames(rc.ctx, frames, &replay_bufs, report, &hop);
  std::vector<SpanBuffer> spans = std::move(wire_bufs);
  for (SpanBuffer& r : replay_bufs) spans.push_back(std::move(r));
  SetReplayLayers(report, AggregateSpans(Ptrs(spans)));
  report->Set("reactor.hop_us", hop.Mean(), "us");
  Line("certify-hot: replayed=%zu reactor_hop_us_p50=%.2f", hop.size(), hop.Percentile(50));
  DumpSpans(args, spans, report);
}

// ------------------------------------------------------------ certify-churn --

namespace {

struct ChurnWorkflow {
  GeneratedWorkflow wf;
  std::string bytes;
  std::vector<std::vector<CertifyItem>> batches;
  std::vector<std::vector<PrivacyCertificate>> want;
};

struct ChurnFixture {
  HotFixture hot;
  std::vector<ChurnWorkflow> workflows;
  int64_t cache_budget = 0;
};

/// Measured bytes the hot pool's verdicts occupy in a fresh cache.
int64_t HotSetBytes(const HotFixture& fx) {
  auto cache = std::make_shared<VerdictCache>();
  std::vector<std::string> names = fx.builtins.Names();
  names.push_back(kRandName);
  for (const std::string& name : names) {
    const Workflow& wf = fx.Get(name);
    WorkflowCacheNamespace ns(wf, cache);
    std::vector<WorkflowCertificationRequest> reqs;
    for (const PoolItem& p : fx.pool) {
      if (p.workflow == name) reqs.push_back(ToRequest(wf, p.item));
    }
    WorkflowBatchOptions opts;
    opts.num_threads = 1;
    CertifyWorkflowBatch(wf, reqs, opts, &ns);
  }
  return cache->bytes_in_use();
}

void BuildChurnFixture(uint64_t seed, ChurnFixture* fx) {
  BuildHotFixture(seed, &fx->hot);
  // Room for the hot set several times over, so eviction pressure comes
  // from the churn traffic, which inserts far more than this per run.
  fx->cache_budget = std::max<int64_t>(8 * HotSetBytes(fx->hot), 256 << 10);
  Rng rng(seed * 0x2545F4914F6CDD1Dull + 0x636875);
  for (int w = 0; w < kChurnWorkflows; ++w) {
    ChurnWorkflow cw;
    cw.wf = MakeRandomWorkflow(WideModuleOptions(), &rng);
    PV_CHECK_MSG(SerializeWorkflowBinary(*cw.wf.workflow, &cw.bytes).ok(),
                 "serializing a churn workflow failed");
    for (int b = 0; b < kBatchesPerCycle; ++b) {
      std::vector<CertifyItem> items;
      for (int i = 0; i < kItemsPerBatch; ++i) items.push_back(RandomItem(*cw.wf.workflow, &rng, 2));
      cw.want.push_back(Reference(*cw.wf.workflow, items));
      cw.batches.push_back(std::move(items));
    }
    fx->workflows.push_back(std::move(cw));
  }
}

/// What the owner connection measured.
struct OwnerOut {
  explicit OwnerOut(const Window& window) : done(window) {}
  int64_t items = 0;
  int64_t cycles = 0;
  int64_t doomed = 0;
  int64_t doomed_tripped = 0;
  uint64_t checker_calls = 0;
  Timeline done;  // items of completed batches
  Samples batch_ms;
  Samples register_ms;
  double ns_delta_sum = 0;   // namespaces after - before UNREGISTER
  double bytes_delta_sum = 0;  // cache bytes after - before UNREGISTER
  double ns_before_last = 0, ns_after_last = 0;
};

/// The owner: REGISTER a fresh workflow, CERTIFY_BATCHes of distinct hidden
/// sets (a seeded share with a doomed deadline), UNREGISTER; repeat.
void OwnerLoop(PodsClient* client, const ChurnFixture& fx, uint64_t seed,
               Clock::time_point end, int cycle_base, Report* report,
               SpanBuffer* buf, std::vector<Frame>* frames, OwnerOut* out) {
  Rng rng(seed * 31 + 7);
  uint32_t id = 1;
  uint64_t rid = uint64_t{1} << 50;
  for (int cycle = cycle_base; Clock::now() < end; ++cycle) {
    const ChurnWorkflow& cw = fx.workflows[static_cast<size_t>(cycle) % fx.workflows.size()];
    const std::string name = "churn-" + std::to_string(cycle);
    const size_t first_frame = frames == nullptr ? 0 : frames->size();
    {
      RegisterRequest req;
      req.name = name;
      req.workflow_bytes = cw.bytes;
      std::string body;
      EncodeRegisterRequest(req, &body);
      std::string payload;
      double rtt_us = 0;
      const Status st = Call(client, MessageType::kRegister, body, id++, &payload, buf, ++rid,
                             frames, &rtt_us);
      report->Attempt();
      if (!st.ok()) {
        report->Fail("REGISTER " + name + ": " + st.ToString());
        continue;
      }
      out->register_ms.Add(rtt_us / 1e3);
    }
    for (int b = 0; b < kBatchesPerCycle; ++b) {
      CertifyRequest req;
      req.workflow = name;
      req.items = cw.batches[static_cast<size_t>(b)];
      const bool doomed = rng.NextBernoulli(kDoomedShare);
      if (doomed) req.deadline_ms = 1;
      std::string body;
      EncodeCertifyRequest(req, /*batch=*/true, &body);
      std::string payload;
      double rtt_us = 0;
      Status st = Call(client, MessageType::kCertifyBatch, body, id++, &payload, buf, ++rid,
                       frames, &rtt_us);
      if (frames != nullptr && !frames->empty()) frames->back().doomed = doomed;
      CertifyResponse resp;
      if (st.ok()) st = DecodeCertifyResponse(payload, &resp);
      report->Attempt();
      if (doomed) {
        ++out->doomed;
        if (st.code() == StatusCode::kDeadlineExceeded) {
          ++out->doomed_tripped;
          continue;  // the typed outcome a doomed request is owed
        }
      }
      if (!st.ok()) {
        report->Fail("CERTIFY_BATCH " + name + ": " + st.ToString());
        continue;
      }
      const std::vector<PrivacyCertificate>& want = cw.want[static_cast<size_t>(b)];
      bool same = resp.entries.size() == want.size();
      for (size_t i = 0; same && i < want.size(); ++i) same = SameEntry(resp.entries[i], want[i]);
      if (!same) {
        report->Fail("CERTIFY_BATCH " + name + ": verdicts differ from reference");
        continue;
      }
      out->items += static_cast<int64_t>(want.size());
      out->done.Add(Clock::now(), static_cast<double>(want.size()));
      out->checker_calls += resp.checker_calls;
      if (!doomed) out->batch_ms.Add(rtt_us / 1e3);
    }
    const StatSnapshot before = TakeStat(client);
    {
      std::string body;
      EncodeUnregisterRequest(name, &body);
      double rtt_us = 0;
      const Status st = Call(client, MessageType::kUnregister, body, id++, nullptr, buf, ++rid,
                             frames, &rtt_us);
      report->Attempt();
      if (!st.ok()) report->Fail("UNREGISTER " + name + ": " + st.ToString());
    }
    const StatSnapshot after = TakeStat(client);
    if (frames != nullptr) {
      for (size_t f = first_frame; f < frames->size(); ++f) (*frames)[f].cycle = cycle;
    }
    const double nb = static_cast<double>(StatValue(before, "verdict_cache_namespaces"));
    const double na = static_cast<double>(StatValue(after, "verdict_cache_namespaces"));
    out->ns_delta_sum += na - nb;
    out->bytes_delta_sum += static_cast<double>(StatValue(after, "verdict_cache_bytes")) -
                            static_cast<double>(StatValue(before, "verdict_cache_bytes"));
    out->ns_before_last = nb;
    out->ns_after_last = na;
    ++out->cycles;
  }
}

struct LightOut {
  explicit LightOut(const Window& window) : latency_ms(window) {}
  int64_t ops = 0;
  Timeline latency_ms;  // from the scheduled send time
  Samples late_ms;     // actual send minus scheduled send
  uint64_t hits = 0, checks = 0;
};

/// Open-loop single-item CERTIFYs at `rate` per second on one connection,
/// each timed from its scheduled send time.
void LightLoop(PodsClient* client, const HotFixture& fx, uint64_t seed, double rate,
               double offset_s, Clock::time_point start, Clock::time_point end,
               Report* report, SpanBuffer* buf, std::vector<Frame>* frames, LightOut* out) {
  Rng rng(seed);
  uint32_t id = 1;
  uint64_t rid = (seed & 0xffff) << 40;
  for (int64_t i = 0;; ++i) {
    const Clock::time_point due =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(offset_s + static_cast<double>(i) / rate));
    if (due >= end) break;
    // Timer wake-ups on a shared host land 0.1-0.3 ms late; sleeping to
    // just short of the due time and spinning the rest keeps the
    // generator's own lateness out of the latencies it records.
    std::this_thread::sleep_until(due - kLightSpin);
    while (Clock::now() < due) {
    }
    const Clock::time_point sent = Clock::now();
    const PoolItem& p = fx.pool[rng.NextBelow(fx.pool.size())];
    CertifyOne(client, p, id++, report, buf, ++rid, frames, &out->hits, &out->checks);
    const Clock::time_point done = Clock::now();
    out->latency_ms.Add(done, MsBetween(due, done));
    out->late_ms.Add(MsBetween(due, sent));
    ++out->ops;
  }
}

struct ChurnServer {
  HotServer hs;  // clients[0] is the owner; the rest send light traffic
};

struct ChurnPhase {
  explicit ChurnPhase(const Window& window) : owner(window), light(window) {}
  OwnerOut owner;
  LightOut light;
  double seconds = 0;
  StatSnapshot s0, s1;
};

ChurnPhase ChurnRun(ChurnServer* cs, const ChurnFixture& fx, uint64_t seed,
                    const Window& window, int cycle_base, Report* report,
                    std::vector<SpanBuffer>* bufs, std::vector<std::vector<Frame>>* frames) {
  std::vector<std::unique_ptr<PodsClient>>& clients = cs->hs.clients;
  const size_t lights = clients.size() - 1;
  const Clock::time_point start = window.start();
  const Clock::time_point end = window.end();
  ChurnPhase ph(window);
  ph.s0 = TakeStat(clients[0].get());
  std::vector<LightOut> light(lights, LightOut(window));
  std::vector<std::thread> threads;
  threads.emplace_back([&] {
    OwnerLoop(clients[0].get(), fx, seed, end, cycle_base, report,
              bufs == nullptr ? nullptr : &(*bufs)[0],
              frames == nullptr ? nullptr : &(*frames)[0], &ph.owner);
  });
  const double per_thread = kLightRate / static_cast<double>(lights);
  for (size_t l = 0; l < lights; ++l) {
    threads.emplace_back([&, l] {
      LightLoop(clients[l + 1].get(), fx.hot, seed * 1000003 + l + 1, per_thread,
                static_cast<double>(l) / kLightRate, start, end, report,
                bufs == nullptr ? nullptr : &(*bufs)[l + 1],
                frames == nullptr ? nullptr : &(*frames)[l + 1], &light[l]);
    });
  }
  for (std::thread& th : threads) th.join();
  ph.seconds = MsBetween(start, Clock::now()) / 1e3;
  ph.s1 = TakeStat(clients[0].get());
  for (LightOut& l : light) {
    ph.light.ops += l.ops;
    ph.light.latency_ms.Append(l.latency_ms);
    ph.light.late_ms.Append(l.late_ms);
    ph.light.hits += l.hits;
    ph.light.checks += l.checks;
  }
  return ph;
}

double HotHitRate(const LightOut& l) {
  const double total = static_cast<double>(l.hits + l.checks);
  return total > 0 ? static_cast<double>(l.hits) / total : 0.0;
}

/// Replays the owner's first recorded cycles in-process, once through
/// HandleFrame and once layer by layer, each on its own fresh registry
/// (same cache budget, engines inline so the verdict-cache accounting is
/// deterministic). Returns the per-item checker calls of the replay.
double ReplayOwner(const ChurnFixture& fx, const std::vector<Frame>& frames,
                   SpanBuffer* buf, Report* report) {
  VerdictCacheConfig config;
  config.byte_budget = fx.cache_budget;
  WorkflowRegistry handled(config), layered(config);
  handled.RegisterBuiltins();
  layered.RegisterBuiltins();
  ReplayContext hc(&handled, nullptr), lc(&layered, nullptr);
  int64_t items = 0, checks = 0;
  uint64_t rid = uint64_t{3} << 50;
  int first_cycle = -1;
  for (const Frame& f : frames) {
    // A doomed batch stops wherever its deadline finds it, and the verdicts
    // it settled first would change the cache state later frames see; it
    // is left out so the replayed work (and its checker-call count) is a
    // function of the seed alone.
    if (f.cycle < 0 || f.doomed) continue;
    if (first_cycle < 0) first_cycle = f.cycle;
    if (f.cycle >= first_cycle + kReplayCycles) break;
    ++rid;
    double handle_us = 0;
    const std::string want = HandleRecorded(hc.ctx, f.bytes, buf, rid, &handle_us);
    std::string got;
    if (f.type == MessageType::kRegister) {
      got = ReplayRegister(lc.ctx, f.bytes, buf, rid);
    } else if (f.type == MessageType::kCertifyBatch) {
      got = ReplayCertify(lc.ctx, f.bytes, buf, rid, &items, &checks);
    } else {
      FrameHeader header;
      DecodeFrameHeader(std::string_view(f.bytes).substr(0, kFrameHeaderSize), &header);
      got = HandleFrame(lc.ctx, header, std::string_view(f.bytes).substr(kFrameHeaderSize));
    }
    if (got != want) {
      report->Fail("drift: layered replay of a churn frame differs from HandleFrame");
    }
  }
  return items > 0 ? static_cast<double>(checks) / static_cast<double>(items) : 0.0;
}

/// Times the Algorithm-2 checker directly on the first churn workflow's
/// private modules for its first batch's hidden sets.
double CheckerUs(const ChurnFixture& fx, SpanBuffer* buf) {
  const ChurnWorkflow& cw = fx.workflows[0];
  const Workflow& wf = *cw.wf.workflow;
  Samples us;
  for (int m : wf.PrivateModuleIndices()) {
    const Module& mod = wf.module(m);
    const Relation rel = mod.FullRelation();
    for (const CertifyItem& item : cw.batches[0]) {
      const Bitset64 visible = ToRequest(wf, item).hidden.Complement();
      const Clock::time_point t0 = Clock::now();
      {
        ScopedSpan s(buf, "standalone_privacy.checker", 0);
        volatile int64_t g = MaxStandaloneGamma(rel, mod.inputs(), mod.outputs(), visible);
        (void)g;
      }
      us.Add(UsBetween(t0, Clock::now()));
    }
  }
  return us.Mean();
}

}  // namespace

void RunCertifyChurn(const Args& args, Report* report) {
  ChurnFixture fx;
  BuildChurnFixture(args.seed, &fx);
  const int connections = ClientsOf(args.workload);
  VerdictCacheConfig config;
  config.byte_budget = fx.cache_budget;
  Line("certify-churn: connections=%d owner=1 light=%d light_rate=%.0f/s loop=open "
       "cache_budget=%lld batches_per_cycle=%d items_per_batch=%d doomed_share=%.3f",
       connections, connections - 1, kLightRate, static_cast<long long>(fx.cache_budget),
       kBatchesPerCycle, kItemsPerBatch, kDoomedShare);

  std::vector<double> setup_s;
  ChurnServer cs;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    cs = ChurnServer();
    setup_s.push_back(SetUpHot(fx.hot, config, connections, report, &cs.hs));
  }

  const double phase_a = args.trace ? args.seconds * 0.4 : args.seconds;
  Window wa(phase_a);
  ChurnPhase a = ChurnRun(&cs, fx, args.seed, wa, 0, report, nullptr, nullptr);
  wa.Finish();
  const double items_per_s = a.owner.items / a.seconds;
  Samples light_ms = a.light.latency_ms.Kept();
  const double cycles = std::max<double>(1.0, static_cast<double>(a.owner.cycles));
  Line("certify-churn: cycles=%lld churn_items_per_s=%.1f batch_p50_ms=%.3f "
       "register_p50_ms=%.3f doomed=%lld doomed_tripped=%lld",
       static_cast<long long>(a.owner.cycles), items_per_s, a.owner.batch_ms.Percentile(50),
       a.owner.register_ms.Percentile(50), static_cast<long long>(a.owner.doomed),
       static_cast<long long>(a.owner.doomed_tripped));
  Line("certify-churn: light_requests=%lld light_p50_ms=%.4f light_p90_ms=%.4f "
       "light_p99_ms=%.4f loadgen_late_ms_mean=%.4f hot_hit_rate=%.5f",
       static_cast<long long>(a.light.ops), light_ms.Percentile(50), light_ms.Percentile(90),
       light_ms.Percentile(99),
       a.light.late_ms.Mean(), HotHitRate(a.light));
  const CacheDelta cache = CacheBetween(a.s0, a.s1);
  Line("certify-churn: unregister namespaces_before=%.0f namespaces_after=%.0f "
       "mean_namespace_delta=%.3f mean_bytes_delta=%.1f cache_bytes=%.0f evictions=%.0f "
       "(UNREGISTER leaves the workflow's verdict-cache namespaces and entries behind)",
       a.owner.ns_before_last, a.owner.ns_after_last, a.owner.ns_delta_sum / cycles,
       a.owner.bytes_delta_sum / cycles, cache.bytes, cache.evictions);
  if (!args.trace) {
    SetEndToEnd(report, wa, &a.owner.done, a.light.latency_ms, MedianOf(setup_s));
    return;
  }

  report->Set("owner.batch_p50_ms", a.owner.batch_ms.Percentile(50), "ms");
  report->Set("owner.register_p50_ms", a.owner.register_ms.Percentile(50), "ms");
  report->Set("loadgen.late_ms", a.light.late_ms.Mean(), "ms");
  report->Set("verdict_cache.hot_hit_rate", HotHitRate(a.light), "ratio");
  report->Set("verdict_cache.unregister_namespace_delta", a.owner.ns_delta_sum / cycles, "count");
  report->Set("verdict_cache.unregister_bytes_delta", a.owner.bytes_delta_sum / cycles, "bytes");
  SetCacheMetrics(report, cache);
  SetAdmissionMetrics(report, a.s0, a.s1);

  // Traced wire phase: owner and light traffic with client spans. It
  // starts at a cycle that is a multiple of the workflow count, so its
  // first cycles (the replayed ones) use the same workflows on every run.
  std::vector<SpanBuffer> bufs(cs.hs.clients.size());
  std::vector<std::vector<Frame>> frames(cs.hs.clients.size());
  const int cycle_base =
      static_cast<int>((a.owner.cycles / kChurnWorkflows + 1) * kChurnWorkflows);
  Window wb(args.seconds * 0.35);
  ChurnPhase b = ChurnRun(&cs, fx, args.seed + 1, wb, cycle_base, report, &bufs, &frames);
  wb.Finish();
  SetTraceOverhead(report, items_per_s, b.owner.items / b.seconds);

  // Replay: light frames against the daemon's registry, owner cycles on
  // fresh registries.
  ReplayContext rc(cs.hs.served.registry.get(), cs.hs.served.daemon->executor());
  std::vector<std::vector<Frame>> light_frames(frames.begin() + 1, frames.end());
  std::vector<SpanBuffer> replay_bufs(light_frames.size());
  Samples hop;
  ReplayCertifyFrames(rc.ctx, light_frames, &replay_bufs, report, &hop);
  SpanBuffer owner_buf;
  const double checks_per_item = ReplayOwner(fx, frames[0], &owner_buf, report);
  const double checker_us = CheckerUs(fx, &owner_buf);
  // Wire-path layers come from the light frames; the engine and
  // registration layers from the owner's replayed cycles.
  SetReplayLayers(report, AggregateSpans(Ptrs(replay_bufs)));
  const std::map<std::string, SpanTotals> owner = AggregateSpans({&owner_buf});
  auto self = [&](const char* name) {
    auto it = owner.find(name);
    return it == owner.end() ? 0.0 : it->second.MeanSelfUs();
  };
  report->Set("workflow_privacy.certify_batch_us", self("workflow_privacy.certify_batch"), "us");
  report->Set("registry.register_us", self("registry.register"), "us");
  report->Set("serialization.decode_workflow_us", self("serialization.decode_workflow"), "us");
  for (SpanBuffer& r : replay_bufs) bufs.push_back(std::move(r));
  bufs.push_back(std::move(owner_buf));
  report->Set("reactor.hop_us", hop.Mean(), "us");
  report->Set("safety_memo.checker_calls_per_item", checks_per_item, "count");
  report->Set("standalone_privacy.checker_us", checker_us, "us");
  Line("certify-churn: replay checker_calls_per_item=%.4f checker_us=%.2f", checks_per_item,
       checker_us);
  DumpSpans(args, bufs, report);
}

}  // namespace perfbench
