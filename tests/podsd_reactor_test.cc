// Reactor front-end suite: the daemon's reactor, a bare Reactor without an
// executor (the single-core inline path) and a direct in-process
// HandleFrame call must produce byte-identical responses for the same
// request bytes; the reactor must reassemble frames that arrive in
// arbitrary pieces, serve pipelined requests in order, hold 1000 idle
// connections with a thread count bounded by --reactor-threads (NOT by
// connection count), and surface request-level admission in STAT. Runs
// under ASan/UBSan and TSan in CI — a race between reactor shards, the
// completion queue, and detached engine tasks fails here.
#include <gtest/gtest.h>

#include <dirent.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "secureview/serialization.h"
#include "server/admission.h"
#include "server/client.h"
#include "server/daemon.h"
#include "server/handler.h"
#include "server/protocol.h"
#include "server/reactor.h"
#include "server/registry.h"
#include "workflow/fig1_workflow.h"

namespace provview {
namespace {

// Live thread count of THIS process — the bounded-threads acceptance check
// counts what the kernel sees, not what the daemon claims.
int CountProcessThreads() {
  DIR* dir = ::opendir("/proc/self/task");
  if (dir == nullptr) return -1;
  int count = 0;
  while (const dirent* entry = ::readdir(dir)) {
    if (entry->d_name[0] != '.') ++count;
  }
  ::closedir(dir);
  return count;
}

CertifyItem ItemForMask(uint32_t mask, const int* attrs, int num_attrs) {
  CertifyItem item;
  item.gamma = 2;
  for (int b = 0; b < num_attrs; ++b) {
    if ((mask >> b) & 1u) {
      item.hidden_attrs.push_back(static_cast<uint32_t>(attrs[b]));
    }
  }
  return item;
}

// Blocking helpers for the raw socketpair end handed to a bare Reactor.
bool WriteAllFd(int fd, std::string_view bytes) {
  while (!bytes.empty()) {
    const ssize_t sent = ::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL);
    if (sent <= 0) return false;
    bytes.remove_prefix(static_cast<size_t>(sent));
  }
  return true;
}

bool ReadExactFd(int fd, std::string* out, size_t n) {
  out->resize(n);
  size_t done = 0;
  while (done < n) {
    const ssize_t got = ::recv(fd, out->data() + done, n - done, 0);
    if (got <= 0) return false;
    done += static_cast<size_t>(got);
  }
  return true;
}

// One response frame split into its decoded header and its body.
struct Reply {
  FrameHeader header;
  std::string body;
};

bool RecvReplyFd(int fd, Reply* reply) {
  std::string head;
  if (!ReadExactFd(fd, &head, kFrameHeaderSize)) return false;
  if (!DecodeFrameHeader(head, &reply->header).ok()) return false;
  return ReadExactFd(fd, &reply->body, reply->header.body_len);
}

// Splits a complete frame (as HandleFrame returns it or a client sends it).
Reply SplitFrame(const std::string& frame) {
  Reply reply;
  EXPECT_TRUE(
      DecodeFrameHeader(std::string_view(frame).substr(0, kFrameHeaderSize),
                        &reply.header)
          .ok());
  reply.body = frame.substr(kFrameHeaderSize);
  return reply;
}

TEST(PodsdReactorTest, DaemonInlineReactorAndHandleFrameAgreeByteForByte) {
  // Same registry seeds, same request bytes, three carriers: the default
  // daemon (reactor + shared executor when the host has more than one
  // core), a bare Reactor whose context has NO executor (the single-core
  // inline path, covered here on any host), and a direct in-process
  // HandleFrame call. Every response frame must be IDENTICAL down to the
  // byte: all three share HandleFrame, so any divergence is a framing or
  // dispatch bug in a carrier.
  WorkflowRegistry daemon_registry, inline_registry, direct_registry;
  daemon_registry.RegisterBuiltins();
  inline_registry.RegisterBuiltins();
  direct_registry.RegisterBuiltins();
  PodsDaemon daemon(&daemon_registry);
  ASSERT_TRUE(daemon.Start().ok());

  DaemonStats inline_stats, direct_stats;
  AdmissionController inline_admission(4096, 0), direct_admission(4096, 0);
  RequestContext inline_ctx;
  inline_ctx.registry = &inline_registry;
  inline_ctx.stats = &inline_stats;
  inline_ctx.admission = &inline_admission;
  inline_ctx.executor = nullptr;
  Reactor inline_reactor(inline_ctx, /*num_threads=*/1);
  inline_reactor.Start();
  int pair[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, pair), 0);
  inline_reactor.AddConnection(pair[0]);  // takes ownership
  const int inline_fd = pair[1];

  RequestContext direct_ctx;
  direct_ctx.registry = &direct_registry;
  direct_ctx.stats = &direct_stats;
  direct_ctx.admission = &direct_admission;

  const Fig1Workflow fig1 = MakeFig1Workflow();
  const int attrs[] = {fig1.a3, fig1.a4, fig1.a5, fig1.a6, fig1.a7};
  std::string workflow_bytes;
  ASSERT_TRUE(SerializeWorkflowBinary(*fig1.workflow, &workflow_bytes).ok());

  // A corpus covering the whole dispatch table, valid and hostile alike
  // (request ids fixed so the echoed headers match too).
  std::vector<std::string> corpus;
  corpus.push_back(BuildRequestFrame(MessageType::kPing, 1));
  for (uint32_t mask = 0; mask < 32; ++mask) {
    CertifyRequest req;
    req.workflow = "fig1";
    req.items.push_back(ItemForMask(mask, attrs, 5));
    std::string body;
    EncodeCertifyRequest(req, /*batch=*/false, &body);
    corpus.push_back(
        BuildRequestFrame(MessageType::kCertify, 100 + mask, body));
  }
  {
    RegisterRequest reg;
    reg.name = "fig1-wire";
    reg.workflow_bytes = workflow_bytes;
    std::string body;
    EncodeRegisterRequest(reg, &body);
    corpus.push_back(BuildRequestFrame(MessageType::kRegister, 200, body));
    CertifyRequest req;
    req.workflow = "fig1-wire";
    req.items.push_back(ItemForMask(21, attrs, 5));
    std::string certify_body;
    EncodeCertifyRequest(req, /*batch=*/false, &certify_body);
    corpus.push_back(
        BuildRequestFrame(MessageType::kCertify, 201, certify_body));
    corpus.push_back(BuildRequestFrame(MessageType::kRegister, 202, body));
    std::string unreg_body;
    EncodeUnregisterRequest("fig1-wire", &unreg_body);
    corpus.push_back(
        BuildRequestFrame(MessageType::kUnregister, 203, unreg_body));
    corpus.push_back(
        BuildRequestFrame(MessageType::kUnregister, 204, unreg_body));
  }
  corpus.push_back(
      BuildRequestFrame(MessageType::kCertify, 300, "garbage body"));
  {
    FrameHeader unknown;
    unknown.type = 0x00EE;
    unknown.request_id = 301;
    std::string frame;
    EncodeFrameHeader(unknown, &frame);
    corpus.push_back(frame);
  }
  {
    CertifyRequest req;
    req.workflow = "no-such-workflow";
    req.items.push_back(CertifyItem{1, {}});
    std::string body;
    EncodeCertifyRequest(req, /*batch=*/false, &body);
    corpus.push_back(BuildRequestFrame(MessageType::kCertify, 302, body));
  }

  PodsClient daemon_client;
  ASSERT_TRUE(daemon_client.Connect(daemon.port()).ok());
  for (size_t i = 0; i < corpus.size(); ++i) {
    Reply from_daemon, from_inline;
    ASSERT_TRUE(daemon_client.SendRaw(corpus[i]).ok());
    ASSERT_TRUE(
        daemon_client.RecvResponse(&from_daemon.header, &from_daemon.body)
            .ok());
    ASSERT_TRUE(WriteAllFd(inline_fd, corpus[i]));
    ASSERT_TRUE(RecvReplyFd(inline_fd, &from_inline)) << "corpus entry " << i;
    const Reply request = SplitFrame(corpus[i]);
    Reply from_direct =
        SplitFrame(HandleFrame(direct_ctx, request.header, request.body));
    for (const Reply* other : {&from_inline, &from_direct}) {
      EXPECT_EQ(from_daemon.header.type, other->header.type)
          << "corpus entry " << i;
      EXPECT_EQ(from_daemon.header.request_id, other->header.request_id)
          << "corpus entry " << i;
      EXPECT_EQ(from_daemon.body, other->body) << "corpus entry " << i;
    }
  }

  inline_reactor.Stop();
  ::close(inline_fd);
  daemon.Stop();
}

TEST(PodsdReactorTest, ReassemblesFragmentedFramesAndServesPipelines) {
  WorkflowRegistry registry;
  registry.RegisterBuiltins();
  PodsDaemon::Options opts;
  opts.reactor_threads = 1;  // every fragment lands on the same shard
  PodsDaemon daemon(&registry, opts);
  ASSERT_TRUE(daemon.Start().ok());

  const Fig1Workflow fig1 = MakeFig1Workflow();
  const int attrs[] = {fig1.a3, fig1.a4, fig1.a5, fig1.a6, fig1.a7};
  CertifyRequest req;
  req.workflow = "fig1";
  req.items.push_back(ItemForMask(0b10110, attrs, 5));
  std::string body;
  EncodeCertifyRequest(req, /*batch=*/false, &body);
  const std::string frame =
      BuildRequestFrame(MessageType::kCertify, 7, body);

  // Dribble the frame in 1..5-byte pieces: the per-connection state machine
  // must reassemble it no matter where the kernel splits reads.
  PodsClient client;
  ASSERT_TRUE(client.Connect(daemon.port()).ok());
  Rng rng(0x66726167u);
  size_t sent = 0;
  while (sent < frame.size()) {
    const size_t piece =
        std::min(frame.size() - sent, 1 + rng.NextBelow(5));
    ASSERT_TRUE(
        client.SendRaw(std::string_view(frame).substr(sent, piece)).ok());
    sent += piece;
  }
  FrameHeader header;
  std::string resp_body;
  ASSERT_TRUE(client.RecvResponse(&header, &resp_body).ok());
  EXPECT_EQ(header.request_id, 7u);
  Status status;
  std::string_view payload;
  ASSERT_TRUE(ParseResponseBody(resp_body, &status, &payload).ok());
  EXPECT_TRUE(status.ok()) << status.message();

  // Pipelining: many frames in one write; responses come back in order
  // even though EPOLLIN is disarmed per in-flight request (the buffered
  // re-parse path).
  std::string burst;
  for (uint32_t id = 50; id < 66; ++id) {
    burst += BuildRequestFrame(MessageType::kPing, id);
  }
  burst += frame;  // one engine-bound request at the end
  ASSERT_TRUE(client.SendRaw(burst).ok());
  for (uint32_t id = 50; id < 66; ++id) {
    ASSERT_TRUE(client.RecvResponse(&header, &resp_body).ok());
    EXPECT_EQ(header.request_id, id);
  }
  ASSERT_TRUE(client.RecvResponse(&header, &resp_body).ok());
  EXPECT_EQ(header.request_id, 7u);

  daemon.Stop();
}

TEST(PodsdReactorTest, ThousandIdleConnectionsBoundedThreads) {
  // THE acceptance criterion: 1000 parked connections may not grow the
  // daemon's thread count at all — connections are epoll entries, not
  // threads.
  WorkflowRegistry registry;
  registry.RegisterBuiltins();
  PodsDaemon::Options opts;
  opts.reactor_threads = 2;
  opts.engine_threads = 2;
  PodsDaemon daemon(&registry, opts);
  ASSERT_TRUE(daemon.Start().ok());

  // Let every daemon thread (acceptor, reactors, workers) come up before
  // taking the baseline.
  {
    PodsClient warm;
    ASSERT_TRUE(warm.Connect(daemon.port()).ok());
    ASSERT_TRUE(warm.Ping().ok());
  }
  const int baseline = CountProcessThreads();
  ASSERT_GT(baseline, 0);

  constexpr int kIdle = 1000;
  std::vector<std::unique_ptr<PodsClient>> idle;
  idle.reserve(kIdle);
  for (int i = 0; i < kIdle; ++i) {
    idle.push_back(std::make_unique<PodsClient>());
    ASSERT_TRUE(idle.back()->Connect(daemon.port()).ok()) << "conn " << i;
  }
  // Prove they are all real, live connections, not just accepted-and-
  // dropped fds: a sample of them must round-trip.
  for (int i = 0; i < kIdle; i += 97) {
    ASSERT_TRUE(idle[static_cast<size_t>(i)]->Ping().ok()) << "conn " << i;
  }

  const int with_idle = CountProcessThreads();
  EXPECT_EQ(with_idle, baseline)
      << kIdle << " idle connections grew the thread count from " << baseline
      << " to " << with_idle;

  // And the daemon still does real work while holding all of them.
  const Fig1Workflow fig1 = MakeFig1Workflow();
  const int attrs[] = {fig1.a3, fig1.a4, fig1.a5, fig1.a6, fig1.a7};
  CertifyRequest req;
  req.workflow = "fig1";
  req.items.push_back(ItemForMask(0b01101, attrs, 5));
  CertifyResponse resp;
  PodsClient active;
  ASSERT_TRUE(active.Connect(daemon.port()).ok());
  ASSERT_TRUE(active.Certify(req, /*batch=*/false, &resp).ok());

  StatSnapshot stats;
  ASSERT_TRUE(active.Stat(&stats).ok());
  uint64_t opened = 0, reactor_threads = 0;
  for (const auto& [k, v] : stats) {
    if (k == "connections_opened") opened = v;
    if (k == "reactor_threads") reactor_threads = v;
  }
  EXPECT_GE(opened, static_cast<uint64_t>(kIdle));
  EXPECT_EQ(reactor_threads, 2u);

  // Stop with 1000 parked connections must sever and join promptly.
  daemon.Stop();
  FrameHeader header;
  std::string body;
  EXPECT_FALSE(idle.front()->RecvResponse(&header, &body).ok());
  EXPECT_FALSE(idle.back()->RecvResponse(&header, &body).ok());
}

TEST(PodsdReactorTest, AdmissionControllerBoundsReleasesAndCountsRejections) {
  AdmissionController gate(/*max_depth=*/10, /*memory_bytes=*/0);
  EXPECT_EQ(gate.max_depth(), 10);
  EXPECT_TRUE(gate.Admit(6).ok());
  EXPECT_EQ(gate.depth(), 6);
  const Status full = gate.Admit(5);  // 6 + 5 > 10
  EXPECT_EQ(full.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(full.message().find("admission depth 6 of 10"), std::string::npos)
      << full.message();
  EXPECT_TRUE(gate.Admit(4).ok());
  EXPECT_FALSE(gate.Admit(1).ok());  // full
  gate.Release(4);
  EXPECT_TRUE(gate.Admit(1).ok());
  gate.Release(7);
  EXPECT_EQ(gate.depth(), 0);
  EXPECT_EQ(gate.peak_depth(), 10);
  EXPECT_EQ(gate.rejected(), 2u);
}

TEST(PodsdReactorTest, AdmissionSlotReleasesOnEveryPath) {
  AdmissionController gate(/*max_depth=*/4, /*memory_bytes=*/0);
  ASSERT_TRUE(gate.Admit(3).ok());
  {
    AdmissionSlot slot(&gate, 3);
    EXPECT_EQ(gate.depth(), 3);
    // Move keeps a single owner.
    AdmissionSlot moved(std::move(slot));
    EXPECT_EQ(gate.depth(), 3);
    AdmissionSlot assigned;
    assigned = std::move(moved);
    EXPECT_EQ(gate.depth(), 3);
  }
  EXPECT_EQ(gate.depth(), 0);
  ASSERT_TRUE(gate.Admit(2).ok());
  AdmissionSlot early(&gate, 2);
  early.reset();
  EXPECT_EQ(gate.depth(), 0);
  early.reset();  // idempotent
  EXPECT_EQ(gate.depth(), 0);
}

TEST(PodsdReactorTest, AdmissionSaturationIsTypedAndSurfacedInStat) {
  // max_pending=0: nothing can be admitted. The reactor must answer
  // RESOURCE_EXHAUSTED (with depth in the message), keep the connection,
  // and report the rejection through the admission_* STAT section.
  WorkflowRegistry registry;
  registry.RegisterBuiltins();
  PodsDaemon::Options opts;
  opts.reactor_threads = 1;
  opts.engine_threads = 2;
  opts.max_pending = 0;
  PodsDaemon daemon(&registry, opts);
  ASSERT_TRUE(daemon.Start().ok());

  const Fig1Workflow fig1 = MakeFig1Workflow();
  const int attrs[] = {fig1.a3, fig1.a4, fig1.a5, fig1.a6, fig1.a7};
  PodsClient client;
  ASSERT_TRUE(client.Connect(daemon.port()).ok());

  CertifyRequest req;
  req.workflow = "fig1";
  req.items.push_back(ItemForMask(0b101, attrs, 5));
  CertifyResponse resp;
  const Status s = client.Certify(req, /*batch=*/false, &resp);
  EXPECT_EQ(s.code(), StatusCode::kResourceExhausted) << s.message();
  EXPECT_NE(s.message().find("admission depth"), std::string::npos)
      << s.message();

  // REGISTER passes the same gate.
  std::string bytes;
  ASSERT_TRUE(SerializeWorkflowBinary(*fig1.workflow, &bytes).ok());
  EXPECT_EQ(client.Register("gated", bytes).code(),
            StatusCode::kResourceExhausted);

  EXPECT_TRUE(client.Ping().ok());  // saturation never burns the connection

  StatSnapshot stats;
  ASSERT_TRUE(client.Stat(&stats).ok());
  uint64_t stat_version = 0, rejected = 0, max_depth = 123, depth = 123;
  for (const auto& [k, v] : stats) {
    if (k == "stat_version") stat_version = v;
    if (k == "admission_rejected") rejected = v;
    if (k == "admission_max_depth") max_depth = v;
    if (k == "admission_depth") depth = v;
  }
  EXPECT_EQ(stat_version, 3u);
  EXPECT_GE(rejected, 2u);
  EXPECT_EQ(max_depth, 0u);
  EXPECT_EQ(depth, 0u);  // every rejection released nothing; gate is clean

  daemon.Stop();
}

TEST(PodsdReactorTest, SharedMemoryBudgetTripsOnlyTheChargingRequest) {
  // A tiny daemon-wide pool: a heavy batch trips RESOURCE_EXHAUSTED, and
  // because the pool carries no trip state, the SAME connection can then
  // run a cheap request that fits. Degradation is per-request.
  WorkflowRegistry registry;
  registry.RegisterBuiltins();
  PodsDaemon::Options opts;
  opts.reactor_threads = 1;
  opts.engine_threads = 2;
  opts.memory_budget = 1;  // one byte: any engine charge trips
  PodsDaemon daemon(&registry, opts);
  ASSERT_TRUE(daemon.Start().ok());

  const Fig1Workflow fig1 = MakeFig1Workflow();
  const int attrs[] = {fig1.a3, fig1.a4, fig1.a5, fig1.a6, fig1.a7};
  PodsClient client;
  ASSERT_TRUE(client.Connect(daemon.port()).ok());
  CertifyRequest req;
  req.workflow = "fig1";
  for (uint32_t mask = 0; mask < 32; ++mask) {
    req.items.push_back(ItemForMask(mask, attrs, 5));
  }
  CertifyResponse resp;
  const Status s = client.Certify(req, /*batch=*/true, &resp);
  EXPECT_EQ(s.code(), StatusCode::kResourceExhausted) << s.message();

  // The pool was fully released on that request's exit: STAT shows zero
  // bytes in use, and the connection still answers.
  EXPECT_TRUE(client.Ping().ok());
  StatSnapshot stats;
  ASSERT_TRUE(client.Stat(&stats).ok());
  uint64_t in_use = 123, exhausted = 0;
  for (const auto& [k, v] : stats) {
    if (k == "admission_memory_bytes") in_use = v;
    if (k == "admission_memory_exhausted") exhausted = v;
  }
  EXPECT_EQ(in_use, 0u);
  EXPECT_GE(exhausted, 1u);

  daemon.Stop();
}

}  // namespace
}  // namespace provview
