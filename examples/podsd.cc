// podsd — the certification daemon, as a standalone binary.
//
//   podsd [--port=N] [--engine-threads=N] [--cache-bytes=N]
//         [--reactor-threads=N] [--memory-budget=N] [--max-pending=N]
//
// Binds 127.0.0.1 (port 0 = kernel-assigned, printed on stdout), serves the
// built-in workflow registry, and runs until SIGINT/SIGTERM. Pair with
// podsctl to talk to it:
//
//   $ podsd --port=7411 &
//   $ podsctl 7411 ping
//   $ podsctl 7411 certify fig1 gamma=2 hidden=3,4
//   $ podsctl 7411 stat
//
// --cache-bytes=N caps the shared verdict cache (measured bytes across all
// registered workflows; eviction only forgets verdicts). 0 = unbounded.
// --reactor-threads=N sizes the epoll front-end (default 2; thread count
// stays bounded no matter how many clients connect). --max-pending=N and
// --memory-budget=N size the request-level admission gate (depth units and
// shared engine bytes; 0 bytes = unbounded). Every value must be a plain
// decimal integer in range; anything else exits 2.
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "server/daemon.h"
#include "server/registry.h"

namespace {

// Parses `text` as a whole decimal integer in [lo, hi]. Empty values, signs,
// trailing garbage ("abc", "1e9", "12x") and out-of-range values fail.
bool ParseFlagValue(const char* text, long long lo, long long hi,
                    long long* out) {
  if (*text < '0' || *text > '9') return false;
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(text, &end, 10);
  if (errno != 0 || *end != '\0' || v < lo || v > hi) return false;
  *out = v;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  provview::PodsDaemon::Options options;
  long long port = 0;
  long long engine_threads = options.engine_threads;
  long long cache_bytes = 0;  // 0 = unbounded
  long long reactor_threads = options.reactor_threads;
  long long memory_budget = options.memory_budget;
  long long max_pending = options.max_pending;
  struct NumericFlag {
    const char* name;  // including the trailing '='
    long long lo, hi;
    long long* value;
  };
  const long long kMaxBytes = 1LL << 62;
  const NumericFlag flags[] = {
      {"--port=", 0, 65535, &port},
      {"--engine-threads=", 0, 1024, &engine_threads},
      {"--cache-bytes=", 0, kMaxBytes, &cache_bytes},
      {"--reactor-threads=", 1, 1024, &reactor_threads},
      {"--memory-budget=", 0, kMaxBytes, &memory_budget},
      {"--max-pending=", 0, kMaxBytes, &max_pending},
  };
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    const NumericFlag* flag = nullptr;
    for (const NumericFlag& f : flags) {
      if (std::strncmp(arg, f.name, std::strlen(f.name)) == 0) flag = &f;
    }
    if (flag == nullptr) {
      std::fprintf(stderr,
                   "usage: podsd [--port=N] [--engine-threads=N] "
                   "[--cache-bytes=N] [--reactor-threads=N] "
                   "[--memory-budget=N] [--max-pending=N]\n");
      return 2;
    }
    const char* text = arg + std::strlen(flag->name);
    if (!ParseFlagValue(text, flag->lo, flag->hi, flag->value)) {
      std::fprintf(stderr, "podsd: bad value '%s' for %.*s (want %lld..%lld)\n",
                   text, static_cast<int>(std::strlen(flag->name)) - 1,
                   flag->name, flag->lo, flag->hi);
      return 2;
    }
  }
  options.engine_threads = static_cast<int>(engine_threads);
  options.reactor_threads = static_cast<int>(reactor_threads);
  options.memory_budget = memory_budget;
  options.max_pending = max_pending;

  // Block the termination signals BEFORE starting threads so every thread
  // inherits the mask and sigwait below is the only consumer.
  sigset_t sigs;
  sigemptyset(&sigs);
  sigaddset(&sigs, SIGINT);
  sigaddset(&sigs, SIGTERM);
  pthread_sigmask(SIG_BLOCK, &sigs, nullptr);

  provview::VerdictCacheConfig cache_config;
  if (cache_bytes > 0) cache_config.byte_budget = cache_bytes;
  provview::WorkflowRegistry registry(cache_config);
  registry.RegisterBuiltins();

  provview::PodsDaemon daemon(&registry, options);
  const provview::Status started =
      daemon.Start(static_cast<uint16_t>(port));
  if (!started.ok()) {
    std::fprintf(stderr, "podsd: %s\n", started.message().c_str());
    return 1;
  }

  std::printf("podsd listening on 127.0.0.1:%u\n", daemon.port());
  std::printf("workflows:");
  for (const std::string& name : registry.Names()) {
    std::printf(" %s", name.c_str());
  }
  std::printf("\n");
  std::fflush(stdout);

  int sig = 0;
  sigwait(&sigs, &sig);
  std::printf("podsd: caught signal %d, shutting down\n", sig);
  daemon.Stop();
  return 0;
}
