// Service-harness regression bench: compress jobs streamed through the
// long-lived fz::Service vs. the same work on a direct fz::Codec, the
// round trip of a Ping job (no codec work: the two queue hand-offs alone),
// the multi-client scaling of the worker pool, client-observed job-latency
// percentiles, and a queue-saturation segment.  Rows go to stdout, then
// one line per within-run gate (bench/gates.hpp); the exit status is 1,
// naming each failed gate, when any gate fails:
//
//   service-identity    every response equals the direct Codec's stream
//   service-vs-direct   one-worker service >= 0.5x the direct codec
//                       (queueing + wakeup stay small next to the work)
//   backpressure        the saturated tiny queue rejects with QueueFull
//                       (never blocks or grows)
//   dropped-exceptions  the worker pool drops no exception
//   failed-jobs         no job completes with a failure status
//
// Usage: service_throughput [--scale S] [--iters N]
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "common/parallel.hpp"
#include "common/thread_pool.hpp"
#include "datasets/generators.hpp"
#include "gates.hpp"
#include "service/service.hpp"

namespace {

using namespace fz;

using bench::gbps;
using bench::min_seconds;

/// Run fn(c) for every client c in [0, clients.worker_count()), one per
/// pool worker, and wait for all of them.
template <typename Fn>
void run_clients(ThreadPool& clients, const Fn& fn) {
  for (size_t c = 0; c < clients.worker_count(); ++c)
    clients.submit([&fn, c](size_t) { fn(c); });
  clients.wait_idle();
}

Request make_request(const Field& f) {
  Request req;
  req.kind = JobKind::Compress;
  req.dims = f.dims;
  req.eb = ErrorBound::relative(1e-3);
  const u8* p = reinterpret_cast<const u8*>(f.values().data());
  req.payload.assign(p, p + f.bytes());
  return req;
}

}  // namespace

int main(int argc, char** argv) {
  double scale = 0.06;
  int iters = 3;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--scale" && i + 1 < argc) scale = std::stod(argv[++i]);
    else if (arg == "--iters" && i + 1 < argc) iters = std::stoi(argv[++i]);
    else {
      std::cerr << "usage: service_throughput [--scale S] [--iters N]\n";
      return 2;
    }
  }

  const size_t hw = max_threads();
  const Field field = generate_field(
      Dataset::CESM, scaled_dims(Dataset::CESM, std::max(scale, 0.02)), 11);
  const Request req = make_request(field);
  const size_t jobs_per_round = 16;
  const size_t round_bytes = jobs_per_round * field.bytes();

  std::cout << "service bench: scale=" << scale << " iters=" << iters
            << " dims=" << field.dims.to_string() << " hw threads=" << hw
            << "\n\n";

  // ---- baseline: the same jobs on a direct Codec ---------------------------
  FzParams params;
  params.eb = req.eb;
  Codec direct(params);
  FzCompressed expect;
  if (!direct.try_compress(field.values(), field.dims, expect).ok()) {
    std::cerr << "direct compress failed\n";
    return 1;
  }
  const double direct_secs = min_seconds(iters, [&] {
    FzCompressed out;
    for (size_t i = 0; i < jobs_per_round; ++i)
      (void)direct.try_compress(field.values(), field.dims, out);
  });
  const double direct_gbps = gbps(round_bytes, direct_secs);
  std::printf("%-36s %8.3f GB/s\n", "direct codec", direct_gbps);
  std::printf("%-36s %8.1f us\n", "direct codec per job",
              direct_secs / jobs_per_round * 1e6);

  // ---- service, one worker / one client: pure harness overhead -------------
  // The Ping round trip is that overhead with no codec work at all.
  bool byte_identical = true;
  double svc1_gbps = 0;
  {
    Service::Options opt;
    opt.workers = 1;
    Service svc(opt);
    Response resp;
    Request ping;
    ping.kind = JobKind::Ping;
    (void)svc.submit(ping, resp);
    const double ping_secs = min_seconds(iters, [&] {
      for (size_t i = 0; i < jobs_per_round; ++i) (void)svc.submit(ping, resp);
    });
    std::printf("%-36s %8.1f us\n", "service ping round trip (1 worker)",
                ping_secs / jobs_per_round * 1e6);
    (void)svc.submit(req, resp);  // warm the worker codec
    byte_identical &= resp.status.ok() && resp.payload == expect.bytes;
    const double secs = min_seconds(iters, [&] {
      for (size_t i = 0; i < jobs_per_round; ++i) (void)svc.submit(req, resp);
    });
    byte_identical &= resp.payload == expect.bytes;
    svc1_gbps = gbps(round_bytes, secs);
  }
  std::printf("%-36s %8.3f GB/s\n", "service (1 worker, 1 client)", svc1_gbps);

  // ---- service, all workers / matching clients: pool scaling ---------------
  double svcN_gbps = 0;
  std::vector<double> latencies_us;
  u64 dropped = 0, failed = 0;
  {
    Service svc;  // default: one worker per CPU
    const size_t clients = std::max<size_t>(hw, 2);
    const size_t per_client = 8;
    std::atomic<int> mismatches{0};
    ThreadPool client_pool(clients);
    // Warm every worker codec before timing.
    run_clients(client_pool, [&](size_t) {
      Response resp;
      (void)svc.submit(req, resp);
    });
    std::vector<std::vector<double>> lat(clients);
    const double secs = min_seconds(iters, [&] {
      for (auto& v : lat) v.clear();
      run_clients(client_pool, [&](size_t c) {
        Response resp;
        for (size_t i = 0; i < per_client; ++i) {
          const auto t0 = std::chrono::steady_clock::now();
          const Status s = svc.submit(req, resp);
          const auto t1 = std::chrono::steady_clock::now();
          lat[c].push_back(
              std::chrono::duration<double, std::micro>(t1 - t0).count());
          if (!s.ok() || resp.payload != expect.bytes) ++mismatches;
        }
      });
    });
    byte_identical &= mismatches.load() == 0;
    svcN_gbps = gbps(clients * per_client * field.bytes(), secs);
    for (const auto& v : lat)
      latencies_us.insert(latencies_us.end(), v.begin(), v.end());
    const Service::Counters c = svc.counters();
    dropped = c.dropped_exceptions;
    failed = c.failed;
  }
  std::printf("%-36s %8.3f GB/s\n", "service (all workers)", svcN_gbps);

  std::sort(latencies_us.begin(), latencies_us.end());
  const auto pct = [&](double q) {
    if (latencies_us.empty()) return 0.0;
    const size_t i = std::min(latencies_us.size() - 1,
                              static_cast<size_t>(q * latencies_us.size()));
    return latencies_us[i];
  };
  const double p50 = pct(0.50), p99 = pct(0.99);
  std::printf("%-36s %8.0f / %.0f us\n", "job latency p50 / p99", p50, p99);

  // ---- saturation: a tiny queue must reject, not block or grow -------------
  u64 queue_full = 0;
  {
    Service::Options opt;
    opt.workers = 1;
    opt.queue_depth = 2;
    opt.batch_max = 1;
    Service svc(opt);
    ThreadPool floods(4 * std::max<size_t>(hw, 2));
    run_clients(floods, [&](size_t) {
      Response resp;
      for (int i = 0; i < 8; ++i) (void)svc.submit(req, resp);
    });
    queue_full = svc.counters().rejected_queue_full;
  }
  std::printf("%-36s %8llu rejects\n", "saturation backpressure",
              static_cast<unsigned long long>(queue_full));

  std::printf("%-36s %8.2fx\n", "pool scaling (all / 1 worker)",
              svcN_gbps / std::max(svc1_gbps, 1e-12));

  std::cout << "\n";
  bench::Gates gates("service_throughput");
  gates.check("service-identity", byte_identical,
              "every response equals the direct Codec's stream");
  gates.at_least("service-vs-direct", "one-worker service / direct codec",
                 svc1_gbps / std::max(direct_gbps, 1e-12), 0.5);
  gates.check("backpressure", queue_full > 0,
              bench::format("%llu QueueFull rejects, need > 0",
                            static_cast<unsigned long long>(queue_full)));
  gates.check("dropped-exceptions", dropped == 0,
              bench::format("%llu dropped, need 0",
                            static_cast<unsigned long long>(dropped)));
  gates.check("failed-jobs", failed == 0,
              bench::format("%llu failed, need 0",
                            static_cast<unsigned long long>(failed)));
  return gates.exit_code();
}
