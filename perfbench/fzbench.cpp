// fzbench — the measuring half of the paper-scale benchmark.
//
// Drives the program only through its public entry points: fz::Codec, a
// chunked container read through fz::Reader, and an in-process fz::Server
// reached by fz::Client over a private Unix socket.  It generates the
// workload's inputs from --seed and checks every output, both outside every
// timer, and writes raw samples as JSON to --out.  All arithmetic on the
// samples (medians, percentiles, self time, containment) lives in
// perfbench/metrics.py, which run.py applies to this file.
//
// With --trace 1 each phase attaches one fz::telemetry::Sink through the
// existing hooks (FzParams::telemetry, ReaderOptions::telemetry,
// Service::Options::telemetry), wraps every call in a benchmark-side span,
// and embeds the sink's Chrome trace in the output.
//
//   fzbench --workload hurricane-3d --seed 1 --seconds 20 --trace 0
//           --out raw.json --work-dir .bench_build
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <limits>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "common/simd.hpp"
#include "core/chunked.hpp"
#include "core/codec.hpp"
#include "datasets/generators.hpp"
#include "metrics/metrics.hpp"
#include "reader/reader.hpp"
#include "service/client.hpp"
#include "service/server.hpp"
#include "telemetry/telemetry.hpp"

namespace {

using fz::Dims;
using fz::f32;
using fz::u64;
using fz::u8;
using Clock = std::chrono::steady_clock;

// Each phase is set up kSetupReps to kMaxSetupReps times: more while the
// set-ups are quick.
constexpr size_t kSetupReps = 5, kMaxSetupReps = 15;
constexpr double kSetupSeconds = 1.0;
// metrics.py keeps the steal-free samples when there are at least
// kKeepRounds codec rounds of an operation and kKeepCalls calls of a
// closed loop, else the least-stolen that many (see Ticks).
constexpr size_t kKeepRounds = 8, kKeepCalls = 240;
// A run lasts at least --seconds and kMinRounds rounds, and collects at
// least kMinSamples reads and jobs to keep kKeepCalls of.
constexpr size_t kMinRounds = 5, kMinSamples = 2 * kKeepCalls;
// The Reader reads a kReaderChunks-chunk container with a cache of
// 1/kCacheDiv of the decoded field; a slice spans at most 1/kSliceDiv of
// the field's slowest axis.
constexpr size_t kReaderChunks = 16, kCacheDiv = 4, kSliceDiv = 8;
// Closed-loop bursts per Reader or server instance.  Short bursts give each
// a good chance to lose no CPU time to steal (see Ticks).
constexpr size_t kBurstsPerInstance = 8;
// Closed-loop client threads of the reader and fzd phases.  Four clients
// on four vCPUs, each job crossing a connection handler, a service worker
// and its OpenMP team, put ~28 threads on the cores, and the metrics then
// followed the box's steal time from run to run; two keep the queue and
// the shared cache under concurrent use.
constexpr size_t kClients = 2;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---- workloads -------------------------------------------------------------

struct Input {
  std::string name;
  Dims dims;
  std::vector<f32> data;
  size_t bytes() const { return data.size() * sizeof(f32); }
};

struct Workload {
  std::vector<Input> fields;  // codec rounds
  std::vector<Input> jobs;    // fzd job payloads
  size_t reader_index = 0;    // fields[reader_index] is read through a Reader
  // Per round: seconds of codec rounds (at least one).  Per burst: reads
  // per reader client, and jobs per fzd client (a multiple of
  // 2 * jobs.size()).
  double codec_s = 0;
  size_t reads = 8, job_calls = 8;
};

// A box of `ext` (per axis, clamped to the field) at a seeded random origin.
Input crop(const Input& src, Dims ext, fz::Rng& rng, const std::string& name) {
  ext = Dims{std::min(ext.x, src.dims.x), std::min(ext.y, src.dims.y),
             std::min(ext.z, src.dims.z)};
  const size_t ox = rng.below(src.dims.x - ext.x + 1);
  const size_t oy = rng.below(src.dims.y - ext.y + 1);
  const size_t oz = rng.below(src.dims.z - ext.z + 1);
  Input out{name, ext, std::vector<f32>(ext.count())};
  for (size_t z = 0; z < ext.z; ++z)
    for (size_t y = 0; y < ext.y; ++y) {
      const f32* row = src.data.data() + ((oz + z) * src.dims.y + (oy + y)) *
                                             src.dims.x + ox;
      std::copy(row, row + ext.x, out.data.data() + (z * ext.y + y) * ext.x);
    }
  return out;
}

Input from_field(fz::Field f) {
  return Input{f.dataset + "/" + f.name, f.dims, std::move(f.data)};
}

Workload make_workload(const std::string& name, u64 seed) {
  Workload w;
  fz::Rng rng(seed ^ 0x5eed0fb0a7d5ull);
  if (name == "hurricane-3d") {
    w.fields.push_back(from_field(fz::generate_field_variant(
        fz::Dataset::Hurricane, "Uf", Dims{500, 500, 100}, seed)));
    for (size_t j = 0; j < 4; ++j)
      w.jobs.push_back(crop(w.fields[0], Dims{100, 100, 25}, rng,
                            "Uf-box" + std::to_string(j)));
    // A compress sample here lasts ~50 ms and often loses a tick to
    // steal; about two codec rounds per round give a run more samples to
    // keep the steal-free ones of.
    w.codec_s = 1.0;
    w.reads = 3;
    w.job_calls = 8;
  } else if (name == "small-fields") {
    // Four seeded variants of each field: at this scale one variant's
    // ratio moves by up to 30% with the seed, four average it out.
    for (size_t v = 0; v < 4; ++v)
      for (const fz::Dataset ds : {fz::Dataset::CESM, fz::Dataset::Hurricane,
                                   fz::Dataset::RTM, fz::Dataset::Nyx}) {
        w.fields.push_back(from_field(
            fz::generate_field(ds, fz::scaled_dims(ds, 0.12), seed * 4 + v)));
        if (v == 0) w.jobs.push_back(w.fields.back());
      }
    w.reader_index = 3;  // Nyx, the largest
    w.codec_s = 0.2;
    w.reads = 32;
    w.job_calls = 32;
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  return w;
}

// ---- outcome accounting ----------------------------------------------------

// Every check runs on the main thread, after the calls it checks.
class Outcomes {
 public:
  void check(bool good, const std::string& what) {
    ++attempted_;
    if (good) return;
    ++failed_;
    if (errors_.size() < 20) errors_.push_back(what);
  }
  u64 attempted() const { return attempted_; }
  u64 failed() const { return failed_; }
  const std::vector<std::string>& errors() const { return errors_; }

 private:
  u64 attempted_ = 0, failed_ = 0;
  std::vector<std::string> errors_;
};

bool same_bytes(std::span<const u8> a, std::span<const u8> b) {
  return a.size() == b.size() && std::memcmp(a.data(), b.data(), a.size()) == 0;
}

std::span<const u8> as_bytes(std::span<const f32> v) {
  return {reinterpret_cast<const u8*>(v.data()), v.size_bytes()};
}

// ---- JSON output -----------------------------------------------------------

class Json {
 public:
  explicit Json(std::ostream& os) : os_(os) {}
  Json& key(const std::string& k) {
    str(k);
    os_ << ':';
    fresh_ = true;
    return *this;
  }
  Json& open(char c) {
    sep();
    os_ << c;
    fresh_ = true;
    return *this;
  }
  Json& close(char c) {
    os_ << c;
    fresh_ = false;
    return *this;
  }
  Json& num(double v) {
    sep();
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.9g", v);
    os_ << buf;
    return *this;
  }
  Json& str(const std::string& s) {
    sep();
    os_ << '"';
    for (const char c : s) {
      if (c == '"' || c == '\\') os_ << '\\';
      os_ << (static_cast<unsigned char>(c) < 0x20 ? ' ' : c);
    }
    os_ << '"';
    return *this;
  }
  Json& nums(const std::vector<double>& v) {
    open('[');
    for (const double x : v) num(x);
    return close(']');
  }
  // A sink's events and counters, as Sink::write_chrome_trace writes them.
  Json& trace(const fz::telemetry::Sink& sink) {
    sep();
    sink.write_chrome_trace(os_);
    return *this;
  }

 private:
  void sep() {
    if (!fresh_) os_ << ',';
    fresh_ = false;
  }
  std::ostream& os_;
  bool fresh_ = true;
};

// ---- machine ---------------------------------------------------------------

// GB/s of one large single-threaded copy (src + dst exceed the L3 size).
double copy_gbps() {
  const size_t n = size_t{256} << 20;
  std::vector<u8> a(n, 1), b(n, 2);
  std::vector<double> t;
  for (int r = 0; r < 5; ++r) {
    const auto t0 = Clock::now();
    std::memcpy(b.data(), a.data(), n);
    t.push_back(seconds_since(t0));
    a[static_cast<size_t>(r)] = b[n - 1];
  }
  std::sort(t.begin(), t.end());
  return static_cast<double>(n) / t[t.size() / 2] / 1e9;
}

long peak_rss_kb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss;
}

// The machine's stolen and total CPU ticks so far, from /proc/stat.  Time
// the hypervisor steals from any vCPU stalls every OpenMP fork/join of a
// call; metrics.py keeps the samples during which none was stolen.
struct Ticks {
  double steal = 0, total = 0;
  Ticks operator-(const Ticks& o) const { return {steal - o.steal, total - o.total}; }
};

Ticks cpu_ticks() {
  // user nice system idle iowait irq softirq steal
  unsigned long long v[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  for (auto& x : v) in >> x;
  if (!in || cpu != "cpu") throw std::runtime_error("cannot read /proc/stat");
  Ticks t;
  for (const auto x : v) t.total += static_cast<double>(x);
  t.steal = static_cast<double>(v[7]);
  return t;
}

// Timed samples of one operation, each with the ticks over its interval.
struct Series {
  std::vector<double> seconds, steal, ticks;
  void add(double s, const Ticks& t) {
    seconds.push_back(s);
    steal.push_back(t.steal);
    ticks.push_back(t.total);
  }
  size_t size() const { return seconds.size(); }
  // Whether at least `need` samples lost no CPU time to steal.
  bool calm_enough(size_t need) const {
    return static_cast<size_t>(std::count(steal.begin(), steal.end(), 0.0)) >= need;
  }
  void write(Json& j) const {
    j.open('{');
    j.key("seconds").nums(seconds).key("steal").nums(steal).key("ticks").nums(ticks);
    j.close('}');
  }
};

// ---- phases ----------------------------------------------------------------

struct Args {
  std::string workload, out, work_dir = ".";
  u64 seed = 1;
  double seconds = 10;
  bool trace = false;
};

// Repeats a set-up (once in a traced run) and keeps the last one.
// `make(t)` returns the object and adds to t the seconds its timed parts
// took, so checks and reference data stay out of the figure.
template <typename T, typename Make>
std::unique_ptr<T> timed_setups(bool trace, Series& times, Make&& make) {
  std::unique_ptr<T> kept;
  double spent = 0;
  while (times.size() == 0 ||
         (!trace && times.size() < kMaxSetupReps &&
          (times.size() < kSetupReps || spent < kSetupSeconds))) {
    kept.reset();
    double t = 0;
    const Ticks t0 = cpu_ticks();
    kept = make(t);
    times.add(t, cpu_ticks() - t0);
    spent += t;
  }
  return kept;
}

// Rounds of {compress, decompress} x {default workers, one worker} on one
// Codec, all four operations in every round, each over every field of the
// workload before the next.  A traced run adds a second Codec with the sink
// attached and runs each round on both, so the tracing overhead is measured
// under the same conditions.
class CodecPhase {
 public:
  CodecPhase(const Workload& w, const Args& a, Outcomes& oc)
      : w_(w), oc_(oc), ref_restored_(w.fields.size()),
        ref_stream_(w.fields.size()) {
    for (const Input& f : w.fields) restored_.emplace_back(f.data.size());
    // Set-up: construct the Codec, then the first (cold) call of every
    // timed operation.  The first stream and restored field become the
    // references every later call must equal byte for byte, at any worker
    // count.
    codec_ = timed_setups<fz::Codec>(a.trace, setup_, [&](double& t) {
      for (auto& s : ref_stream_) s.clear();
      for (auto& r : ref_restored_) r.clear();
      const auto t0 = Clock::now();
      auto codec = std::make_unique<fz::Codec>();
      t += seconds_since(t0);
      Series calls[4];
      round(*codec, false, calls);
      for (const Series& c : calls) t += c.seconds[0];
      return codec;
    });
    if (a.trace) {
      fz::FzParams p;
      p.telemetry = &sink_;
      traced_ = std::make_unique<fz::Codec>(p);
      Series ignored[4];
      round(*traced_, false, ignored);
    }
    // The codec's footprint: inputs, reference data and the warm Codec,
    // before any Reader or server exists.
    peak_rss_kb_ = peak_rss_kb();
    // Once per run: every restored field stays within its error bound, at
    // the tolerance the tests use.
    for (size_t i = 0; i < w.fields.size(); ++i) {
      const fz::StreamInfo info = fz::inspect(ref_stream_[i]);
      oc.check(fz::error_bounded(w.fields[i].data, ref_restored_[i], info.abs_eb),
               w.fields[i].name + ": error bound violated");
    }
  }

  bool calm_enough() const {
    return std::all_of(rounds_, rounds_ + 4,
                       [](const Series& s) { return s.calm_enough(kKeepRounds); });
  }

  // One measured round, and in a traced run one traced round, first in
  // every other round so that neither Codec always follows the other
  // phases.
  void run() {
    const bool traced_first = traced_ && rounds_[0].size() % 2 == 1;
    if (traced_first) round(*traced_, true, traced_rounds_);
    round(*codec_, false, rounds_);
    if (traced_ && !traced_first) round(*traced_, true, traced_rounds_);
  }

  void write(Json& j) {
    size_t input_bytes = 0, stream_bytes = 0;
    for (size_t i = 0; i < w_.fields.size(); ++i) {
      input_bytes += w_.fields[i].bytes();
      stream_bytes += ref_stream_[i].size();
    }
    const char* names[4] = {"compress", "decompress", "compress_1w",
                            "decompress_1w"};
    j.key("codec").open('{');
    setup_.write(j.key("setup_s"));
    j.key("peak_rss_kb").num(static_cast<double>(peak_rss_kb_));
    j.key("input_bytes").num(static_cast<double>(input_bytes));
    j.key("stream_bytes").num(static_cast<double>(stream_bytes));
    // Input, restored field and stream of every field.
    j.key("working_set_bytes").num(static_cast<double>(2 * input_bytes + stream_bytes));
    j.key("rounds").open('{');
    for (size_t k = 0; k < 4; ++k) rounds_[k].write(j.key(names[k]));
    j.close('}');
    if (traced_) {
      j.key("traced_rounds").open('{');
      for (size_t k = 0; k < 4; ++k) traced_rounds_[k].write(j.key(names[k]));
      j.close('}');
      j.key("trace").trace(sink_);
    }
    j.close('}');
  }

 private:
  // Compress or decompress field i at `workers`; returns the call's wall
  // time.  The output is checked after the clock stops.
  double op(fz::Codec& codec, size_t i, bool compress, size_t workers,
            bool span) {
    const Input& f = w_.fields[i];
    codec.params().fused_workers = workers;
    double dt = 0;
    if (compress) {
      fz::FzCompressed c;
      {
        fz::telemetry::Span s(span ? &sink_ : nullptr, "bench-compress");
        s.arg("workers", static_cast<double>(workers));
        const auto t0 = Clock::now();
        c = codec.compress(f.data, f.dims);
        dt = seconds_since(t0);
      }
      if (ref_stream_[i].empty()) ref_stream_[i] = c.bytes;
      oc_.check(same_bytes(c.bytes, ref_stream_[i]),
                f.name + ": stream differs at workers=" + std::to_string(workers));
    } else {
      fz::Status st;
      {
        fz::telemetry::Span s(span ? &sink_ : nullptr, "bench-decompress");
        s.arg("workers", static_cast<double>(workers));
        const auto t0 = Clock::now();
        st = codec.try_decompress_into(ref_stream_[i], restored_[i]);
        dt = seconds_since(t0);
      }
      if (st.ok() && ref_restored_[i].empty()) ref_restored_[i] = restored_[i];
      oc_.check(st.ok() && restored_[i] == ref_restored_[i],
                f.name + ": restored field differs at workers=" +
                    std::to_string(workers) + " " + st.to_string());
    }
    codec.params().fused_workers = 0;
    return dt;
  }

  // Adds one sample to each of out[0..3]: compress, decompress, and both
  // again at one worker, each the summed call time over all fields.
  void round(fz::Codec& codec, bool span, Series out[4]) {
    for (size_t k = 0; k < 4; ++k) {
      const Ticks t0 = cpu_ticks();
      double calls = 0;
      for (size_t i = 0; i < w_.fields.size(); ++i)
        calls += op(codec, i, k % 2 == 0, k < 2 ? 0 : 1, span);
      out[k].add(calls, cpu_ticks() - t0);
    }
  }

  const Workload& w_;
  Outcomes& oc_;
  fz::telemetry::Sink sink_;
  std::vector<std::vector<f32>> restored_, ref_restored_;
  std::vector<std::vector<u8>> ref_stream_;
  Series setup_, rounds_[4], traced_rounds_[4];
  long peak_rss_kb_ = 0;
  std::unique_ptr<fz::Codec> codec_, traced_;
};

// Samples of a closed loop that runs in bursts, one or more per round.
struct LoopStats {
  std::vector<double> latency_s;  // burst by burst
  std::vector<double> calls;      // completed calls of each burst
  Series bursts;                  // wall time of each burst

  // kClients threads each make `calls` calls back to back.  `call(c, k)`
  // makes call k of client c and returns its own duration: it times only
  // the call into the program, and leaves the output for a check after the
  // burst, so the burst's wall time holds nothing but calls.
  void burst(size_t calls, const std::function<double(size_t, size_t)>& call) {
    std::vector<std::vector<double>> lat(kClients, std::vector<double>(calls));
    std::atomic<bool> go{false};
    std::vector<std::thread> crew;
    for (size_t c = 0; c < kClients; ++c)
      crew.emplace_back([&, c] {
        while (!go.load()) std::this_thread::yield();
        for (size_t k = 0; k < calls; ++k) lat[c][k] = call(c, k);
      });
    const Ticks t0 = cpu_ticks();
    const auto start = Clock::now();
    go = true;
    for (auto& t : crew) t.join();
    const double wall = seconds_since(start);
    bursts.add(wall, cpu_ticks() - t0);
    for (const auto& l : lat) latency_s.insert(latency_s.end(), l.begin(), l.end());
    this->calls.push_back(static_cast<double>(kClients * calls));
  }

  bool calm_enough() const {
    return !calls.empty() &&
           bursts.calm_enough((kKeepCalls + static_cast<size_t>(calls[0]) - 1) /
                              static_cast<size_t>(calls[0]));
  }

  void write(Json& j) const {
    j.key("latency_s").nums(latency_s);
    j.key("calls").nums(calls);
    bursts.write(j.key("bursts"));
  }
};

fz::Slice random_slice(const Dims& d, fz::Rng& rng) {
  const size_t rank = d.rank();
  size_t n[3] = {d.x, d.y, d.z}, org[3] = {0, 0, 0}, ext[3] = {1, 1, 1};
  for (size_t ax = 0; ax < rank; ++ax) {
    const size_t cap =
        ax + 1 == rank ? std::max<size_t>(1, n[ax] / kSliceDiv) : n[ax];
    ext[ax] = 1 + rng.below(cap);
    org[ax] = rng.below(n[ax] - ext[ax] + 1);
  }
  return fz::Slice{org[0], org[1], org[2], ext[0], ext[1], ext[2]};
}

// kClients threads read seeded random slices through one shared Reader over
// a kReaderChunks-chunk container; every slice is compared with the same
// region of a full decompress after the bursts.  Every round opens a fresh
// Reader (warmed with untimed reads), and no Reader outlives its round or
// the set-up: its pool workers each own an OpenMP team, and while a
// process holds more OpenMP threads than cores libgomp stops spinning,
// which slowed the small-fields codec rounds 5-8x.
class ReaderPhase {
 public:
  ReaderPhase(const Workload& w, const Args& a, Outcomes& oc)
      : f_(w.fields[w.reader_index]), oc_(oc), trace_(a.trace), reads_(w.reads),
        rng_(a.seed ^ 0x0c01dull), plan_(kClients) {
    // Set-up: build the container, open a Reader, make the first read.
    warm_.resize(kWarmReads);
    reader_ = timed_setups<fz::Reader>(a.trace, setup_, [&](double& t) {
      fz::ChunkedParams cp;
      cp.num_chunks = kReaderChunks;
      const auto t0 = Clock::now();
      container_ = fz::fz_compress_chunked(f_.data, f_.dims, cp);
      auto r = open();
      t += seconds_since(t0);
      // The same first read in every set-up, however many there are.
      fz::Rng first(a.seed ^ 0xf125ull);
      warm_[0].slice = random_slice(f_.dims, first);
      warm_[0].out.resize(warm_[0].slice.count());
      t += read(*r, warm_[0]);
      return r;
    });
    retire();
    reference_ = fz::fz_decompress_chunked(container_.bytes).data;
    oc.check(reference_.size() == f_.data.size(), f_.name + ": container size");
    check(warm_[0]);
    // The process's first burst pays one-off costs (new threads' malloc
    // arenas, first-touched pages); one untimed burst absorbs them.
    LoopStats warm;
    run(warm);
  }

  void run() { run(loop_); }
  size_t samples() const { return loop_.latency_s.size(); }
  bool calm_enough() const { return loop_.calm_enough(); }

  void write(Json& j) {
    retire();
    j.key("reader").open('{');
    setup_.write(j.key("setup_s"));
    loop_.write(j);
    j.key("stats").open('{');
    j.key("hits").num(static_cast<double>(stats_.hits));
    j.key("misses").num(static_cast<double>(stats_.misses));
    j.key("prefetch_issued").num(static_cast<double>(stats_.prefetch_issued));
    j.key("prefetch_hits").num(static_cast<double>(stats_.prefetch_hits));
    j.key("evictions").num(static_cast<double>(stats_.evictions));
    j.close('}');
    if (trace_) j.key("trace").trace(sink_);
    j.close('}');
  }

 private:
  struct Read {
    fz::Slice slice;
    std::vector<f32> out;
  };
  // Untimed reads that warm every fresh Reader's cache.
  static constexpr size_t kWarmReads = 8;

  // Picks the next seeded slice and sizes its output buffer.
  void plan(Read& r) {
    r.slice = random_slice(f_.dims, rng_);
    r.out.resize(r.slice.count());
  }

  // A fresh Reader, warmed, then kBurstsPerInstance bursts.
  void run(LoopStats& into) {
    // Every slice and output buffer exists before the clock starts.
    for (Read& r : warm_) plan(r);
    for (auto& reads : plan_) {
      reads.resize(kBurstsPerInstance * reads_);
      for (Read& r : reads) plan(r);
    }
    reader_ = open();
    for (Read& r : warm_) read(*reader_, r);
    for (size_t b = 0; b < kBurstsPerInstance; ++b)
      into.burst(reads_, [&](size_t c, size_t k) {
        return read(*reader_, plan_[c][b * reads_ + k]);
      });
    retire();
    for (const Read& r : warm_) check(r);
    for (const auto& reads : plan_)
      for (const Read& r : reads) check(r);
  }

  std::unique_ptr<fz::Reader> open() {
    fz::ReaderOptions ro;
    ro.cache_bytes = f_.bytes() / kCacheDiv;
    if (trace_) ro.telemetry = &sink_;
    return std::make_unique<fz::Reader>(container_.bytes, ro);
  }

  // Fold the Reader's cache counters into the totals and close it (joining
  // its pool, so no fetch is still recording into the sink).
  void retire() {
    if (!reader_) return;
    const fz::ReaderStats rs = reader_->stats();
    stats_.hits += rs.hits;
    stats_.misses += rs.misses;
    stats_.prefetch_issued += rs.prefetch_issued;
    stats_.prefetch_hits += rs.prefetch_hits;
    stats_.evictions += rs.evictions;
    reader_.reset();
  }

  // Returns the duration of the read; a read that throws leaves NaNs in its
  // output, which the check counts as a failure.
  double read(fz::Reader& reader, Read& r) {
    fz::telemetry::Span span(trace_ ? &sink_ : nullptr, "bench-read");
    const auto t0 = Clock::now();
    try {
      reader.read(r.slice, r.out);
    } catch (const std::exception&) {
      std::fill(r.out.begin(), r.out.end(), std::numeric_limits<f32>::quiet_NaN());
    }
    return seconds_since(t0);
  }

  void check(const Read& r) {
    const Dims d = f_.dims;
    const fz::Slice& sl = r.slice;
    bool same = true;
    for (size_t z = 0; z < sl.nz && same; ++z)
      for (size_t y = 0; y < sl.ny && same; ++y) {
        const f32* want =
            reference_.data() + ((sl.z + z) * d.y + (sl.y + y)) * d.x + sl.x;
        same = std::memcmp(want, r.out.data() + (z * sl.ny + y) * sl.nx,
                           sl.nx * sizeof(f32)) == 0;
      }
    oc_.check(same, f_.name + ": slice differs from full decompress");
  }

  const Input& f_;
  Outcomes& oc_;
  bool trace_;
  size_t reads_;
  fz::Rng rng_;  // every slice after set-up
  fz::telemetry::Sink sink_;
  std::vector<Read> warm_;
  std::vector<std::vector<Read>> plan_;  // per client: this round's reads
  std::vector<f32> reference_;
  Series setup_;
  fz::ReaderStats stats_;  // summed over Reader instances
  LoopStats loop_;
  fz::ChunkedCompressed container_;
  std::unique_ptr<fz::Reader> reader_;
};

double scrape(const std::string& text, const std::string& name) {
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line))
    if (line.rfind(name + " ", 0) == 0) return std::stod(line.substr(name.size() + 1));
  return -1;
}

// An in-process fz::Server with a default Service on a private Unix
// socket; kClients fz::Client connections send a seeded 50/50 mix of
// compress and decompress jobs.  After the bursts, every compress response
// must equal a direct Codec stream byte for byte, and every decompress
// response the restored field.  Like the Reader, every round starts a fresh
// server and stops it at the round's end, the set-up's server too.
class ServicePhase {
 public:
  ServicePhase(const Workload& w, const Args& a, Outcomes& oc)
      : w_(w), oc_(oc), trace_(a.trace), calls_(w.job_calls),
        rng_(a.seed ^ 0xf2d0ull), streams_(w.jobs.size()),
        restored_(w.jobs.size()), reqs_(kClients),
        plan_(kClients, std::vector<Job>(kBurstsPerInstance * calls_)),
        path_(a.work_dir + "/fzbench-" + std::to_string(::getpid()) + ".sock") {
    const size_t nj = w.jobs.size();
    {
      fz::Codec direct;
      for (size_t i = 0; i < nj; ++i) {
        streams_[i] = direct.compress(w.jobs[i].data, w.jobs[i].dims).bytes;
        const std::vector<f32> d = direct.decompress(streams_[i]).data;
        const auto b = as_bytes(d);
        restored_[i].assign(b.begin(), b.end());
      }
    }
    // Each client owns a prebuilt compress and decompress request per field.
    for (auto& per : reqs_)
      for (size_t i = 0; i < nj; ++i) {
        fz::Request c;
        c.kind = fz::JobKind::Compress;
        c.dims = w.jobs[i].dims;
        const auto b = as_bytes(w.jobs[i].data);
        c.payload.assign(b.begin(), b.end());
        fz::Request d;
        d.kind = fz::JobKind::Decompress;
        d.payload = streams_[i];
        per.push_back(std::move(c));
        per.push_back(std::move(d));
      }
    first_.resize(reqs_[0].size());
    s_ = timed_setups<Setup>(a.trace, setup_, [&](double& t) { return start(t); });
    retire();
    for (const Job& job : first_) check(job);
    LoopStats warm;
    run(warm);
  }

  void run() { run(loop_); }
  size_t samples() const { return loop_.latency_s.size(); }
  bool calm_enough() const { return loop_.calm_enough(); }

  void write(Json& j) {
    retire();
    j.key("service").open('{');
    setup_.write(j.key("setup_s"));
    loop_.write(j);
    j.key("counters").open('{');
    j.key("completed").num(static_cast<double>(totals_.completed));
    j.key("failed").num(static_cast<double>(totals_.failed));
    j.key("batched_jobs").num(static_cast<double>(totals_.batched_jobs));
    j.key("rejected").num(static_cast<double>(rejected_));
    j.close('}');
    // The Service's own p50 job latency (enqueue to completion), one per
    // server instance.
    j.key("latency_p50_us").nums(latency_p50_us_);
    if (trace_) j.key("trace").trace(sink_);
    j.close('}');
  }

 private:
  struct Setup {
    std::unique_ptr<fz::Server> server;
    std::vector<std::unique_ptr<fz::Client>> clients;
  };
  struct Job {
    size_t request = 0;
    fz::Status status;
    fz::Response response;
  };

  // A fresh server, then kBurstsPerInstance bursts.
  void run(LoopStats& into) {
    // In every burst each client sends every one of its requests equally
    // often, in a seeded order: the 50/50 mix of compress and decompress
    // jobs over all fields.
    const size_t nreq = reqs_[0].size();
    for (auto& jobs : plan_)
      for (size_t b = 0; b < kBurstsPerInstance; ++b) {
        Job* burst = jobs.data() + b * calls_;
        for (size_t k = 0; k < calls_; ++k) burst[k].request = k % nreq;
        for (size_t k = calls_; k > 1; --k)
          std::swap(burst[k - 1].request, burst[rng_.below(k)].request);
      }
    double ignored = 0;
    s_ = start(ignored);
    for (size_t b = 0; b < kBurstsPerInstance; ++b)
      into.burst(calls_, [&](size_t c, size_t k) {
        Job& job = plan_[c][b * calls_ + k];
        fz::telemetry::Span span(trace_ ? &sink_ : nullptr, "bench-job");
        const auto t0 = Clock::now();
        job.status = s_->clients[c]->call(reqs_[c][job.request], job.response);
        return seconds_since(t0);
      });
    retire();
    for (const Job& job : first_) check(job);
    for (const auto& jobs : plan_)
      for (const Job& job : jobs) check(job);
  }

  // Start a server, connect the clients, and make the first (cold) call of
  // every job into first_; adds the seconds this took to t.
  std::unique_ptr<Setup> start(double& t) {
    auto st = std::make_unique<Setup>();
    fz::Server::Options so;
    so.socket_path = path_;
    if (trace_) so.service.telemetry = &sink_;
    const auto t0 = Clock::now();
    st->server = std::make_unique<fz::Server>(so);
    for (size_t c = 0; c < kClients; ++c)
      st->clients.push_back(std::make_unique<fz::Client>(path_));
    for (size_t q = 0; q < first_.size(); ++q) {
      const size_t c = q % kClients;
      first_[q].request = q;
      first_[q].status = st->clients[c]->call(reqs_[c][q], first_[q].response);
    }
    t += seconds_since(t0);
    return st;
  }

  // Fold the server's counters into the totals, then stop it (joining its
  // pools before the sink is read).
  void retire() {
    if (!s_) return;
    const fz::Service& svc = s_->server->service();
    const fz::Service::Counters c = svc.counters();
    totals_.completed += c.completed;
    totals_.failed += c.failed;
    totals_.batched_jobs += c.batched_jobs;
    rejected_ += c.rejected_queue_full + c.rejected_policy + c.rejected_invalid +
                 c.rejected_shutdown;
    std::ostringstream text;
    svc.write_stats_text(text);
    latency_p50_us_.push_back(
        scrape(text.str(), "fz_service_job_latency_us{quantile=\"0.5\"}"));
    s_.reset();
  }

  void check(const Job& job) {
    const size_t i = job.request / 2;
    const bool comp = job.request % 2 == 0;
    const bool good = job.status.ok() &&
                      same_bytes(job.response.payload, comp ? streams_[i] : restored_[i]);
    oc_.check(good, w_.jobs[i].name + ": fzd " + (comp ? "compress" : "decompress") +
                        " response differs " + job.status.to_string());
  }

  const Workload& w_;
  Outcomes& oc_;
  bool trace_;
  size_t calls_;
  fz::Rng rng_;  // every job order of the run
  fz::telemetry::Sink sink_;
  std::vector<std::vector<u8>> streams_, restored_;
  std::vector<std::vector<fz::Request>> reqs_;
  std::vector<Job> first_;              // the first call of every request
  std::vector<std::vector<Job>> plan_;  // per client: this burst's jobs
  std::string path_;
  Series setup_;
  std::vector<double> latency_p50_us_;
  fz::Service::Counters totals_;  // summed over server instances
  u64 rejected_ = 0;              // all causes, summed likewise
  LoopStats loop_;
  std::unique_ptr<Setup> s_;
};

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::stoull(v);
    else if (k == "--seconds") a.seconds = std::stod(v);
    else if (k == "--trace") a.trace = v == "1";
    else if (k == "--out") a.out = v;
    else if (k == "--work-dir") a.work_dir = v;
    else throw std::invalid_argument("unknown argument " + k);
  }
  if (a.workload.empty() || a.out.empty() || a.seconds <= 0)
    throw std::invalid_argument(
        "usage: fzbench --workload NAME --seed N --seconds S --trace 0|1 "
        "--out FILE [--work-dir DIR]");
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args a = parse(argc, argv);
    const auto t_gen = Clock::now();
    const Workload w = make_workload(a.workload, a.seed);
    const double gen_s = seconds_since(t_gen);

    std::ofstream os(a.out);
    Json j(os);
    j.open('{');
    size_t in_bytes = 0, job_bytes = 0;
    for (const Input& f : w.fields) in_bytes += f.bytes();
    for (const Input& f : w.jobs) job_bytes += f.bytes();
    j.key("meta").open('{');
    j.key("workload").str(a.workload);
    j.key("seed").num(static_cast<double>(a.seed));
    j.key("nproc").num(std::thread::hardware_concurrency());
    j.key("clients").num(kClients);
    j.key("simd").str(fz::simd_level_name(fz::resolve_simd()));
    j.key("l2_bytes").num(static_cast<double>(sysconf(_SC_LEVEL2_CACHE_SIZE)));
    j.key("l3_bytes").num(static_cast<double>(sysconf(_SC_LEVEL3_CACHE_SIZE)));
    j.key("input_bytes").num(static_cast<double>(in_bytes));
    j.key("job_bytes").num(static_cast<double>(job_bytes));
    j.key("reader_field_bytes").num(static_cast<double>(w.fields[w.reader_index].bytes()));
    j.key("generate_s").num(gen_s);
    j.close('}');

    const auto progress = [&](const char* what) {
      std::fprintf(stderr, "fzbench: %-16s at %6.2f s\n", what, seconds_since(t_gen));
    };
    progress("generated");
    Outcomes oc;
    CodecPhase codec(w, a, oc);
    progress("codec set up");
    ReaderPhase reader(w, a, oc);
    progress("reader set up");
    ServicePhase service(w, a, oc);
    progress("fzd set up");
    // Every round runs all three phases, so a slow spell on the box lands
    // on each metric alike.  While any operation has too few steal-free
    // samples to keep, the run goes on, up to twice --seconds.
    const auto t0 = Clock::now();
    for (u64 r = 1;; ++r) {
      const auto tc = Clock::now();
      do codec.run();
      while (seconds_since(tc) < w.codec_s);
      reader.run();
      service.run();
      const double spent = seconds_since(t0);
      const bool calm = codec.calm_enough() && reader.calm_enough() &&
                        service.calm_enough();
      if (r >= kMinRounds && spent >= a.seconds && (calm || spent >= 2 * a.seconds) &&
          reader.samples() >= kMinSamples && service.samples() >= kMinSamples)
        break;
    }
    progress("rounds done");
    codec.write(j);
    reader.write(j);
    service.write(j);
    j.key("attempted").num(static_cast<double>(oc.attempted()));
    j.key("failed").num(static_cast<double>(oc.failed()));
    j.key("errors").open('[');
    for (const auto& e : oc.errors()) j.str(e);
    j.close(']');
    j.key("copy_gbps").num(copy_gbps());
    j.close('}');
    os << '\n';
    os.close();
    if (!os) throw std::runtime_error("cannot write " + a.out);
    progress("written");
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fzbench: %s\n", e.what());
    return 2;
  }
}
