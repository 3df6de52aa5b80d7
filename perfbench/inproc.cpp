// perfbench_inproc — the in-process half of the benchmark.  It calls the
// library's public functions and times those calls from outside; it adds
// nothing to the library.
//
//   perfbench_inproc sweep --seed S --ck-dir DIR --out FILE --rounds R
//       --cells exp01:N,exp03:N,exp10:N,exp22:N
//       --rates low:RATE:SECONDS,high:RATE:SECONDS
//       [--trace 1 --trace-out FILE] [--setup-only]
//     The sweep_paper workload, R rounds of: the serving cell mix at two
//     fixed rates on two in-process workers, then four sweep::run_sweep
//     phases (N cells of one homogeneous grid each, with a checkpoint
//     file) on a private 2-thread pool.  With --trace 1 it enables obs
//     metrics and tracing, reads counter deltas per phase, and runs the
//     layer probes afterwards.
//
//   perfbench_inproc serve-check --records FILE --out FILE
//       [--trace 1 --trace-out FILE]
//     Recomputes a deterministic sample of the generator's requests with
//     serve::dispatch and writes each recomputed reply line, which run.py
//     compares with the wire bytes; with --trace 1 it also times
//     serve::parse_request on every line.
//
//   perfbench_inproc cache-probe --records FILE --out FILE
//     Replays the workload's key stream through a cluster::ResultCache of
//     the router's default size.
//
// Output lines are tab-separated; perfbench/run.py reads them.  stdout
// gets "READY <ns>" (CLOCK_MONOTONIC) when the sweep workload is set up.
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <fstream>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/balls/grand_coupling.hpp"
#include "src/balls/load_vector.hpp"
#include "src/balls/rbb.hpp"
#include "src/balls/scenario_a.hpp"
#include "src/balls/scenario_b.hpp"
#include "src/cluster/cache.hpp"
#include "src/cluster/digest.hpp"
#include "src/fluid/fluid_limit.hpp"
#include "src/kernel/kernel.hpp"
#include "src/obs/json_writer.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"
#include "src/obs/trace_export.hpp"
#include "src/parallel/thread_pool.hpp"
#include "src/rng/engines.hpp"
#include "src/serve/handlers.hpp"
#include "src/serve/protocol.hpp"
#include "src/sweep/checkpoint.hpp"
#include "src/sweep/grid.hpp"
#include "src/sweep/registry.hpp"
#include "src/sweep/scheduler.hpp"
#include "workload.hpp"

namespace {

using namespace recover;
using perfbench::die;
using perfbench::flag;
using perfbench::now_ns;
using perfbench::split;

/// Keeps the compiler from hoisting or merging the timed calls: every
/// call's result escapes and memory is assumed to change between calls.
template <typename T>
inline void keep(const T& value) {
  asm volatile("" : : "r"(&value) : "memory");
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

long peak_rss_kb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss;
}

obs::Histogram& bench_histogram(const std::string& name) {
  return obs::Registry::global().histogram("bench." + name);
}

// ---------------------------------------------------------------- sweep

struct PaperPhase {
  std::string exp;
  std::string grid;   // one registered cell; a rep axis is appended
  std::int64_t burst; // the cell's kernel::advance burst length
};

/// The four paper cells and the bursts their bodies advance by
/// (src/sweep/cells_builtin.cpp): exp01 m/8, exp03 m*m/64, exp10 n/4
/// between samples, exp22 n/8 rounds.
const std::vector<PaperPhase>& paper_phases() {
  static const std::vector<PaperPhase> phases = {
      {"exp01", "m=512;d=2;density=1;replicas=8", 512 / 8},
      {"exp03", "n=48;density=2;d=2;replicas=8", 96 * 96 / 64},
      {"exp10", "n=1024;d=2;samples=300", 1024 / 4},
      {"exp22", "n=128;d=1;density=2;replicas=8", 128 / 8},
  };
  return phases;
}

sweep::Cell serving_cell(int slot) {
  sweep::Cell cell;
  for (const auto& [name, value] :
       perfbench::serving_cells()[static_cast<std::size_t>(slot)].params) {
    cell.params.emplace_back(name, value);
  }
  return cell;
}

/// Runs a serving-mix op exactly as serve's run_cell handler seeds it,
/// and returns a digest of its values in result-column order.
std::uint64_t run_serving_op(const perfbench::Op& op) {
  const char* name = perfbench::serving_cells()[static_cast<std::size_t>(op.slot)].exp;
  const sweep::Experiment* exp = sweep::Registry::global().find(name);
  const sweep::Cell cell = serving_cell(op.slot);
  sweep::CellContext ctx;
  ctx.seed = rng::substream(op.seed, sweep::cell_hash(exp->name, cell));
  ctx.parallel_within_cell = false;
  const sweep::CellResult result = exp->run(cell, ctx);
  std::string text;
  for (const auto& column : exp->result_columns) {
    text += obs::json_number(result.at(column));
    text += ',';
  }
  return sweep::fnv1a64(text);
}

struct InprocOp {
  perfbench::Op op;
  std::int64_t due = 0;
  std::int64_t sent = 0;
  std::int64_t start = 0;
  std::int64_t done = 0;
  std::uint64_t digest = 0;
};

/// Open loop in process: the main thread releases each op at its due
/// time into a queue served by two worker threads.
std::vector<InprocOp> run_open_phase(const std::vector<perfbench::Op>& ops,
                                     double rate) {
  static obs::Histogram& cell_span = bench_histogram("inproc.cell_ns");
  std::vector<InprocOp> out(ops.size());
  std::mutex mutex;
  std::condition_variable cv;
  std::deque<std::size_t> queue;
  bool closing = false;
  const auto worker = [&] {
    for (;;) {
      std::size_t i = 0;
      {
        std::unique_lock<std::mutex> lock(mutex);
        cv.wait(lock, [&] { return closing || !queue.empty(); });
        if (queue.empty()) return;
        i = queue.front();
        queue.pop_front();
      }
      out[i].start = now_ns();
      {
        obs::ScopedSpan span(cell_span);
        out[i].digest = run_serving_op(out[i].op);
      }
      out[i].done = now_ns();
    }
  };
  std::thread a(worker);
  std::thread b(worker);
  const auto interval = static_cast<std::int64_t>(1e9 / rate);
  const std::int64_t start = now_ns() + 2'000'000;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    out[i].op = ops[i];
    out[i].due = start + static_cast<std::int64_t>(i) * interval;
    const timespec at{static_cast<time_t>(out[i].due / 1'000'000'000),
                      static_cast<long>(out[i].due % 1'000'000'000)};
    while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &at, nullptr) != 0) {
    }
    {
      std::lock_guard<std::mutex> lock(mutex);
      out[i].sent = now_ns();
      queue.push_back(i);
    }
    cv.notify_one();
  }
  {
    std::lock_guard<std::mutex> lock(mutex);
    closing = true;
  }
  cv.notify_all();
  a.join();
  b.join();
  return out;
}

/// obs::Registry deltas accumulated over the stretches of one phase
/// (its rounds): counters add, histogram buckets add.
class Deltas {
 public:
  void begin() { before_ = obs::Registry::global().snapshot(); }

  void end() {
    const auto after = obs::Registry::global().snapshot();
    for (const auto& [name, value] : after.counters) {
      std::uint64_t prior = 0;
      for (const auto& [n, v] : before_.counters) {
        if (n == name) prior = v;
      }
      counters_[name] += value - prior;
    }
    for (const auto& [name, snap] : after.histograms) {
      obs::Histogram::Snapshot& acc = histograms_[name];
      const obs::Histogram::Snapshot* prior = nullptr;
      for (const auto& [n, h] : before_.histograms) {
        if (n == name) prior = &h;
      }
      acc.count += snap.count - (prior ? prior->count : 0);
      acc.sum += snap.sum - (prior ? prior->sum : 0);
      for (std::size_t b = 0; b < acc.buckets.size(); ++b) {
        acc.buckets[b] += snap.buckets[b] - (prior ? prior->buckets[b] : 0);
      }
    }
  }

  void write(std::FILE* out, const std::string& phase) const {
    for (const auto& [name, value] : counters_) {
      std::fprintf(out, "C\t%s\t%s\t%llu\n", phase.c_str(), name.c_str(),
                   static_cast<unsigned long long>(value));
    }
    for (const auto& [name, h] : histograms_) {
      if (h.count == 0) continue;
      std::fprintf(out, "H\t%s\t%s\t%llu\t%llu\n", phase.c_str(),
                   name.c_str(), static_cast<unsigned long long>(h.count),
                   static_cast<unsigned long long>(h.sum));
    }
  }

 private:
  obs::Registry::Snapshot before_;
  std::map<std::string, std::uint64_t> counters_;
  std::map<std::string, obs::Histogram::Snapshot> histograms_;
};

// ---------------------------------------------------------------- probes

struct CouplingProbe {
  double step_ns = 0;
  double check_ns = 0;
};

/// Replays a coupling cell's loop — burst, then coalescence check — for
/// `replicas` replicas from the phase's start pair, timing each
/// kernel::advance call and, at every not-yet-coalesced state, a run of
/// coalesced() calls.
template <typename Make>
CouplingProbe probe_coupling(Make make, std::int64_t burst, int replicas,
                             std::uint64_t seed) {
  static obs::Histogram& span_hist = bench_histogram("probe.coupling_ns");
  obs::ScopedSpan span(span_hist);
  constexpr int kChecks = 16;
  std::int64_t steps = 0;
  std::int64_t advance_ns = 0;
  std::int64_t checks = 0;
  std::int64_t check_ns = 0;
  for (int r = 0; r < replicas; ++r) {
    rng::Xoshiro256PlusPlus eng(rng::substream(seed, static_cast<std::uint64_t>(r)));
    auto coupling = make();
    for (;;) {
      const std::int64_t t0 = now_ns();
      kernel::advance(coupling, eng, burst);
      advance_ns += now_ns() - t0;
      steps += burst;
      if (coupling.coalesced()) break;
      const std::int64_t t1 = now_ns();
      for (int k = 0; k < kChecks; ++k) {
        const bool met = coupling.coalesced();
        keep(met);
      }
      check_ns += now_ns() - t1;
      checks += kChecks;
    }
  }
  CouplingProbe out;
  out.step_ns = static_cast<double>(advance_ns) / static_cast<double>(steps);
  out.check_ns =
      checks > 0 ? static_cast<double>(check_ns) / static_cast<double>(checks)
                 : 0.0;
  return out;
}

/// exp10's loop: burn-in in 4096-step bursts, then 300 samples n/4 apart,
/// on both scenario chains.
double probe_exp10(std::uint64_t seed) {
  static obs::Histogram& span_hist = bench_histogram("probe.chain_ns");
  obs::ScopedSpan span(span_hist);
  const std::int64_t n = 1024;
  const auto ns = static_cast<std::size_t>(n);
  std::int64_t steps = 0;
  std::int64_t elapsed = 0;
  rng::Xoshiro256PlusPlus eng(seed);
  const auto run = [&](auto& chain) {
    std::int64_t burn = 40 * n;
    while (burn > 0) {
      const std::int64_t b = std::min<std::int64_t>(4096, burn);
      const std::int64_t t0 = now_ns();
      kernel::advance(chain, eng, b);
      elapsed += now_ns() - t0;
      steps += b;
      burn -= b;
    }
    for (int s = 0; s < 300; ++s) {
      const std::int64_t t0 = now_ns();
      kernel::advance(chain, eng, n / 4);
      elapsed += now_ns() - t0;
      steps += n / 4;
      keep(chain.state().max_load());
    }
  };
  balls::ScenarioAChain<balls::AbkuRule> a(balls::LoadVector::balanced(ns, n),
                                           balls::AbkuRule(2));
  run(a);
  balls::ScenarioBChain<balls::AbkuRule> b(balls::LoadVector::balanced(ns, n),
                                           balls::AbkuRule(2));
  run(b);
  return static_cast<double>(elapsed) / static_cast<double>(steps);
}

/// Median over `reps` timings of `body(iterations)`, per iteration, in ns.
double per_call_ns(int reps, int iterations,
                   const std::function<void(int)>& body) {
  std::vector<double> samples;
  for (int r = 0; r < reps; ++r) {
    const std::int64_t t0 = now_ns();
    body(iterations);
    samples.push_back(static_cast<double>(now_ns() - t0) / iterations);
  }
  return median(samples);
}

void run_probes(std::FILE* out, std::uint64_t seed) {
  static obs::Histogram& span_hist = bench_histogram("probe.layer_ns");
  const auto emit = [out](const char* name, double value) {
    std::fprintf(out, "X\t%s\t%.17g\n", name, value);
  };
  const auto coupling_a = probe_coupling(
      [] {
        return balls::GrandCouplingA<balls::AbkuRule>(
            balls::LoadVector::all_in_one(512, 512),
            balls::LoadVector::balanced(512, 512), balls::AbkuRule(2));
      },
      paper_phases()[0].burst, 8, seed);
  emit("kernel.step_ns.exp01", coupling_a.step_ns);
  emit("core.check_ns.exp01", coupling_a.check_ns);
  const auto coupling_b = probe_coupling(
      [] {
        return balls::GrandCouplingB<balls::AbkuRule>(
            balls::LoadVector::all_in_one(48, 96),
            balls::LoadVector::balanced(48, 96), balls::AbkuRule(2));
      },
      paper_phases()[1].burst, 8, seed);
  emit("kernel.step_ns.exp03", coupling_b.step_ns);
  emit("core.check_ns.exp03", coupling_b.check_ns);
  emit("kernel.step_ns.exp10", probe_exp10(seed));
  const auto coupling_rbb = probe_coupling(
      [] {
        return balls::GrandCouplingRBB<balls::AbkuRule>(
            balls::LoadVector::all_in_one(128, 256),
            balls::LoadVector::balanced(128, 256), balls::AbkuRule(1));
      },
      paper_phases()[3].burst, 8, seed);
  emit("kernel.step_ns.exp22", coupling_rbb.step_ns);
  emit("core.check_ns.exp22", coupling_rbb.check_ns);

  obs::ScopedSpan span(span_hist);
  rng::Xoshiro256PlusPlus eng(seed);
  {
    const balls::LoadVector v = balls::LoadVector::balanced(512, 512);
    emit("balls.draw_a_ns", per_call_ns(15, 4096, [&](int k) {
           for (int i = 0; i < k; ++i) keep(v.sample_ball_weighted(eng));
         }));
  }
  {
    const balls::LoadVector v = balls::LoadVector::balanced(48, 96);
    emit("balls.draw_b_ns", per_call_ns(15, 4096, [&](int k) {
           for (int i = 0; i < k; ++i) keep(v.sample_nonempty_uniform(eng));
         }));
  }
  {
    // Max bin to min bin and back to the same multiset: each iteration is
    // one ⊖ and one ⊕ on a 512-ball vector.
    balls::LoadVector v = balls::LoadVector::balanced(512, 512);
    emit("balls.move_ns", per_call_ns(15, 4096, [&](int k) {
           for (int i = 0; i < k; ++i) {
             keep(v.remove_at(0));
             keep(v.add_at(v.bins() - 1));
           }
         }));
  }
  {
    const balls::LoadVector base = balls::LoadVector::balanced(128, 256);
    std::vector<double> samples;
    for (int r = 0; r < 15; ++r) {
      std::vector<balls::LoadVector> copies(64, base);
      const std::int64_t t0 = now_ns();
      for (auto& v : copies) keep(v.eject_one_per_nonempty());
      samples.push_back(static_cast<double>(now_ns() - t0) / 64.0);
    }
    emit("balls.eject_ns", median(samples));
  }
  {
    std::vector<std::uint64_t> words(4096);
    emit("rng.word_ns", per_call_ns(31, 1, [&](int) {
           eng.fill(words.data(), words.size());
           keep(words[0]);
         }) / static_cast<double>(words.size()));
  }
  {
    std::vector<double> samples;
    for (int r = 0; r < 5; ++r) {
      fluid::FluidModel model(fluid::Scenario::kA, 2, 1.0, 40);
      const std::int64_t t0 = now_ns();
      const auto fixed = model.fixed_point();
      keep(fixed);
      samples.push_back(static_cast<double>(now_ns() - t0) / 1e6);
    }
    emit("fluid.fixed_point_ms", median(samples));
  }
}

int sweep_main(const std::map<std::string, std::string>& args) {
  const std::uint64_t seed = std::stoull(flag(args, "seed"));
  const bool traced = perfbench::flag_or(args, "trace", "0") == "1";
  const bool setup_only = args.count("setup-only") != 0;
  const std::string& ck_dir = flag(args, "ck-dir");
  const int rounds = std::stoi(perfbench::flag_or(args, "rounds", "1"));
  if (rounds < 1) die("--rounds must be at least 1");
  std::map<std::string, std::int64_t> cells;
  for (const std::string& item : split(flag(args, "cells"), ',')) {
    const auto f = split(item, ':');
    if (f.size() != 2) die("bad --cells item " + item);
    cells[f[0]] = std::stoll(f[1]);
  }
  struct Rate {
    std::string name;
    double rate;
    double seconds;
  };
  std::vector<Rate> rates;
  for (const std::string& item : split(flag(args, "rates"), ',')) {
    const auto f = split(item, ':');
    if (f.size() != 3) die("bad --rates item " + item);
    rates.push_back({f[0], std::stod(f[1]), std::stod(f[2])});
  }

  // Set-up: the private pool, then one cold cell of every paper phase and
  // of every serving cell (untimed warm-up).
  if (traced) {
    obs::set_metrics_enabled(true);
    obs::set_trace_enabled(true);
    obs::trace::set_thread_name("perfbench.main");
  }
  parallel::ThreadPool pool(2);
  for (const PaperPhase& phase : paper_phases()) {
    const sweep::Experiment* exp = sweep::Registry::global().find(phase.exp);
    if (exp == nullptr) die("experiment " + phase.exp + " is not registered");
    if (cells.count(phase.exp) == 0) die("--cells misses " + phase.exp);
    sweep::CellContext ctx;
    ctx.seed = rng::substream(perfbench::kSetupSeed, 0);
    keep(exp->run(sweep::GridSpec::parse(phase.grid).cell(0), ctx));
  }
  for (int slot = 0; slot < static_cast<int>(perfbench::serving_cells().size());
       ++slot) {
    keep(run_serving_op(perfbench::Op{slot, perfbench::kSetupSeed}));
  }
  std::printf("READY %lld\n", static_cast<long long>(now_ns()));
  std::fflush(stdout);
  if (setup_only) return 0;

  const std::string& out_path = flag(args, "out");
  std::FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) die("cannot write " + out_path);
  const perfbench::KeyModel unique;
  static obs::Histogram& sweep_span = bench_histogram("sweep.run_sweep_ns");
  std::map<std::string, Deltas> deltas;
  for (int round = 0; round < rounds; ++round) {
    const std::string tag = "/" + std::to_string(round);
    for (const Rate& rate : rates) {
      const auto ops = perfbench::make_ops(
          unique, seed, rate.name + tag,
          static_cast<std::size_t>(rate.rate * rate.seconds), -1);
      deltas[rate.name].begin();
      const std::int64_t t0 = now_ns();
      const auto done = run_open_phase(ops, rate.rate);
      deltas[rate.name].end();
      std::fprintf(out, "P\t%s\t%d\t%lld\t%lld\n", rate.name.c_str(), round,
                   static_cast<long long>(t0), static_cast<long long>(now_ns()));
      for (const InprocOp& op : done) {
        std::fprintf(out, "R\t%s\t%d\t%d\t%llu\t%lld\t%lld\t%lld\t%lld\t%s\n",
                     rate.name.c_str(), round, op.op.slot,
                     static_cast<unsigned long long>(op.op.seed),
                     static_cast<long long>(op.due), static_cast<long long>(op.sent),
                     static_cast<long long>(op.start), static_cast<long long>(op.done),
                     sweep::hash_hex(op.digest).c_str());
      }
    }
    // Round r of a paper phase is the slice rep = r*n .. r*n+n-1 of its
    // grid, with its own checkpoint file.
    for (const PaperPhase& phase : paper_phases()) {
      const std::int64_t n = cells[phase.exp];
      const sweep::GridSpec grid = sweep::GridSpec::parse(
          phase.grid + ";rep=" + std::to_string(round * n) + ".." +
          std::to_string(round * n + n - 1));
      sweep::SweepOptions options;
      options.exp = phase.exp;
      options.seed = seed;
      options.checkpoint_path =
          ck_dir + "/" + phase.exp + "-" + std::to_string(round) + ".jsonl";
      options.pool = &pool;
      std::remove(options.checkpoint_path.c_str());
      deltas[phase.exp].begin();
      deltas["sweeps"].begin();
      const std::int64_t t0 = now_ns();
      sweep::SweepReport report;
      {
        obs::ScopedSpan span(sweep_span, phase.exp);
        report = sweep::run_sweep(grid, options);
      }
      const std::int64_t t1 = now_ns();
      deltas[phase.exp].end();
      deltas["sweeps"].end();
      const auto load = sweep::load_checkpoint(options.checkpoint_path);
      const std::string table = report.table.to_string();
      std::fprintf(out, "W\t%s\t%d\t%llu\t%lld\t%s\t%zu\t%zu\t%u\n",
                   phase.exp.c_str(), round,
                   static_cast<unsigned long long>(report.cells_run),
                   static_cast<long long>(t1 - t0),
                   sweep::hash_hex(sweep::fnv1a64(table)).c_str(),
                   load.records.size(), load.skipped_lines, pool.size());
      for (const sweep::CellRecord& record : load.records) {
        double censored = 0;
        for (const auto& [name, value] : record.values) {
          if (name == "censored") censored = value;
        }
        std::fprintf(out, "K\t%s\t%d\t%llu\t%.17g\t%.17g\n", phase.exp.c_str(),
                     round, static_cast<unsigned long long>(record.index),
                     record.wall_seconds, censored);
      }
    }
  }
  if (traced) {
    for (const auto& [phase, d] : deltas) d.write(out, phase);
    for (const PaperPhase& phase : paper_phases()) {
      std::fprintf(out, "B\t%s\t%lld\n", phase.exp.c_str(),
                   static_cast<long long>(phase.burst));
    }
    run_probes(out, seed);
    obs::set_trace_enabled(false);
    if (!obs::export_trace_file(flag(args, "trace-out"))) {
      die("trace export failed");
    }
  }
  std::fprintf(out, "M\tpeak_rss_kb\t%ld\n", peak_rss_kb());
  std::fclose(out);
  return 0;
}

// ---------------------------------------------------------- serve-check

struct WireRecord {
  std::string phase;
  std::uint64_t id = 0;
  std::string status;
  std::string request;
  std::string reply;
};

std::vector<WireRecord> read_records(const std::string& path) {
  std::ifstream in(path);
  if (!in) die("cannot read " + path);
  std::vector<WireRecord> out;
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("R\t", 0) != 0) continue;
    std::vector<std::string> f;
    std::size_t begin = 0;
    for (;;) {
      const std::size_t tab = line.find('\t', begin);
      f.push_back(line.substr(begin, tab == std::string::npos ? tab : tab - begin));
      if (tab == std::string::npos) break;
      begin = tab + 1;
    }
    if (f.size() != 12) die("malformed record line");
    out.push_back({f[1], std::stoull(f[5]), f[9], f[10], f[11]});
  }
  return out;
}

int serve_check_main(const std::map<std::string, std::string>& args) {
  const auto records = read_records(flag(args, "records"));
  const bool traced = perfbench::flag_or(args, "trace", "0") == "1";
  const std::size_t every_open = traced ? perfbench::kCheckEveryOpenTraced
                                        : perfbench::kCheckEveryOpen;
  const std::string& out_path = flag(args, "out");
  std::FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) die("cannot write " + out_path);
  if (traced) {
    obs::set_metrics_enabled(true);
    obs::set_trace_enabled(true);
    obs::trace::set_thread_name("perfbench.main");
  }
  static obs::Histogram& parse_span = bench_histogram("serve.parse_request_ns");
  static obs::Histogram& dispatch_span = bench_histogram("serve.dispatch_ns");
  std::map<std::string, std::size_t> seen;
  std::vector<double> parse_ns;
  for (const WireRecord& r : records) {
    if (traced) {
      serve::Request req;
      const std::int64_t t0 = now_ns();
      {
        obs::ScopedSpan span(parse_span);
        keep(serve::parse_request(r.request, req));
      }
      parse_ns.push_back(static_cast<double>(now_ns() - t0));
    }
    if (r.phase == "warm") continue;
    const std::size_t index = seen[r.phase]++;
    const bool open = r.phase == "low" || r.phase == "high";
    if (r.status != "ok" ||
        index % (open ? every_open : perfbench::kCheckEveryBatch) != 0) {
      continue;
    }
    serve::Request req;
    if (!serve::parse_request(r.request, req).ok) die("unparsable request");
    serve::HandlerContext ctx;
    ctx.cells_parallel = true;
    const std::int64_t t0 = now_ns();
    serve::HandlerResult result;
    {
      obs::ScopedSpan span(dispatch_span, r.phase);
      result = serve::dispatch(req, ctx);
    }
    const std::int64_t elapsed = now_ns() - t0;
    // The reply recover_serve would send for this dispatch result.
    const std::string line =
        result.ok ? serve::make_result(req.id, result.result_json)
                  : serve::make_error(req.id, result.code, result.message);
    std::fprintf(out, "D\t%s\t%llu\t%lld\t%s\n", r.phase.c_str(),
                 static_cast<unsigned long long>(r.id),
                 static_cast<long long>(elapsed), line.c_str());
  }
  if (traced) {
    std::fprintf(out, "Q\tparse_ns\t%.17g\t%zu\n", median(parse_ns),
                 parse_ns.size());
    obs::set_trace_enabled(false);
    if (!obs::export_trace_file(flag(args, "trace-out"))) {
      die("trace export failed");
    }
  }
  std::fclose(out);
  return 0;
}

// ---------------------------------------------------------- cache-probe

int cache_probe_main(const std::map<std::string, std::string>& args) {
  auto records = read_records(flag(args, "records"));
  std::sort(records.begin(), records.end(),
            [](const WireRecord& a, const WireRecord& b) { return a.id < b.id; });
  cluster::ResultCache cache(perfbench::kRouterCacheEntries);
  std::vector<double> get_ns;
  std::vector<double> put_ns;
  std::vector<double> clock_ns;
  for (int i = 0; i < 1000; ++i) {
    const std::int64_t t0 = now_ns();
    clock_ns.push_back(static_cast<double>(now_ns() - t0));
  }
  const double overhead = median(clock_ns);
  const std::size_t steady = records.size() / 2;
  for (std::size_t i = 0; i < records.size(); ++i) {
    const WireRecord& r = records[i];
    if (r.status != "ok") continue;
    serve::Request req;
    serve::RunCellRequest parsed;
    std::string error;
    std::string value;
    if (!serve::parse_request(r.request, req).ok ||
        !serve::parse_run_cell(req.params, parsed, error) ||
        !serve::extract_result(r.reply, value)) {
      die("unusable record for the cache probe");
    }
    const std::string key = cluster::cache_key(parsed);
    std::string got;
    const std::int64_t t0 = now_ns();
    const bool hit = cache.get(key, got);
    const std::int64_t t1 = now_ns();
    if (i >= steady) get_ns.push_back(static_cast<double>(t1 - t0) - overhead);
    if (!hit) {
      const std::int64_t t2 = now_ns();
      cache.put(key, value);
      const std::int64_t t3 = now_ns();
      if (i >= steady) put_ns.push_back(static_cast<double>(t3 - t2) - overhead);
    }
  }
  const std::string& out_path = flag(args, "out");
  std::FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) die("cannot write " + out_path);
  std::fprintf(out, "X\tcluster.cache_get_us\t%.17g\t%zu\n",
               median(get_ns) / 1e3, get_ns.size());
  std::fprintf(out, "X\tcluster.cache_put_us\t%.17g\t%zu\n",
               median(put_ns) / 1e3, put_ns.size());
  std::fclose(out);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) die("usage: perfbench_inproc sweep|serve-check|cache-probe ...");
  const std::string mode = argv[1];
  const auto args = perfbench::parse_flags(argc, argv, 2, {"setup-only"});
  if (mode == "sweep") return sweep_main(args);
  if (mode == "serve-check") return serve_check_main(args);
  if (mode == "cache-probe") return cache_probe_main(args);
  die("unknown mode " + mode);
}
