// The serving cell mix, its seeded request streams and the fixed load
// shape, shared by the load generator and the in-process runner so that
// every tier runs the same cells.  Header-only and free of recoverlib
// includes: the generator must not link the code it measures.
#pragma once

#include <time.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

// ------------------------------------------------------------ load shape

/// Connections the generator opens to the daemon under test.
inline constexpr int kConnections = 2;
/// Seed of the cold cells every set-up runs first.  It does not follow
/// --seed, so setup_s times the same work on every run.
inline constexpr std::uint64_t kSetupSeed = 1;
/// Pause between two timed phases, so one phase's tail does not spill
/// into the next.
inline constexpr int kPhaseGapMs = 20;
/// cluster_zipf keys: Zipf(kZipfExponent) over kZipfKeysPerExp seeds per
/// experiment, against the router's default cache of kRouterCacheEntries.
/// Tuned so that about 30% of the rate phases' requests miss.
inline constexpr std::uint64_t kZipfKeysPerExp = 3328;
inline constexpr double kZipfExponent = 0.8;
inline constexpr std::size_t kRouterCacheEntries = 4096;
/// Correctness samples: every k-th request of a phase, when it was
/// answered ok, is recomputed in process.  The traced pass recomputes
/// more of the open-loop requests, because it also joins them to the
/// access log (serve.pool_wait_ms).
inline constexpr std::size_t kCheckEveryOpen = 16;
inline constexpr std::size_t kCheckEveryOpenTraced = 4;
inline constexpr std::size_t kCheckEveryBatch = 64;
/// cluster_zipf: every k-th answered timed request goes straight to a
/// backend, whose reply must equal the router's.
inline constexpr std::size_t kReplayEvery = 16;

// --------------------------------------------------------------- helpers

[[noreturn]] inline void die(const std::string& message) {
  std::fprintf(stderr, "%s: %s\n", program_invocation_short_name,
               message.c_str());
  std::exit(2);
}

/// CLOCK_MONOTONIC in nanoseconds: the clock of every timestamp the
/// benchmark writes (run.py reads time.monotonic_ns() against it).
inline std::int64_t now_ns() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

/// Non-empty fields of `s` between `sep`s.
inline std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::stringstream in(s);
  std::string item;
  while (std::getline(in, item, sep)) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

/// `--key value` pairs from argv[first..]; the keys in `switches` take no
/// value and read "1".
inline std::map<std::string, std::string> parse_flags(
    int argc, char** argv, int first, const std::set<std::string>& switches) {
  std::map<std::string, std::string> args;
  for (int i = first; i < argc; ++i) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) die("unexpected argument " + key);
    key = key.substr(2);
    if (switches.count(key) != 0) {
      args[key] = "1";
    } else if (i + 1 < argc) {
      args[key] = argv[++i];
    } else {
      die("missing value for --" + key);
    }
  }
  return args;
}

/// The value of a required flag.
inline const std::string& flag(const std::map<std::string, std::string>& args,
                               const std::string& key) {
  const auto it = args.find(key);
  if (it == args.end()) die("--" + key + " is required");
  return it->second;
}

/// The value of an optional flag, or `fallback`.
inline std::string flag_or(const std::map<std::string, std::string>& args,
                           const std::string& key, const std::string& fallback) {
  const auto it = args.find(key);
  return it == args.end() ? fallback : it->second;
}

// ------------------------------------------------------------ cell mix

/// SplitMix64: the stream generator for every seeded choice here.
inline std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

class Stream {
 public:
  explicit Stream(std::uint64_t seed) : state_(mix64(seed)) {}
  std::uint64_t next() {
    state_ += 0x9E3779B97F4A7C15ull;
    return mix64(state_);
  }
  /// Uniform in [0, 1).
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

 private:
  std::uint64_t state_;
};

/// FNV-1a over a phase name: keeps phase streams apart.
inline std::uint64_t name_hash(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

/// One serving cell: experiment plus its integer axes in wire order.
struct CellSpec {
  const char* exp;
  std::vector<std::pair<const char*, std::int64_t>> params;
};

/// The four small cells of the serving mix, about 0.5-5 ms of
/// single-thread compute each; index = experiment slot.
inline const std::vector<CellSpec>& serving_cells() {
  static const std::vector<CellSpec> cells = {
      {"exp01", {{"m", 256}, {"d", 2}, {"density", 1}, {"replicas", 8}}},
      {"exp03", {{"n", 16}, {"density", 2}, {"d", 2}, {"replicas", 8}}},
      {"exp10", {{"n", 64}, {"d", 2}, {"samples", 200}}},
      {"exp22", {{"n", 32}, {"d", 1}, {"density", 2}, {"replicas", 8}}},
  };
  return cells;
}

inline int exp_slot(const std::string& exp) {
  const auto& cells = serving_cells();
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (exp == cells[i].exp) return static_cast<int>(i);
  }
  return -1;
}

/// A request of the stream: which cell, which seed.
struct Op {
  int slot = 0;
  std::uint64_t seed = 0;
};

/// Largest seed the wire accepts (2^53).
inline constexpr std::uint64_t kSeedMask = (std::uint64_t{1} << 53) - 1;

/// Experiment slots of the mixed stream that the rate phases send:
/// exp01, exp03 and exp22.  exp10 runs only in its batch phase, so the
/// rate phases' p90 is not set by its fluid fixed point alone.
inline constexpr int kMixedSlots[] = {0, 1, 3};

/// Key model of a workload.  Unique (the default): every request gets a
/// fresh seed.  Zipf: the key of a request is (experiment slot, rank),
/// with the rank drawn Zipf(kZipfExponent) over kZipfKeysPerExp ranks and
/// the seed a function of the workload seed and the key.
struct KeyModel {
  bool zipf = false;
  std::vector<double> cdf;

  static KeyModel make_zipf() {
    KeyModel model;
    model.zipf = true;
    model.cdf.resize(kZipfKeysPerExp);
    double total = 0;
    for (std::uint64_t r = 0; r < kZipfKeysPerExp; ++r) {
      total += 1.0 / std::pow(static_cast<double>(r + 1), kZipfExponent);
      model.cdf[r] = total;
    }
    for (double& c : model.cdf) c /= total;
    return model;
  }

  std::uint64_t draw_rank(Stream& rng) const {
    const double u = rng.uniform();
    const auto it = std::lower_bound(cdf.begin(), cdf.end(), u);
    return static_cast<std::uint64_t>(
        std::min<std::ptrdiff_t>(it - cdf.begin(),
                                 static_cast<std::ptrdiff_t>(cdf.size()) - 1));
  }
};

/// The ops of one phase.  slot < 0 draws the experiment uniformly from
/// kMixedSlots (the rate phases); slot >= 0 fixes it (a batch phase).
inline std::vector<Op> make_ops(const KeyModel& model, std::uint64_t seed,
                                const std::string& phase, std::size_t count,
                                int slot) {
  Stream rng(seed ^ name_hash(phase));
  std::vector<Op> ops(count);
  for (Op& op : ops) {
    op.slot = slot >= 0 ? slot : kMixedSlots[rng.next() % 3];
    if (model.zipf) {
      const std::uint64_t rank = model.draw_rank(rng);
      op.seed = mix64(seed * 0x2545F4914F6CDD1Dull +
                      (static_cast<std::uint64_t>(op.slot) << 40) + rank) &
                kSeedMask;
    } else {
      op.seed = rng.next() & kSeedMask;
    }
  }
  return ops;
}

/// The recover.req/1 run_cell line for `op` (no newline).
inline std::string request_line(const Op& op, std::uint64_t id) {
  const CellSpec& cell = serving_cells()[static_cast<std::size_t>(op.slot)];
  std::string line = "{\"schema\":\"recover.req/1\",\"id\":";
  line += std::to_string(id);
  line += ",\"method\":\"run_cell\",\"params\":{\"exp\":\"";
  line += cell.exp;
  line += "\",\"params\":{";
  bool first = true;
  for (const auto& [name, value] : cell.params) {
    if (!first) line += ',';
    first = false;
    line += '"';
    line += name;
    line += "\":";
    line += std::to_string(value);
  }
  line += "},\"seed\":";
  line += std::to_string(op.seed);
  line += "}}";
  return line;
}

}  // namespace perfbench
