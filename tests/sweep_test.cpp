// Tests for the sweep subsystem: grid expansion, checkpoint durability
// and torn-line recovery, shard partitioning, schedule independence of
// the full engine, and the golden bytes of every sweep cell family.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/certify/check.hpp"
#include "src/parallel/thread_pool.hpp"
#include "src/serve/handlers.hpp"
#include "src/serve/protocol.hpp"
#include "src/sweep/checkpoint.hpp"
#include "src/sweep/grid.hpp"
#include "src/sweep/registry.hpp"
#include "src/sweep/scheduler.hpp"

namespace recover::sweep {
namespace {

std::string temp_path(const std::string& stem) {
  return testing::TempDir() + stem;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// --- grid -----------------------------------------------------------------

TEST(GridSpec, ParsesListsAndRanges) {
  const auto grid = GridSpec::parse("m=64..512:x2;d=1..3;replicas=4,8");
  ASSERT_EQ(grid.axis_count(), 3u);
  EXPECT_EQ(grid.axis(0).name, "m");
  EXPECT_EQ(grid.axis(0).values, (std::vector<std::int64_t>{64, 128, 256, 512}));
  EXPECT_EQ(grid.axis(1).values, (std::vector<std::int64_t>{1, 2, 3}));
  EXPECT_EQ(grid.axis(2).values, (std::vector<std::int64_t>{4, 8}));
  EXPECT_EQ(grid.cells(), 4u * 3u * 2u);
}

TEST(GridSpec, ArithmeticStepAndEndpointInclusion) {
  // +3 from 1: 1,4,7,10 — inclusive of end when hit exactly.
  const auto hit = GridSpec::parse("k=1..10:+3");
  EXPECT_EQ(hit.axis(0).values, (std::vector<std::int64_t>{1, 4, 7, 10}));
  // x3 from 2: 2,6,18 — 54 overshoots 20 and is excluded.
  const auto miss = GridSpec::parse("k=2..20:x3");
  EXPECT_EQ(miss.axis(0).values, (std::vector<std::int64_t>{2, 6, 18}));
}

TEST(GridSpec, RowMajorCellOrderFirstAxisSlowest) {
  const auto grid = GridSpec::parse("a=1,2;b=10,20,30");
  ASSERT_EQ(grid.cells(), 6u);
  EXPECT_EQ(grid.cell(0).at("a"), 1);
  EXPECT_EQ(grid.cell(0).at("b"), 10);
  EXPECT_EQ(grid.cell(2).at("a"), 1);
  EXPECT_EQ(grid.cell(2).at("b"), 30);
  EXPECT_EQ(grid.cell(3).at("a"), 2);
  EXPECT_EQ(grid.cell(3).at("b"), 10);
  EXPECT_EQ(grid.cell(5).key(), "a=2,b=30");
  EXPECT_EQ(grid.cell(4).index, 4u);
}

TEST(GridSpec, CellParameterLookup) {
  const auto cell = GridSpec::parse("m=8;d=2").cell(0);
  EXPECT_EQ(cell.at("m"), 8);
  EXPECT_EQ(cell.get("d", 99), 2);
  EXPECT_EQ(cell.get("absent", 99), 99);
}

TEST(GridSpec, ToStringRoundTrips) {
  const auto grid = GridSpec::parse("m=4..16:x2;d=1,3");
  const auto again = GridSpec::parse(grid.to_string());
  ASSERT_EQ(again.cells(), grid.cells());
  for (std::uint64_t i = 0; i < grid.cells(); ++i) {
    EXPECT_EQ(again.cell(i).key(), grid.cell(i).key());
  }
}

TEST(GridSpec, ParseErrorsThrow) {
  EXPECT_THROW(GridSpec::parse(""), std::invalid_argument);
  EXPECT_THROW(GridSpec::parse("m"), std::invalid_argument);
  EXPECT_THROW(GridSpec::parse("m="), std::invalid_argument);
  EXPECT_THROW(GridSpec::parse("m=1;m=2"), std::invalid_argument);
  EXPECT_THROW(GridSpec::parse("m=5..1"), std::invalid_argument);
  EXPECT_THROW(GridSpec::parse("m=1..8:x1"), std::invalid_argument);
  EXPECT_THROW(GridSpec::parse("m=1..8:+0"), std::invalid_argument);
  EXPECT_THROW(GridSpec::parse("m=1..8:z2"), std::invalid_argument);
  EXPECT_THROW(GridSpec::parse("m=abc"), std::invalid_argument);
}

TEST(GridSpec, HashIsStableAndHexIs16Chars) {
  // Frozen FNV-1a vector: scripts/check_bench_json.py mirrors these
  // constants, so a change here is a cross-language format break.
  EXPECT_EQ(fnv1a64(""), 14695981039346656037ULL);
  EXPECT_EQ(hash_hex(fnv1a64("")), "cbf29ce484222325");
  const auto cell = GridSpec::parse("m=64;d=1").cell(0);
  EXPECT_EQ(cell_hash("exp01", cell), fnv1a64("exp01|m=64,d=1"));
  EXPECT_EQ(hash_hex(cell_hash("exp01", cell)).size(), 16u);
}

TEST(GridSpec, ShardsPartitionTheGrid) {
  constexpr std::uint64_t kCells = 97;  // prime: uneven shards
  for (const int k : {1, 2, 3, 8}) {
    std::vector<int> owners(kCells, 0);
    for (int s = 0; s < k; ++s) {
      for (std::uint64_t i = 0; i < kCells; ++i) {
        if (in_shard(i, s, k)) ++owners[i];
      }
    }
    for (std::uint64_t i = 0; i < kCells; ++i) {
      EXPECT_EQ(owners[i], 1) << "cell " << i << " with k=" << k;
    }
  }
}

// --- checkpoint -----------------------------------------------------------

CellRecord make_record(const std::string& exp, const Cell& cell,
                       double value) {
  CellRecord r;
  r.exp = exp;
  r.key = cell.key();
  r.hash = cell_hash(exp, cell);
  r.index = cell.index;
  r.values = {{"T_mean", value}, {"censored", 0.0}};
  r.wall_seconds = 0.5;
  return r;
}

TEST(Checkpoint, RoundTripsRecords) {
  const auto path = temp_path("ckpt_roundtrip.jsonl");
  std::remove(path.c_str());
  const auto grid = GridSpec::parse("m=8,16;d=1");
  {
    CheckpointWriter writer(path);
    writer.append(make_record("expT", grid.cell(0), 1.25));
    writer.append(make_record("expT", grid.cell(1), -3.5e-7));
  }
  const auto load = load_checkpoint(path);
  EXPECT_EQ(load.skipped_lines, 0u);
  ASSERT_EQ(load.records.size(), 2u);
  EXPECT_EQ(load.records[0].exp, "expT");
  EXPECT_EQ(load.records[0].key, "m=8,d=1");
  EXPECT_EQ(load.records[0].index, 0u);
  EXPECT_EQ(load.records[0].values[0].first, "T_mean");
  // JSON double round trip is exact (shortest round-trip rendering).
  EXPECT_EQ(load.records[0].values[0].second, 1.25);
  EXPECT_EQ(load.records[1].values[0].second, -3.5e-7);
}

TEST(Checkpoint, MissingFileIsEmpty) {
  const auto load = load_checkpoint(temp_path("ckpt_never_written.jsonl"));
  EXPECT_TRUE(load.records.empty());
  EXPECT_EQ(load.skipped_lines, 0u);
}

TEST(Checkpoint, TornTailLineIsSkippedNotFatal) {
  const auto path = temp_path("ckpt_torn.jsonl");
  std::remove(path.c_str());
  const auto grid = GridSpec::parse("m=8,16,32;d=1");
  {
    CheckpointWriter writer(path);
    for (std::uint64_t i = 0; i < 3; ++i) {
      writer.append(make_record("expT", grid.cell(i), static_cast<double>(i)));
    }
  }
  // Simulate a crash mid-append: truncate the file inside the last line.
  auto text = slurp(path);
  ASSERT_FALSE(text.empty());
  text.resize(text.size() - 25);
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << text;
  }
  const auto load = load_checkpoint(path);
  EXPECT_EQ(load.skipped_lines, 1u);
  ASSERT_EQ(load.records.size(), 2u);
  EXPECT_EQ(load.records[1].key, "m=16,d=1");
}

TEST(Checkpoint, CorruptAndForeignLinesAreSkipped) {
  const auto path = temp_path("ckpt_corrupt.jsonl");
  const auto grid = GridSpec::parse("m=8;d=1");
  const auto good = to_json_line(make_record("expT", grid.cell(0), 7.0));
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << "not json at all\n";
    out << "{\"schema\":\"other.schema/1\"}\n";
    // Stored hash disagreeing with fnv1a64(exp|key) marks bit rot.
    auto tampered = good;
    const auto pos = tampered.find("\"hash\":\"");
    tampered[pos + 8] = tampered[pos + 8] == '0' ? '1' : '0';
    out << tampered << "\n";
    out << good << "\n";
  }
  const auto load = load_checkpoint(path);
  EXPECT_EQ(load.skipped_lines, 3u);
  ASSERT_EQ(load.records.size(), 1u);
  EXPECT_EQ(load.records[0].values[0].second, 7.0);
}

// --- work stealing --------------------------------------------------------

TEST(WorkStealing, CoversEveryItemExactlyOnce) {
  parallel::ThreadPool pool(8);
  constexpr std::uint64_t kItems = 1000;
  std::vector<std::uint64_t> items(kItems);
  for (std::uint64_t i = 0; i < kItems; ++i) items[i] = i;
  std::vector<std::atomic<int>> hits(kItems);
  run_work_stealing(
      items, [&](std::uint64_t i) { ++hits[i]; }, pool);
  for (std::uint64_t i = 0; i < kItems; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "item " << i;
  }
}

TEST(WorkStealing, BalancesWildlyUnevenCosts) {
  parallel::ThreadPool pool(4);
  std::vector<std::uint64_t> items(64);
  for (std::uint64_t i = 0; i < items.size(); ++i) items[i] = i;
  std::atomic<std::uint64_t> sum{0};
  run_work_stealing(
      items,
      [&](std::uint64_t i) {
        // Item 0 is ~1000x the rest; stealing keeps the other workers
        // busy rather than idling behind static chunking.
        volatile std::uint64_t spin = i == 0 ? 2000000 : 2000;
        while (spin > 0) spin = spin - 1;
        sum += i;
      },
      pool);
  EXPECT_EQ(sum.load(), 64u * 63u / 2u);
}

// --- registry + engine ----------------------------------------------------

// A tiny deterministic experiment whose invocation count observes what
// the engine actually recomputes across resume and sharding.
std::atomic<int> g_probe_calls{0};

void register_probe_once() {
  static const bool done = [] {
    Registry::global().add(Experiment{
        "probe",
        "test-only: counts invocations",
        "a=1..4;b=1,2",
        {"sum", "seed_lo"},
        [](const Cell& cell, const CellContext& ctx) {
          ++g_probe_calls;
          CellResult out;
          out.set("sum", static_cast<double>(cell.at("a") + 10 * cell.at("b")));
          out.set("seed_lo", static_cast<double>(ctx.seed & 0xFFFF));
          return out;
        },
        {"a", "b"}});
    return true;
  }();
  (void)done;
}

TEST(Registry, BuiltinExperimentsAreRegistered) {
  auto& reg = Registry::global();
  for (const auto* name : {"exp01", "exp03", "exp06", "exp10"}) {
    const auto* exp = reg.find(name);
    ASSERT_NE(exp, nullptr) << name;
    EXPECT_FALSE(exp->default_grid.empty());
    EXPECT_FALSE(exp->result_columns.empty());
    EXPECT_NO_THROW(GridSpec::parse(exp->default_grid));
  }
  EXPECT_EQ(reg.find("no_such_exp"), nullptr);
}

TEST(SweepEngine, ResumeSkipsFinishedCells) {
  register_probe_once();
  const auto path = temp_path("ckpt_resume.jsonl");
  std::remove(path.c_str());
  const auto grid = GridSpec::parse("a=1..4;b=1,2");
  SweepOptions options;
  options.exp = "probe";
  options.seed = 42;
  options.checkpoint_path = path;

  g_probe_calls = 0;
  const auto first = run_sweep(grid, options);
  EXPECT_EQ(first.cells_run, 8u);
  EXPECT_EQ(first.checkpoint_hits, 0u);
  EXPECT_EQ(g_probe_calls.load(), 8);

  g_probe_calls = 0;
  const auto second = run_sweep(grid, options);
  EXPECT_EQ(second.cells_run, 0u);
  EXPECT_EQ(second.checkpoint_hits, 8u);
  EXPECT_EQ(g_probe_calls.load(), 0);
  // A resumed table is byte-identical to the fresh one.
  EXPECT_EQ(second.table.to_string(), first.table.to_string());
}

TEST(SweepEngine, PartialCheckpointRerunsExactlyTheMissingCells) {
  register_probe_once();
  const auto path = temp_path("ckpt_partial.jsonl");
  std::remove(path.c_str());
  const auto grid = GridSpec::parse("a=1..4;b=1,2");
  SweepOptions options;
  options.exp = "probe";
  options.seed = 42;
  options.checkpoint_path = path;
  const auto first = run_sweep(grid, options);

  // Drop two records (simulating cells that were in flight at kill time).
  std::istringstream lines(slurp(path));
  std::vector<std::string> kept;
  std::string line;
  while (std::getline(lines, line)) kept.push_back(line);
  ASSERT_EQ(kept.size(), 8u);
  kept.erase(kept.begin() + 5);
  kept.erase(kept.begin() + 1);
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    for (const auto& l : kept) out << l << "\n";
  }

  g_probe_calls = 0;
  const auto resumed = run_sweep(grid, options);
  EXPECT_EQ(resumed.cells_run, 2u);
  EXPECT_EQ(resumed.checkpoint_hits, 6u);
  EXPECT_EQ(g_probe_calls.load(), 2);
  EXPECT_EQ(resumed.table.to_string(), first.table.to_string());
}

TEST(SweepEngine, ShardsAreDisjointAndMergeToTheFullTable) {
  register_probe_once();
  const std::uint64_t seed = certify::test_master_seed(7);
  SCOPED_TRACE(certify::seed_banner(seed));
  const auto grid = GridSpec::parse("a=1..4;b=1,2");
  SweepOptions whole;
  whole.exp = "probe";
  whole.seed = seed;
  const auto full = run_sweep(grid, whole);

  std::set<std::string> rows;
  std::uint64_t covered = 0;
  for (int s = 0; s < 3; ++s) {
    SweepOptions options = whole;
    options.shard_index = s;
    options.shard_count = 3;
    const auto part = run_sweep(grid, options);
    covered += part.cells_in_shard;
    for (std::size_t r = 0; r < part.table.rows(); ++r) {
      std::string row;
      for (std::size_t c = 0; c < part.table.columns(); ++c) {
        row += part.table.cell(r, c) + "|";
      }
      EXPECT_TRUE(rows.insert(row).second) << "duplicate row: " << row;
    }
  }
  EXPECT_EQ(covered, grid.cells());
  EXPECT_EQ(rows.size(), full.table.rows());
}

TEST(SweepEngine, CellSeedDependsOnIndexNotSchedule) {
  register_probe_once();
  const std::uint64_t seed = certify::test_master_seed(99);
  SCOPED_TRACE(certify::seed_banner(seed));
  const auto grid = GridSpec::parse("a=1..4;b=1,2");
  SweepOptions options;
  options.exp = "probe";
  options.seed = seed;
  parallel::ThreadPool p1(1);
  parallel::ThreadPool p8(8);
  options.pool = &p1;
  const auto serial = run_sweep(grid, options);
  options.pool = &p8;
  const auto threaded = run_sweep(grid, options);
  EXPECT_EQ(serial.table.to_string(), threaded.table.to_string());
}

TEST(SweepEngine, RejectsUnknownExperimentAndEmptyGrid) {
  SweepOptions options;
  options.exp = "no_such_exp";
  EXPECT_THROW(run_sweep(GridSpec::parse("a=1"), options),
               std::invalid_argument);
  options.exp = "exp01";
  EXPECT_THROW(run_sweep(GridSpec(), options), std::invalid_argument);
}

// The headline determinism claim, on a real experiment: a >=24-cell
// exp01 grid is byte-identical under 1 thread and 8 threads.
TEST(SweepEngine, Exp01ScheduleIndependenceIsByteExact) {
  const std::uint64_t seed = certify::test_master_seed(1);
  SCOPED_TRACE(certify::seed_banner(seed));
  const auto grid = GridSpec::parse("d=1..4;m=4..128:x2;density=1;replicas=2");
  ASSERT_GE(grid.cells(), 24u);
  SweepOptions options;
  options.exp = "exp01";
  options.seed = seed;
  parallel::ThreadPool p1(1);
  parallel::ThreadPool p8(8);
  options.pool = &p1;
  const auto serial = run_sweep(grid, options);
  options.pool = &p8;
  const auto threaded = run_sweep(grid, options);
  EXPECT_EQ(serial.table.to_string(), threaded.table.to_string());
}

// --- golden bytes ---------------------------------------------------------
//
// Known answers for the output bytes themselves: any change that draws
// one engine word more, fewer or in another order moves a digest.  The
// grids keep coalescence polls and stationary spacings at 8 or more
// steps per kernel::advance burst.

/// The bytes a golden case pins: run_sweep's table for a sweep cell
/// family (seed 1), or the reply line serve::dispatch produces for a
/// request line (source "run_cell").
std::string golden_bytes(const std::string& source, const std::string& input) {
  if (source == "run_cell") {
    serve::Request req;
    EXPECT_TRUE(serve::parse_request(input, req).ok) << input;
    serve::HandlerContext ctx;
    ctx.cells_parallel = false;
    const serve::HandlerResult res = serve::dispatch(req, ctx);
    EXPECT_TRUE(res.ok) << res.message;
    return serve::make_result(req.id, res.result_json);
  }
  SweepOptions options;
  options.exp = source;
  return run_sweep(GridSpec::parse(input), options).table.to_string();
}

TEST(GoldenBytes, OutputsMatchKnownDigests) {
  struct Case {
    std::string source;  // sweep experiment, or "run_cell"
    std::string input;   // grid, or request line
    std::string digest;  // hash_hex(fnv1a64(bytes))
  };
  const std::vector<Case> cases = {
      {"exp01", "m=128..256:x2;d=1..2;density=1;replicas=4",
       "14dcde32d00e5cf5"},
      {"exp03", "n=16;density=2;d=1..2;replicas=4", "f94e72b7a74fd204"},
      {"exp06", "n=8..16:x2;replicas=4", "4db012817c4385f6"},
      {"exp10", "n=64;d=1..2;samples=50", "093868d1fa084afe"},
      {"exp22", "n=64;d=1..2;density=2;replicas=4", "1f340f96d1124f6a"},
      {"exp23", "n=64;d=1..2;density=2;replicas=4", "f518820832e94778"},
      {"run_cell",
       "{\"schema\":\"recover.req/1\",\"id\":1,\"method\":\"run_cell\","
       "\"params\":{\"exp\":\"exp01\",\"seed\":9,"
       "\"params\":{\"m\":256,\"d\":2,\"density\":1,\"replicas\":4}}}",
       "449edd809d72b573"},
  };
  for (const Case& c : cases) {
    EXPECT_EQ(hash_hex(fnv1a64(golden_bytes(c.source, c.input))), c.digest)
        << c.source << " " << c.input;
  }
}

}  // namespace
}  // namespace recover::sweep
