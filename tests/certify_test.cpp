// Tests for the certification harness itself (src/certify/,
// docs/CERTIFICATION.md).  The load-bearing half is the mutant suite:
// for every property class the harness claims to check, a deliberately
// broken chain model proves the check actually FAILS when the
// implementation is wrong — a conformance suite that cannot fail is
// decoration, not certification.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "src/certify/check.hpp"
#include "src/certify/compare.hpp"
#include "src/certify/fuzz.hpp"
#include "src/certify/model.hpp"
#include "src/certify/properties.hpp"
#include "src/rng/distributions.hpp"
#include "src/rng/engines.hpp"
#include "src/serve/handlers.hpp"
#include "src/serve/protocol.hpp"
#include "src/serve/server.hpp"

namespace recover::certify {
namespace {

// ---------------------------------------------------------------------------
// Registry completeness: every chain family of the repo is registered,
// with the hooks the issue demands.

TEST(CertifyRegistry, EveryChainFamilyIsRegistered) {
  const ModelRegistry& registry = builtin_registry();
  std::set<std::string> names;
  for (const ChainModel& model : registry.models()) {
    EXPECT_TRUE(names.insert(model.name).second)
        << "duplicate model " << model.name;
    // Every model must be able to state its exact one-step law and
    // sample it — that pair is the minimum certifiable surface.
    EXPECT_TRUE(static_cast<bool>(model.starts)) << model.name;
    EXPECT_TRUE(static_cast<bool>(model.exact_step)) << model.name;
    EXPECT_TRUE(static_cast<bool>(model.sample_step) ||
                static_cast<bool>(model.coupled_step))
        << model.name;
  }
  for (const char* required :
       {"scenario_a", "scenario_b", "scenario_a_adap", "labeled_a",
        "labeled_b", "grand_coupling_a", "grand_coupling_b", "orientation",
        "orientation_coupling", "open", "open_coupling", "bounded_open",
        "bounded_open_coupling"}) {
    EXPECT_NE(registry.find(required), nullptr)
        << "family missing from the registry: " << required;
  }
}

TEST(CertifyRegistry, BuiltinModelsPassAQuickSuite) {
  CertifyOptions options;
  options.seed = test_master_seed(1);
  SCOPED_TRACE(seed_banner(options.seed));
  options.instances = 2;
  options.law_trials = 6000;
  options.invariant_steps = 64;
  const CertifyReport report = certify_models(builtin_registry(), options);
  EXPECT_GT(report.checks, 50);
  for (const CheckFailure& failure : report.failures) {
    ADD_FAILURE() << failure.repro(options);
  }
}

// ---------------------------------------------------------------------------
// Mutant models: clone a real registered model, break exactly one hook,
// and require the matching property class (and only a sensible set of
// classes) to fail.

CertifyOptions mutant_options() {
  CertifyOptions options;
  options.seed = 7;
  options.instances = 3;
  options.law_trials = 8000;
  options.invariant_steps = 32;
  return options;
}

const ChainModel& model_or_die(const std::string& name) {
  const ChainModel* model = builtin_registry().find(name);
  if (model == nullptr) std::abort();
  return *model;
}

std::set<std::string> failed_properties(const CertifyReport& report) {
  std::set<std::string> properties;
  for (const CheckFailure& failure : report.failures) {
    properties.insert(failure.property);
  }
  return properties;
}

TEST(CertifyMutants, BrokenExactLawFailsExactVsSampled) {
  ChainModel mutant = model_or_die("scenario_a");
  mutant.name = "scenario_a_broken_law";
  const auto real_law = mutant.exact_step;
  mutant.exact_step = [real_law](const Instance& in,
                                 const std::string& start) {
    // Move 20% of the top outcome's mass onto the bottom one: still a
    // valid pmf over the same support, just the wrong one.
    StepLaw law = real_law(in, start);
    auto top = std::max_element(
        law.begin(), law.end(),
        [](const auto& a, const auto& b) { return a.second < b.second; });
    const double moved = top->second * 0.2;
    top->second -= moved;
    (top == law.begin() ? law.back() : law.front()).second += moved;
    return law;
  };
  ModelRegistry registry;
  registry.add(mutant);
  const auto options = mutant_options();
  const CertifyReport report = certify_models(registry, options);
  ASSERT_FALSE(report.ok()) << "the harness accepted a wrong exact law";
  EXPECT_EQ(failed_properties(report),
            (std::set<std::string>{"exact_vs_sampled"}));
  // Every failure line is a complete reproduction recipe.
  const std::string repro = report.failures.front().repro(options);
  EXPECT_NE(repro.find("CERTIFY FAIL"), std::string::npos);
  EXPECT_NE(repro.find("--seed=7"), std::string::npos);
  EXPECT_NE(repro.find("--only=scenario_a_broken_law"), std::string::npos);
}

TEST(CertifyMutants, BiasedCouplingFailsMarginalCheck) {
  ChainModel mutant = model_or_die("grand_coupling_a");
  mutant.name = "grand_coupling_a_biased";
  const auto real_coupled = mutant.coupled_step;
  const auto real_exact = mutant.exact_step;
  mutant.coupled_step = [real_coupled, real_exact](
                            const Instance& in, const std::string& x,
                            const std::string& y,
                            rng::Xoshiro256PlusPlus& eng) {
    auto [kx, ky] = real_coupled(in, x, y, eng);
    // Bias the x marginal: half the time, snap it to the modal outcome.
    if (rng::coin(eng)) {
      const StepLaw law = real_exact(in, x);
      kx = std::max_element(law.begin(), law.end(),
                            [](const auto& a, const auto& b) {
                              return a.second < b.second;
                            })
               ->first;
    }
    return std::make_pair(kx, ky);
  };
  mutant.invariant_run = {};  // isolate: no invariant checks
  ModelRegistry registry;
  registry.add(mutant);
  const CertifyReport report = certify_models(registry, mutant_options());
  ASSERT_FALSE(report.ok()) << "the harness accepted a biased coupling";
  const auto properties = failed_properties(report);
  EXPECT_TRUE(properties.count("coupling_marginal_x"))
      << "the biased marginal was not flagged";
  EXPECT_FALSE(properties.count("coupling_marginal_y"))
      << "the untouched marginal was flagged";
}

TEST(CertifyMutants, SplittingCouplingFailsAbsorbingCheck) {
  ChainModel mutant = model_or_die("grand_coupling_a");
  mutant.name = "grand_coupling_a_splitting";
  const auto real_coupled = mutant.coupled_step;
  mutant.coupled_step = [real_coupled](const Instance& in,
                                       const std::string& x,
                                       const std::string& y,
                                       rng::Xoshiro256PlusPlus& eng) {
    // Two independent draws instead of one shared draw: each marginal
    // is still exactly right, but coalesced copies drift apart — only
    // the absorbing check can see the difference.
    const auto first = real_coupled(in, x, y, eng);
    const auto second = real_coupled(in, x, y, eng);
    return std::make_pair(first.first, second.second);
  };
  mutant.invariant_run = {};
  ModelRegistry registry;
  registry.add(mutant);
  const CertifyReport report = certify_models(registry, mutant_options());
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(failed_properties(report).count("coupling_absorbing"));
}

TEST(CertifyMutants, ViolatedInvariantFails) {
  ChainModel mutant = model_or_die("grand_coupling_a");
  mutant.name = "grand_coupling_a_broken_invariant";
  mutant.invariant_run = [](const Instance&, std::uint64_t, std::int64_t,
                            std::string* diag) {
    if (diag != nullptr) *diag = "sandwich breached at step 0 (mutant)";
    return false;
  };
  ModelRegistry registry;
  registry.add(mutant);
  const CertifyReport report = certify_models(registry, mutant_options());
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(failed_properties(report).count("invariant"));
  bool found = false;
  for (const CheckFailure& failure : report.failures) {
    if (failure.property == "invariant") {
      EXPECT_NE(failure.detail.find("majorization_sandwich"),
                std::string::npos);
      EXPECT_NE(failure.detail.find("mutant"), std::string::npos);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

// ---------------------------------------------------------------------------
// The statistical core: an honest sampler passes, an impossible outcome
// fails unconditionally.

TEST(CertifyCompare, ImpossibleOutcomeFailsRegardlessOfTrials) {
  const StepLaw law = {{"a", 0.5}, {"b", 0.5}};
  int calls = 0;
  const LawCheck check = check_sampled_law(
      law,
      [&calls]() -> std::string {
        ++calls;
        return calls == 10 ? "c" : "a";  // "c" has exact probability 0
      },
      1000);
  EXPECT_FALSE(check.pass(1e-12));
  EXPECT_TRUE(check.impossible);
  EXPECT_EQ(check.impossible_key, "c");
}

// ---------------------------------------------------------------------------
// Protocol fuzzer: determinism, reply validation, and the regression
// corpus of frames that once crashed (or must never crash) the server.

TEST(CertifyFuzz, FramesAreDeterministicAndNewlineFree) {
  for (std::int64_t i = 0; i < 2000; ++i) {
    const std::string frame = fuzz_frame(99, i);
    EXPECT_EQ(frame, fuzz_frame(99, i)) << "frame " << i;
    EXPECT_EQ(frame.find('\n'), std::string::npos) << "frame " << i;
    EXPECT_EQ(frame.find('\r'), std::string::npos) << "frame " << i;
  }
}

TEST(CertifyFuzz, ValidatorAcceptsWireRepliesAndRejectsNonsense) {
  EXPECT_EQ(validate_reply_line(serve::make_result("1", "{\"pong\":true}")),
            "");
  EXPECT_EQ(validate_reply_line(serve::make_error(
                "\"abc\"", serve::ErrorCode::kParseError, "bad")),
            "");
  EXPECT_NE(validate_reply_line("not json"), "");
  EXPECT_NE(validate_reply_line("{}"), "");
  EXPECT_NE(validate_reply_line(
                "{\"schema\":\"recover.resp/2\",\"id\":1,\"ok\":true,"
                "\"result\":{}}"),
            "");
  // ok:true without a result, and an error code outside the taxonomy.
  EXPECT_NE(validate_reply_line(
                "{\"schema\":\"recover.resp/1\",\"id\":1,\"ok\":true}"),
            "");
  EXPECT_NE(validate_reply_line(
                "{\"schema\":\"recover.resp/1\",\"id\":1,\"ok\":false,"
                "\"error\":{\"code\":\"wat\",\"message\":\"x\"}}"),
            "");
  EXPECT_EQ(reply_error_code(serve::make_error(
                "1", serve::ErrorCode::kDeadlineExceeded, "late")),
            "deadline_exceeded");
}

/// One loopback frame through the real framing + parse + dispatch
/// pipeline; returns the error code ("" for an ok reply).
std::string loopback_error_code(const std::string& frame) {
  serve::Request req;
  const serve::ParseOutcome outcome = serve::parse_request(frame, req);
  if (!outcome.ok) return std::string(serve::error_code_name(outcome.code));
  serve::HandlerContext ctx;
  ctx.cells_parallel = false;
  const serve::HandlerResult result = serve::dispatch(req, ctx);
  return result.ok ? "" : std::string(serve::error_code_name(result.code));
}

TEST(CertifyFuzz, RegressionCorpusStaysInTaxonomy) {
  // run_cell with a required axis missing: previously reached the
  // aborting Cell::at through a structurally valid request — a remote
  // peer could kill the daemon with one frame.
  EXPECT_EQ(loopback_error_code(
                "{\"schema\":\"recover.req/1\",\"id\":1,\"method\":"
                "\"run_cell\",\"params\":{\"exp\":\"exp01\","
                "\"params\":{\"d\":2,\"density\":1}}}"),
            "invalid_params");
  EXPECT_EQ(loopback_error_code(
                "{\"schema\":\"recover.req/1\",\"id\":1,\"method\":"
                "\"run_cell\",\"params\":{\"exp\":\"exp10\","
                "\"params\":{\"n\":64}}}"),
            "invalid_params");
  // The byte-flip shape that found it: "m" mutated into another key.
  EXPECT_EQ(loopback_error_code(
                "{\"schema\":\"recover.req/1\",\"id\":1,\"method\":"
                "\"run_cell\",\"params\":{\"exp\":\"exp01\",\"seed\":9,"
                "\"params\":{\"-\":16,\"d\":2,\"density\":1,"
                "\"replicas\":1}}}"),
            "invalid_params");
  // Depth bomb far over the reader's nesting cap: parse_error, no
  // stack excursion.
  std::string bomb =
      "{\"schema\":\"recover.req/1\",\"id\":1,\"method\":\"run_cell\","
      "\"params\":";
  for (int i = 0; i < 120; ++i) bomb += "{\"a\":";
  bomb += "1";
  for (int i = 0; i < 120; ++i) bomb += "}";
  bomb += "}";
  EXPECT_EQ(loopback_error_code(bomb), "parse_error");
  // Lone UTF-16 surrogate in a string field.
  EXPECT_EQ(loopback_error_code(
                "{\"schema\":\"recover.req/1\",\"id\":\"\\uD800\","
                "\"method\":\"ping\"}"),
            "parse_error");
  // A valid surrogate pair parses; the method is simply unknown.
  EXPECT_EQ(loopback_error_code(
                "{\"schema\":\"recover.req/1\",\"id\":1,"
                "\"method\":\"\\uD83D\\uDE00\"}"),
            "unknown_method");
}

TEST(CertifyFuzz, LoopbackRunIsCleanOverManyFrames) {
  FuzzOptions options;
  options.seed = test_master_seed(1);
  SCOPED_TRACE(seed_banner(options.seed));
  options.frames = 3000;
  const FuzzReport report = fuzz_handlers(options);
  EXPECT_EQ(report.frames, 3000);
  EXPECT_GT(report.replies, 0);
  for (const FuzzViolation& violation : report.violations) {
    ADD_FAILURE() << fuzz_repro(violation, options);
  }
  // The generator must actually exercise the taxonomy's front line.
  EXPECT_GT(report.error_counts.count("parse_error"), 0u);
  EXPECT_GT(report.error_counts.count("invalid_params"), 0u);
  EXPECT_GT(report.error_counts.count("unknown_method"), 0u);
}

TEST(CertifyFuzz, LiveServerSurvivesAFuzzRound) {
  serve::ServerOptions server_options;
  server_options.port = 0;
  server_options.workers = 2;
  server_options.cells_parallel = false;
  serve::Server server(server_options);
  ASSERT_TRUE(server.start());

  FuzzOptions options;
  options.seed = test_master_seed(2);
  SCOPED_TRACE(seed_banner(options.seed));
  options.frames = 2000;
  const FuzzReport report =
      fuzz_server("127.0.0.1", server.port(), options);
  EXPECT_EQ(report.frames, 2000);
  for (const FuzzViolation& violation : report.violations) {
    ADD_FAILURE() << fuzz_repro(violation, options);
  }
  // The server must still answer cleanly after the storm.
  FuzzOptions followup;
  followup.seed = options.seed;
  followup.frames = 64;
  const FuzzReport after =
      fuzz_server("127.0.0.1", server.port(), followup);
  EXPECT_TRUE(after.ok());
}

}  // namespace
}  // namespace recover::certify
