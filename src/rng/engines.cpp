#include "src/rng/engines.hpp"

#include "src/obs/metrics.hpp"

namespace recover::rng {
namespace {

// Draw counters, registered at load time (no function-local static
// guard on the flush path).  Engines accumulate draws in a private
// member and flush every kDrawFlush draws / on destruction, so the
// per-draw cost is an increment on the engine's own cache line — no
// global load at all.  Per-draw granularity is what makes replica cost
// differences between rules/schedules visible in run records.
obs::Counter& g_xoshiro_draws =
    obs::Registry::global().counter("rng.xoshiro.draws");
obs::Counter& g_philox_draws =
    obs::Registry::global().counter("rng.philox.draws");
obs::Counter& g_philox_blocks =
    obs::Registry::global().counter("rng.philox.blocks");
obs::Counter& g_stream_seeds =
    obs::Registry::global().counter("rng.stream_seeds");

// Flushes a block of `count` draws through an engine's pending counter,
// preserving the exact totals of per-call accounting: whole kDrawFlush
// multiples reached within the block go to the global counter now, the
// remainder stays pending (for the next flush or the destructor).
inline void flush_block_draws(std::uint64_t& pending, std::uint64_t count,
                              obs::Counter& sink) {
  const std::uint64_t before = pending & (detail::kDrawFlush - 1);
  pending += count;
  const std::uint64_t flushed =
      ((before + count) / detail::kDrawFlush) * detail::kDrawFlush;
  if (flushed != 0) sink.add(flushed);
}

}  // namespace

Xoshiro256PlusPlus::Xoshiro256PlusPlus(std::uint64_t seed) {
  SplitMix64 sm(seed);
  for (auto& w : s_) w = sm();
}

Xoshiro256PlusPlus::~Xoshiro256PlusPlus() {
  g_xoshiro_draws.add(pending_draws_ & (detail::kDrawFlush - 1));
}

void Xoshiro256PlusPlus::flush_draws() {
  g_xoshiro_draws.add(detail::kDrawFlush);
}

void Xoshiro256PlusPlus::fill(std::uint64_t* out, std::size_t count) {
  // The whole point of the block API: state stays in registers across
  // the loop instead of round-tripping through memory once per draw.
  std::uint64_t s0 = s_[0];
  std::uint64_t s1 = s_[1];
  std::uint64_t s2 = s_[2];
  std::uint64_t s3 = s_[3];
  for (std::size_t i = 0; i < count; ++i) {
    out[i] = std::rotl(s0 + s3, 23) + s0;
    const std::uint64_t t = s1 << 17;
    s2 ^= s0;
    s3 ^= s1;
    s1 ^= s2;
    s0 ^= s3;
    s2 ^= t;
    s3 = std::rotl(s3, 45);
  }
  s_ = {s0, s1, s2, s3};
  flush_block_draws(pending_draws_, count, g_xoshiro_draws);
}

void Xoshiro256PlusPlus::jump() {
  static constexpr std::uint64_t kJump[] = {
      0x180EC6D33CFD0ABAULL, 0xD5A61266F0C9392CULL, 0xA9582618E03FC9AAULL,
      0x39ABDC4529B1661CULL};
  std::uint64_t s0 = 0, s1 = 0, s2 = 0, s3 = 0;
  for (std::uint64_t jump : kJump) {
    for (int b = 0; b < 64; ++b) {
      if (jump & (std::uint64_t{1} << b)) {
        s0 ^= s_[0];
        s1 ^= s_[1];
        s2 ^= s_[2];
        s3 ^= s_[3];
      }
      (void)(*this)();
    }
  }
  s_ = {s0, s1, s2, s3};
}

namespace {

constexpr std::uint32_t kPhiloxM0 = 0xD2511F53u;
constexpr std::uint32_t kPhiloxM1 = 0xCD9E8D57u;
constexpr std::uint32_t kPhiloxW0 = 0x9E3779B9u;
constexpr std::uint32_t kPhiloxW1 = 0xBB67AE85u;

inline void philox_round(std::array<std::uint32_t, 4>& ctr, std::uint32_t k0,
                         std::uint32_t k1) {
  const std::uint64_t p0 = std::uint64_t{kPhiloxM0} * ctr[0];
  const std::uint64_t p1 = std::uint64_t{kPhiloxM1} * ctr[2];
  const auto hi0 = static_cast<std::uint32_t>(p0 >> 32);
  const auto lo0 = static_cast<std::uint32_t>(p0);
  const auto hi1 = static_cast<std::uint32_t>(p1 >> 32);
  const auto lo1 = static_cast<std::uint32_t>(p1);
  ctr = {hi1 ^ ctr[1] ^ k0, lo1, hi0 ^ ctr[3] ^ k1, lo0};
}

}  // namespace

Philox4x32::Philox4x32(std::uint64_t key, std::uint64_t counter_hi)
    : key_(key), counter_hi_(counter_hi) {}

std::array<std::uint32_t, 4> Philox4x32::block(std::uint64_t counter) const {
  std::array<std::uint32_t, 4> ctr = {
      static_cast<std::uint32_t>(counter),
      static_cast<std::uint32_t>(counter >> 32),
      static_cast<std::uint32_t>(counter_hi_),
      static_cast<std::uint32_t>(counter_hi_ >> 32)};
  std::uint32_t k0 = static_cast<std::uint32_t>(key_);
  std::uint32_t k1 = static_cast<std::uint32_t>(key_ >> 32);
  for (int round = 0; round < 10; ++round) {
    philox_round(ctr, k0, k1);
    k0 += kPhiloxW0;
    k1 += kPhiloxW1;
  }
  return ctr;
}

Philox4x32::~Philox4x32() {
  g_philox_draws.add(pending_draws_ & (detail::kDrawFlush - 1));
  g_philox_blocks.add(pending_blocks_);
}

Philox4x32::result_type Philox4x32::operator()() {
  if ((++pending_draws_ & (detail::kDrawFlush - 1)) == 0) {
    g_philox_draws.add(detail::kDrawFlush);
    g_philox_blocks.add(pending_blocks_);
    pending_blocks_ = 0;
  }
  if (buffered_ < 2) {
    ++pending_blocks_;
    buffer_ = block(counter_++);
    buffered_ = 4;
  }
  const std::uint64_t lo = buffer_[static_cast<std::size_t>(4 - buffered_)];
  const std::uint64_t hi = buffer_[static_cast<std::size_t>(5 - buffered_)];
  buffered_ -= 2;
  return (hi << 32) | lo;
}

std::uint64_t derive_stream_seed(std::uint64_t master_seed, std::uint64_t i) {
  g_stream_seeds.add();
  SplitMix64 sm(master_seed ^ (0xA24BAED4963EE407ULL + i * 0x9FB21C651E98DF25ULL));
  // Burn a few outputs so adjacent i values decorrelate fully.
  (void)sm();
  (void)sm();
  return sm();
}

std::uint64_t substream(std::uint64_t master_seed, std::uint64_t i) {
  g_stream_seeds.add();
  // Mix the master first so it occupies the full 64-bit space before the
  // stream index perturbs it; the golden-gamma multiple keeps adjacent
  // indices maximally far apart in SplitMix64's state sequence.
  SplitMix64 master(master_seed);
  const std::uint64_t mixed = master();
  SplitMix64 child(mixed ^ ((i + 1) * 0x9E3779B97F4A7C15ULL));
  (void)child();
  return child();
}

}  // namespace recover::rng
