// Random-number engines for simulation workloads.
//
// recoverlib uses three engines:
//  * SplitMix64  — seeding / stream derivation (64-bit state, equidistributed
//                  enough to expand one user seed into many stream keys).
//  * Xoshiro256PlusPlus — the workhorse generator on hot simulation paths.
//  * Philox4x32  — counter-based engine; given (key, counter) it is pure,
//                  which makes per-thread / per-replica streams reproducible
//                  regardless of scheduling (the property the coupling
//                  experiments rely on).
//
// All engines satisfy std::uniform_random_bit_generator, so they compose
// with <random> where convenient; the distributions in distributions.hpp
// avoid modulo bias and are preferred on hot paths.
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>

namespace recover::rng {

/// SplitMix64 (Steele, Lea, Flood 2014).  Used mainly to derive seeds.
class SplitMix64 {
 public:
  using result_type = std::uint64_t;

  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~std::uint64_t{0}; }

  result_type operator()() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

namespace detail {

/// Draws between flushes of a per-engine pending count into the global
/// obs counter.  Power of two: the flush test compiles to a mask +
/// never-taken branch, so draw accounting stays off the global bus —
/// no shared cache line is touched on the common path.
inline constexpr std::uint64_t kDrawFlush = 1u << 16;

}  // namespace detail

/// xoshiro256++ 1.0 (Blackman, Vigna 2019).
class Xoshiro256PlusPlus {
 public:
  using result_type = std::uint64_t;

  explicit Xoshiro256PlusPlus(std::uint64_t seed);

  // Copies restart draw accounting at zero so every draw is flushed to
  // the global counter exactly once (by the engine that made it).
  Xoshiro256PlusPlus(const Xoshiro256PlusPlus& other) : s_(other.s_) {}
  Xoshiro256PlusPlus& operator=(const Xoshiro256PlusPlus& other) {
    s_ = other.s_;
    return *this;
  }
  ~Xoshiro256PlusPlus();

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~std::uint64_t{0}; }

  result_type operator()() {
    // Header-inline so hot loops keep the state in registers.  Draw
    // accounting stays on the engine's own cache line: a member increment
    // plus a never-taken branch; the flush to the global counter every
    // kDrawFlush draws (and on destruction) is out of line.
    if ((++pending_draws_ & (detail::kDrawFlush - 1)) == 0) flush_draws();
    const std::uint64_t result = std::rotl(s_[0] + s_[3], 23) + s_[0];
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = std::rotl(s_[3], 45);
    return result;
  }

  /// Writes `count` consecutive outputs of operator() into `out`,
  /// leaving the engine in exactly the state `count` calls would.  The
  /// state lives in registers for the whole loop and draw accounting is
  /// amortized over the block.
  void fill(std::uint64_t* out, std::size_t count);

  /// Equivalent to 2^128 calls to operator(); yields non-overlapping
  /// subsequences for parallel streams.
  void jump();

 private:
  /// Adds one kDrawFlush block of draws to the global counter.
  static void flush_draws();

  std::array<std::uint64_t, 4> s_;
  std::uint64_t pending_draws_ = 0;
};

/// Philox4x32-10 (Salmon et al., SC'11) counter-based generator.
///
/// The generator exposes the usual engine interface (buffering the four
/// 32-bit lanes of each block), and also a pure `block(counter)` function
/// so call sites can index randomness by (replica, step) directly.
class Philox4x32 {
 public:
  using result_type = std::uint64_t;

  explicit Philox4x32(std::uint64_t key, std::uint64_t counter_hi = 0);

  // Same copy policy as Xoshiro256PlusPlus: the copy restarts draw
  // accounting so each draw is flushed exactly once.
  Philox4x32(const Philox4x32& other)
      : key_(other.key_),
        counter_hi_(other.counter_hi_),
        counter_(other.counter_),
        buffer_(other.buffer_),
        buffered_(other.buffered_) {}
  Philox4x32& operator=(const Philox4x32& other) {
    key_ = other.key_;
    counter_hi_ = other.counter_hi_;
    counter_ = other.counter_;
    buffer_ = other.buffer_;
    buffered_ = other.buffered_;
    return *this;
  }
  ~Philox4x32();

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~std::uint64_t{0}; }

  result_type operator()();

  /// Pure function of (key, counter): the 128-bit output block for the
  /// given 64-bit counter (the high half of the 128-bit counter is the
  /// construction-time `counter_hi`).
  [[nodiscard]] std::array<std::uint32_t, 4> block(
      std::uint64_t counter) const;

 private:
  std::uint64_t key_;
  std::uint64_t counter_hi_;
  std::uint64_t counter_ = 0;
  std::array<std::uint32_t, 4> buffer_{};
  int buffered_ = 0;  // number of 32-bit lanes still unconsumed
  std::uint64_t pending_draws_ = 0;
  std::uint64_t pending_blocks_ = 0;
};

/// Derives the i-th independent stream seed from a master seed.
std::uint64_t derive_stream_seed(std::uint64_t master_seed, std::uint64_t i);

/// SplitMix-style substream derivation: the seed of child stream `i` of
/// `master_seed`, a pure function of (master_seed, i) alone.  Callers
/// key `i` on a logical index (sweep cell index, replica index), never on
/// iteration order, so the derived streams are identical under any
/// thread count, schedule, shard split, or checkpoint resume.  Unlike
/// derive_stream_seed, the master seed is first mixed through SplitMix64
/// before the stream index is folded in, so structured master seeds
/// (0, 1, 2, ...) and structured indices cannot interact; substreams
/// nest safely: substream(substream(s, cell), trial).
std::uint64_t substream(std::uint64_t master_seed, std::uint64_t i);

}  // namespace recover::rng
