// kernel::advance: the one entry point that runs a chain or grand
// coupling for a burst of steps.  Estimators, sweep cells and
// experiments all advance through it, so `kernel.steps.scalar` counts
// every step they take.
#pragma once

#include <cstdint>

#include "src/obs/metrics.hpp"

namespace recover::kernel {

namespace detail {
// Registered at load time: no function-local static guard on the
// advance() path.
inline obs::Counter& g_steps_scalar =
    obs::Registry::global().counter("kernel.steps.scalar");
}  // namespace detail

/// Advances `obj` (a chain or grand coupling) by `steps` calls to
/// obj.step(eng).
template <typename Obj, typename Engine>
void advance(Obj& obj, Engine& eng, std::int64_t steps) {
  if (steps <= 0) return;
  for (std::int64_t k = 0; k < steps; ++k) obj.step(eng);
  detail::g_steps_scalar.add(static_cast<std::uint64_t>(steps));
}

}  // namespace recover::kernel
