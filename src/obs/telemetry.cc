#include "obs/telemetry.h"

#include <atomic>

namespace jxp {
namespace obs {

namespace {
std::atomic<bool> g_enabled{true};
}  // namespace

bool Enabled() { return g_enabled.load(std::memory_order_relaxed); }

void SetEnabled(bool enabled) { g_enabled.store(enabled, std::memory_order_relaxed); }

}  // namespace obs
}  // namespace jxp
