#ifndef JXP_OBS_TELEMETRY_H_
#define JXP_OBS_TELEMETRY_H_

namespace jxp {
namespace obs {

/// Runtime switch of the observability layer, default-on. When off, every
/// instrumentation call reduces to one relaxed atomic load. Telemetry never
/// feeds back into the algorithms, so results are bit-identical with
/// telemetry on or off (see tests/obs/telemetry_integration_test.cc).
bool Enabled();
void SetEnabled(bool enabled);

/// RAII toggle, mainly for tests.
class ScopedEnable {
 public:
  explicit ScopedEnable(bool enabled) : previous_(Enabled()) { SetEnabled(enabled); }
  ScopedEnable(const ScopedEnable&) = delete;
  ScopedEnable& operator=(const ScopedEnable&) = delete;
  ~ScopedEnable() { SetEnabled(previous_); }

 private:
  bool previous_;
};

}  // namespace obs
}  // namespace jxp

#endif  // JXP_OBS_TELEMETRY_H_
