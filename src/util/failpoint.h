// Named failpoints for deterministic fault injection (the RocksDB
// sync-point / fault-injection pattern): production code marks failure
// surfaces with OTAC_FAILPOINT_* macros, and tests script them by name —
// fire always, once, every Nth evaluation, or with a seeded probability.
//
// With -DOTAC_FAILPOINTS=OFF the macros compile to a constant-false
// branch, so release builds carry no registry lookups on the hot path.
// The registry itself stays compiled (tests of the registry skip
// gracefully); only the *sites* disappear.
//
// Usage at a failure surface:
//
//   OTAC_FAILPOINT_THROW("checkpoint.write.crash");      // throw on fire
//   if (OTAC_FAILPOINT_ACTIVE("checkpoint.write.torn")) {
//     ... simulate the torn write ...
//   }
//
// and in a test:
//
//   fail::Registry::instance().enable_once("checkpoint.write.crash");
//   EXPECT_THROW(manager.save(snapshot), fail::FailpointTriggered);
//   fail::Registry::instance().disable_all();
#pragma once

#include <cstdint>
#include <mutex>
#include <stdexcept>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace otac::fail {

/// True when OTAC_FAILPOINT_* sites are compiled in (-DOTAC_FAILPOINTS=ON).
/// Without them fault-driven scenarios replay fault-free, so tests skip
/// and benches say so.
#if defined(OTAC_FAILPOINTS_ENABLED) && OTAC_FAILPOINTS_ENABLED
inline constexpr bool kSitesCompiled = true;
#else
inline constexpr bool kSitesCompiled = false;
#endif

/// Thrown by OTAC_FAILPOINT_THROW sites (and by scripted actions that
/// simulate a crash). Carries the failpoint name for assertions.
class FailpointTriggered : public std::runtime_error {
 public:
  explicit FailpointTriggered(const std::string& name)
      : std::runtime_error("failpoint fired: " + name), name_(name) {}
  [[nodiscard]] const std::string& failpoint() const noexcept { return name_; }

 private:
  std::string name_;
};

enum class Trigger {
  always,       ///< fire on every evaluation
  once,         ///< fire on the first evaluation, then disarm
  every_nth,    ///< fire on evaluations n, 2n, 3n, ... after enabling
  probability,  ///< fire with probability p per evaluation (seeded RNG)
  window,       ///< fire on evaluations [from, to] after enabling, then stop
};

struct Spec {
  Trigger trigger = Trigger::always;
  std::uint64_t n = 1;       ///< period for every_nth
  double p = 1.0;            ///< fire probability for probability mode
  std::uint64_t seed = 0;    ///< RNG seed for probability mode
  std::uint64_t from = 1;    ///< first firing evaluation for window mode
  std::uint64_t to = 1;      ///< last firing evaluation for window mode
};

/// Process-wide registry of enabled failpoints. Thread-safe; evaluations
/// on disabled names are counted but cost one mutex + hash lookup, which
/// is acceptable because failpoints only mark cold failure surfaces.
class Registry {
 public:
  static Registry& instance();

  void enable(const std::string& name, Spec spec = {});
  void enable_once(const std::string& name) {
    enable(name, Spec{Trigger::once, 1, 1.0, 0});
  }
  void enable_every_nth(const std::string& name, std::uint64_t n) {
    enable(name, Spec{Trigger::every_nth, n == 0 ? 1 : n, 1.0, 0});
  }
  void enable_probability(const std::string& name, double p,
                          std::uint64_t seed) {
    enable(name, Spec{Trigger::probability, 1, p, seed});
  }
  /// Deterministic fault *window*: fire on evaluations `from`..`to`
  /// (1-based, inclusive), then never again — the chaos harness's way of
  /// pinning "faults clear" to an evaluation count instead of wall time.
  void enable_window(const std::string& name, std::uint64_t from,
                     std::uint64_t to) {
    Spec spec;
    spec.trigger = Trigger::window;
    spec.from = from == 0 ? 1 : from;
    spec.to = to;
    enable(name, spec);
  }

  void disable(const std::string& name);
  void disable_all();

  /// Evaluate the failpoint: record the hit and decide whether it fires.
  /// Called by the OTAC_FAILPOINT_* macros; tests normally don't call it.
  [[nodiscard]] bool should_fire(std::string_view name);

  /// Evaluations seen at this name (enabled or not) since last enable/reset.
  [[nodiscard]] std::uint64_t hits(const std::string& name) const;
  /// Evaluations that actually fired.
  [[nodiscard]] std::uint64_t fires(const std::string& name) const;
  /// Names with any recorded evaluation (sorted; diagnostic aid).
  [[nodiscard]] std::vector<std::string> evaluated_names() const;

 private:
  struct State {
    Spec spec{};
    bool enabled = false;
    std::uint64_t hits = 0;
    std::uint64_t fires = 0;
    std::uint64_t rng = 0;  ///< SplitMix64 state for probability mode
  };

  mutable std::mutex mutex_;
  std::unordered_map<std::string, State> states_;
};

}  // namespace otac::fail

#if defined(OTAC_FAILPOINTS_ENABLED) && OTAC_FAILPOINTS_ENABLED
#define OTAC_FAILPOINT_ACTIVE(name) \
  (::otac::fail::Registry::instance().should_fire(name))
#else
#define OTAC_FAILPOINT_ACTIVE(name) (false)
#endif

/// Throw FailpointTriggered when the named failpoint fires.
#define OTAC_FAILPOINT_THROW(name)                    \
  do {                                                \
    if (OTAC_FAILPOINT_ACTIVE(name)) {                \
      throw ::otac::fail::FailpointTriggered{(name)}; \
    }                                                 \
  } while (false)
