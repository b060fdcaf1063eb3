#ifndef ODE_UTIL_CLOCK_H_
#define ODE_UTIL_CLOCK_H_

#include <atomic>
#include <cstdint>

namespace ode {

/// Source of version-creation timestamps.
///
/// The paper orders versions of an object temporally "according to their
/// creation time".  The library only requires the timestamp source to be
/// monotonically non-decreasing per database, so tests inject a
/// LogicalClock for full determinism while production uses WallClock.
/// Concurrent writers (striped write latches, the server's event loops)
/// tick the clock from many threads, so Now() must be thread-safe.
class Clock {
 public:
  virtual ~Clock() = default;
  /// Returns a timestamp >= every previously returned timestamp.  Safe to
  /// call from any thread.
  virtual uint64_t Now() = 0;
};

/// Deterministic counter clock: 1, 2, 3, ...
class LogicalClock : public Clock {
 public:
  explicit LogicalClock(uint64_t start = 0) : next_(start) {}
  uint64_t Now() override {
    return next_.fetch_add(1, std::memory_order_relaxed) + 1;
  }
  /// Fast-forwards so the next tick is at least `t` (used after recovery so
  /// restored timestamps stay monotone).
  void AdvanceTo(uint64_t t) {
    uint64_t prev = next_.load(std::memory_order_relaxed);
    while (t > prev &&
           !next_.compare_exchange_weak(prev, t, std::memory_order_relaxed)) {
    }
  }

 private:
  std::atomic<uint64_t> next_;
};

/// Microseconds since the Unix epoch, forced monotone.
class WallClock : public Clock {
 public:
  uint64_t Now() override;

 private:
  std::atomic<uint64_t> last_{0};
};

}  // namespace ode

#endif  // ODE_UTIL_CLOCK_H_
