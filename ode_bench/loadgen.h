#ifndef ODE_BENCH_LOADGEN_H_
#define ODE_BENCH_LOADGEN_H_

// Load generation shared by every workload: fixed-count closed loops,
// fixed-rate open loops, and the windowed medians both report.
//
// A phase is a sequence of windows, each a fixed, seeded number of
// operations.  The gated figures are medians across windows, so one window
// that meets a checkpoint or a noisy neighbour moves them little; the
// whole-phase figures are reported beside them.

#include <cstddef>
#include <cstdint>
#include <vector>

namespace ode_bench {

/// Monotonic clock, nanoseconds.
uint64_t NowNs();

/// Lowers the calling thread's timer slack to 1 ns.  The Linux default
/// (50 us) makes every timed sleep overshoot by about that much, which an
/// open loop would charge to the system under test.
void PrepareGeneratorThread();

/// Blocks until `deadline_ns`: sleeps to an absolute time short of it, then
/// spins the final stretch, so wake-up jitter does not make sends late.
void WaitUntil(uint64_t deadline_ns);

/// One generator thread's share of a workload.  Plan() draws the next
/// operations from the workload's seed outside the timed region; Run()
/// executes one of them.
class Generator {
 public:
  virtual ~Generator() = default;
  /// Replaces the plan with `ops` operations of input stream `stream`.
  virtual void Plan(uint64_t stream, size_t ops) = 0;
  /// Executes planned operation `i`.  Sets *done_ns to the moment the
  /// system answered, before the generator checks the answer against its
  /// model.  False if the operation failed or the answer was wrong.
  virtual bool Run(size_t i, uint64_t* done_ns) = 0;
};

/// Medians across windows (gated) and whole-phase values (reported only).
struct PhaseResult {
  size_t windows = 0;
  uint64_t ops = 0;
  uint64_t failed = 0;
  double seconds = 0;
  double ops_s = 0;
  double p50_us = 0;
  double p90_us = 0;
  double p99_us = 0;
  double whole_ops_s = 0;
  double whole_p50_us = 0;
  double whole_p99_us = 0;
  double mean_us = 0;
  /// Open loop only: how late the generator sent, p99 over the phase.
  double lag_p99_us = 0;
};

/// Closed loop: `windows` windows in which each generator runs
/// `ops_per_window / gens` operations back to back, one in flight per
/// generator.  Input stream of window w is `first_stream + w`.
PhaseResult RunClosed(const std::vector<Generator*>& gens,
                      size_t ops_per_window, size_t windows,
                      uint64_t first_stream);

/// Open loop: `windows` windows of `ops_per_window` operations due at `rate`
/// per second over all generators.  Generator g's k-th operation is due at
/// start + (k * gens + g) / rate; a generator still waiting for an earlier
/// answer sends it as soon as that arrives, and its latency then counts
/// from the due time, so a stall is charged to every request it delays.
/// Otherwise latency counts from the send, and how late the generator sent
/// is reported apart as lag.  Input stream is `stream`.
PhaseResult RunOpen(const std::vector<Generator*>& gens, double rate,
                    size_t ops_per_window, size_t windows, uint64_t stream);

/// q-quantile (0..1) of `values` by nearest rank; reorders `values`.
double Quantile(std::vector<float>* values, double q);

/// Median of `values`; reorders `values`.
double Median(std::vector<double> values);

}  // namespace ode_bench

#endif  // ODE_BENCH_LOADGEN_H_
