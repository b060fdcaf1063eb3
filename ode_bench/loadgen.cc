#include "loadgen.h"

#include <sys/prctl.h>
#include <time.h>

#include <algorithm>
#include <barrier>
#include <cmath>
#include <thread>

namespace ode_bench {

namespace {

/// Sleep overshoot with 1 ns timer slack is ~15 us at p99 on an idle
/// 4-core VM.  Spinning the final 20 us absorbs most of it; a longer spin
/// would take CPU from the server threads the generators share the box with.
constexpr uint64_t kSpinNs = 20'000;

/// Throughput and latency percentiles of one window.
struct WindowStats {
  double ops_s = 0;
  double p50_us = 0;
  double p90_us = 0;
  double p99_us = 0;
};

/// Stats of the latencies in `window` (reordered), which took `seconds`.
WindowStats Measure(std::vector<float>* window, double seconds) {
  WindowStats ws;
  ws.ops_s = static_cast<double>(window->size()) / seconds;
  ws.p50_us = Quantile(window, 0.50);
  ws.p90_us = Quantile(window, 0.90);
  ws.p99_us = Quantile(window, 0.99);
  return ws;
}

/// Fills the gated fields of `r` with medians across `windows` and the
/// whole-phase fields from every latency of the phase.
void Summarize(std::vector<float>* all, const std::vector<WindowStats>& windows,
               PhaseResult* r) {
  std::vector<double> ops_s, p50, p90, p99;
  for (const WindowStats& w : windows) {
    ops_s.push_back(w.ops_s);
    p50.push_back(w.p50_us);
    p90.push_back(w.p90_us);
    p99.push_back(w.p99_us);
  }
  r->windows = windows.size();
  r->ops_s = Median(ops_s);
  r->p50_us = Median(p50);
  r->p90_us = Median(p90);
  r->p99_us = Median(p99);
  double sum = 0;
  for (float v : *all) sum += v;
  r->mean_us = all->empty() ? 0 : sum / static_cast<double>(all->size());
  r->whole_ops_s = r->seconds > 0 ? static_cast<double>(r->ops) / r->seconds : 0;
  r->whole_p50_us = Quantile(all, 0.50);
  r->whole_p99_us = Quantile(all, 0.99);
}

}  // namespace

uint64_t NowNs() {
  timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<uint64_t>(ts.tv_nsec);
}

void PrepareGeneratorThread() { prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0); }

void WaitUntil(uint64_t deadline_ns) {
  if (deadline_ns > kSpinNs && NowNs() + kSpinNs < deadline_ns) {
    const uint64_t wake = deadline_ns - kSpinNs;
    timespec ts;
    ts.tv_sec = static_cast<time_t>(wake / 1'000'000'000ull);
    ts.tv_nsec = static_cast<long>(wake % 1'000'000'000ull);
    while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) != 0) {
    }
  }
  while (NowNs() < deadline_ns) {
  }
}

double Quantile(std::vector<float>* values, double q) {
  if (values->empty()) return 0;
  const size_t n = values->size();
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<size_t>(rank, 1, n) - 1;
  std::nth_element(values->begin(), values->begin() + rank, values->end());
  return (*values)[rank];
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

PhaseResult RunClosed(const std::vector<Generator*>& gens,
                      size_t ops_per_window, size_t windows,
                      uint64_t first_stream) {
  const size_t n = gens.size();
  const size_t per_gen = std::max<size_t>(1, ops_per_window / n);
  // The coordinator (this thread) is the extra party: it times each window
  // between the start and end barriers and reads the latencies after it.
  std::barrier sync(static_cast<std::ptrdiff_t>(n + 1));
  std::vector<std::vector<float>> lat(n);
  std::vector<uint64_t> failed(n, 0);
  std::vector<std::thread> threads;
  for (size_t g = 0; g < n; ++g) {
    threads.emplace_back([&, g] {
      PrepareGeneratorThread();
      for (size_t w = 0; w < windows; ++w) {
        gens[g]->Plan(first_stream + w, per_gen);
        sync.arrive_and_wait();
        // The coordinator read the previous window's latencies before it
        // arrived at this start barrier.
        lat[g].clear();
        for (size_t i = 0; i < per_gen; ++i) {
          const uint64_t t0 = NowNs();
          uint64_t done = t0;
          if (!gens[g]->Run(i, &done)) ++failed[g];
          lat[g].push_back(static_cast<float>((done - t0) / 1e3));
        }
        sync.arrive_and_wait();
      }
    });
  }

  PhaseResult r;
  std::vector<WindowStats> stats;
  std::vector<float> all, window;
  for (size_t w = 0; w < windows; ++w) {
    sync.arrive_and_wait();
    const uint64_t t0 = NowNs();
    sync.arrive_and_wait();
    const uint64_t elapsed = NowNs() - t0;
    window.clear();
    for (size_t g = 0; g < n; ++g) {
      window.insert(window.end(), lat[g].begin(), lat[g].end());
    }
    all.insert(all.end(), window.begin(), window.end());
    stats.push_back(Measure(&window, static_cast<double>(elapsed) / 1e9));
    r.ops += window.size();
    r.seconds += static_cast<double>(elapsed) / 1e9;
  }
  for (std::thread& t : threads) t.join();
  for (uint64_t f : failed) r.failed += f;
  Summarize(&all, stats, &r);
  return r;
}

PhaseResult RunOpen(const std::vector<Generator*>& gens, double rate,
                    size_t ops_per_window, size_t windows, uint64_t stream) {
  const size_t n = gens.size();
  const size_t per_gen_window = std::max<size_t>(1, ops_per_window / n);
  const double window_s = static_cast<double>(per_gen_window * n) / rate;
  const size_t per_gen = windows * per_gen_window;
  const double interval_ns = 1e9 / rate;

  std::barrier sync(static_cast<std::ptrdiff_t>(n + 1));
  uint64_t start = 0;  // Written by the coordinator between the barriers.
  std::vector<std::vector<float>> lat(n, std::vector<float>(per_gen));
  std::vector<std::vector<float>> lag(n, std::vector<float>(per_gen));
  std::vector<uint64_t> failed(n, 0);
  std::vector<uint64_t> finished(n, 0);
  std::vector<std::thread> threads;
  for (size_t g = 0; g < n; ++g) {
    threads.emplace_back([&, g] {
      PrepareGeneratorThread();
      gens[g]->Plan(stream, per_gen);
      sync.arrive_and_wait();  // Everyone has planned.
      sync.arrive_and_wait();  // `start` is set.
      uint64_t answered = 0;  // When the previous request was answered.
      for (size_t k = 0; k < per_gen; ++k) {
        const uint64_t due =
            start + static_cast<uint64_t>(static_cast<double>(k * n + g) *
                                          interval_ns);
        uint64_t sent, clock;
        if (answered < due) {
          // Nothing of ours was in the system when this request fell due:
          // sending it late is the generator's own lag, not the system's.
          WaitUntil(due);
          sent = NowNs();
          lag[g][k] = static_cast<float>((sent - due) / 1e3);
          clock = sent;
        } else {
          // The previous request held the generator past the due time:
          // that wait is the system's, so latency counts from the due time.
          sent = NowNs();
          lag[g][k] = static_cast<float>((sent - answered) / 1e3);
          clock = due;
        }
        uint64_t done = sent;
        if (!gens[g]->Run(k, &done)) ++failed[g];
        lat[g][k] = static_cast<float>((done - clock) / 1e3);
        answered = done;
      }
      finished[g] = answered;
    });
  }
  sync.arrive_and_wait();
  start = NowNs() + 1'000'000;
  sync.arrive_and_wait();
  for (std::thread& t : threads) t.join();

  PhaseResult r;
  std::vector<WindowStats> stats;
  std::vector<float> all, window, lags;
  for (size_t w = 0; w < windows; ++w) {
    window.clear();
    for (size_t g = 0; g < n; ++g) {
      window.insert(window.end(), lat[g].begin() + w * per_gen_window,
                    lat[g].begin() + (w + 1) * per_gen_window);
    }
    all.insert(all.end(), window.begin(), window.end());
    stats.push_back(Measure(&window, window_s));
  }
  for (size_t g = 0; g < n; ++g) {
    lags.insert(lags.end(), lag[g].begin(), lag[g].end());
    r.failed += failed[g];
  }
  r.ops = all.size();
  r.seconds =
      static_cast<double>(*std::max_element(finished.begin(), finished.end()) -
                          start) / 1e9;
  r.lag_p99_us = Quantile(&lags, 0.99);
  Summarize(&all, stats, &r);
  return r;
}

}  // namespace ode_bench
