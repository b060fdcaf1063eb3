#ifndef ODE_BENCH_SPANS_H_
#define ODE_BENCH_SPANS_H_

// Spans the benchmark records around its own calls into each layer, for the
// traced run.  One SpanBuffer per generator thread, preallocated, so
// recording takes no lock and allocates nothing; self times are summed as
// spans close, and the first `capacity` spans are kept for the Chrome trace
// written at exit.

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace ode {
class JsonWriter;
}

namespace ode_bench {

/// Span names, one per boundary the benchmark times.
enum class SpanName : uint8_t {
  kOp,           ///< One workload operation (the root of its spans).
  kClientCall,   ///< A net::Client round trip.
  kDbRead,       ///< Database::ReadLatest / ReadVersion.
  kDbTraverse,   ///< Database::Dprevious / VersionsOf.
  kDbWrite,      ///< Database mutators.
  kRetryWait,    ///< Back-off after a refused TxnBegin.
  kVerify,       ///< Checking an answer against the model.
  kCount,
};

inline constexpr size_t kSpanNames = static_cast<size_t>(SpanName::kCount);
const char* SpanNameString(SpanName name);

/// Time spent under one span name, summed over a buffer.
struct SpanTotals {
  uint64_t count = 0;
  uint64_t total_ns = 0;
  uint64_t self_ns = 0;  ///< Total minus the time child spans cover.
};

class SpanBuffer {
 public:
  SpanBuffer(uint32_t tid, size_t capacity);
  SpanBuffer(const SpanBuffer&) = delete;
  SpanBuffer& operator=(const SpanBuffer&) = delete;

  void Begin(SpanName name, uint64_t op_id);
  void End();

  const std::array<SpanTotals, kSpanNames>& totals() const { return totals_; }
  /// Spans that closed after the buffer filled (counted in totals only).
  uint64_t dropped() const { return dropped_; }
  /// Appends every kept span as a Chrome-trace complete ("X") event, with
  /// timestamps relative to `origin_ns`.
  void AppendChromeEvents(ode::JsonWriter* w, uint64_t origin_ns) const;

 private:
  struct Record {
    uint64_t start_ns = 0;
    uint64_t end_ns = 0;
    uint64_t op_id = 0;
    int32_t parent = -1;  ///< Index of the enclosing span's record, or -1.
    SpanName name = SpanName::kOp;
  };
  struct Open {
    SpanName name;
    uint64_t start_ns;
    uint64_t child_ns;
    int32_t record;  ///< -1 once the buffer is full.
  };

  uint32_t tid_;
  size_t capacity_;
  std::vector<Record> records_;
  std::vector<Open> stack_;
  std::array<SpanTotals, kSpanNames> totals_{};
  uint64_t dropped_ = 0;
};

/// Records a span for the enclosing scope; a null buffer (untraced run)
/// makes it free.
class ScopedSpan {
 public:
  ScopedSpan(SpanBuffer* buffer, SpanName name, uint64_t op_id)
      : buffer_(buffer) {
    if (buffer_ != nullptr) buffer_->Begin(name, op_id);
  }
  ~ScopedSpan() {
    if (buffer_ != nullptr) buffer_->End();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanBuffer* buffer_;
};

}  // namespace ode_bench

#endif  // ODE_BENCH_SPANS_H_
