#include "spans.h"

#include "loadgen.h"
#include "util/json.h"

namespace ode_bench {

const char* SpanNameString(SpanName name) {
  switch (name) {
    case SpanName::kOp: return "op";
    case SpanName::kClientCall: return "net.client.call";
    case SpanName::kDbRead: return "core.database.read";
    case SpanName::kDbTraverse: return "core.database.traverse";
    case SpanName::kDbWrite: return "core.database.write";
    case SpanName::kRetryWait: return "loadgen.retry_wait";
    case SpanName::kVerify: return "bench.verify";
    case SpanName::kCount: break;
  }
  return "?";
}

SpanBuffer::SpanBuffer(uint32_t tid, size_t capacity)
    : tid_(tid), capacity_(capacity) {
  records_.reserve(capacity);
  stack_.reserve(16);
}

void SpanBuffer::Begin(SpanName name, uint64_t op_id) {
  const uint64_t now = NowNs();
  int32_t record = -1;
  if (records_.size() < capacity_) {
    record = static_cast<int32_t>(records_.size());
    const int32_t parent = stack_.empty() ? -1 : stack_.back().record;
    records_.push_back(Record{now, 0, op_id, parent, name});
  }
  stack_.push_back(Open{name, now, 0, record});
}

void SpanBuffer::End() {
  const uint64_t end = NowNs();
  const Open open = stack_.back();
  stack_.pop_back();
  const uint64_t duration = end - open.start_ns;
  SpanTotals& t = totals_[static_cast<size_t>(open.name)];
  ++t.count;
  t.total_ns += duration;
  t.self_ns += duration - open.child_ns;
  if (!stack_.empty()) stack_.back().child_ns += duration;
  if (open.record >= 0) {
    records_[static_cast<size_t>(open.record)].end_ns = end;
  } else {
    ++dropped_;
  }
}

void SpanBuffer::AppendChromeEvents(ode::JsonWriter* w, uint64_t origin_ns) const {
  for (const Record& r : records_) {
    if (r.end_ns == 0) continue;  // Still open (cannot happen after a phase).
    w->BeginObject();
    w->KV("name", SpanNameString(r.name));
    w->KV("ph", "X");
    w->KV("pid", uint64_t{1});
    w->KV("tid", uint64_t{tid_});
    w->KV("ts", static_cast<double>(r.start_ns - origin_ns) / 1e3);
    w->KV("dur", static_cast<double>(r.end_ns - r.start_ns) / 1e3);
    w->Key("args");
    w->BeginObject();
    w->KV("op", r.op_id);
    w->KV("parent", int64_t{r.parent});
    w->EndObject();
    w->EndObject();
  }
}

}  // namespace ode_bench
