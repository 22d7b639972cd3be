// In-memory span recorder for the traced benchmark run.
//
// The driver opens a span around every call it makes into a BMX layer (an
// acquire, a pump, a collection, ...) and adds one completed span per network
// delivery, so each layer is timed from outside without instrumenting the
// program.  Spans nest: a span closed while another is open is that span's
// child, and a span's self time is its duration minus the time its children
// cover.  Self times are folded into per-name totals as spans close; the spans
// themselves stay in memory until WriteTsv() at the end of the run.

#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

// Monotonic nanoseconds since the first call in the process.
int64_t NowNs();

struct Span {
  uint32_t name = 0;     // SpanRecorder::Intern() id
  int32_t parent = -1;   // index of the enclosing span, -1 at top level
  uint32_t episode = 0;  // spans of one op share (episode, op)
  uint32_t op = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

class SpanRecorder {
 public:
  uint32_t Intern(std::string_view name);

  // Ids attached to the spans recorded from here on.
  void SetOp(uint32_t episode, uint32_t op) {
    episode_ = episode;
    op_ = op;
  }

  // Opens a span starting now, as a child of the innermost open span.
  void Open(uint32_t name);
  // Closes the innermost open span at `end_ns`.
  void Close(int64_t end_ns);
  // Records a completed child of the innermost open span.
  void Add(uint32_t name, int64_t start_ns, int64_t end_ns);

  // Sum of the self times of the spans recorded under `name`.
  int64_t SelfNs(uint32_t name) const { return self_ns_[name]; }
  // Total duration of top-level spans: the part of the traced window that
  // some span covers.
  int64_t TopLevelNs() const { return top_level_ns_; }

  // One line per span: episode, op, name, parent, start_ns, end_ns.
  bool WriteTsv(const std::string& path) const;

 private:
  void Finish(size_t index, int64_t child_ns);

  std::vector<std::string> names_;
  std::vector<int64_t> self_ns_;
  std::vector<Span> spans_;
  struct OpenSpan {
    size_t index;
    int64_t child_ns;
  };
  std::vector<OpenSpan> stack_;
  int64_t top_level_ns_ = 0;
  uint32_t episode_ = 0;
  uint32_t op_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
