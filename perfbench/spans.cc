#include "spans.h"

#include <chrono>
#include <cstdio>

namespace perfbench {

int64_t NowNs() {
  static const std::chrono::steady_clock::time_point origin = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(std::chrono::steady_clock::now() -
                                                              origin)
      .count();
}

uint32_t SpanRecorder::Intern(std::string_view name) {
  for (size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) {
      return static_cast<uint32_t>(i);
    }
  }
  names_.emplace_back(name);
  self_ns_.push_back(0);
  return static_cast<uint32_t>(names_.size() - 1);
}

void SpanRecorder::Open(uint32_t name) {
  int32_t parent = stack_.empty() ? -1 : static_cast<int32_t>(stack_.back().index);
  spans_.push_back(Span{name, parent, episode_, op_, NowNs(), 0});
  stack_.push_back(OpenSpan{spans_.size() - 1, 0});
}

void SpanRecorder::Close(int64_t end_ns) {
  OpenSpan top = stack_.back();
  stack_.pop_back();
  spans_[top.index].end_ns = end_ns;
  Finish(top.index, top.child_ns);
}

void SpanRecorder::Add(uint32_t name, int64_t start_ns, int64_t end_ns) {
  int32_t parent = stack_.empty() ? -1 : static_cast<int32_t>(stack_.back().index);
  spans_.push_back(Span{name, parent, episode_, op_, start_ns, end_ns});
  Finish(spans_.size() - 1, 0);
}

void SpanRecorder::Finish(size_t index, int64_t child_ns) {
  const Span& s = spans_[index];
  int64_t duration = s.end_ns - s.start_ns;
  self_ns_[s.name] += duration - child_ns;
  if (stack_.empty()) {
    top_level_ns_ += duration;
  } else {
    stack_.back().child_ns += duration;
  }
}

bool SpanRecorder::WriteTsv(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  std::fprintf(f, "episode\top\tname\tparent\tstart_ns\tend_ns\n");
  for (const Span& s : spans_) {
    std::fprintf(f, "%u\t%u\t%s\t%d\t%lld\t%lld\n", s.episode, s.op, names_[s.name].c_str(),
                 s.parent, static_cast<long long>(s.start_ns), static_cast<long long>(s.end_ns));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
