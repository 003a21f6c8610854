// In-memory span recorder for the traced run. Spans carry a name, start,
// end, parent and numeric attributes; they are written out as JSON lines
// when the run ends. With a null Tracer every Span is a no-op, which is
// how the untraced run measures end-to-end metrics.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

class Tracer {
 public:
  Tracer() : epoch_(std::chrono::steady_clock::now()) {}

  int begin(std::string name) {
    const int parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back({std::move(name), parent, now_ns(), 0, {}});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }
  void end(int id) {
    spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
    stack_.pop_back();
  }
  void attr(int id, std::string key, double value) {
    spans_[static_cast<std::size_t>(id)].attrs.emplace_back(std::move(key),
                                                            value);
  }
  /// Duration of a closed span in nanoseconds.
  [[nodiscard]] std::int64_t duration_ns(int id) const {
    const auto& s = spans_[static_cast<std::size_t>(id)];
    return s.end_ns - s.start_ns;
  }
  /// Writes one JSON object per span; false when the file cannot be
  /// written.
  bool write(const std::string& path) const;
  [[nodiscard]] std::size_t size() const { return spans_.size(); }
  /// Calls fn(name, duration_ns) for every closed span.
  template <typename F>
  void visit(F&& fn) const {
    for (const auto& s : spans_) {
      if (s.end_ns != 0) fn(s.name, s.end_ns - s.start_ns);
    }
  }

 private:
  struct Rec {
    std::string name;
    int parent;
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::vector<std::pair<std::string, double>> attrs;
  };
  [[nodiscard]] std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
  }

  std::chrono::steady_clock::time_point epoch_;
  std::vector<Rec> spans_;
  std::vector<int> stack_;
};

/// Scoped span; does nothing when `tracer` is null.
class Span {
 public:
  Span(Tracer* tracer, std::string name)
      : tracer_(tracer), id_(tracer ? tracer->begin(std::move(name)) : -1) {}
  ~Span() { close(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  void attr(std::string key, double value) {
    if (tracer_ != nullptr) tracer_->attr(id_, std::move(key), value);
  }
  /// Ends the span early; returns its duration (0 without a tracer).
  std::int64_t close() {
    if (tracer_ == nullptr || closed_) return closed_ns_;
    tracer_->end(id_);
    closed_ = true;
    closed_ns_ = tracer_->duration_ns(id_);
    return closed_ns_;
  }

 private:
  Tracer* tracer_;
  int id_;
  bool closed_ = false;
  std::int64_t closed_ns_ = 0;
};

}  // namespace perfbench
