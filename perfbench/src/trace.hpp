#pragma once
// In-memory span tracing for the traced benchmark run.
//
// A span is (name, start, end, id, parent). Spans are recorded into one
// SpanBuffer per writer: one per scheduler shard plus one for the main
// thread. A shard's events run on one worker at a time and rounds are
// separated by the scheduler's barrier, so each buffer has exactly one
// writer at any moment and needs no lock. Shard spans that open with no
// span of their own buffer open take the main thread's current context
// span (the run_until window around them) as parent.
//
// When the run ends the buffers merge into one list ordered by (start, id),
// and ids order by (buffer index, sequence within the buffer), so the merge
// is deterministic for a given set of timestamps.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct SpanRecord {
  const char* name = "";      ///< static string, the layer boundary
  std::int64_t start_ns = 0;  ///< since the tracer's epoch
  std::int64_t end_ns = 0;
  std::uint64_t id = 0;       ///< (buffer + 1) << 40 | sequence; never 0
  std::uint64_t parent = 0;   ///< 0 for a root span

  std::int64_t duration_ns() const { return end_ns - start_ns; }
  std::size_t buffer() const {
    return static_cast<std::size_t>((id >> 40) - 1);
  }
  std::size_t sequence() const {
    return static_cast<std::size_t>(id & ((std::uint64_t{1} << 40) - 1));
  }
};

class SpanBuffer {
 public:
  SpanBuffer(std::size_t index, std::chrono::steady_clock::time_point epoch)
      : index_(index), epoch_(epoch) {}

  /// Opens a span; its parent is this buffer's innermost open span, else
  /// `context`. Returns a token for end().
  std::size_t begin(const char* name, std::uint64_t context);
  void end(std::size_t token);

  /// Appends a finished span with explicit times (tests, imported spans).
  std::uint64_t add(const char* name, std::int64_t start_ns,
                    std::int64_t end_ns, std::uint64_t parent);

  std::uint64_t id_of(std::size_t token) const { return records_[token].id; }
  const std::vector<SpanRecord>& records() const { return records_; }
  std::vector<SpanRecord> take() { return std::move(records_); }

 private:
  std::int64_t now_ns() const;

  std::size_t index_;
  std::chrono::steady_clock::time_point epoch_;
  std::vector<SpanRecord> records_;
  std::vector<std::size_t> open_;
};

/// Per-name totals over a merged span list. Self time is a span's duration
/// minus the part of its interval covered by the union of its children
/// (children on parallel shards may overlap each other).
struct SpanTotals {
  std::size_t count = 0;
  double total_ns = 0.0;
  double self_ns = 0.0;
};

class Tracer {
 public:
  /// `shards` shard buffers plus one main-thread buffer after them.
  explicit Tracer(std::size_t shards);

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  std::size_t main_index() const { return buffers_.size() - 1; }
  SpanBuffer& buffer(std::size_t index) { return buffers_[index]; }

  /// Parent for shard spans opened with nothing open in their own buffer.
  /// Set by the main thread before handing work to the shards.
  void set_context(std::uint64_t id) { context_ = id; }
  std::uint64_t context() const { return context_; }

  /// Every buffer's spans, ordered by (start, id). Moves them out: the
  /// buffers are empty afterwards.
  std::vector<SpanRecord> take_merged();

  /// Writes `spans` as tab-separated lines: id, parent, name, start, end.
  static bool write_tsv(const std::string& path,
                        const std::vector<SpanRecord>& spans);

 private:
  std::vector<SpanBuffer> buffers_;
  std::uint64_t context_ = 0;
};

/// Per-name count, total and self time of `spans`.
std::map<std::string, SpanTotals> aggregate(
    const std::vector<SpanRecord>& spans);

/// Sum of span durations named `name`, per buffer (size `buffers`).
std::vector<double> busy_by_buffer(const std::vector<SpanRecord>& spans,
                                   const std::string& name,
                                   std::size_t buffers);

/// RAII span; a no-op when `tracer` is null (the untraced run).
class Scope {
 public:
  Scope(Tracer* tracer, std::size_t buffer, const char* name)
      : buffer_(tracer ? &tracer->buffer(buffer) : nullptr) {
    if (buffer_) token_ = buffer_->begin(name, tracer->context());
  }
  ~Scope() {
    if (buffer_) buffer_->end(token_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  /// Id of this span (0 when untraced), e.g. to become the shard context.
  std::uint64_t id() const { return buffer_ ? buffer_->id_of(token_) : 0; }

 private:
  SpanBuffer* buffer_;
  std::size_t token_ = 0;
};

}  // namespace perfbench
