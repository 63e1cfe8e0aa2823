// Outside-in probes for the repository benchmark: an in-memory span tracer
// and an osal::Env decorator that times every file call the engines make and
// counts their writes. Nothing here reaches into the library; spans are taken
// around the public calls the benchmark itself makes (one root span per
// operation, tx calls beneath it) and around the Env calls the engines make
// into the decorator (the osal leaves).
#ifndef FAME_PERFBENCH_PROBE_H_
#define FAME_PERFBENCH_PROBE_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "osal/env.h"

namespace famebench {

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Span kinds: the operation root, the tx calls made beneath it, and the
/// osal leaves recorded by ProbeEnv.
enum Layer : uint8_t {
  kOp,
  kTxBegin,
  kTxGet,
  kTxPut,
  kTxCommit,
  kTxCheckpoint,
  kOsalRead,
  kOsalWrite,  // writes and truncates
  kOsalSync,
  kNumLayers
};

inline const char* LayerName(Layer l) {
  static const char* const kNames[kNumLayers] = {
      "op",        "tx.begin",  "tx.get",     "tx.put",    "tx.commit",
      "tx.checkpoint", "osal.read", "osal.write", "osal.sync"};
  return kNames[l];
}

struct Span {
  uint64_t op_id = 0;
  uint32_t parent = 0;  // index within the operation; kNoParent for the root
  Layer layer = kOp;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
};
constexpr uint32_t kNoParent = UINT32_MAX;
// A checkpoint writes every dirty page, each an osal span: a few hundred.
constexpr size_t kMaxOpSpans = 4096;

/// Per-operation result of folding its span tree.
struct OpTrace {
  uint64_t total_ns = 0;
  uint64_t self_ns[kNumLayers] = {};
  uint64_t checkpoint_total_ns = 0;  // span duration, children included
  uint32_t checkpoints = 0;
  bool nested = true;  // every child inside its parent, siblings disjoint
};

/// Records the span tree of one operation at a time. Spans of one
/// operation share its id; a bounded prefix of all spans is kept in memory
/// and written out when the run ends.
class Tracer {
 public:
  /// Reserves up front so that recording spans inside a traced operation
  /// does not allocate (the allocation count covers the engine only).
  explicit Tracer(size_t keep_spans) : keep_(keep_spans) {
    log_.reserve(keep_spans);
    cur_.reserve(kMaxOpSpans);
    stack_.reserve(kMaxOpSpans);
    child_ns_.reserve(kMaxOpSpans);
    last_end_.reserve(kMaxOpSpans);
  }

  bool active() const { return active_; }

  void BeginOp(uint64_t op_id) {
    cur_.clear();
    stack_.clear();
    op_id_ = op_id;
    active_ = true;
    Begin(kOp);
  }

  uint32_t Begin(Layer layer) {
    Span s;
    s.op_id = op_id_;
    s.parent = stack_.empty() ? kNoParent : stack_.back();
    s.layer = layer;
    s.start_ns = NowNs();
    cur_.push_back(s);
    stack_.push_back(static_cast<uint32_t>(cur_.size() - 1));
    return stack_.back();
  }

  void End(uint32_t idx) {
    cur_[idx].end_ns = NowNs();
    stack_.pop_back();
  }

  /// Closes the root span and folds the tree into self times: a span's self
  /// time is its duration minus its direct children's durations.
  OpTrace EndOp() {
    End(0);
    active_ = false;
    OpTrace t;
    t.total_ns = cur_[0].end_ns - cur_[0].start_ns;
    child_ns_.assign(cur_.size(), 0);
    last_end_.assign(cur_.size(), 0);
    for (size_t i = 1; i < cur_.size(); ++i) {
      const Span& s = cur_[i];
      const Span& p = cur_[s.parent];
      if (s.start_ns < p.start_ns || s.end_ns > p.end_ns ||
          s.start_ns < last_end_[s.parent] || s.end_ns < s.start_ns) {
        t.nested = false;
      }
      last_end_[s.parent] = s.end_ns;
      child_ns_[s.parent] += s.end_ns - s.start_ns;
    }
    for (size_t i = 0; i < cur_.size(); ++i) {
      const Span& s = cur_[i];
      uint64_t dur = s.end_ns - s.start_ns;
      t.self_ns[s.layer] += dur > child_ns_[i] ? dur - child_ns_[i] : 0;
      if (s.layer == kTxCheckpoint) {
        t.checkpoint_total_ns += dur;
        ++t.checkpoints;
      }
      if (log_.size() < keep_) log_.push_back(s);
    }
    return t;
  }

  /// Writes the kept spans as Chrome trace-event JSON (loadable in
  /// Perfetto); each operation is one track keyed by its id.
  bool WriteJson(const std::string& path) const {
    FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"traceEvents\":[");
    for (size_t i = 0; i < log_.size(); ++i) {
      const Span& s = log_[i];
      std::fprintf(f,
                   "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%llu,"
                   "\"ts\":%.3f,\"dur\":%.3f}",
                   i == 0 ? "" : ",", LayerName(s.layer),
                   static_cast<unsigned long long>(s.op_id),
                   static_cast<double>(s.start_ns) / 1000.0,
                   static_cast<double>(s.end_ns - s.start_ns) / 1000.0);
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
  }

 private:
  size_t keep_;
  bool active_ = false;
  uint64_t op_id_ = 0;
  std::vector<Span> cur_;
  std::vector<uint32_t> stack_;
  std::vector<uint64_t> child_ns_, last_end_;
  std::vector<Span> log_;
};

/// RAII span; a no-op while the tracer is not inside an operation.
class SpanScope {
 public:
  SpanScope(Tracer* t, Layer layer)
      : t_(t != nullptr && t->active() ? t : nullptr),
        idx_(t_ != nullptr ? t_->Begin(layer) : 0) {}
  ~SpanScope() {
    if (t_ != nullptr) t_->End(idx_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Tracer* t_;
  uint32_t idx_;
};

/// Writes counted by ProbeEnv, split by file: the page file versus the WAL.
struct IoCounts {
  uint64_t write_bytes = 0;
  uint64_t syncs = 0;
};
enum FileKind { kPageFile = 0, kWalFile = 1 };

/// osal::Env decorator: forwards to `base`, counts written bytes and syncs
/// per file kind, and records an osal span around each file call while a traced
/// operation is open.
class ProbeEnv final : public fame::osal::Env {
 public:
  ProbeEnv(std::unique_ptr<fame::osal::Env> base, Tracer* tracer)
      : base_(std::move(base)), tracer_(tracer) {}

  fame::StatusOr<std::unique_ptr<fame::osal::RandomAccessFile>> OpenFile(
      const std::string& name, bool create) override {
    auto f = base_->OpenFile(name, create);
    if (!f.ok()) return f.status();
    FileKind kind =
        name.find(".wal") != std::string::npos ? kWalFile : kPageFile;
    return std::unique_ptr<fame::osal::RandomAccessFile>(
        new File(this, std::move(f).value(), kind));
  }
  fame::Status DeleteFile(const std::string& name) override {
    return base_->DeleteFile(name);
  }
  bool FileExists(const std::string& name) const override {
    return base_->FileExists(name);
  }
  fame::Status RenameFile(const std::string& from,
                          const std::string& to) override {
    return base_->RenameFile(from, to);
  }
  fame::Status ListFiles(const std::string& prefix,
                         std::vector<std::string>* out) const override {
    return base_->ListFiles(prefix, out);
  }
  uint64_t NowNanos() const override { return base_->NowNanos(); }
  const char* name() const override { return base_->name(); }

  const IoCounts& io(FileKind k) const { return io_[k]; }

  /// Bytes currently stored in every file of the env.
  uint64_t StoredBytes() const {
    std::vector<std::string> names;
    if (!base_->ListFiles("", &names).ok()) return 0;
    uint64_t total = 0;
    for (const std::string& n : names) {
      auto f = base_->OpenFile(n, false);
      if (!f.ok()) continue;
      auto size = f.value()->Size();
      if (size.ok()) total += size.value();
    }
    return total;
  }

 private:
  class File final : public fame::osal::RandomAccessFile {
   public:
    File(ProbeEnv* env, std::unique_ptr<fame::osal::RandomAccessFile> base,
         FileKind kind)
        : env_(env), base_(std::move(base)), kind_(kind) {}

    fame::Status Read(uint64_t offset, size_t n, char* scratch,
                      fame::Slice* result) const override {
      SpanScope span(env_->tracer_, kOsalRead);
      return base_->Read(offset, n, scratch, result);
    }
    fame::Status Write(uint64_t offset, const fame::Slice& data) override {
      SpanScope span(env_->tracer_, kOsalWrite);
      env_->io_[kind_].write_bytes += data.size();
      return base_->Write(offset, data);
    }
    fame::Status Sync() override {
      SpanScope span(env_->tracer_, kOsalSync);
      ++env_->io_[kind_].syncs;
      return base_->Sync();
    }
    fame::StatusOr<uint64_t> Size() const override { return base_->Size(); }
    fame::Status Truncate(uint64_t size) override {
      SpanScope span(env_->tracer_, kOsalWrite);
      return base_->Truncate(size);
    }

   private:
    ProbeEnv* env_;
    std::unique_ptr<fame::osal::RandomAccessFile> base_;
    FileKind kind_;
  };

  std::unique_ptr<fame::osal::Env> base_;
  Tracer* tracer_;
  IoCounts io_[2];
};

}  // namespace famebench

#endif  // FAME_PERFBENCH_PROBE_H_
