// famebench: the repository benchmark program (see README.md next to this
// file). One process, one client thread, closed loop: the caller is an
// embedded application that links the library and waits for every call.
//
//   famebench --workload point_read_cold|point_read_hot|txn_write
//             [--seed 42] [--seconds 30] [--trace 0|1] [--trace-out FILE]
//
// Each workload runs on three engines with the same feature selection
// (engines.h), all on osal::NewMemEnv behind the ProbeEnv decorator
// (probe.h). --trace 0 measures the end-to-end metrics; --trace 1
// alternates untraced and traced phases and reports the per-layer split.
// Every value read is checked against an oracle built from the generated
// trace; any mismatch, lost commit or failed self-check makes the exit code
// non-zero. The last line of stdout is one JSON object.
#include <malloc.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>
#include <type_traits>
#include <vector>

#include "common/crc32.h"
#include "common/random.h"
#include "index/keys.h"
#include "osal/fault_env.h"
#include "perfbench/engines.h"
#include "perfbench/probe.h"

// ------------------------------------------------------------ heap counting
// A replacement global operator new counts allocations while a traced
// operation is open (core.heap_allocs_per_op). Outside traced phases the
// flag is off and the replacement is a plain malloc.
namespace famebench {
bool g_count_allocs = false;
uint64_t g_allocs = 0;
}  // namespace famebench

void* operator new(std::size_t n) {
  if (famebench::g_count_allocs) ++famebench::g_allocs;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t n, std::align_val_t a) {
  if (famebench::g_count_allocs) ++famebench::g_allocs;
  size_t align = static_cast<size_t>(a);
  size_t size = (n + align - 1) / align * align;
  if (void* p = std::aligned_alloc(align, size == 0 ? align : size)) return p;
  throw std::bad_alloc();
}
// GCC pairs inlined new-expressions with these frees and warns; the pairing
// is correct because operator new above allocates with malloc.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
#pragma GCC diagnostic pop

namespace famebench {
namespace {

using fame::Random;

constexpr uint64_t kLoadKeys = 10'000;
constexpr size_t kStreamLen = 1u << 20;  // get stream, cycled
constexpr size_t kWarmupGets = 20'000;
constexpr size_t kColdFrames = 64;    // DbOptions / BundleOptions default
constexpr size_t kHotFrames = 1024;   // holds every page of every workload
constexpr size_t kValueBytes = 64;
constexpr uint64_t kTxnsPerRound = 3'000;
constexpr uint64_t kTxnChunk = 250;  // engines interleave per chunk
constexpr uint64_t kCheckpointEvery = 1'000;
constexpr uint64_t kDurabilityTxns = 1'500;
constexpr int kMinSetups = 3;  // read workloads: at least this many set-ups
constexpr double kMinSetupSeconds = 2.0;  // ... and at least this much time
constexpr uint64_t kReadSliceNs = 50'000'000;  // per engine per round
constexpr size_t kKeepSpans = 20'000;

enum class Workload { kCold, kHot, kTxn };

// The checksum calibration stores each result here so the timed calls
// cannot be optimised away, whatever the library inlines.
volatile uint32_t g_crc_sink = 0;

struct Options {
  Workload workload = Workload::kCold;
  std::string workload_name;
  uint64_t seed = 42;
  double seconds = 30;
  bool trace = false;
  std::string trace_out;
};

// ------------------------------------------------------------------ inputs

/// Everything the engines receive, generated from the seed before any
/// engine exists.
struct Inputs {
  std::vector<std::string> keys;         // load keys, then txn insert keys
  std::vector<std::string> load_values;  // "value-<i>"
  std::vector<uint32_t> stream;          // skewed get stream (key indexes)
  struct Txn {
    uint32_t read_key;  // skewed existing key: read, then overwritten
    uint32_t new_key;
    std::string update, insert;
  };
  std::vector<Txn> txns;
};

Inputs MakeInputs(uint64_t seed, bool txns) {
  Inputs in;
  Random rng(seed);
  uint64_t total = kLoadKeys + (txns ? kTxnsPerRound : 0);
  for (uint64_t i = 0; i < total; ++i) {
    in.keys.push_back(fame::index::EncodeU64Key(i));
  }
  for (uint64_t i = 0; i < kLoadKeys; ++i) {
    in.load_values.push_back("value-" + std::to_string(i));
  }
  // Drawn first so seed 42 reproduces Figure 1b's query stream.
  in.stream.resize(kStreamLen);
  for (uint32_t& k : in.stream) {
    k = static_cast<uint32_t>(rng.Skewed(kLoadKeys));
  }
  if (txns) {
    for (uint64_t j = 0; j < kTxnsPerRound; ++j) {
      Inputs::Txn t;
      t.read_key = static_cast<uint32_t>(rng.Skewed(kLoadKeys));
      t.new_key = static_cast<uint32_t>(kLoadKeys + j);
      t.update = rng.NextString(kValueBytes);
      t.insert = rng.NextString(kValueBytes);
      in.txns.push_back(std::move(t));
    }
  }
  return in;
}

// ----------------------------------------------------------------- windows

/// Per-operation latencies of one measurement window (one read slice, or
/// one engine's share of a txn round). The host's speed drifts by tens of
/// percent over seconds, so the reported figures are medians over windows
/// of each window's own statistic rather than pooled over the whole run.
struct Window {
  std::vector<uint32_t> lat_ns;
  uint64_t busy_ns = 0;  // wall time of the loops that produced lat_ns

  void Add(uint64_t ns) {
    lat_ns.push_back(static_cast<uint32_t>(std::min<uint64_t>(ns, UINT32_MAX)));
  }

  /// Linear-interpolated percentile in microseconds (p in [0, 1]); the
  /// window must not be empty.
  double PercentileUs(double p) {
    size_t n = lat_ns.size();
    double rank = p * static_cast<double>(n - 1);
    size_t lo = static_cast<size_t>(rank);
    auto it = lat_ns.begin() + static_cast<long>(lo);
    std::nth_element(lat_ns.begin(), it, lat_ns.end());
    double a = *it;
    double b = lo + 1 < n ? *std::min_element(it + 1, lat_ns.end()) : a;
    return (a + (b - a) * (rank - static_cast<double>(lo))) / 1000.0;
  }
};

/// Per-window statistics of one engine.
struct WindowStats {
  std::vector<double> ops_per_s, p50_us, p99_us;
  uint64_t ops = 0;

  void Close(Window* w) {
    if (w->lat_ns.empty()) return;
    ops += w->lat_ns.size();
    ops_per_s.push_back(static_cast<double>(w->lat_ns.size()) * 1e9 /
                        static_cast<double>(w->busy_ns));
    p50_us.push_back(w->PercentileUs(0.50));
    p99_us.push_back(w->PercentileUs(0.99));
    w->lat_ns.clear();
    w->busy_ns = 0;
  }
};

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

// ------------------------------------------------------- per-engine state

/// What one engine accumulated over the run. Untraced phases feed the
/// end-to-end numbers; traced phases feed the per-layer numbers.
struct EngineStats {
  EngineStats(const char* n, const char* l) : name(n), layer(l) {}

  const char* name;
  const char* layer;
  uint64_t attempted = 0, failed = 0;
  Window window;          // the window being measured
  WindowStats untraced, traced;
  Counters counters;              // every measured phase (self-checks)
  uint64_t measured_ops = 0;
  uint64_t checkpoints = 0;

  // Traced phases.
  uint64_t t_ops = 0;
  Counters t_counters;
  IoCounts t_io[2];
  uint64_t t_self[kNumLayers] = {};
  uint64_t t_total_ns = 0;
  uint64_t t_allocs = 0;
  uint64_t t_ckpt_ns = 0, t_ckpts = 0;
  uint64_t t_user_bytes = 0;
  bool t_nested = true;
};

template <typename E>
std::unique_ptr<E> MakeEngine(size_t frames) {
  if constexpr (std::is_constructible_v<E, size_t>) {
    return std::make_unique<E>(frames);
  } else {
    return std::make_unique<E>();
  }
}

/// One engine instance in the current set-up, with its own oracle.
template <typename E>
struct Slot {
  EngineStats* st = nullptr;
  std::unique_ptr<ProbeEnv> env;
  std::unique_ptr<E> db;
  size_t pos = 0;                     // next index into the get stream
  std::vector<std::string> expected;  // oracle; empty = absent
  uint64_t commits = 0;
};

void Fatal(const char* what, const Status& s) {
  std::fprintf(stderr, "famebench: %s: %s\n", what, s.ToString().c_str());
  std::exit(2);
}

/// Scans every record and counts disagreements with `expected` (wrong
/// value, unexpected key, duplicate, missing key). `digest` receives a
/// CRC over the scanned stream so engines can be compared with each other.
template <typename E>
uint64_t ScanMismatches(E* db, const std::vector<std::string>& expected,
                        uint32_t* digest) {
  std::vector<bool> seen(expected.size(), false);
  uint64_t bad = 0;
  uint32_t crc = 0;
  Status s = db->ScanAll([&](const Slice& k, const Slice& v) {
    crc = fame::Crc32Extend(crc, k.data(), k.size());
    crc = fame::Crc32Extend(crc, v.data(), v.size());
    uint64_t idx = k.size() == 8 ? fame::index::DecodeU64Key(k) : UINT64_MAX;
    if (idx >= expected.size() || seen[idx] || expected[idx].empty() ||
        v.ToString() != expected[idx]) {
      ++bad;
    }
    if (idx < expected.size()) seen[idx] = true;
    return true;
  });
  if (!s.ok()) {
    std::fprintf(stderr, "famebench: scan failed: %s\n", s.ToString().c_str());
    ++bad;
  }
  for (size_t i = 0; i < expected.size(); ++i) {
    if (!expected[i].empty() && !seen[i]) ++bad;
  }
  *digest = crc;
  return bad;
}

// ----------------------------------------------------------------- bench

class Bench {
 public:
  explicit Bench(const Options& o)
      : opt_(o),
        in_(MakeInputs(o.seed, o.workload == Workload::kTxn)),
        tracer_(kKeepSpans),
        stats_{EngineStats(StaticBench<kHotFrames>::kName,
                           StaticBench<kHotFrames>::kEngineLayer),
               EngineStats(DynamicBench::kName, DynamicBench::kEngineLayer),
               EngineStats(FopBench::kName, FopBench::kEngineLayer)} {}

  int Run();

 private:
  template <size_t kFrames>
  struct Trio {
    Slot<StaticBench<kFrames>> s;
    Slot<DynamicBench> d;
    Slot<FopBench> f;
    template <typename F>
    void Each(F&& fn) {
      fn(s);
      fn(d);
      fn(f);
    }
  };

  template <size_t kFrames>
  void BindStats(Trio<kFrames>* t) {
    t->s.st = &stats_[0];
    t->d.st = &stats_[1];
    t->f.st = &stats_[2];
  }

  std::vector<std::string> LoadOracle() const {
    std::vector<std::string> e(in_.keys.size());
    for (uint64_t i = 0; i < kLoadKeys; ++i) e[i] = in_.load_values[i];
    return e;
  }

  /// Open, load, checkpoint and warm up one engine on a fresh MemEnv.
  template <typename E>
  void Setup(Slot<E>* s, size_t frames) {
    s->db.reset();
    s->env = std::make_unique<ProbeEnv>(fame::osal::NewMemEnv(0), &tracer_);
    s->db = MakeEngine<E>(frames);
    Status st = s->db->Open(s->env.get(), "bench");
    if (!st.ok()) Fatal("open", st);
    for (uint64_t i = 0; i < kLoadKeys; ++i) {
      st = s->db->Load(in_.keys[i], in_.load_values[i]);
      if (!st.ok()) Fatal("load", st);
    }
    st = s->db->Checkpoint();
    if (!st.ok()) Fatal("checkpoint after load", st);
    std::string v;
    for (size_t i = 0; i < kWarmupGets; ++i) {
      uint32_t k = in_.stream[i];
      st = s->db->Get(in_.keys[k], &v);
      if (!st.ok() || v != in_.load_values[k]) {
        Fatal("warm-up get", st.ok() ? Status::Corruption("wrong value") : st);
      }
    }
    s->pos = kWarmupGets;
    s->expected = LoadOracle();
    s->commits = 0;
  }

  template <size_t kFrames>
  void SetupAll(Trio<kFrames>* t, size_t frames) {
    uint64_t t0 = NowNs();
    t->Each([&](auto& s) { Setup(&s, frames); });
    setup_s_.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }

  /// Starts a traced operation (span root + allocation counting).
  void BeginTraced() {
    tracer_.BeginOp(++op_id_);
    alloc_mark_ = g_allocs;
    g_count_allocs = true;
  }
  void EndTraced(EngineStats* st, uint64_t* latency_ns) {
    g_count_allocs = false;
    st->t_allocs += g_allocs - alloc_mark_;
    OpTrace t = tracer_.EndOp();
    st->t_total_ns += t.total_ns;
    for (int l = 0; l < kNumLayers; ++l) st->t_self[l] += t.self_ns[l];
    st->t_ckpt_ns += t.checkpoint_total_ns;
    st->t_ckpts += t.checkpoints;
    st->t_nested = st->t_nested && t.nested;
    *latency_ns = t.total_ns;
  }

  /// Measured-phase bookkeeping shared by the read and txn loops.
  template <typename E>
  struct Phase {
    Phase(Slot<E>* s, bool traced)
        : s(s), traced(traced), before(s->db->Read()) {
      io_before[0] = s->env->io(kPageFile);
      io_before[1] = s->env->io(kWalFile);
    }
    void Finish(uint64_t ops, uint64_t wall_ns, uint64_t user_bytes) {
      EngineStats* st = s->st;
      Counters d = s->db->Read() - before;
      st->counters += d;
      st->measured_ops += ops;
      st->window.busy_ns += wall_ns;
      if (!traced) return;
      st->t_ops += ops;
      st->t_counters += d;
      st->t_user_bytes += user_bytes;
      for (int k = 0; k < 2; ++k) {
        const IoCounts& now = s->env->io(static_cast<FileKind>(k));
        IoCounts& acc = st->t_io[k];
        acc.write_bytes += now.write_bytes - io_before[k].write_bytes;
        acc.syncs += now.syncs - io_before[k].syncs;
      }
    }
    Slot<E>* s;
    bool traced;
    Counters before;
    IoCounts io_before[2];
  };

  /// Point gets for kReadSliceNs on one engine: one window.
  template <typename E>
  void ReadSlice(Slot<E>* s, bool traced) {
    EngineStats* st = s->st;
    Phase<E> phase(s, traced);
    std::string v;
    uint64_t begin = NowNs(), t1 = begin, ops = 0;
    do {
      uint32_t k = in_.stream[s->pos++ % kStreamLen];
      const std::string& key = in_.keys[k];
      Status r;
      uint64_t ns = 0;
      if (traced) {
        BeginTraced();
        r = s->db->Get(key, &v);
        EndTraced(st, &ns);
        t1 = NowNs();
      } else {
        uint64_t t0 = NowNs();
        r = s->db->Get(key, &v);
        t1 = NowNs();
        ns = t1 - t0;
      }
      st->window.Add(ns);
      ++ops;
      if (!r.ok() || v != s->expected[k]) ++st->failed;
    } while (t1 - begin < kReadSliceNs);
    st->attempted += ops;
    phase.Finish(ops, t1 - begin, 0);
    (traced ? st->traced : st->untraced).Close(&st->window);
  }

  /// One transaction: begin, get, overwrite, insert, commit (+ checkpoint
  /// every kCheckpointEvery commits). Returns false on any failure or a
  /// wrong read; the oracle advances only on an acknowledged commit.
  template <typename E>
  bool TxnOp(Slot<E>* s, const Inputs::Txn& t, Tracer* tr) {
    E* db = s->db.get();
    const std::string& rk = in_.keys[t.read_key];
    const std::string& nk = in_.keys[t.new_key];
    Status r;
    {
      SpanScope span(tr, kTxBegin);
      r = db->Begin();
    }
    if (!r.ok()) return false;
    std::string v;
    {
      SpanScope span(tr, kTxGet);
      r = db->TxGet(rk, &v);
    }
    bool ok = r.ok() && v == s->expected[t.read_key];
    if (ok) {
      SpanScope span(tr, kTxPut);
      ok = db->TxPut(rk, t.update).ok();
    }
    if (ok) {
      SpanScope span(tr, kTxPut);
      ok = db->TxPut(nk, t.insert).ok();
    }
    if (!ok) {
      db->Abort();
      return false;
    }
    {
      SpanScope span(tr, kTxCommit);
      r = db->Commit();
    }
    if (!r.ok()) return false;
    s->expected[t.read_key] = t.update;
    s->expected[t.new_key] = t.insert;
    if (++s->commits % kCheckpointEvery == 0) {
      SpanScope span(tr, kTxCheckpoint);
      ++s->st->checkpoints;
      if (!db->Checkpoint().ok()) return false;
    }
    return true;
  }

  /// Transactions [from, to) on one engine; a round's chunks on one
  /// engine form one window.
  template <typename E>
  void TxnChunk(Slot<E>* s, uint64_t from, uint64_t to, bool traced) {
    EngineStats* st = s->st;
    Phase<E> phase(s, traced);
    uint64_t user_bytes = 0;
    uint64_t begin = NowNs();
    for (uint64_t j = from; j < to; ++j) {
      const Inputs::Txn& t = in_.txns[j];
      bool ok;
      uint64_t ns = 0;
      if (traced) {
        BeginTraced();
        ok = TxnOp(s, t, &tracer_);
        EndTraced(st, &ns);
      } else {
        uint64_t t0 = NowNs();
        ok = TxnOp(s, t, nullptr);
        ns = NowNs() - t0;
      }
      st->window.Add(ns);
      user_bytes += in_.keys[t.read_key].size() + t.update.size() +
                    in_.keys[t.new_key].size() + t.insert.size();
      ++st->attempted;
      if (!ok) ++st->failed;
    }
    phase.Finish(to - from, NowNs() - begin, user_bytes);
  }

  /// Full scan of all three engines against their oracles and each other;
  /// also records the set-up's space amplification.
  template <size_t kFrames>
  void VerifyAll(Trio<kFrames>* t,
                 const std::vector<std::string>& want) {
    uint32_t digests[3];
    int i = 0;
    uint64_t stored = 0;
    t->Each([&](auto& s) {
      uint64_t bad = ScanMismatches(s.db.get(), s.expected, &digests[i]);
      if (s.expected != want) ++bad;  // a commit this engine did not take
      if (bad != 0) {
        std::fprintf(stderr, "famebench: %s: %llu scan mismatches\n",
                     s.st->name, static_cast<unsigned long long>(bad));
      }
      s.st->failed += bad;
      stored += s.env->StoredBytes();
      ++i;
    });
    if (digests[0] != digests[1] || digests[0] != digests[2]) {
      std::fprintf(stderr, "famebench: engines disagree on a full scan\n");
      ++scan_disagreements_;
    }
    uint64_t live = 0;
    for (size_t k = 0; k < want.size(); ++k) {
      if (!want[k].empty()) live += in_.keys[k].size() + want[k].size();
    }
    space_amp_.push_back(static_cast<double>(stored) / (3.0 * live));
  }

  std::vector<std::string> TraceOracle() const {
    std::vector<std::string> e = LoadOracle();
    for (const Inputs::Txn& t : in_.txns) {
      e[t.read_key] = t.update;
      e[t.new_key] = t.insert;
    }
    return e;
  }

  template <size_t kFrames>
  void RunReads() {
    Trio<kFrames> t;
    BindStats(&t);
    double spent = 0;
    for (int i = 0; i < kMinSetups || spent < kMinSetupSeconds; ++i) {
      SetupAll(&t, kFrames);
      spent += setup_s_.back();
    }
    uint64_t deadline = NowNs() + static_cast<uint64_t>(opt_.seconds * 1e9);
    for (int round = 0; NowNs() < deadline || round < 2; ++round) {
      bool traced = opt_.trace && round % 2 == 1;
      t.Each([&](auto& s) { ReadSlice(&s, traced); });
    }
    VerifyAll(&t, LoadOracle());
  }

  void RunTxns() {
    std::vector<std::string> want = TraceOracle();
    uint64_t deadline = NowNs() + static_cast<uint64_t>(opt_.seconds * 1e9);
    for (int round = 0; NowNs() < deadline || round < 2; ++round) {
      bool traced = opt_.trace && round % 2 == 1;
      Trio<kHotFrames> t;
      BindStats(&t);
      SetupAll(&t, kHotFrames);
      for (uint64_t c = 0; c < kTxnsPerRound; c += kTxnChunk) {
        t.Each([&](auto& s) { TxnChunk(&s, c, c + kTxnChunk, traced); });
      }
      for (EngineStats& st : stats_) {
        (traced ? st.traced : st.untraced).Close(&st.window);
      }
      VerifyAll(&t, want);
    }
    DurabilityCheck<StaticBench<kHotFrames>>(&stats_[0]);
    DurabilityCheck<DynamicBench>(&stats_[1]);
    DurabilityCheck<FopBench>(&stats_[2]);
  }

  /// Untimed: replays a prefix of the txn trace over FaultInjectionEnv,
  /// cuts power, reopens and checks that every acknowledged commit (and
  /// nothing else) reads back.
  template <typename E>
  void DurabilityCheck(EngineStats* st) {
    auto mem = fame::osal::NewMemEnv(0);
    fame::osal::FaultInjectionEnv fenv(mem.get());
    EngineStats scratch("durability", "");  // keeps self-checks clean
    Slot<E> s;
    s.st = &scratch;
    {
      auto db = MakeEngine<E>(kHotFrames);
      Status r = db->Open(&fenv, "durable");
      if (!r.ok()) Fatal("durability open", r);
      for (uint64_t i = 0; i < kLoadKeys; ++i) {
        r = db->Load(in_.keys[i], in_.load_values[i]);
        if (!r.ok()) Fatal("durability load", r);
      }
      r = db->Checkpoint();
      if (!r.ok()) Fatal("durability checkpoint", r);
      s.db = std::move(db);
      s.expected = LoadOracle();
      for (uint64_t j = 0; j < kDurabilityTxns; ++j) {
        if (!TxnOp(&s, in_.txns[j], nullptr)) ++st->failed;
      }
      st->attempted += kDurabilityTxns;
      // Power fails now: the engine's destructor writes never reach the
      // medium, and only synced bytes survive the crash.
      fenv.CrashAfterMutations(fenv.mutation_count());
      s.db.reset();
    }
    fenv.SimulateCrash();
    s.db = MakeEngine<E>(kHotFrames);
    Status r = s.db->Open(&fenv, "durable");
    uint64_t lost;
    if (!r.ok()) {
      std::fprintf(stderr, "famebench: %s: reopen after crash: %s\n",
                   st->name, r.ToString().c_str());
      lost = s.commits == 0 ? 1 : s.commits;
    } else {
      uint32_t digest;
      lost = ScanMismatches(s.db.get(), s.expected, &digest);
    }
    if (lost != 0) {
      std::fprintf(stderr,
                   "famebench: %s: %llu records differ after crash recovery\n",
                   st->name, static_cast<unsigned long long>(lost));
    }
    st->failed += lost;
    durability_commits_ += s.commits;
  }

  double CalibrateCrc32NsPerKib() const {
    std::vector<char> page(4096);
    Random rng(opt_.seed);
    for (char& c : page) c = static_cast<char>(rng.Next());
    std::vector<double> per_kib;
    for (int batch = 0; batch < 15; ++batch) {
      uint64_t t0 = NowNs();
      for (int i = 0; i < 32; ++i) {
        g_crc_sink = fame::Crc32(page.data(), page.size());
      }
      uint64_t ns = NowNs() - t0;
      per_kib.push_back(static_cast<double>(ns) / (32.0 * 4.0));
    }
    return Median(per_kib);
  }

  bool SelfChecks();
  void Emit(bool correct);

  Options opt_;
  Inputs in_;
  Tracer tracer_;
  EngineStats stats_[3];
  uint64_t op_id_ = 0;
  uint64_t alloc_mark_ = 0;
  std::vector<double> setup_s_;
  std::vector<double> space_amp_;
  uint64_t scan_disagreements_ = 0;
  uint64_t durability_commits_ = 0;
  double crc_ns_per_kib_ = 0;
};

double PeakRssMb() {
  FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  double kb = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) kb = std::atof(line + 6);
  }
  std::fclose(f);
  return kb / 1024.0;
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

bool Bench::SelfChecks() {
  bool ok = true;
  auto fail = [&](const std::string& what) {
    std::fprintf(stderr, "famebench: SELF-CHECK FAILED: %s\n", what.c_str());
    ok = false;
  };
  for (const EngineStats& st : stats_) {
    std::string n = st.name;
    double reads_per_get = Ratio(static_cast<double>(st.counters.page_reads),
                                 static_cast<double>(st.measured_ops));
    switch (opt_.workload) {
      case Workload::kCold:
        if (reads_per_get < 0.5) {
          fail(n + ": point_read_cold read " + std::to_string(reads_per_get) +
               " pages per get; the pool is not missing");
        }
        break;
      case Workload::kHot:
      case Workload::kTxn:
        if (st.counters.misses != 0) {
          fail(n + ": " + std::to_string(st.counters.misses) +
               " buffer misses in the measured phase; the pool does not "
               "hold the data");
        }
        break;
    }
    // Several checkpoint cycles: at least two, and one per kCheckpointEvery
    // measured transactions.
    if (opt_.workload == Workload::kTxn &&
        (st.checkpoints < 2 ||
         st.checkpoints * kCheckpointEvery < st.measured_ops)) {
      fail(n + ": txn_write did not span several checkpoint cycles");
    }
    if (opt_.trace && !st.t_nested) {
      fail(n + ": traced spans do not nest; layer self times would not add "
               "up to the operation span");
    }
  }
  if (opt_.workload == Workload::kTxn && durability_commits_ == 0) {
    fail("durability pass acknowledged no commit");
  }
  return ok;
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
  std::string note;
};

void Bench::Emit(bool correct) {
  std::vector<Metric> out;
  uint64_t attempted = 0, failed = scan_disagreements_;
  for (const EngineStats& st : stats_) {
    attempted += st.attempted;
    failed += st.failed;
  }
  if (!opt_.trace) {
    out.push_back({"setup_s", Median(setup_s_), "s",
                   "median of " + std::to_string(setup_s_.size()) +
                       " set-ups of all three engines"});
    for (EngineStats& st : stats_) {
      std::string p = st.name;
      const WindowStats& w = st.untraced;
      std::string n =
          "median of " + std::to_string(w.p50_us.size()) +
          " windows, n=" + std::to_string(w.ops) + " ops (" +
          std::to_string(w.ops / std::max<size_t>(w.p50_us.size(), 1)) +
          " per window)";
      out.push_back({p + ".ops_per_s", Median(w.ops_per_s), "1/s", n});
      out.push_back({p + ".op_p50_us", Median(w.p50_us), "us", n});
      out.push_back({p + ".op_p99_us", Median(w.p99_us), "us", n});
    }
    out.push_back({"peak_rss_mb", PeakRssMb(), "MB", "VmHWM"});
    out.push_back({"space_amp", Median(space_amp_), "ratio",
                   "page file + WAL bytes / live key+value bytes"});
  } else {
    out.push_back({"common.crc32_ns_per_kib", crc_ns_per_kib_, "ns/KiB",
                   "fame::Crc32 over a 4 KiB page"});
    for (EngineStats& st : stats_) {
      std::string p = std::string(st.name) + ".";
      double ops = static_cast<double>(st.t_ops);
      const Counters& c = st.t_counters;
      uint64_t osal_ns =
          st.t_self[kOsalRead] + st.t_self[kOsalWrite] + st.t_self[kOsalSync];
      double core_self = Ratio(static_cast<double>(st.t_total_ns - osal_ns),
                               ops) / 1000.0;
      double ck_bytes = Ratio(static_cast<double>(c.page_bytes), ops);
      double ck_us = ck_bytes / 1024.0 * crc_ns_per_kib_ / 1000.0;
      const IoCounts& wal = st.t_io[kWalFile];
      const IoCounts& pf = st.t_io[kPageFile];
      out.push_back({p + st.layer + ".self_us_per_op", core_self, "us",
                     "op span minus osal spans"});
      out.push_back({p + st.layer + ".heap_allocs_per_op",
                     Ratio(static_cast<double>(st.t_allocs), ops), "count", ""});
      out.push_back({p + "storage.buffer_hit_rate",
                     Ratio(static_cast<double>(c.hits),
                           static_cast<double>(c.hits + c.misses)),
                     "ratio", ""});
      out.push_back({p + "storage.buffer_fetches_per_op",
                     Ratio(static_cast<double>(c.hits + c.misses), ops),
                     "count", ""});
      out.push_back({p + "storage.page_reads_per_op",
                     Ratio(static_cast<double>(c.page_reads), ops), "count",
                     ""});
      out.push_back({p + "storage.page_writes_per_op",
                     Ratio(static_cast<double>(c.page_writes), ops), "count",
                     ""});
      out.push_back({p + "storage.checksum_bytes_per_op", ck_bytes, "B",
                     "page bytes read or written through PageFile"});
      out.push_back({p + "storage.checksum_us_per_op", ck_us, "us",
                     "bytes x common.crc32_ns_per_kib; part of self time"});
      out.push_back({p + "index.descents_per_op",
                     Ratio(static_cast<double>(c.descents), ops), "count", ""});
      out.push_back({p + "index.splits_per_kop",
                     Ratio(static_cast<double>(c.splits) * 1000.0, ops),
                     "count", ""});
      out.push_back({p + "tx.commit_self_us_per_op",
                     Ratio(static_cast<double>(st.t_self[kTxCommit]), ops) /
                         1000.0,
                     "us", ""});
      out.push_back({p + "tx.checkpoint_ms",
                     Ratio(static_cast<double>(st.t_ckpt_ns),
                           static_cast<double>(st.t_ckpts)) / 1e6,
                     "ms",
                     "mean of " + std::to_string(st.t_ckpts) + " checkpoints"});
      out.push_back({p + "tx.wal_bytes_per_op",
                     Ratio(static_cast<double>(wal.write_bytes), ops), "B", ""});
      out.push_back({p + "tx.wal_syncs_per_op",
                     Ratio(static_cast<double>(wal.syncs), ops), "count", ""});
      out.push_back({p + "tx.write_amp",
                     Ratio(static_cast<double>(pf.write_bytes + wal.write_bytes),
                           static_cast<double>(st.t_user_bytes)),
                     "ratio", "page + WAL bytes written / user bytes put"});
      out.push_back({p + "osal.read_us_per_op",
                     Ratio(static_cast<double>(st.t_self[kOsalRead]), ops) /
                         1000.0,
                     "us", ""});
      out.push_back({p + "osal.write_us_per_op",
                     Ratio(static_cast<double>(st.t_self[kOsalWrite]), ops) /
                         1000.0,
                     "us", ""});
      out.push_back({p + "osal.sync_us_per_op",
                     Ratio(static_cast<double>(st.t_self[kOsalSync]), ops) /
                         1000.0,
                     "us", ""});
      double traced_p50 = Median(st.traced.p50_us);
      double untraced_p50 = Median(st.untraced.p50_us);
      out.push_back({p + "trace_overhead_pct",
                     (Ratio(traced_p50, untraced_p50) - 1.0) * 100.0, "%",
                     "traced p50 " + std::to_string(traced_p50) +
                         " us vs untraced " + std::to_string(untraced_p50) +
                         " us"});
      // Accounting: the layer self times of every op add up to its span.
      double layers = core_self + Ratio(static_cast<double>(osal_ns), ops) /
                                      1000.0;
      double span = Ratio(static_cast<double>(st.t_total_ns), ops) / 1000.0;
      std::printf("# %s accounting: %s.self %.4f + osal %.4f = %.4f us vs "
                  "op span %.4f us over %llu traced ops\n",
                  st.name, st.layer, core_self, layers - core_self, layers,
                  span, static_cast<unsigned long long>(st.t_ops));
      std::printf("# %s checksum share of %s.self_us_per_op: %.1f%%\n",
                  st.name, st.layer, 100.0 * Ratio(ck_us, core_self));
    }
  }
  std::printf("# workload %s seed %llu, %llu operations attempted, %llu "
              "failed\n",
              opt_.workload_name.c_str(),
              static_cast<unsigned long long>(opt_.seed),
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  std::printf("failed_op_ratio %.6g ratio\n",
              Ratio(static_cast<double>(failed), static_cast<double>(attempted)));
  for (const Metric& m : out) {
    std::printf("%s %.6g %s%s%s\n", m.name.c_str(), m.value, m.unit,
                m.note.empty() ? "" : "  # ", m.note.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (size_t i = 0; i < out.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", out[i].name.c_str(), out[i].value,
                out[i].unit);
  }
  std::printf("}}\n");
}

int Bench::Run() {
  if (opt_.trace) crc_ns_per_kib_ = CalibrateCrc32NsPerKib();
  switch (opt_.workload) {
    case Workload::kCold:
      RunReads<kColdFrames>();
      break;
    case Workload::kHot:
      RunReads<kHotFrames>();
      break;
    case Workload::kTxn:
      RunTxns();
      break;
  }
  if (opt_.trace && !opt_.trace_out.empty() &&
      !tracer_.WriteJson(opt_.trace_out)) {
    std::fprintf(stderr, "famebench: cannot write %s\n",
                 opt_.trace_out.c_str());
  }
  bool ok = SelfChecks();
  uint64_t failed = scan_disagreements_;
  for (const EngineStats& st : stats_) failed += st.failed;
  bool correct = ok && failed == 0;
  Emit(correct);
  return correct ? 0 : 1;
}

int Usage() {
  std::fprintf(stderr,
               "usage: famebench --workload point_read_cold|point_read_hot|"
               "txn_write [--seed N] [--seconds S] [--trace 0|1] "
               "[--trace-out FILE]\n");
  return 2;
}

}  // namespace
}  // namespace famebench

int main(int argc, char** argv) {
  using namespace famebench;
  Options o;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i], val = argv[i + 1];
    if (flag == "--workload") {
      o.workload_name = val;
    } else if (flag == "--seed") {
      o.seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      o.seconds = std::atof(val.c_str());
    } else if (flag == "--trace") {
      o.trace = val == "1";
    } else if (flag == "--trace-out") {
      o.trace_out = val;
    } else {
      return Usage();
    }
  }
  if (argc % 2 == 0) return Usage();
  if (o.workload_name == "point_read_cold") {
    o.workload = Workload::kCold;
  } else if (o.workload_name == "point_read_hot") {
    o.workload = Workload::kHot;
  } else if (o.workload_name == "txn_write") {
    o.workload = Workload::kTxn;
  } else {
    return Usage();
  }
  if (!(o.seconds > 0)) return Usage();
  // A fixed mmap threshold: glibc raises it after the first large free, so
  // the buffer pools of later set-ups would land in the heap and peak RSS
  // would depend on how many set-ups a run happened to make.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  Bench bench(o);
  return bench.Run();
}
