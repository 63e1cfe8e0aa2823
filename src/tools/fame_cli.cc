// `fame` — command-line front end to the FAME-DBMS tooling.
//
//   fame model print [file.fm]        print a feature model (default: the
//                                     built-in FAME-DBMS model of Figure 2)
//   fame model count [file.fm]        count its valid variants
//   fame model check <file.fm> f1,f2  validate a feature selection
//   fame detect <src.cpp...>          static analysis: which FAME-DBMS
//                                     features do these sources need?
//   fame derive <src.cpp...>          full derivation (minimal completion)
//   fame advise <entries> <point%> <range%> <write%>
//                                     data-driven index recommendation
//   fame sql <db-path> "<stmt>" ...   run SQL against a database file
//   fame scan <db-path> [--limit N] [--prefix P]
//                                     cursor scan of the raw KV records
//   fame range <db-path> <lo> <hi> [--limit N]
//                                     cursor range scan over [lo, hi)
//   fame stats <db-path> [--prom]     open with Observability, run a scan
//                                     workload, report the metrics snapshot
//                                     (--prom: Prometheus exposition format)
//   fame trace <db-path> [--last N] [--json]
//                                     open with Observability+Tracing, run a
//                                     scan workload, dump the last N spans
//                                     (--json: Chrome trace-event JSON,
//                                     loadable in Perfetto / about:tracing)
//   fame blackbox <db-path>           open with FlightRecorder, persist the
//                                     black box on demand, print its decoded
//                                     contents
//   fame backup <db-path> <dest>      online hot backup: checkpoint, fuzzy
//                                     page copy, WAL segment copy, manifest
//   fame restore <src> <db-path> [--to-lsn N] [--archive PREFIX]
//                                     rebuild <db-path> from a backup; with
//                                     --to-lsn, point-in-time recovery using
//                                     archived segments under PREFIX
//   fame repl status <db-path>        fencing state of a replication node
//   fame repl bootstrap <leader-db> <follower-db>
//                                     ship the leader's WAL (bootstrapping
//                                     the follower when needed) and apply it
//   fame repl sync <leader-db> <follower-db>
//                                     alias of bootstrap: one catch-up pass
//   fame repl promote <follower-db>   integrity-gated promotion to leader
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/database.h"
#include "core/index_advisor.h"
#include "core/sql.h"
#include "derivation/pipeline.h"
#include "featuremodel/fame_model.h"
#include "featuremodel/parser.h"
#include "obs/blackbox.h"
#include "obs/serialize.h"
#include "obs/trace.h"
#include "osal/env.h"
#include "repl/follower.h"
#include "repl/leader.h"

using namespace fame;

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  fame model print [file.fm]\n"
               "  fame model count [file.fm]\n"
               "  fame model check <file.fm|-> <f1,f2,...>\n"
               "  fame detect <source.cpp...>\n"
               "  fame derive <source.cpp...>\n"
               "  fame advise <entries> <point%%> <range%%> <write%%>\n"
               "  fame sql <db-path> \"<statement>\" [...]\n"
               "  fame scan <db-path> [--limit N] [--prefix P]\n"
               "  fame range <db-path> <lo> <hi> [--limit N]\n"
               "  fame stats <db-path> [--prom]\n"
               "  fame trace <db-path> [--last N] [--json]\n"
               "  fame blackbox <db-path>\n"
               "  fame backup <db-path> <dest>\n"
               "  fame restore <src> <db-path> [--to-lsn N] [--archive "
               "PREFIX]\n"
               "  fame repl status <db-path>\n"
               "  fame repl bootstrap <leader-db> <follower-db>\n"
               "  fame repl sync <leader-db> <follower-db>\n"
               "  fame repl promote <follower-db>\n");
  return 2;
}

/// A `<db>.wal.000001` beside the database means it was written by a
/// product with the Backup feature: the segmented chain refuses a legacy
/// single-file open, so any command touching the file must select the
/// matching features. An archived segment additionally selects Pitr so
/// recycled segments keep flowing into the archive.
void AddWalFeatures(const std::string& path,
                    std::vector<std::string>* features) {
  // A `<db>.fence` sidecar means the node is part of a replica set: select
  // Replication (and what it requires) so the fence meta and epoch-stamped
  // segments round-trip — even before any WAL has been shipped.
  if (osal::GetPosixEnv()->FileExists(path + repl::kFenceSuffix)) {
    repl::AddReplicationFeatures(features);
  }
  std::vector<std::string> files;
  if (!osal::GetPosixEnv()->ListFiles(path + ".wal.", &files).ok() ||
      files.empty()) {
    return;
  }
  bool archived = false;
  for (const std::string& f : files) {
    if (f.find(".wal.arc.") != std::string::npos) archived = true;
  }
  for (const char* f : {"Update", "BTree-Update", "Transaction", "WAL-Redo",
                        "Backup"}) {
    if (std::find(features->begin(), features->end(), f) == features->end()) {
      features->push_back(f);
    }
  }
  if (archived) features->push_back("Pitr");
}

StatusOr<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot read " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Loads a model from a .fm file, or the built-in FAME-DBMS model for ""
/// or "-".
StatusOr<std::unique_ptr<fm::FeatureModel>> LoadModel(
    const std::string& path) {
  if (path.empty() || path == "-") return fm::BuildFameDbmsModel();
  FAME_ASSIGN_OR_RETURN(std::string text, ReadFile(path));
  return fm::ParseModel(text);
}

int CmdModel(int argc, char** argv) {
  if (argc < 1) return Usage();
  std::string sub = argv[0];
  std::string file = argc >= 2 ? argv[1] : "";
  auto model_or = LoadModel(file);
  if (!model_or.ok()) {
    std::fprintf(stderr, "error: %s\n", model_or.status().ToString().c_str());
    return 1;
  }
  auto& model = *model_or;
  if (sub == "print") {
    std::printf("%s", model->ToTreeString().c_str());
    return 0;
  }
  if (sub == "count") {
    auto count = model->CountVariants();
    if (!count.ok()) {
      std::fprintf(stderr, "error: %s\n", count.status().ToString().c_str());
      return 1;
    }
    std::printf("%llu\n", static_cast<unsigned long long>(*count));
    return 0;
  }
  if (sub == "check") {
    if (argc < 3) return Usage();
    fm::Configuration config(model.get());
    std::string features = argv[2];
    size_t start = 0;
    while (start <= features.size()) {
      size_t comma = features.find(',', start);
      std::string f = features.substr(
          start, comma == std::string::npos ? std::string::npos
                                            : comma - start);
      if (!f.empty()) {
        Status s = config.SelectByName(f);
        if (!s.ok()) {
          std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
          return 1;
        }
      }
      if (comma == std::string::npos) break;
      start = comma + 1;
    }
    Status s = model->CompleteMinimal(&config);
    if (!s.ok()) {
      std::printf("INVALID: %s\n", s.ToString().c_str());
      return 1;
    }
    std::printf("VALID\nderived variant: %s\n",
                config.Signature().c_str());
    return 0;
  }
  return Usage();
}

int CmdDetectOrDerive(bool derive, int argc, char** argv) {
  if (argc < 1) return Usage();
  std::vector<std::string> sources;
  for (int i = 0; i < argc; ++i) {
    auto text = ReadFile(argv[i]);
    if (!text.ok()) {
      std::fprintf(stderr, "error: %s\n", text.status().ToString().c_str());
      return 1;
    }
    sources.push_back(std::move(*text));
  }
  auto model = fm::BuildFameDbmsModel();
  derivation::DerivationPipeline pipeline(model.get());
  if (!derive) {
    auto features = pipeline.DetectFeatures(sources);
    if (!features.ok()) {
      std::fprintf(stderr, "error: %s\n",
                   features.status().ToString().c_str());
      return 1;
    }
    for (const std::string& f : *features) std::printf("%s\n", f.c_str());
    return 0;
  }
  nfp::FeedbackRepository empty;
  auto report = pipeline.Run(sources, {}, empty);
  if (!report.ok()) {
    std::fprintf(stderr, "error: %s\n", report.status().ToString().c_str());
    return 1;
  }
  std::printf("%s", report->ToText().c_str());
  return 0;
}

int CmdAdvise(int argc, char** argv) {
  if (argc < 4) return Usage();
  core::WorkloadProfile profile;
  profile.expected_entries = std::strtoull(argv[0], nullptr, 10);
  profile.point_lookup_fraction = std::atof(argv[1]) / 100.0;
  profile.range_scan_fraction = std::atof(argv[2]) / 100.0;
  profile.write_fraction = std::atof(argv[3]) / 100.0;
  auto model = core::Calibrate();
  core::IndexRecommendation rec = model.ok()
                                      ? core::AdviseIndex(profile, *model)
                                      : core::AdviseIndex(profile);
  std::printf("recommendation: %s\nrationale: %s\n"
              "est. cost/op: B+-Tree %.3f, List %.3f%s\n",
              rec.feature.c_str(), rec.rationale.c_str(), rec.btree_cost,
              rec.list_cost, model.ok() ? " (calibrated)" : " (defaults)");
  return 0;
}

int CmdSql(int argc, char** argv) {
  if (argc < 2) return Usage();
  core::DbOptions opts;
  // Observability (plus Tracing and the FlightRecorder) rides along so
  // PROFILE statements can read registry deltas and span trees.
  opts.features = {"Linux",  "B+-Tree",      "SQL-Engine", "Optimizer",
                   "Remove", "BTree-Remove", "Update",     "BTree-Update",
                   "Int-Types", "String-Types", "Blob-Types",
                   "Observability", "Tracing", "FlightRecorder"};
  opts.path = argv[0];
  AddWalFeatures(opts.path, &opts.features);
  auto db = core::Database::Open(opts);
  if (!db.ok()) {
    std::fprintf(stderr, "error: %s\n", db.status().ToString().c_str());
    return 1;
  }
  for (int i = 1; i < argc; ++i) {
    auto rs = (*db)->sql()->Execute(argv[i]);
    if (!rs.ok()) {
      std::fprintf(stderr, "error: %s\n  in: %s\n",
                   rs.status().ToString().c_str(), argv[i]);
      return 1;
    }
    if (!rs->rows.empty() || !rs->columns.empty()) {
      std::printf("%s", rs->ToTable().c_str());
    } else {
      std::printf("ok (%llu rows affected, plan: %s)\n",
                  static_cast<unsigned long long>(rs->affected),
                  rs->plan.c_str());
    }
  }
  Status s = (*db)->Checkpoint();
  if (!s.ok()) {
    std::fprintf(stderr, "checkpoint: %s\n", s.ToString().c_str());
    return 1;
  }
  return 0;
}

/// Bytes rendered with non-printables as \xNN (keys can be binary).
std::string Printable(const Slice& s) {
  std::string out;
  char buf[5];
  for (size_t i = 0; i < s.size(); ++i) {
    unsigned char c = static_cast<unsigned char>(s[i]);
    if (c >= 0x20 && c < 0x7f && c != '\\') {
      out.push_back(static_cast<char>(c));
    } else {
      std::snprintf(buf, sizeof(buf), "\\x%02x", c);
      out.append(buf);
    }
  }
  return out;
}

/// Opens an existing database read-mostly: the feature selection is not
/// persisted, so any valid B+-Tree product opens files the other commands
/// wrote.
StatusOr<std::unique_ptr<core::Database>> OpenForScan(const char* path) {
  core::DbOptions opts;
  opts.features = {"Linux", "B+-Tree", "Int-Types", "String-Types"};
  opts.path = path;
  AddWalFeatures(opts.path, &opts.features);
  return core::Database::Open(opts);
}

/// Pulls at most `limit` records from `cur` within [lo-already-sought, hi),
/// keeping only keys starting with `prefix`; prints key=value lines.
/// Returns 1 (after a diagnostic) when the cursor stopped on an IO error.
int DrainCursor(core::EngineCursor* cur, const std::string& hi,
                const std::string& prefix, uint64_t limit) {
  uint64_t shown = 0;
  for (; cur->Valid() && shown < limit; cur->Next()) {
    if (!hi.empty() && cur->key().compare(Slice(hi)) >= 0) break;
    if (!prefix.empty() && !cur->key().starts_with(Slice(prefix))) continue;
    Slice value = cur->value();
    if (!cur->Valid()) break;  // heap join failed; status() has the error
    std::printf("%s=%s\n", Printable(cur->key()).c_str(),
                Printable(value).c_str());
    ++shown;
  }
  if (!cur->status().ok()) {
    std::fprintf(stderr, "error: scan stopped: %s\n",
                 cur->status().ToString().c_str());
    return 1;
  }
  std::printf("(%llu records)\n", static_cast<unsigned long long>(shown));
  return 0;
}

/// Shared option parsing for scan/range: --limit N and (scan only)
/// --prefix P.
bool ParseScanFlags(int argc, char** argv, bool allow_prefix, uint64_t* limit,
                    std::string* prefix) {
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--limit") == 0 && i + 1 < argc) {
      *limit = std::strtoull(argv[++i], nullptr, 10);
    } else if (allow_prefix && std::strcmp(argv[i], "--prefix") == 0 &&
               i + 1 < argc) {
      *prefix = argv[++i];
    } else {
      return false;
    }
  }
  return true;
}

int CmdScan(int argc, char** argv) {
  if (argc < 1) return Usage();
  uint64_t limit = UINT64_MAX;
  std::string prefix;
  if (!ParseScanFlags(argc - 1, argv + 1, /*allow_prefix=*/true, &limit,
                      &prefix)) {
    return Usage();
  }
  auto db = OpenForScan(argv[0]);
  if (!db.ok()) {
    std::fprintf(stderr, "error: %s\n", db.status().ToString().c_str());
    return 1;
  }
  auto cur_or = (*db)->NewCursor();
  if (!cur_or.ok()) {
    std::fprintf(stderr, "error: %s\n", cur_or.status().ToString().c_str());
    return 1;
  }
  core::EngineCursor cur = std::move(cur_or).value();
  // Seeking straight to the prefix (ordered index) makes --limit N with a
  // prefix O(N), not O(first match).
  if (prefix.empty()) {
    cur.SeekToFirst();
  } else {
    cur.Seek(Slice(prefix));
  }
  return DrainCursor(&cur, /*hi=*/"", prefix, limit);
}

int CmdRange(int argc, char** argv) {
  if (argc < 3) return Usage();
  uint64_t limit = UINT64_MAX;
  std::string prefix;
  if (!ParseScanFlags(argc - 3, argv + 3, /*allow_prefix=*/false, &limit,
                      &prefix)) {
    return Usage();
  }
  auto db = OpenForScan(argv[0]);
  if (!db.ok()) {
    std::fprintf(stderr, "error: %s\n", db.status().ToString().c_str());
    return 1;
  }
  auto cur_or = (*db)->NewCursor();
  if (!cur_or.ok()) {
    std::fprintf(stderr, "error: %s\n", cur_or.status().ToString().c_str());
    return 1;
  }
  core::EngineCursor cur = std::move(cur_or).value();
  cur.Seek(Slice(argv[1]));
  return DrainCursor(&cur, /*hi=*/argv[2], /*prefix=*/"", limit);
}

/// Opens `path` with the Observability feature (plus Tracing when asked)
/// and runs one full cursor scan so a cold open still reports live signal:
/// the scan exercises the buffer pool, file IO, B+-tree descents, and the
/// cursor pipeline.
StatusOr<std::unique_ptr<core::Database>> OpenForStats(const char* path,
                                                       bool tracing) {
  core::DbOptions opts;
  opts.features = {"Linux", "B+-Tree", "Int-Types", "String-Types",
                   "Observability"};
  if (tracing) opts.features.push_back("Tracing");
  opts.path = path;
  AddWalFeatures(opts.path, &opts.features);
  auto db_or = core::Database::Open(opts);
  if (!db_or.ok()) return db_or;
  auto cur_or = (*db_or)->NewCursor();
  if (cur_or.ok()) {
    core::EngineCursor cur = std::move(cur_or).value();
    for (cur.SeekToFirst(); cur.Valid(); cur.Next()) {
      (void)cur.value();  // heap join: counts a returned row
    }
  }
  // One engine-op scan on top of the cursor drain: records the scan op
  // counter/latency and (with Tracing) an op begin/end span pair.
  (void)(*db_or)->Scan([](const Slice&, uint64_t) { return true; });
  return db_or;
}

int CmdStats(int argc, char** argv) {
  if (argc < 1) return Usage();
  bool prom = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--prom") == 0) {
      prom = true;
    } else {
      return Usage();
    }
  }
  auto db = OpenForStats(argv[0], /*tracing=*/false);
  if (!db.ok()) {
    std::fprintf(stderr, "error: %s\n", db.status().ToString().c_str());
    return 1;
  }
  auto snap = (*db)->GetMetricsSnapshot();
  if (!snap.ok()) {
    std::fprintf(stderr, "error: %s\n", snap.status().ToString().c_str());
    return 1;
  }
  std::printf("%s", (prom ? obs::RenderPrometheus(*snap)
                          : obs::RenderText(*snap))
                        .c_str());
  return 0;
}

int CmdTrace(int argc, char** argv) {
  if (argc < 1) return Usage();
  uint64_t last = 64;
  bool json = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--last") == 0 && i + 1 < argc) {
      last = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
    } else {
      return Usage();
    }
  }
  auto db = OpenForStats(argv[0], /*tracing=*/true);
  if (!db.ok()) {
    std::fprintf(stderr, "error: %s\n", db.status().ToString().c_str());
    return 1;
  }
  if (json) {
    // Chrome trace-event format: load the output in Perfetto or
    // about:tracing to see the span tree on a timeline.
    std::printf("%s\n", obs::Trace::DumpJson(static_cast<size_t>(last)).c_str());
    return 0;
  }
  std::string dump = obs::Trace::Dump(static_cast<size_t>(last));
  if (dump.empty()) {
    std::printf("(no trace events recorded%s)\n",
                obs::Trace::enabled()
                    ? ""
                    : "; tracing is compiled out of this build");
    return 0;
  }
  std::printf("%s", dump.c_str());
  return 0;
}

int CmdBlackbox(int argc, char** argv) {
  if (argc < 1) return Usage();
  core::DbOptions opts;
  opts.features = {"Linux",         "B+-Tree", "Int-Types",     "String-Types",
                   "Observability", "Tracing", "FlightRecorder"};
  opts.path = argv[0];
  AddWalFeatures(opts.path, &opts.features);
  auto db = core::Database::Open(opts);
  if (!db.ok()) {
    std::fprintf(stderr, "error: %s\n", db.status().ToString().c_str());
    return 1;
  }
  Status s = (*db)->DumpBlackBox("on-demand (fame blackbox)");
  if (!s.ok()) {
    std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
    return 1;
  }
  const std::string file = obs::BlackBoxPath(argv[0]);
  auto body = obs::ReadBlackBox(osal::GetPosixEnv(), file);
  if (!body.ok()) {
    std::fprintf(stderr, "error: %s\n", body.status().ToString().c_str());
    return 1;
  }
  std::printf("wrote %s\n%s", file.c_str(), body->c_str());
  return 0;
}

int CmdBackup(int argc, char** argv) {
  if (argc < 2) return Usage();
  core::DbOptions opts;
  opts.features = {"Linux", "B+-Tree", "Int-Types", "String-Types"};
  opts.path = argv[0];
  AddWalFeatures(opts.path, &opts.features);
  // A database without a segmented chain (first backup of a legacy file)
  // still needs the Backup feature selected: the open migrates the
  // single-file log into segment 1.
  if (std::find(opts.features.begin(), opts.features.end(), "Backup") ==
      opts.features.end()) {
    for (const char* f :
         {"Update", "BTree-Update", "Transaction", "WAL-Redo", "Backup"}) {
      opts.features.push_back(f);
    }
  }
  auto db = core::Database::Open(opts);
  if (!db.ok()) {
    std::fprintf(stderr, "error: %s\n", db.status().ToString().c_str());
    return 1;
  }
  core::backup::BackupReport rep;
  Status s = (*db)->Backup(argv[1], &rep);
  if (!s.ok()) {
    std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("backup complete: %s\n"
              "  watermark lsn:  %llu\n"
              "  end lsn:        %llu\n"
              "  pages copied:   %llu\n"
              "  bytes copied:   %llu\n"
              "  segments:       %llu\n",
              argv[1], static_cast<unsigned long long>(rep.mark),
              static_cast<unsigned long long>(rep.end_lsn),
              static_cast<unsigned long long>(rep.pages_copied),
              static_cast<unsigned long long>(rep.bytes_copied),
              static_cast<unsigned long long>(rep.segments_copied));
  return 0;
}

int CmdRestore(int argc, char** argv) {
  if (argc < 2) return Usage();
  core::backup::RestoreOptions ropts;
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], "--to-lsn") == 0 && i + 1 < argc) {
      ropts.target_lsn = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--archive") == 0 && i + 1 < argc) {
      ropts.archive_prefix = argv[++i];
    } else {
      return Usage();
    }
  }
  core::backup::RestoreReport rep;
  Status s = core::Database::Restore(osal::GetPosixEnv(), argv[0], argv[1],
                                     ropts, &rep);
  if (!s.ok()) {
    std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("restore complete: %s\n"
              "  target lsn:     %llu\n"
              "  pages restored: %llu\n"
              "  segments:       %llu\n"
              "  from archive:   %llu\n",
              argv[1], static_cast<unsigned long long>(rep.target_lsn),
              static_cast<unsigned long long>(rep.pages_restored),
              static_cast<unsigned long long>(rep.segments_restored),
              static_cast<unsigned long long>(rep.archived_integrated));
  return 0;
}

const char* RoleName(repl::Role role) {
  switch (role) {
    case repl::Role::kLeader:
      return "leader";
    case repl::Role::kFollower:
      return "follower";
    case repl::Role::kNone:
      break;
  }
  return "none";
}

int CmdReplStatus(const char* path) {
  auto fence = repl::LoadFence(osal::GetPosixEnv(), path);
  if (!fence.ok()) {
    if (fence.status().IsNotFound()) {
      std::printf("%s: not a replication node (no fence sidecar)\n", path);
      return 0;
    }
    std::fprintf(stderr, "error: %s\n", fence.status().ToString().c_str());
    return 1;
  }
  std::printf("role: %s\nepoch: %u\ndivergent: %s\n", RoleName(fence->role),
              fence->epoch, fence->divergent ? "yes" : "no");
  return 0;
}

/// One catch-up pass: opens the leader, ships its WAL to the follower
/// (bootstrapping over a snapshot when the follower is too far behind),
/// and applies the staged bytes on the follower.
int CmdReplSync(const char* leader_path, const char* follower_path) {
  osal::Env* env = osal::GetPosixEnv();
  uint32_t epoch = 1;
  auto lf = repl::LoadFence(env, leader_path);
  if (lf.ok()) {
    if (lf->role == repl::Role::kFollower) {
      std::fprintf(stderr,
                   "error: %s is fenced as a follower; promote it first\n",
                   leader_path);
      return 1;
    }
    if (lf->epoch > epoch) epoch = lf->epoch;
  }
  core::DbOptions opts;
  opts.path = leader_path;
  AddWalFeatures(opts.path, &opts.features);
  repl::AddReplicationFeatures(&opts.features);
  auto db = core::Database::Open(opts);
  if (!db.ok()) {
    std::fprintf(stderr, "error: %s\n", db.status().ToString().c_str());
    return 1;
  }
  Status s = (*db)->StartLeader(epoch);
  if (s.ok()) {
    s = repl::StoreFence(env, leader_path,
                         {epoch, repl::Role::kLeader, false});
  }
  // The follower replays through its own runtime engine: the default
  // product plus what a replication node needs.
  core::DbOptions replica;
  replica.path = follower_path;
  replica.env = env;
  repl::AddReplicationFeatures(&replica.features);
  auto follower_or =
      repl::Follower::Attach(env, follower_path, {replica.features});
  if (!s.ok() || !follower_or.ok()) {
    std::fprintf(stderr, "error: %s\n",
                 (s.ok() ? follower_or.status() : s).ToString().c_str());
    return 1;
  }
  std::unique_ptr<repl::Follower> follower = std::move(follower_or).value();
  repl::InProcessTransport link(follower.get());
  auto src = (*db)->ReplicationSource();
  if (!src.ok()) {
    std::fprintf(stderr, "error: %s\n", src.status().ToString().c_str());
    return 1;
  }
  repl::Leader leader(*src, epoch, &link);
  for (int round = 0; round < 8; ++round) {
    s = leader.SyncOnce();
    if (!s.ok() || leader.lag_bytes() == 0) break;
  }
  if (s.ok()) {
    s = follower->Sweep([&replica] { return core::Database::Open(replica); });
  }
  if (!s.ok()) {
    std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("synced %s -> %s\n"
              "  epoch:        %u\n"
              "  acked end:    %llu\n"
              "  lag bytes:    %llu\n",
              leader_path, follower_path, epoch,
              static_cast<unsigned long long>(leader.acked_end()),
              static_cast<unsigned long long>(leader.lag_bytes()));
  return 0;
}

int CmdReplPromote(const char* path) {
  core::DbOptions opts;
  opts.path = path;
  AddWalFeatures(path, &opts.features);
  opts.features.push_back("Failover");
  auto epoch = repl::PromoteFollower(osal::GetPosixEnv(), path, [&opts] {
    return core::Database::Open(opts);
  });
  if (!epoch.ok()) {
    std::fprintf(stderr, "error: %s\n", epoch.status().ToString().c_str());
    return 1;
  }
  std::printf("promoted %s to leader at epoch %u\n", path, epoch.value());
  return 0;
}

int CmdRepl(int argc, char** argv) {
  if (argc < 2) return Usage();
  std::string sub = argv[0];
  if (sub == "status") return CmdReplStatus(argv[1]);
  if ((sub == "bootstrap" || sub == "sync") && argc >= 3) {
    return CmdReplSync(argv[1], argv[2]);
  }
  if (sub == "promote") return CmdReplPromote(argv[1]);
  return Usage();
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  std::string cmd = argv[1];
  if (cmd == "model") return CmdModel(argc - 2, argv + 2);
  if (cmd == "detect") return CmdDetectOrDerive(false, argc - 2, argv + 2);
  if (cmd == "derive") return CmdDetectOrDerive(true, argc - 2, argv + 2);
  if (cmd == "advise") return CmdAdvise(argc - 2, argv + 2);
  if (cmd == "sql") return CmdSql(argc - 2, argv + 2);
  if (cmd == "scan") return CmdScan(argc - 2, argv + 2);
  if (cmd == "range") return CmdRange(argc - 2, argv + 2);
  if (cmd == "stats") return CmdStats(argc - 2, argv + 2);
  if (cmd == "trace") return CmdTrace(argc - 2, argv + 2);
  if (cmd == "blackbox") return CmdBlackbox(argc - 2, argv + 2);
  if (cmd == "backup") return CmdBackup(argc - 2, argv + 2);
  if (cmd == "restore") return CmdRestore(argc - 2, argv + 2);
  if (cmd == "repl") return CmdRepl(argc - 2, argv + 2);
  return Usage();
}
