// [feature Replication] WAL-shipping replication for the FAME-DBMS product
// line. The paper's point is that replication is exactly the kind of
// heavyweight capability that must be an optional, tailor-made feature:
// everything in this directory is reached only through the Replication
// feature, and the nm symbol guard in tests/CMakeLists.txt proves products
// without it link none of these bytes.
//
// Design in one paragraph: a *leader* ships the segmented WAL (PR 6's
// sealed, CRC'd, monotone-LSN segments) to *followers* over a pluggable
// Transport, chunk by chunk with resumable acks. A follower stages the
// bytes into its own identically-named segment files and applies them by
// reopening its own product — the StaticEngine<Cfg> or runtime Database
// the caller names — so recovery replay *is* the apply path, replication
// and crash recovery share one code path and one set of invariants, and a
// static replica links no second engine. Leadership is fenced by a monotone epoch stamped into every
// message, every new segment header, and the PageFile meta; a deposed
// leader's late frames are rejected before a byte lands (no split-brain).
// Divergence is detected by per-segment CRC cross-checks (kSeal) plus the
// engine's full VerifyIntegrity scrub after every sweep; a diverged
// follower is marked on disk and refuses promotion, and promotion itself
// is gated on that same scrub. The in-process transport is the
// deterministic implementation the fault matrix drives; a socket server is
// future work behind the same interface.
#ifndef FAME_REPL_REPL_H_
#define FAME_REPL_REPL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "osal/env.h"
#include "osal/link_faults.h"

namespace fame::repl {

/// Suffix of the fence sidecar file next to a replicated database
/// ("<db>.fence"): the node's replication identity, readable without
/// opening the database (fame_check, fame repl status).
inline constexpr char kFenceSuffix[] = ".fence";

enum class Role : uint8_t { kNone = 0, kLeader = 1, kFollower = 2 };

/// Durable replication identity of one node.
struct FenceState {
  uint32_t epoch = 0;     ///< fencing epoch; monotone over the node's life
  Role role = Role::kNone;
  /// Set when a divergence check failed (segment CRC mismatch against the
  /// leader, or a post-sweep scrub found damage). Sticky until the node is
  /// re-bootstrapped; a divergent follower refuses promotion.
  bool divergent = false;
};

/// Reads `<db_path>.fence`. NotFound when absent, Corruption on damage.
StatusOr<FenceState> LoadFence(osal::Env* env, const std::string& db_path);

/// Durably writes `<db_path>.fence`.
Status StoreFence(osal::Env* env, const std::string& db_path,
                  const FenceState& fence);

/// One replication message. Every message carries the sender's fencing
/// epoch; WAL messages additionally carry the epoch stamped in the segment
/// header being shipped (`seg_epoch`), so the follower recreates headers
/// byte-identically.
struct Message {
  enum Kind : uint8_t {
    kHello = 0,          ///< leader announces itself (epoch handshake)
    kWal = 1,            ///< one chunk of segment payload
    kSeal = 2,           ///< whole-payload CRC of a fully-shipped segment
    kSnapshotBegin = 3,  ///< bootstrap starts; follower clears its staging
    kSnapshotFile = 4,   ///< one chunk of a bootstrap artifact
    kSnapshotDone = 5,   ///< all artifacts shipped; follower restores
  };
  Kind kind = kHello;
  uint32_t epoch = 0;      ///< sender's fencing epoch

  // kWal / kSeal: which segment.
  uint32_t seq = 0;        ///< segment sequence number
  uint64_t base_lsn = 0;   ///< segment base LSN
  uint32_t seg_epoch = 0;  ///< epoch in the segment's header

  uint64_t lsn = 0;        ///< kWal: LSN of payload[0]
  uint64_t total = 0;      ///< kSeal: sealed payload length;
                           ///< kSnapshotFile: full artifact size
  std::string name;        ///< kSnapshotFile: artifact suffix ("" = pages)
  uint64_t offset = 0;     ///< kSnapshotFile: payload offset in the artifact
  uint32_t crc = 0;        ///< CRC32 of payload (kWal/kSnapshotFile) or of
                           ///< the whole sealed payload (kSeal)
  std::string payload;
};

/// The follower's reply. `end_lsn` is the contiguous WAL prefix it holds —
/// the resume point. A short ack (end_lsn below what the leader shipped)
/// tells the leader to rewind; acks make every exchange idempotent under
/// drops, duplicates, and reordering.
struct Ack {
  uint32_t epoch = 0;           ///< receiver's fence epoch
  uint64_t end_lsn = 0;         ///< contiguous WAL bytes held
  uint64_t snapshot_bytes = 0;  ///< bytes held of the current artifact
  /// The follower has a materialized database file. `end_lsn == 0` alone
  /// cannot distinguish "fresh empty node" from "caught up with a leader
  /// whose retained chain starts empty" (a legacy log migrated after its
  /// state was checkpointed into pages): a leader must bootstrap the
  /// former even though the LSN arithmetic says there is nothing to ship.
  bool has_db = false;
};

/// Receiving end of the stream (a follower, or a relay).
class Peer {
 public:
  virtual ~Peer() = default;
  virtual StatusOr<Ack> Deliver(const Message& m) = 0;
};

/// The wire. Sends are synchronous: a Status error models a timeout or a
/// dead link, and the caller retries under a deadline budget.
class Transport {
 public:
  virtual ~Transport() = default;
  virtual StatusOr<Ack> Send(const Message& m) = 0;
};

/// Deterministic in-process transport: delivers directly to a Peer,
/// applying a scripted osal::LinkFaults plan — drop (sender sees IOError),
/// duplicate (delivered twice), delay (held and delivered after the next
/// send: reordering), partition (IOError until healed). The replication
/// fault matrix drives every cell through this.
class InProcessTransport final : public Transport {
 public:
  explicit InProcessTransport(Peer* peer, osal::LinkFaults* faults = nullptr)
      : peer_(peer), faults_(faults) {}

  StatusOr<Ack> Send(const Message& m) override;

 private:
  Peer* peer_;
  osal::LinkFaults* faults_;
  std::vector<Message> held_;  ///< delayed messages awaiting redelivery
};

}  // namespace fame::repl

#endif  // FAME_REPL_REPL_H_
