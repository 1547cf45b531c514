//===- server/CacheStore.h - Durable allocation cache -----------*- C++ -*-===//
//
// Part of the RAP reproduction of Norris & Pollock, PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Crash-durable persistence for the compile server's allocation cache
/// (DESIGN.md §15). Because allocation is a pure, deterministic function of
/// (lowered body, options), a cached result is a *fact* that can be written
/// to disk and replayed after a crash with correctness checkable by byte
/// identity — the warm==cold contract, extended across process lifetimes.
///
/// On-disk layout under `--cache-dir`:
///
///   snapshot.bin   header frame + one entry frame per key (compacted)
///   journal.bin    header frame + entry frames appended in insert order
///
/// Both files are streams of CRC32 frames (support/Journal.h). The header
/// frame carries a format version and a *store fingerprint* (build stamp +
/// option schema); a mismatch — rebuilt binary, changed entry format —
/// triggers clean full invalidation of both files, never a stale hit.
/// AllocOptions themselves are part of every entry *key* (fingerprint-
/// Function), so option changes miss naturally; the store fingerprint
/// guards against the same key meaning different bytes across binaries.
///
/// Recovery replays snapshot then journal, newest-wins per key, stopping at
/// the first torn/corrupt frame of each file (prefix semantics, never an
/// abort); every decoded body is verified against a stored hash of its
/// rendered text before it is trusted. Appends go through one unbuffered
/// ::write per entry, so a SIGKILL at any instant loses at most the entry
/// being written — the kernel page cache holds everything already written
/// regardless of fsync mode (fsync matters only for machine crashes).
/// When the journal outgrows the compaction threshold the store merges
/// snapshot+journal (last wins), writes snapshot.tmp, fsyncs, renames, and
/// truncates the journal — atomic-rename crash safety.
///
/// Any persistence failure (I/O error, or an injected `journal-write` /
/// `snapshot-compact` chaos fault) degrades the store to in-memory-only:
/// rapd keeps serving, nothing crashes, and the next restart simply
/// recovers the prefix that made it to disk.
///
//===----------------------------------------------------------------------===//

#ifndef RAP_SERVER_CACHESTORE_H
#define RAP_SERVER_CACHESTORE_H

#include "ir/IlocFunction.h"
#include "regalloc/AllocOutcome.h"
#include "regalloc/FaultInjection.h"

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>

namespace rap {
namespace server {

/// When journal appends reach the disk platter (they always reach the
/// kernel page cache immediately; see file comment).
enum class FsyncMode {
  Never,  ///< never fsync; fastest, kill-9-safe, machine-crash-lossy
  Batch,  ///< fsync every BatchAppends entries and on flush()
  Always, ///< fsync after every append
};

const char *fsyncModeName(FsyncMode M);
bool parseFsyncMode(const std::string &Text, FsyncMode &Out);

struct CacheStoreConfig {
  std::string Dir; ///< directory for snapshot.bin/journal.bin (created)
  FsyncMode Fsync = FsyncMode::Batch;
  /// Store fingerprint stamped into header frames; 0 means use
  /// CacheStore::buildFingerprint() (build stamp + entry-format version +
  /// option schema). Tests override it to exercise invalidation.
  uint64_t Fingerprint = 0;
  /// Journal size that triggers snapshot compaction (0 = never compact).
  size_t CompactBytes = 64u << 20;
  /// fsync cadence in Batch mode.
  unsigned BatchAppends = 64;
  /// Chaos probe for the `journal-write` / `snapshot-compact` fault sites;
  /// fires() means degrade to in-memory-only. Null = no chaos.
  std::function<bool(FaultSite)> Chaos;
};

/// Recovery/health counters: ServiceCounters holds this record as it is,
/// and serverStatsJson renders it as the `recovery` block.
struct CacheStoreCounters {
  bool SnapshotLoaded = false;    ///< snapshot.bin existed with a good header
  uint64_t FramesReplayed = 0;    ///< entry frames replayed (snapshot+journal)
  uint64_t TornTailBytes = 0;     ///< bytes dropped past the last good frame
  uint64_t BadEntriesDropped = 0; ///< CRC-valid frames that failed decode
  uint64_t Invalidations = 0;     ///< full wipes from a fingerprint mismatch
  uint64_t Appends = 0;           ///< entry frames appended this process
  uint64_t Compactions = 0;       ///< snapshot rewrites this process
  bool Degraded = false;          ///< persistence off after a fault/IO error
};

//===----------------------------------------------------------------------===//
// Entry codec (exposed for the torn-write property tests).
//===----------------------------------------------------------------------===//

/// Serializes one cache insertion: the key, the allocated body (a byte-
/// exact mirror of the cloneFunction traversal), the AllocOutcome that
/// produced it, and a hash of the body's rendered text as a replay witness.
std::string encodeCacheEntry(uint64_t Key, const IlocFunction &Body,
                             const AllocOutcome &Outcome);

struct DecodedCacheEntry {
  uint64_t Key = 0;
  std::unique_ptr<IlocFunction> Body;
  AllocOutcome Outcome;
};

/// Decodes an entry payload. Returns false — never throws, never reads out
/// of bounds — on any structural violation, including a body whose rendered
/// text does not hash to the stored witness.
bool decodeCacheEntry(const char *Data, size_t Size, DecodedCacheEntry &Out);

//===----------------------------------------------------------------------===//
// The store
//===----------------------------------------------------------------------===//

class CacheStore {
public:
  /// The default store fingerprint: entry-format version + build stamp +
  /// the option-schema summary. Changes whenever the binary is rebuilt, so
  /// a new build starts from a clean slate rather than trusting bytes an
  /// older allocator wrote.
  static uint64_t buildFingerprint();

  explicit CacheStore(CacheStoreConfig Config);
  ~CacheStore();

  CacheStore(const CacheStore &) = delete;
  CacheStore &operator=(const CacheStore &) = delete;

  using ReplaySink = std::function<void(
      uint64_t Key, std::unique_ptr<IlocFunction> Body,
      const AllocOutcome &Outcome)>;

  /// Recovers persisted state and opens the journal for appending: creates
  /// the directory, validates both headers (mismatch → wipe both files,
  /// count an invalidation), replays snapshot then journal through \p Sink
  /// (in file order, so a later journal frame for the same key wins by
  /// normal cache-replace semantics), truncates any torn journal tail, and
  /// leaves the journal fd positioned for appends. Returns false if the
  /// directory is unusable, in which case the store is degraded (append
  /// becomes a no-op) but the server keeps running in-memory-only.
  bool open(const ReplaySink &Sink);

  /// Durably records one cache insertion. Serializes, frames, and writes
  /// the entry with a single ::write; applies the fsync policy; triggers
  /// compaction past the threshold. No-op when degraded; degrades (never
  /// throws) on chaos fire or I/O error.
  void append(uint64_t Key, const IlocFunction &Body,
              const AllocOutcome &Outcome);

  /// Forces pending Batch-mode appends to the platter (drain path).
  void flush();

  /// Forces a snapshot compaction now (tests; also used internally).
  void compactNow();

  bool degraded() const;
  CacheStoreCounters counters() const;

  std::string snapshotPath() const;
  std::string journalPath() const;

private:
  bool chaosFires(FaultSite S);
  void degradeLocked();
  void compactLocked();
  void replayFile(const std::string &Path, const std::string &Data,
                  const ReplaySink &Sink, bool &SawBadEntry,
                  size_t &TrustedPrefix);

  CacheStoreConfig Config;
  mutable std::mutex M;
  int JournalFd = -1;
  size_t JournalBytes = 0;       ///< trusted journal size (header + entries)
  unsigned AppendsSinceSync = 0; ///< Batch-mode fsync countdown
  CacheStoreCounters Stats;
};

} // namespace server
} // namespace rap

#endif // RAP_SERVER_CACHESTORE_H
