//===- tests/cache_store_test.cpp - Durable cache crash recovery ------------===//
//
// Part of the RAP reproduction of Norris & Pollock, PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The durable allocation cache's recovery contract (DESIGN.md §15), tested
/// bottom-up:
///
///  * journal framing is prefix-recoverable as a *property*: truncating the
///    stream at every byte offset, and flipping every byte of the final
///    frame, always yields exactly the clean prefix — never an abort, never
///    a frame past the damage;
///  * the entry codec round-trips a real compiled function bit-exactly and
///    rejects every truncation of its payload;
///  * CacheStore replays appended entries across a reopen byte-identically,
///    truncates torn journal tails (again at every byte offset), wipes the
///    store on a fingerprint mismatch without ever serving a stale entry,
///    compacts snapshot+journal with last-wins merge semantics, and
///    degrades to in-memory-only — instead of crashing — when the
///    journal-write or snapshot-compact chaos sites fire;
///  * CompileService, pointed at a cache directory across two instances
///    (a simulated restart), warm-hits with output byte-identical to the
///    first instance's cold compile.
///
//===----------------------------------------------------------------------===//

#include "server/CacheStore.h"

#include "driver/Pipeline.h"
#include "server/CompileService.h"
#include "support/Journal.h"

#include "gtest/gtest.h"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

using namespace rap;
using namespace rap::server;

namespace {

namespace fs = std::filesystem;

//===----------------------------------------------------------------------===//
// Fixtures
//===----------------------------------------------------------------------===//

/// A fresh store directory per test, removed on teardown.
class CacheStoreTest : public ::testing::Test {
protected:
  void SetUp() override {
    const ::testing::TestInfo *TI =
        ::testing::UnitTest::GetInstance()->current_test_info();
    Dir = (fs::temp_directory_path() /
           (std::string("rap_cache_store_") + TI->name()))
              .string();
    fs::remove_all(Dir);
  }
  void TearDown() override { fs::remove_all(Dir); }

  CacheStoreConfig config(uint64_t Fingerprint = 7) const {
    CacheStoreConfig C;
    C.Dir = Dir;
    C.Fingerprint = Fingerprint;
    C.CompactBytes = 0; // compaction only when a test asks for it
    return C;
  }

  std::string Dir;
};

/// Small module whose functions give the codec real bodies to serialize:
/// enough pressure that allocation inserts spill code (so AllocStats has
/// nonzero fields to round-trip) but small enough that torn-tail sweeps
/// over whole entry frames stay fast.
std::string moduleSource() {
  return "int work(int n) {\n"
         "  int a = n + 3;\n"
         "  int b = a * 5 + 1;\n"
         "  int c = a - b + 7;\n"
         "  int d = a * b % 97;\n"
         "  for (int i = 0; i < n; i = i + 1) {\n"
         "    a = a + b * i % 61;\n"
         "    b = b + c - i;\n"
         "    c = c + d % 43;\n"
         "    d = d + a - b;\n"
         "  }\n"
         "  return a + b + c + d;\n"
         "}\n"
         "int twice(int n) { return work(n) + work(n + 1); }\n"
         "int main() { return twice(9); }\n";
}

/// Compiles the module with the RAP allocator; the result owns the
/// IlocFunctions and AllocOutcomes the codec tests serialize.
CompileResult compiledModule() {
  CompileOptions Options;
  Options.Allocator = AllocatorKind::Rap;
  Options.Alloc.K = 3;
  CompileResult R = compileMiniC(moduleSource(), Options);
  EXPECT_TRUE(R.ok()) << R.Errors;
  EXPECT_EQ(R.Prog->functions().size(), R.AllocOutcomes.size());
  return R;
}

std::string readFileBytes(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  EXPECT_TRUE(In.good()) << Path;
  std::string Data((std::istreambuf_iterator<char>(In)),
                   std::istreambuf_iterator<char>());
  return Data;
}

void writeFileBytes(const std::string &Path, const std::string &Data) {
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  Out.write(Data.data(), static_cast<std::streamsize>(Data.size()));
  ASSERT_TRUE(Out.good()) << Path;
}

/// One replayed entry, rendered for byte-identity comparison.
struct Replayed {
  uint64_t Key;
  std::string Text; ///< Body->str()
  std::string Function;
};

/// Opens a store over \p Config and collects everything it replays.
std::vector<Replayed> replayAll(const CacheStoreConfig &Config,
                                CacheStoreCounters *CountersOut = nullptr,
                                bool *OpenedOut = nullptr) {
  std::vector<Replayed> Entries;
  CacheStore Store(Config);
  bool Opened = Store.open([&](uint64_t Key, std::unique_ptr<IlocFunction> B,
                               const AllocOutcome &O) {
    Entries.push_back({Key, B->str(), O.Function});
  });
  if (OpenedOut)
    *OpenedOut = Opened;
  if (CountersOut)
    *CountersOut = Store.counters();
  return Entries;
}

//===----------------------------------------------------------------------===//
// Journal framing: prefix recovery as a property
//===----------------------------------------------------------------------===//

std::vector<std::string> samplePayloads() {
  return {"alpha", std::string(1, '\0') + "binary\xff\x7f",
          std::string(300, 'x'), ""};
}

std::string framedStream(const std::vector<std::string> &Payloads) {
  std::string Buf;
  for (size_t I = 0; I != Payloads.size(); ++I)
    journal::appendFrame(Buf, static_cast<uint8_t>(I + 1), Payloads[I]);
  return Buf;
}

TEST(JournalFrames, RoundTrip) {
  std::vector<std::string> Payloads = samplePayloads();
  std::string Buf = framedStream(Payloads);

  std::vector<std::pair<uint8_t, std::string>> Seen;
  journal::ScanResult R =
      journal::scanFrames(Buf.data(), Buf.size(), [&](journal::Frame F) {
        Seen.emplace_back(F.Type, std::string(F.Payload, F.PayloadSize));
        return true;
      });

  EXPECT_EQ(R.FramesOk, Payloads.size());
  EXPECT_EQ(R.BytesConsumed, Buf.size());
  EXPECT_FALSE(R.TornTail);
  ASSERT_EQ(Seen.size(), Payloads.size());
  for (size_t I = 0; I != Payloads.size(); ++I) {
    EXPECT_EQ(Seen[I].first, I + 1);
    EXPECT_EQ(Seen[I].second, Payloads[I]);
  }
}

/// Truncating the stream at EVERY byte offset recovers exactly the frames
/// that fit completely before the cut — the torn-tail property the crash
/// story rests on (a SIGKILL mid-::write leaves precisely such a stream).
TEST(JournalFrames, TruncationAtEveryOffsetRecoversPrefix) {
  std::vector<std::string> Payloads = samplePayloads();
  std::string Buf = framedStream(Payloads);

  // Frame boundaries: ends[i] = offset one past frame i.
  std::vector<size_t> Ends;
  size_t Off = 0;
  for (const std::string &P : Payloads) {
    Off += 8 + 1 + P.size();
    Ends.push_back(Off);
  }
  ASSERT_EQ(Off, Buf.size());

  for (size_t Cut = 0; Cut != Buf.size(); ++Cut) {
    size_t WantFrames = 0;
    while (WantFrames != Ends.size() && Ends[WantFrames] <= Cut)
      ++WantFrames;

    journal::ScanResult R = journal::scanFrames(
        Buf.data(), Cut, [](journal::Frame) { return true; });
    EXPECT_EQ(R.FramesOk, WantFrames) << "cut at " << Cut;
    EXPECT_EQ(R.BytesConsumed, WantFrames ? Ends[WantFrames - 1] : 0)
        << "cut at " << Cut;
    EXPECT_EQ(R.TornTail, Cut != R.BytesConsumed) << "cut at " << Cut;
  }
}

/// Flipping EVERY byte of the final frame — header, CRC, type, payload —
/// must yield exactly the prefix before it: a valid length+CRC cannot
/// survive any single-byte corruption, so the damaged frame is dropped and
/// nothing past it is ever trusted.
TEST(JournalFrames, BitFlipInLastFrameRecoversPrefix) {
  std::vector<std::string> Payloads = samplePayloads();
  std::string Buf = framedStream(Payloads);
  size_t LastStart = Buf.size() - (8 + 1 + Payloads.back().size());
  size_t PrefixFrames = Payloads.size() - 1;

  for (size_t At = LastStart; At != Buf.size(); ++At) {
    std::string Bad = Buf;
    Bad[At] = static_cast<char>(Bad[At] ^ 0xFF);

    std::vector<std::string> Seen;
    journal::ScanResult R = journal::scanFrames(
        Bad.data(), Bad.size(), [&](journal::Frame F) {
          Seen.emplace_back(F.Payload, F.PayloadSize);
          return true;
        });
    EXPECT_EQ(R.FramesOk, PrefixFrames) << "flip at " << At;
    EXPECT_EQ(R.BytesConsumed, LastStart) << "flip at " << At;
    EXPECT_TRUE(R.TornTail) << "flip at " << At;
    ASSERT_EQ(Seen.size(), PrefixFrames);
    for (size_t I = 0; I != PrefixFrames; ++I)
      EXPECT_EQ(Seen[I], Payloads[I]) << "flip at " << At;
  }
}

//===----------------------------------------------------------------------===//
// Entry codec
//===----------------------------------------------------------------------===//

TEST(CacheEntryCodec, RoundTripsCompiledFunctions) {
  CompileResult R = compiledModule();
  for (size_t I = 0; I != R.Prog->functions().size(); ++I) {
    const IlocFunction &F = *R.Prog->functions()[I];
    const AllocOutcome &O = R.AllocOutcomes[I];
    uint64_t Key = 0x1000 + I;

    std::string Enc = encodeCacheEntry(Key, F, O);
    DecodedCacheEntry D;
    ASSERT_TRUE(decodeCacheEntry(Enc.data(), Enc.size(), D)) << F.name();

    EXPECT_EQ(D.Key, Key);
    ASSERT_TRUE(D.Body);
    EXPECT_EQ(D.Body->str(), F.str()); // byte-identical replay
    EXPECT_EQ(D.Outcome.Function, O.Function);
    EXPECT_EQ(D.Outcome.Status, O.Status);
    EXPECT_EQ(D.Outcome.Error, O.Error);
    EXPECT_TRUE(D.Outcome.Stats.structuralEq(O.Stats));
  }
}

/// The decoder consumes every field and checks the body witness, so a
/// truncation at ANY payload offset must be rejected — a torn frame can
/// never half-apply.
TEST(CacheEntryCodec, RejectsEveryTruncation) {
  CompileResult R = compiledModule();
  const IlocFunction &F = *R.Prog->functions().front();
  std::string Enc = encodeCacheEntry(42, F, R.AllocOutcomes.front());

  for (size_t Cut = 0; Cut != Enc.size(); ++Cut) {
    DecodedCacheEntry D;
    EXPECT_FALSE(decodeCacheEntry(Enc.data(), Cut, D)) << "cut at " << Cut;
  }
}

//===----------------------------------------------------------------------===//
// CacheStore: reopen, torn tails, invalidation, compaction, chaos
//===----------------------------------------------------------------------===//

TEST_F(CacheStoreTest, ReplaysAppendsAcrossReopen) {
  CompileResult R = compiledModule();
  std::vector<std::string> ColdTexts;

  {
    CacheStore Store(config());
    ASSERT_TRUE(Store.open(nullptr));
    EXPECT_EQ(Store.counters().FramesReplayed, 0u);
    for (size_t I = 0; I != R.Prog->functions().size(); ++I) {
      Store.append(100 + I, *R.Prog->functions()[I], R.AllocOutcomes[I]);
      ColdTexts.push_back(R.Prog->functions()[I]->str());
    }
    Store.flush();
    EXPECT_FALSE(Store.degraded());
    EXPECT_EQ(Store.counters().Appends, R.Prog->functions().size());
  }

  CacheStoreCounters C;
  bool Opened = false;
  std::vector<Replayed> Entries = replayAll(config(), &C, &Opened);
  ASSERT_TRUE(Opened);
  ASSERT_EQ(Entries.size(), ColdTexts.size());
  EXPECT_EQ(C.FramesReplayed, ColdTexts.size());
  EXPECT_EQ(C.TornTailBytes, 0u);
  EXPECT_EQ(C.BadEntriesDropped, 0u);
  EXPECT_EQ(C.Invalidations, 0u);
  EXPECT_FALSE(C.SnapshotLoaded); // never compacted
  for (size_t I = 0; I != Entries.size(); ++I) {
    EXPECT_EQ(Entries[I].Key, 100 + I);
    EXPECT_EQ(Entries[I].Text, ColdTexts[I]); // bit-identical across reopen
  }
}

/// Truncates the on-disk journal at EVERY byte offset of its final entry
/// frame and reopens: recovery must deliver exactly the preceding entries,
/// count the dropped tail, and leave the store appendable — the end-to-end
/// version of the framing property, through real files.
TEST_F(CacheStoreTest, TornJournalTailTruncatedAtEveryOffset) {
  CompileResult R = compiledModule();
  ASSERT_GE(R.Prog->functions().size(), 3u);

  std::string JournalFile;
  {
    CacheStore Store(config());
    ASSERT_TRUE(Store.open(nullptr));
    for (size_t I = 0; I != 3; ++I)
      Store.append(I, *R.Prog->functions()[I], R.AllocOutcomes[I]);
    Store.flush();
    JournalFile = Store.journalPath();
  }
  std::string Pristine = readFileBytes(JournalFile);

  // Locate the last entry frame by scanning the pristine journal.
  std::vector<size_t> FrameEnds;
  size_t Off = 0;
  journal::scanFrames(Pristine.data(), Pristine.size(),
                      [&](journal::Frame F) {
                        Off += 8 + 1 + F.PayloadSize;
                        FrameEnds.push_back(Off);
                        return true;
                      });
  ASSERT_EQ(FrameEnds.size(), 4u); // header + 3 entries
  ASSERT_EQ(FrameEnds.back(), Pristine.size());
  size_t LastStart = FrameEnds[FrameEnds.size() - 2];

  for (size_t Cut = LastStart; Cut != Pristine.size(); ++Cut) {
    writeFileBytes(JournalFile, Pristine.substr(0, Cut));

    CacheStoreCounters C;
    std::vector<Replayed> Entries = replayAll(config(), &C);
    ASSERT_EQ(Entries.size(), 2u) << "cut at " << Cut;
    EXPECT_EQ(Entries[0].Key, 0u);
    EXPECT_EQ(Entries[1].Key, 1u);
    EXPECT_EQ(C.FramesReplayed, 2u) << "cut at " << Cut;
    EXPECT_EQ(C.TornTailBytes, Cut - LastStart) << "cut at " << Cut;
  }

  // The reopen truncated the torn tail; appending after recovery and
  // reopening once more yields the two survivors plus the new entry.
  {
    CacheStore Store(config());
    ASSERT_TRUE(Store.open(nullptr));
    Store.append(9, *R.Prog->functions()[2], R.AllocOutcomes[2]);
    Store.flush();
  }
  std::vector<Replayed> Entries = replayAll(config());
  ASSERT_EQ(Entries.size(), 3u);
  EXPECT_EQ(Entries[2].Key, 9u);
}

/// Flips EVERY byte of the journal's final entry frame: recovery must stop
/// at the clean prefix (CRC veto) and never crash, decode garbage, or
/// deliver a frame past the corruption.
TEST_F(CacheStoreTest, TornJournalTailBitFlippedAtEveryOffset) {
  CompileResult R = compiledModule();

  std::string JournalFile;
  {
    CacheStore Store(config());
    ASSERT_TRUE(Store.open(nullptr));
    for (size_t I = 0; I != 2; ++I)
      Store.append(I, *R.Prog->functions()[I], R.AllocOutcomes[I]);
    Store.flush();
    JournalFile = Store.journalPath();
  }
  std::string Pristine = readFileBytes(JournalFile);

  size_t Off = 0;
  std::vector<size_t> FrameEnds;
  journal::scanFrames(Pristine.data(), Pristine.size(),
                      [&](journal::Frame F) {
                        Off += 8 + 1 + F.PayloadSize;
                        FrameEnds.push_back(Off);
                        return true;
                      });
  ASSERT_EQ(FrameEnds.size(), 3u); // header + 2 entries
  size_t LastStart = FrameEnds[FrameEnds.size() - 2];

  for (size_t At = LastStart; At != Pristine.size(); ++At) {
    std::string Bad = Pristine;
    Bad[At] = static_cast<char>(Bad[At] ^ 0xFF);
    writeFileBytes(JournalFile, Bad);

    CacheStoreCounters C;
    std::vector<Replayed> Entries = replayAll(config(), &C);
    ASSERT_EQ(Entries.size(), 1u) << "flip at " << At;
    EXPECT_EQ(Entries[0].Key, 0u) << "flip at " << At;
    EXPECT_EQ(C.FramesReplayed, 1u) << "flip at " << At;
    EXPECT_GT(C.TornTailBytes, 0u) << "flip at " << At;
  }
}

/// A fingerprint mismatch — rebuilt binary, changed entry schema — wipes
/// both files and replays nothing: the store would rather recompile the
/// world than serve one stale entry.
TEST_F(CacheStoreTest, FingerprintMismatchWipesCleanNeverStale) {
  CompileResult R = compiledModule();
  {
    CacheStore Store(config(/*Fingerprint=*/7));
    ASSERT_TRUE(Store.open(nullptr));
    Store.append(1, *R.Prog->functions()[0], R.AllocOutcomes[0]);
    Store.flush();
  }

  // Reopen under a different fingerprint: nothing replayed, one
  // invalidation, and the store is immediately usable for the new build.
  CacheStoreCounters C;
  bool Opened = false;
  {
    CacheStore Store(config(/*Fingerprint=*/8));
    std::vector<Replayed> Entries;
    Opened = Store.open([&](uint64_t Key, std::unique_ptr<IlocFunction> B,
                            const AllocOutcome &O) {
      Entries.push_back({Key, B->str(), O.Function});
    });
    EXPECT_TRUE(Entries.empty()); // never a stale hit
    C = Store.counters();
    Store.append(2, *R.Prog->functions()[1], R.AllocOutcomes[1]);
    Store.flush();
  }
  ASSERT_TRUE(Opened);
  EXPECT_EQ(C.FramesReplayed, 0u);
  EXPECT_EQ(C.Invalidations, 1u);

  // The re-fingerprinted store replays its own entries on the next open.
  std::vector<Replayed> Entries = replayAll(config(/*Fingerprint=*/8), &C);
  ASSERT_EQ(Entries.size(), 1u);
  EXPECT_EQ(Entries[0].Key, 2u);
  EXPECT_EQ(C.Invalidations, 0u);
}

/// Compaction merges snapshot+journal last-wins per key into a fresh
/// snapshot and truncates the journal; a reopen loads the snapshot and
/// sees one entry per key with the newest body.
TEST_F(CacheStoreTest, CompactionMergesLastWins) {
  CompileResult R = compiledModule();
  const IlocFunction &FirstBody = *R.Prog->functions()[0];
  const IlocFunction &SecondBody = *R.Prog->functions()[1];

  {
    CacheStore Store(config());
    ASSERT_TRUE(Store.open(nullptr));
    // Key 1 written twice with different bodies: the later insert must win.
    Store.append(1, FirstBody, R.AllocOutcomes[0]);
    Store.append(1, SecondBody, R.AllocOutcomes[1]);
    Store.append(2, FirstBody, R.AllocOutcomes[0]);
    Store.compactNow();
    EXPECT_FALSE(Store.degraded());
    EXPECT_EQ(Store.counters().Compactions, 1u);
    EXPECT_TRUE(fs::exists(Store.snapshotPath()));
    // The journal holds only its header again; new appends go after it.
    Store.append(3, SecondBody, R.AllocOutcomes[1]);
    Store.flush();
  }

  CacheStoreCounters C;
  std::vector<Replayed> Entries = replayAll(config(), &C);
  EXPECT_TRUE(C.SnapshotLoaded);
  ASSERT_EQ(Entries.size(), 3u); // keys 1, 2 from snapshot; 3 from journal
  std::map<uint64_t, std::string> ByKey;
  for (const Replayed &E : Entries)
    ByKey[E.Key] = E.Text;
  ASSERT_EQ(ByKey.size(), 3u);
  EXPECT_EQ(ByKey[1], SecondBody.str()); // last-wins merge
  EXPECT_EQ(ByKey[2], FirstBody.str());
  EXPECT_EQ(ByKey[3], SecondBody.str());
}

/// The journal-write chaos site degrades the store to in-memory-only:
/// appends become no-ops, nothing crashes, and what reached disk before the
/// fault still replays on the next open.
TEST_F(CacheStoreTest, JournalWriteFaultDegradesToMemoryOnly) {
  CompileResult R = compiledModule();

  {
    CacheStoreConfig C = config();
    int Countdown = 1; // first append succeeds, second hits the fault
    C.Chaos = [&Countdown](FaultSite S) {
      return S == FaultSite::JournalWrite && Countdown-- <= 0;
    };
    CacheStore Store(C);
    ASSERT_TRUE(Store.open(nullptr));
    Store.append(1, *R.Prog->functions()[0], R.AllocOutcomes[0]);
    EXPECT_FALSE(Store.degraded());
    Store.append(2, *R.Prog->functions()[1], R.AllocOutcomes[1]);
    EXPECT_TRUE(Store.degraded());
    EXPECT_TRUE(Store.counters().Degraded);
    // Degraded appends/flushes/compactions are contained no-ops.
    Store.append(3, *R.Prog->functions()[2], R.AllocOutcomes[2]);
    Store.flush();
    Store.compactNow();
    EXPECT_EQ(Store.counters().Appends, 1u);
  }

  std::vector<Replayed> Entries = replayAll(config());
  ASSERT_EQ(Entries.size(), 1u); // the pre-fault prefix survived
  EXPECT_EQ(Entries[0].Key, 1u);
}

/// The snapshot-compact chaos site likewise degrades instead of crashing,
/// and the pre-compaction journal remains the recoverable truth.
TEST_F(CacheStoreTest, SnapshotCompactFaultDegradesToMemoryOnly) {
  CompileResult R = compiledModule();

  {
    CacheStoreConfig C = config();
    C.Chaos = [](FaultSite S) { return S == FaultSite::SnapshotCompact; };
    CacheStore Store(C);
    ASSERT_TRUE(Store.open(nullptr));
    Store.append(1, *R.Prog->functions()[0], R.AllocOutcomes[0]);
    Store.append(2, *R.Prog->functions()[1], R.AllocOutcomes[1]);
    Store.compactNow();
    EXPECT_TRUE(Store.degraded());
    EXPECT_EQ(Store.counters().Compactions, 0u);
  }

  CacheStoreCounters C;
  std::vector<Replayed> Entries = replayAll(config(), &C);
  EXPECT_FALSE(C.SnapshotLoaded);
  ASSERT_EQ(Entries.size(), 2u);
  EXPECT_EQ(Entries[0].Key, 1u);
  EXPECT_EQ(Entries[1].Key, 2u);
}

//===----------------------------------------------------------------------===//
// CompileService across a simulated restart
//===----------------------------------------------------------------------===//

/// Two CompileService instances sharing a cache directory model a crash and
/// restart: the second must warm-hit everything the first compiled, with
/// output byte-identical to the cold run — the kill -9 soak's core gate,
/// as a deterministic unit test.
TEST_F(CacheStoreTest, ServiceWarmHitsAcrossSimulatedRestart) {
  RequestOptions Opts;
  Opts.Allocator = AllocatorKind::Rap;
  Opts.K = 3;
  std::string Src = moduleSource();

  uint64_t ColdHash = 0;
  unsigned ColdMisses = 0;
  {
    ServiceConfig Config;
    Config.Shards = 2;
    Config.CacheDir = Dir;
    CompileService Service(Config);
    ServiceResult Cold = Service.compile(Src, Opts);
    ASSERT_TRUE(Cold.Ok) << Cold.Errors;
    EXPECT_EQ(Cold.CacheHits, 0u);
    ASSERT_GT(Cold.CacheMisses, 0u);
    ColdHash = Cold.OutputHash;
    ColdMisses = Cold.CacheMisses;
    if (CacheStore *Store = Service.store())
      Store->flush();
  }

  ServiceConfig Config;
  Config.Shards = 2;
  Config.CacheDir = Dir;
  CompileService Service(Config);
  ServiceCounters C = Service.counters();
  ASSERT_TRUE(C.Recovery);
  EXPECT_EQ(C.Recovery->FramesReplayed, ColdMisses);

  ServiceResult Warm = Service.compile(Src, Opts);
  ASSERT_TRUE(Warm.Ok) << Warm.Errors;
  EXPECT_EQ(Warm.CacheMisses, 0u);
  EXPECT_EQ(Warm.CacheHits, ColdMisses);
  EXPECT_EQ(Warm.OutputHash, ColdHash); // warm == cold, across processes
  // Replayed entries carry the cold counts but none of its wall clock.
  EXPECT_EQ(Warm.Alloc.GraphBuildSeconds, 0.0);
  EXPECT_EQ(Warm.Alloc.LivenessSeconds, 0.0);
}

} // namespace
