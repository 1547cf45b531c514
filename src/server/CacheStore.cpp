//===- server/CacheStore.cpp - Durable allocation cache ---------------------===//
//
// Part of the RAP reproduction of Norris & Pollock, PLDI 1994.
//
//===----------------------------------------------------------------------===//

#include "server/CacheStore.h"

#include "support/Hash.h"
#include "support/Journal.h"

#include <cerrno>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <unordered_map>
#include <utility>
#include <vector>

#include <fcntl.h>
#include <unistd.h>

using namespace rap;
using namespace rap::server;
using rap::journal::ByteReader;
using rap::journal::ByteWriter;

namespace {

/// Bump when the entry payload layout changes; folded into the store
/// fingerprint so old files invalidate instead of misdecoding.
constexpr uint32_t FormatVersion = 2;

constexpr uint8_t FrameHeader = 1; ///< payload: u32 version, u64 fingerprint
constexpr uint8_t FrameEntry = 2;  ///< payload: one encodeCacheEntry record

/// Decode-side sanity bounds. A CRC-valid but hostile payload must fail
/// fast, not allocate gigabytes or recurse off the stack; legitimate
/// functions (including the 10k-function scale programs) sit far below
/// all of these.
constexpr uint32_t MaxNamespace = 1u << 26; ///< vregs/labels/slots per fn
constexpr int MaxNodeDepth = 20000;         ///< region-tree recursion bound

} // namespace

const char *server::fsyncModeName(FsyncMode M) {
  switch (M) {
  case FsyncMode::Never:
    return "never";
  case FsyncMode::Batch:
    return "batch";
  case FsyncMode::Always:
    return "always";
  }
  return "unknown";
}

bool server::parseFsyncMode(const std::string &Text, FsyncMode &Out) {
  if (Text == "never")
    Out = FsyncMode::Never;
  else if (Text == "batch")
    Out = FsyncMode::Batch;
  else if (Text == "always")
    Out = FsyncMode::Always;
  else
    return false;
  return true;
}

//===----------------------------------------------------------------------===//
// Entry codec. The encoder mirrors the cloneFunction traversal field for
// field; the decoder rebuilds through the same IlocFunction factory calls a
// clone uses (createInstr reassigns ids sequentially in visit order on both
// paths), so decode(encode(F)) renders byte-identically to cloneFunction(F).
//===----------------------------------------------------------------------===//

namespace {

void encodeInstr(ByteWriter &W, const Instr *I) {
  W.u8(static_cast<uint8_t>(I->Op));
  W.u32(I->Dst);
  W.u32(static_cast<uint32_t>(I->Src.size()));
  for (Reg R : I->Src)
    W.u32(R);
  W.u8(I->Imm.isFloat() ? 1 : 0);
  if (I->Imm.isFloat())
    W.f64(I->Imm.rawFloat());
  else
    W.i64(I->Imm.rawInt());
  W.i32(I->Slot);
  W.i32(I->Addr);
  W.i32(I->Label0);
  W.i32(I->Label1);
  W.i32(I->Callee);
  W.u32(I->LinPos);
}

void encodeOptInstr(ByteWriter &W, const Instr *I) {
  W.u8(I ? 1 : 0);
  if (I)
    encodeInstr(W, I);
}

void encodeNode(ByteWriter &W, const PdgNode *N) {
  if (!N) {
    W.u8(0);
    return;
  }
  W.u8(static_cast<uint8_t>(N->kind()) + 1);
  W.u8(N->IsLoop ? 1 : 0);
  W.i32(N->TrueLabel);
  W.i32(N->FalseLabel);
  W.i32(N->JoinLabel);
  W.u32(N->LinBegin);
  W.u32(N->LinEnd);
  W.u32(static_cast<uint32_t>(N->Code.size()));
  for (const Instr *I : N->Code)
    encodeInstr(W, I);
  encodeOptInstr(W, N->Branch);
  encodeOptInstr(W, N->Jump);
  encodeNode(W, N->TrueRegion);
  encodeNode(W, N->FalseRegion);
  W.u32(static_cast<uint32_t>(N->Children.size()));
  for (const PdgNode *C : N->Children)
    encodeNode(W, C);
}

void encodeStats(ByteWriter &W, const AllocStats &S) {
  for (const AllocCounter &C : AllocCounters)
    W.u32(S.*C.Member);
  W.f64(S.GraphBuildSeconds);
  W.f64(S.LivenessSeconds);
  W.u64(S.PeakGraphBytes);
}

void encodeFunction(ByteWriter &W, const IlocFunction &F) {
  W.str(F.name());
  W.u32(F.numParams());
  W.u8(static_cast<uint8_t>(F.returnType()));
  W.u32(F.numVRegs());
  W.i32(F.numLabels());
  W.i32(F.numSpillSlots());
  W.u8(F.isAllocated() ? 1 : 0);
  if (F.isAllocated()) {
    W.u32(F.numPhysRegs());
    for (unsigned P = 0; P != F.numParams(); ++P)
      W.u32(F.paramReg(P));
  }
  encodeNode(W, F.root());
}

bool decodeInstr(ByteReader &R, IlocFunction &F, Instr *&Out) {
  uint8_t Op = R.u8();
  if (Op > static_cast<uint8_t>(Opcode::Halt) || !R.ok())
    return false;
  Instr *I = F.createInstr(static_cast<Opcode>(Op));
  I->Dst = R.u32();
  uint32_t NSrc = R.u32();
  if (NSrc > R.remaining())
    return false;
  for (uint32_t S = 0; S != NSrc && R.ok(); ++S)
    I->Src.push_back(R.u32());
  if (R.u8())
    I->Imm = RtValue::makeFloat(R.f64());
  else
    I->Imm = RtValue::makeInt(R.i64());
  I->Slot = R.i32();
  I->Addr = R.i32();
  I->Label0 = R.i32();
  I->Label1 = R.i32();
  I->Callee = R.i32();
  I->LinPos = R.u32();
  Out = I;
  return R.ok();
}

bool decodeOptInstr(ByteReader &R, IlocFunction &F, Instr *&Out) {
  Out = nullptr;
  if (!R.u8())
    return R.ok();
  return decodeInstr(R, F, Out);
}

bool decodeNode(ByteReader &R, IlocFunction &F, PdgNode *Parent, int Depth,
                PdgNode *&Out) {
  Out = nullptr;
  uint8_t Tag = R.u8();
  if (!R.ok() || Tag > 3)
    return R.ok() && Tag == 0;
  if (Tag == 0)
    return true;
  if (Depth > MaxNodeDepth)
    return false;
  PdgNode *N = F.createNode(static_cast<PdgNodeKind>(Tag - 1));
  N->Parent = Parent;
  N->IsLoop = R.u8() != 0;
  N->TrueLabel = R.i32();
  N->FalseLabel = R.i32();
  N->JoinLabel = R.i32();
  N->LinBegin = R.u32();
  N->LinEnd = R.u32();
  uint32_t NCode = R.u32();
  if (NCode > R.remaining())
    return false;
  N->Code.reserve(NCode);
  for (uint32_t I = 0; I != NCode; ++I) {
    Instr *Ins = nullptr;
    if (!decodeInstr(R, F, Ins))
      return false;
    N->Code.push_back(Ins);
  }
  if (!decodeOptInstr(R, F, N->Branch) || !decodeOptInstr(R, F, N->Jump))
    return false;
  if (!decodeNode(R, F, N, Depth + 1, N->TrueRegion) ||
      !decodeNode(R, F, N, Depth + 1, N->FalseRegion))
    return false;
  uint32_t NKids = R.u32();
  if (NKids > R.remaining())
    return false;
  N->Children.reserve(NKids);
  for (uint32_t I = 0; I != NKids; ++I) {
    PdgNode *C = nullptr;
    if (!decodeNode(R, F, N, Depth + 1, C) || !C)
      return false;
    N->Children.push_back(C);
  }
  Out = N;
  return R.ok();
}

bool decodeStats(ByteReader &R, AllocStats &S) {
  for (const AllocCounter &C : AllocCounters)
    S.*C.Member = R.u32();
  S.GraphBuildSeconds = R.f64();
  S.LivenessSeconds = R.f64();
  S.PeakGraphBytes = R.u64();
  return R.ok();
}

std::unique_ptr<IlocFunction> decodeFunction(ByteReader &R) {
  std::string Name = R.str();
  auto F = std::make_unique<IlocFunction>(Name);
  F->setNumParams(R.u32());
  uint8_t Ret = R.u8();
  if (Ret > static_cast<uint8_t>(TypeKind::Void))
    return nullptr;
  F->setReturnType(static_cast<TypeKind>(Ret));
  uint32_t NVRegs = R.u32();
  int32_t NLabels = R.i32();
  int32_t NSlots = R.i32();
  if (!R.ok() || NVRegs > MaxNamespace || NLabels < 0 ||
      NLabels > static_cast<int32_t>(MaxNamespace) || NSlots < 0 ||
      NSlots > static_cast<int32_t>(MaxNamespace) ||
      F->numParams() > MaxNamespace)
    return nullptr;
  while (F->numVRegs() < NVRegs)
    F->newVReg();
  while (F->numLabels() < NLabels)
    F->newLabel();
  while (F->numSpillSlots() < NSlots)
    F->newSpillSlot();
  bool Allocated = R.u8() != 0;
  unsigned NumPhys = 0;
  std::vector<Reg> ParamRegs;
  if (Allocated) {
    NumPhys = R.u32();
    ParamRegs.reserve(F->numParams());
    for (unsigned P = 0; P != F->numParams() && R.ok(); ++P)
      ParamRegs.push_back(R.u32());
  }
  PdgNode *Root = nullptr;
  if (!decodeNode(R, *F, nullptr, 0, Root))
    return nullptr;
  F->setRoot(Root);
  if (Allocated) {
    F->setParamRegs(std::move(ParamRegs));
    F->setAllocated(NumPhys);
  }
  return R.ok() ? std::move(F) : nullptr;
}

} // namespace

std::string server::encodeCacheEntry(uint64_t Key, const IlocFunction &Body,
                                     const AllocOutcome &Outcome) {
  std::string Out;
  ByteWriter W(Out);
  W.u64(Key);
  W.str(Outcome.Function);
  W.u8(static_cast<uint8_t>(Outcome.Status));
  W.u8(static_cast<uint8_t>(Outcome.ErrorKind));
  W.str(Outcome.Error);
  encodeStats(W, Outcome.Stats);
  // The replay witness: recovery re-renders the decoded body and refuses
  // any entry whose text does not hash back to this. Byte identity, not
  // trust, is what makes persisted warm responses safe.
  W.u64(hashString(Body.str()));
  encodeFunction(W, Body);
  return Out;
}

bool server::decodeCacheEntry(const char *Data, size_t Size,
                              DecodedCacheEntry &Out) {
  ByteReader R(Data, Size);
  Out.Key = R.u64();
  Out.Outcome = AllocOutcome();
  Out.Outcome.Function = R.str();
  uint8_t Status = R.u8();
  uint8_t Kind = R.u8();
  if (Status > static_cast<uint8_t>(AllocStatus::Failed) ||
      Kind > static_cast<uint8_t>(AllocErrorKind::Cancelled))
    return false;
  Out.Outcome.Status = static_cast<AllocStatus>(Status);
  Out.Outcome.ErrorKind = static_cast<AllocErrorKind>(Kind);
  Out.Outcome.Error = R.str();
  if (!decodeStats(R, Out.Outcome.Stats))
    return false;
  uint64_t Witness = R.u64();
  Out.Body = decodeFunction(R);
  if (!Out.Body || !R.atEnd())
    return false;
  return hashString(Out.Body->str()) == Witness;
}

//===----------------------------------------------------------------------===//
// The store
//===----------------------------------------------------------------------===//

uint64_t CacheStore::buildFingerprint() {
  // __DATE__/__TIME__ change on every rebuild of this translation unit, so
  // a new binary never trusts entries an older allocator wrote — semantic
  // drift behind an unchanged key can't leak through. The schema string
  // names what the entry key covers; extend it when fingerprintFunction
  // grows a field.
  return Hasher()
      .u32(FormatVersion)
      .str(std::string(__DATE__) + " " + __TIME__)
      .str("kind k granularity copies movement peephole cleanup coalesce "
           "verify")
      .value();
}

CacheStore::CacheStore(CacheStoreConfig C) : Config(std::move(C)) {
  if (Config.Fingerprint == 0)
    Config.Fingerprint = buildFingerprint();
}

CacheStore::~CacheStore() {
  std::lock_guard<std::mutex> Lock(M);
  if (JournalFd >= 0) {
    if (Config.Fsync == FsyncMode::Batch && AppendsSinceSync)
      ::fsync(JournalFd);
    ::close(JournalFd);
    JournalFd = -1;
  }
}

std::string CacheStore::snapshotPath() const {
  return Config.Dir + "/snapshot.bin";
}

std::string CacheStore::journalPath() const {
  return Config.Dir + "/journal.bin";
}

bool CacheStore::degraded() const {
  std::lock_guard<std::mutex> Lock(M);
  return Stats.Degraded;
}

CacheStoreCounters CacheStore::counters() const {
  std::lock_guard<std::mutex> Lock(M);
  return Stats;
}

bool CacheStore::chaosFires(FaultSite S) {
  return Config.Chaos && Config.Chaos(S);
}

void CacheStore::degradeLocked() {
  if (JournalFd >= 0) {
    ::close(JournalFd);
    JournalFd = -1;
  }
  Stats.Degraded = true;
}

namespace {

std::string readFile(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return std::string();
  std::ostringstream Buf;
  Buf << In.rdbuf();
  return Buf.str();
}

bool writeAll(int Fd, const char *Data, size_t Size) {
  while (Size) {
    ssize_t N = ::write(Fd, Data, Size);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      return false;
    }
    Data += N;
    Size -= static_cast<size_t>(N);
  }
  return true;
}

std::string headerFrame(uint64_t Fingerprint) {
  std::string Payload;
  ByteWriter W(Payload);
  W.u32(FormatVersion);
  W.u64(Fingerprint);
  std::string Out;
  journal::appendFrame(Out, FrameHeader, Payload);
  return Out;
}

enum class HeaderCheck {
  Missing,  ///< no file / empty file: a fresh store
  Ok,       ///< header present, version and fingerprint match
  Mismatch, ///< a different binary or format wrote this: invalidate
  Torn,     ///< the header frame itself is torn: nothing is trusted
};

HeaderCheck checkHeader(const std::string &Data, uint64_t Fingerprint) {
  if (Data.empty())
    return HeaderCheck::Missing;
  HeaderCheck Result = HeaderCheck::Torn;
  journal::scanFrames(Data.data(), Data.size(), [&](const journal::Frame &F) {
    if (F.Type != FrameHeader) {
      Result = HeaderCheck::Mismatch;
      return false;
    }
    ByteReader R(F.Payload, F.PayloadSize);
    uint32_t Version = R.u32();
    uint64_t Stamp = R.u64();
    Result = (R.ok() && Version == FormatVersion && Stamp == Fingerprint)
                 ? HeaderCheck::Ok
                 : HeaderCheck::Mismatch;
    return false; // first frame only
  });
  return Result;
}

} // namespace

void CacheStore::replayFile(const std::string &Path, const std::string &Data,
                            const ReplaySink &Sink, bool &SawBadEntry,
                            size_t &TrustedPrefix) {
  (void)Path;
  size_t BadFrameBytes = 0;
  journal::ScanResult Scan = journal::scanFrames(
      Data.data(), Data.size(), [&](const journal::Frame &F) {
        if (F.Type != FrameEntry)
          return true; // header (or a future frame type): skip
        DecodedCacheEntry E;
        if (!decodeCacheEntry(F.Payload, F.PayloadSize, E)) {
          // CRC-valid but structurally bad (or a failed witness check):
          // trust nothing from here on in this file.
          Stats.BadEntriesDropped += 1;
          SawBadEntry = true;
          BadFrameBytes = 9 + F.PayloadSize; // frame header + type + payload
          return false;
        }
        Stats.FramesReplayed += 1;
        if (Sink)
          Sink(E.Key, std::move(E.Body), E.Outcome);
        return true;
      });
  TrustedPrefix = Scan.BytesConsumed - BadFrameBytes;
  Stats.TornTailBytes += Data.size() - TrustedPrefix;
}

bool CacheStore::open(const ReplaySink &Sink) {
  std::lock_guard<std::mutex> Lock(M);
  std::error_code EC;
  std::filesystem::create_directories(Config.Dir, EC);
  if (EC) {
    Stats.Degraded = true;
    return false;
  }

  std::string Snap = readFile(snapshotPath());
  std::string Jour = readFile(journalPath());
  HeaderCheck HS = checkHeader(Snap, Config.Fingerprint);
  HeaderCheck HJ = checkHeader(Jour, Config.Fingerprint);

  // A fingerprint/version mismatch in either file means a different binary
  // (or entry format) wrote this state: wipe both, replay nothing. Stale
  // hits are impossible by construction — the files never survive to be
  // read by a store they weren't stamped for.
  if (HS == HeaderCheck::Mismatch || HJ == HeaderCheck::Mismatch) {
    Stats.Invalidations += 1;
    ::unlink(snapshotPath().c_str());
    ::unlink(journalPath().c_str());
    Snap.clear();
    Jour.clear();
    HS = HJ = HeaderCheck::Missing;
  }

  // A torn header trusts nothing in that file (prefix semantics from
  // offset zero); the bytes count as a dropped tail, not a format change.
  if (HS == HeaderCheck::Torn) {
    Stats.TornTailBytes += Snap.size();
    Snap.clear();
    HS = HeaderCheck::Missing;
  }
  if (HJ == HeaderCheck::Torn) {
    Stats.TornTailBytes += Jour.size();
    Jour.clear();
    HJ = HeaderCheck::Missing;
  }

  if (HS == HeaderCheck::Ok) {
    Stats.SnapshotLoaded = true;
    bool SawBad = false;
    size_t Trusted = 0;
    replayFile(snapshotPath(), Snap, Sink, SawBad, Trusted);
  }

  size_t JournalTrusted = 0;
  if (HJ == HeaderCheck::Ok) {
    bool SawBad = false;
    replayFile(journalPath(), Jour, Sink, SawBad, JournalTrusted);
  }

  JournalFd = ::open(journalPath().c_str(), O_WRONLY | O_CREAT, 0644);
  if (JournalFd < 0) {
    Stats.Degraded = true;
    return false;
  }
  if (HJ == HeaderCheck::Ok && JournalTrusted > 0) {
    // Drop the torn tail before appending: new frames written after
    // garbage would be unreachable to every future recovery scan.
    if (::ftruncate(JournalFd, static_cast<off_t>(JournalTrusted)) != 0 ||
        ::lseek(JournalFd, 0, SEEK_END) < 0) {
      degradeLocked();
      return false;
    }
    JournalBytes = JournalTrusted;
  } else {
    std::string Header = headerFrame(Config.Fingerprint);
    if (::ftruncate(JournalFd, 0) != 0 ||
        !writeAll(JournalFd, Header.data(), Header.size())) {
      degradeLocked();
      return false;
    }
    JournalBytes = Header.size();
  }
  return true;
}

void CacheStore::append(uint64_t Key, const IlocFunction &Body,
                        const AllocOutcome &Outcome) {
  std::lock_guard<std::mutex> Lock(M);
  if (Stats.Degraded || JournalFd < 0)
    return;
  if (chaosFires(FaultSite::JournalWrite)) {
    degradeLocked();
    return;
  }
  std::string Buf;
  journal::appendFrame(Buf, FrameEntry, encodeCacheEntry(Key, Body, Outcome));
  // One unbuffered write per entry: a SIGKILL can tear at most this frame,
  // and the CRC scan drops exactly the torn tail on the next recovery.
  if (!writeAll(JournalFd, Buf.data(), Buf.size())) {
    degradeLocked();
    return;
  }
  JournalBytes += Buf.size();
  Stats.Appends += 1;
  if (Config.Fsync == FsyncMode::Always) {
    ::fsync(JournalFd);
  } else if (Config.Fsync == FsyncMode::Batch) {
    if (++AppendsSinceSync >= Config.BatchAppends) {
      ::fsync(JournalFd);
      AppendsSinceSync = 0;
    }
  }
  if (Config.CompactBytes && JournalBytes > Config.CompactBytes)
    compactLocked();
}

void CacheStore::flush() {
  std::lock_guard<std::mutex> Lock(M);
  if (Stats.Degraded || JournalFd < 0)
    return;
  if (Config.Fsync == FsyncMode::Batch && AppendsSinceSync) {
    ::fsync(JournalFd);
    AppendsSinceSync = 0;
  }
}

void CacheStore::compactNow() {
  std::lock_guard<std::mutex> Lock(M);
  compactLocked();
}

void CacheStore::compactLocked() {
  if (Stats.Degraded || JournalFd < 0)
    return;
  if (chaosFires(FaultSite::SnapshotCompact)) {
    degradeLocked();
    return;
  }

  // Merge snapshot + journal at the frame level: entries keep their exact
  // payload bytes (the key is the payload's leading u64), later frames for
  // a key replace earlier ones in place, so compaction can reorder nothing
  // and corrupt nothing — it never even decodes a body.
  std::vector<std::pair<uint64_t, std::string>> Entries;
  std::unordered_map<uint64_t, size_t> Position;
  auto mergeFile = [&](const std::string &Path) {
    std::string Data = readFile(Path);
    journal::scanFrames(
        Data.data(), Data.size(), [&](const journal::Frame &F) {
          if (F.Type != FrameEntry || F.PayloadSize < 8)
            return true;
          uint64_t Key = ByteReader(F.Payload, F.PayloadSize).u64();
          std::string Payload(F.Payload, F.PayloadSize);
          auto It = Position.find(Key);
          if (It != Position.end()) {
            Entries[It->second].second = std::move(Payload);
          } else {
            Position.emplace(Key, Entries.size());
            Entries.emplace_back(Key, std::move(Payload));
          }
          return true;
        });
  };
  mergeFile(snapshotPath());
  mergeFile(journalPath());

  std::string Out = headerFrame(Config.Fingerprint);
  for (const auto &E : Entries)
    journal::appendFrame(Out, FrameEntry, E.second);

  // tmp + fsync + atomic rename: a crash mid-compaction leaves either the
  // old snapshot or the new one, never a half-written file under the real
  // name.
  std::string Tmp = Config.Dir + "/snapshot.tmp";
  int Fd = ::open(Tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (Fd < 0) {
    degradeLocked();
    return;
  }
  bool Wrote = writeAll(Fd, Out.data(), Out.size());
  if (Wrote && Config.Fsync != FsyncMode::Never)
    ::fsync(Fd);
  ::close(Fd);
  if (!Wrote || ::rename(Tmp.c_str(), snapshotPath().c_str()) != 0) {
    ::unlink(Tmp.c_str());
    degradeLocked();
    return;
  }

  // Everything merged lives in the snapshot now; restart the journal.
  std::string Header = headerFrame(Config.Fingerprint);
  if (::ftruncate(JournalFd, 0) != 0 ||
      ::lseek(JournalFd, 0, SEEK_SET) < 0 ||
      !writeAll(JournalFd, Header.data(), Header.size())) {
    degradeLocked();
    return;
  }
  if (Config.Fsync != FsyncMode::Never)
    ::fsync(JournalFd);
  JournalBytes = Header.size();
  AppendsSinceSync = 0;
  Stats.Compactions += 1;
  Stats.SnapshotLoaded = true;
}
