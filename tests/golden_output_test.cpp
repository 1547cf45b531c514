//===- tests/golden_output_test.cpp - Pinned allocator output ---------------===//
//
// Part of the RAP reproduction of Norris & Pollock, PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Pins the allocated ILOC of both allocators to recorded hashes, so a
/// change meant to leave the output alone (a performance change to the
/// allocator, a refactor) is checked to be bit-identical. Covers the
/// paper's Table 1 (37 routines x k in {3,5,7,9} x {RAP, GRA}), one
/// spill-heavy generated deep function, and 100 random programs under the
/// configurations that run RAP's spill-code passes (GoldenRandom).
///
/// A second suite pins what the allocators report about that output: per
/// Table 1 routine, one hash over its rap-stats-v1 documents and Chrome
/// traces, with the wall-clock fields normalized away. A third pins the
/// interpreter's decoded buffers of the same programs (GoldenDecode), so a
/// decoder refactor is checked to leave every decoded op unchanged.
///
/// A mismatch prints the observed hash. Update a recorded value only when
/// the output is meant to change, and say why in the change description.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "benchprogs/BenchPrograms.h"
#include "driver/Pipeline.h"
#include "driver/Report.h"
#include "fuzz/RandomProgram.h"
#include "fuzz/ScaleProgram.h"
#include "interp/Decode.h"
#include "support/Hash.h"
#include "support/Json.h"
#include "support/Stats.h"

#include "gtest/gtest.h"

#include <bit>
#include <initializer_list>
#include <iterator>
#include <ostream>
#include <string>
#include <vector>

using namespace rap;

namespace {

/// Adds every allocated function of \p Prog to \p H: its printed code
/// (signature and linearized body), the registers its parameters arrive in,
/// and its spill slot count.
void hashFunctions(Hasher &H, const IlocProgram &Prog) {
  for (const auto &F : Prog.functions()) {
    H.str(F->str());
    for (unsigned P = 0; P != F->numParams(); ++P)
      H.u32(F->paramReg(P));
    H.u32(static_cast<uint32_t>(F->numSpillSlots()));
  }
}

/// FNV hash of every function of \p Source allocated by \p Kind at \p K
/// (see hashFunctions), rendered as 16 hex digits.
std::string allocatedHash(const std::string &Source, AllocatorKind Kind,
                          unsigned K) {
  CompileOptions Options;
  Options.Allocator = Kind;
  Options.Alloc.K = K;
  CompileResult CR = compileMiniC(Source, Options);
  EXPECT_TRUE(CR.ok() && !CR.degraded()) << CR.Errors;
  if (!CR.ok())
    return "";
  Hasher H;
  hashFunctions(H, *CR.Prog);
  return hashHex(H.value());
}

constexpr unsigned Ks[] = {3, 5, 7, 9};

struct Golden {
  const char *Name;
  const char *Rap[4]; ///< at k = 3, 5, 7, 9
  const char *Gra[4];
};

/// Prints the routine name. Without it gtest prints the struct's raw bytes,
/// which are string-literal addresses that ASLR moves on every run, so the
/// test names that ctest discovers would change with every build.
void PrintTo(const Golden &G, std::ostream *OS) { *OS << G.Name; }

// clang-format off
const Golden Table1Hashes[] = {
  {"loop1",
   {"9f1fd3c684f8043d", "10771616735217ec", "06de6e877577ea11", "95c11ee5a0d5de7f"},
   {"5d1f71428597f45b", "ad30fb48227f7a49", "b2d35cc08cad2210", "74374bad6df1aaa7"}},
  {"loop2",
   {"7021347f6eecabbe", "062566029bb1f636", "e18c48d00009a497", "0a549560818932dd"},
   {"c88e3444473dacd4", "cc2017f848e1209d", "1eecc59b7deb32ee", "aff591ac52c99597"}},
  {"loop3",
   {"5b3da07dcdc5b01b", "e8f541d7a5bb59c5", "5813e98fe144d954", "fd3afb98b0d2336e"},
   {"408c577a375093ca", "944d3279492ba84b", "fe84e0274d27fe16", "ea1e7197249a51b4"}},
  {"loop4",
   {"59d383315c46d097", "12494392d1a4979f", "75b4e6b4f86e0a24", "b21f3135ec42f599"},
   {"0d903d5839bc976d", "32232ad7457be861", "61f25a0cb3432ded", "01d51cd7c3f619d3"}},
  {"loop5",
   {"b2301420b69ff288", "b2a4a4e82a48172a", "a72516b6115e5c9a", "80fbec084b680112"},
   {"50c6aa74a03dc086", "8e58fe038764adf1", "d5a65a2eaee54e30", "b42bd426ea27223e"}},
  {"loop6",
   {"fa8cba374f8a10fb", "a8c113ce9a5bbcdb", "7770e3529524e5a8", "a1a3fb6d7e35c408"},
   {"ef0faffaa2df0923", "cf11426fc338981a", "e4b0ddf8c40cfd20", "dbac4b85dfc978e8"}},
  {"loop7",
   {"b196d39af662cf92", "a9150b49cbb215ef", "6a14832475215b8d", "db7505bdda7690e4"},
   {"39ae21b4de8359a4", "31eb2a896ec42987", "02c03da0e3fcc5ae", "73f6b63a5d8f0dc4"}},
  {"loop9",
   {"cd8fa891f1bcf417", "4c8c2a6d41006f63", "109898b8b9936c83", "46844ca8372c820c"},
   {"3e3b68207111be5e", "39204a41a717e304", "eabfd01f63f1c683", "a8043cc5470cc524"}},
  {"loop10",
   {"bba27a751711f8aa", "3c81bb6f1dbda08c", "9b2db23a7be687ce", "b24d82ce3baa6a39"},
   {"05d0a26ae6c763cb", "b37465eecb3ae158", "f71ae438bba9c2a3", "c25cb3cb81d403b3"}},
  {"loop11",
   {"980157a9a045e61f", "9b3c6f27f41d0c78", "573e308ee6904bb5", "c69a76353e22c13f"},
   {"adcb8ab57ee39b70", "4be468fe42801ad1", "2e131451c6bcfa36", "0fd5ac634ea6a7d1"}},
  {"loop12",
   {"1e3a32cde8ba0f29", "0e7abfdfaaed4bdf", "82f27ef20e832124", "08be5c2b08f9abb0"},
   {"72fccb5e57cea3c0", "7af5caa215d6c459", "4106c4814b45b6d2", "6e17260dea3b77fd"}},
  {"loop21",
   {"36fc9c1186bd3ca0", "3cd7d565369b1e4e", "c936cace28361492", "eb8a0f6b20a008a9"},
   {"8aa1f63a74299200", "c29edb934681db4c", "9a74af5ebc6d5372", "b3403283e05123d6"}},
  {"loop22",
   {"852218fe72aad299", "74473ae31cfb1e00", "5ebe3193fe4b80f9", "f12ef1bbba1fa7c5"},
   {"3579a652e4a86c5d", "4c68ca1ba785471e", "a210d85d2c291dfb", "cc0870a597c0506b"}},
  {"daxpy",
   {"48cd6a4ab5be8c5a", "99fdbcd85a558331", "f41c240dd62be94b", "3d38513f1cdd39c8"},
   {"94538dca01246651", "888bddc33db1d375", "abac32020e6f5be5", "7520e35388855946"}},
  {"ddot",
   {"e9230e83da952a27", "966a7cd3189f637c", "388b526baf1e98a6", "6246e9441e1b3018"},
   {"e37bcb832e308c90", "27f8345d60b86074", "917243daa8d48b67", "61873b3845f9a260"}},
  {"dscal",
   {"e749529312ff830c", "25efff4e910a0f3e", "349b053c6eab3ea0", "5cc83e4b6c32d44a"},
   {"57caee683854df7c", "792d076f9e795ec8", "fb291693e32ec9f7", "de660d03511421b5"}},
  {"idamax",
   {"7e54b8bbada45192", "69a9883c82d57597", "22add6b60794097c", "70a59983e952de92"},
   {"1433ffd49b6443ee", "bc7763c4a837da66", "86b3e73bce681e95", "9c368d1e16c00d47"}},
  {"dmxpy",
   {"2f83b928e3fb8b72", "c36d7edeb2acba92", "9ee04214ee895095", "2d8fbec628970e30"},
   {"bf137005bb2e45cd", "f0d461b0eb477f0b", "39cc0fd2ae02f8ce", "57e3b5076a3ab64c"}},
  {"hsort",
   {"83a3d5675e970746", "e35241b707c1f67c", "bb1b9e946dc969e0", "068a59c82a2d99ce"},
   {"cd44a88063b975f1", "9a287e80de52494d", "f7460c947942b054", "577ff5857f2ef207"}},
  {"hanoi",
   {"07c8435e3011cbee", "b23c00632d76c6c7", "a2e4f910a8de5f44", "18e2339b91a0fd29"},
   {"cc4065b9cd16c7a4", "843ff531454c9a3f", "2793d45a1e90c7ad", "24426de5553710f5"}},
  {"nsieve",
   {"1f2be9cc4946bf73", "2ddb61cd72f09f1f", "7f3a6fed1dde052e", "1b359fc4ad6d00a3"},
   {"dc34e05df69395c1", "8f06881773439091", "c3c62e2cfd7a87fd", "c6e710de02753d34"}},
  {"sieve",
   {"0f77fd551d913a71", "bce670f022b99fba", "afb98c7091fa6857", "b844a44ae7d33a49"},
   {"71da11a3b6e3b90d", "64a93562641a5e4b", "5bf7ebe1ce72207f", "14deeaaa4f096e32"}},
  {"initmatrix",
   {"c3ee8c2f18e9fb29", "c8409a89abb59d7b", "e9e84a694463be24", "6f23e7473798515d"},
   {"e23f5e7ec18c9cef", "60d18621fa45a72a", "4ae6bb912c21674e", "b800761a1cfa323a"}},
  {"innerproduct",
   {"fba3243bc57829c2", "755cf64e4904b106", "9b2ff06418b3e7d9", "665007307fcafb83"},
   {"c3b57332cdeaa5ca", "5ce51737ad5f95fd", "ed80ad9da9519823", "aed54a4f6853dc4e"}},
  {"intmm",
   {"734bd86d5e1bcc59", "110fb430bf2d5c59", "de460e2262d347c7", "8da0eb0429f3c407"},
   {"c82d03797330e837", "c11282060140fc87", "2b2e77193833ee8a", "bb28d5bd3072312f"}},
  {"permute",
   {"8c2aa4cbee3f23cc", "bd1f396fee38bf99", "2b8d7be8e65e5fcd", "3b030ac353bda28d"},
   {"96099b148e7e2407", "50dc24c526234f9a", "460eacbb0d220a88", "b1994e8ecc096b08"}},
  {"swap",
   {"cb4ded8ee99cbd6f", "16c962a916c84a2c", "be2eb6f24ec4a410", "d6b9d85f424defa6"},
   {"eb7399bc320421b9", "e9a69e327d58b019", "0d0133cfa7ed7d51", "854f5ed0b85a7af0"}},
  {"initialize",
   {"f15e8c539a9a2626", "e7015c27e7bcad06", "5cad8372189f9686", "2fce21b1063ef7e3"},
   {"2b8bd47863ca4230", "ccf7239f729c48e2", "e3c41a932055a64d", "6a32ca99798ff280"}},
  {"perm",
   {"939e53c596afec18", "d169843aabd18c25", "221f62c740621d83", "930c6a353e7490f6"},
   {"5605225e6fd0c688", "ab852aa40941746e", "bd79ebd6f416a102", "e4f11082873ceea4"}},
  {"fit",
   {"0b26f50c41d242c5", "5523c76d0d566d4e", "2adceda5a1670a6f", "4df7b5a57610a213"},
   {"42439aeac39972e8", "07f2651763eb7ee1", "41191bb650baa0d4", "6fbac74bc99f2d3b"}},
  {"place",
   {"c1caf9f3d576f9c4", "e61963ccd3db1eef", "187d186bf537c48b", "b303881c8d553fa6"},
   {"e0633a625a9c67e7", "5b133374c2f57250", "4297b87647e686e5", "948871955120a965"}},
  {"trial",
   {"e350797154da461e", "793d7630e6a08ef0", "2f7557003cc0badc", "e66911fc2cfd02e0"},
   {"7a571c6001c62ab9", "ea540aa5c3c3cdc3", "9c234cf6a67e5438", "b92011def4b25208"}},
  {"remove",
   {"6b10c1c676cab58a", "44256b832fec1cfe", "3115feaa397f21fe", "a8f5fa1fafeae610"},
   {"16503abec53d927a", "1c6f39767c15798b", "73fb201b5eb06792", "d1e374cc0dbbce71"}},
  {"puzzle",
   {"53bf4a2601db07a0", "56247f6e525b392b", "5ff89c973d7e5b2f", "1653a881b028c0f9"},
   {"b8754056b9b963c4", "01c6d5e4c4204c14", "99fb54f0b3435d06", "7bc67647e4463ae1"}},
  {"queens",
   {"2e15c2cee0d0a646", "77e2ff26e4a0d607", "376a7f1047924fa2", "1449231c82979cbd"},
   {"48ceee012b49bdcd", "f69794debe30a607", "f596faf26b3c1d9c", "3d50143750e6ca2d"}},
  {"try",
   {"7d18836c7bbcf10b", "9dff9abf34e376f5", "ce35baccfcf0afb6", "e18a1e04cd4604d6"},
   {"60d23f08a6f684ba", "cf27d48a8552d344", "c24473054de55fef", "b3fd26d81bf173cd"}},
  {"doit",
   {"b42f4d1a8e9a9e8b", "9453ce3febadc13b", "337ef11061188c73", "f7eb9294317b2299"},
   {"965c1eaa9afcfdca", "c30903de48b4324a", "131e3cba522c7f33", "39d892879299e01a"}},
};
// clang-format on

class GoldenTable1 : public ::testing::TestWithParam<Golden> {};

TEST_P(GoldenTable1, AllocatedIlocMatchesRecordedHash) {
  const Golden &G = GetParam();
  const BenchProgram *P = findBenchProgram(G.Name);
  ASSERT_NE(P, nullptr) << G.Name;
  for (unsigned I = 0; I != 4; ++I) {
    EXPECT_EQ(allocatedHash(P->Source, AllocatorKind::Rap, Ks[I]), G.Rap[I])
        << G.Name << " RAP k=" << Ks[I];
    EXPECT_EQ(allocatedHash(P->Source, AllocatorKind::Gra, Ks[I]), G.Gra[I])
        << G.Name << " GRA k=" << Ks[I];
  }
}

INSTANTIATE_TEST_SUITE_P(
    Table1, GoldenTable1, ::testing::ValuesIn(Table1Hashes),
    [](const ::testing::TestParamInfo<Golden> &Info) {
      return std::string(Info.param.Name);
    });

//===----------------------------------------------------------------------===//
// Stats and trace hashes
//===----------------------------------------------------------------------===//

/// The option sets the stats hashes cover: the Table 1 defaults, the three
/// RAP phase ablations, and the two extensions.
AllocOptions statsOptionSet(unsigned Set) {
  AllocOptions O;
  switch (Set) {
  case 1:
    O.SpillMovement = false;
    break;
  case 2:
    O.Peephole = false;
    break;
  case 3:
    O.GlobalCleanup = false;
    break;
  case 4:
    O.Coalesce = true;
    break;
  case 5:
    O.PeepholeForGra = true;
    break;
  }
  return O;
}
constexpr unsigned NumStatsOptionSets = 6;

/// FNV hash of \p Source's rap-stats-v1 documents, with the wall-clock
/// "timing" and "timers" sections erased, and its normalized Chrome traces,
/// over {RAP, GRA} x k in {3, 9} x every statsOptionSet.
std::string statsHash(const std::string &Source) {
  Hasher H;
  for (AllocatorKind Kind : {AllocatorKind::Rap, AllocatorKind::Gra}) {
    for (unsigned K : {3u, 9u}) {
      for (unsigned Set = 0; Set != NumStatsOptionSets; ++Set) {
        telemetry::Telemetry Telem;
        CompileOptions Options;
        Options.Allocator = Kind;
        Options.Alloc = statsOptionSet(Set);
        Options.Alloc.K = K;
        Options.Alloc.Telem = &Telem;
        CompileResult CR = compileMiniC(Source, Options);
        EXPECT_TRUE(CR.ok() && !CR.degraded()) << CR.Errors;
        ReportMeta Meta;
        Meta.Allocator = Kind == AllocatorKind::Rap ? "rap" : "gra";
        Meta.K = K;
        json::Value Doc = statsJson(CR, Meta);
        Doc.asObject().erase("timing");
        Doc.asObject().erase("timers");
        H.str(Doc.str(1));
        H.str(test::normalizedTrace(Telem));
      }
    }
  }
  return hashHex(H.value());
}

struct GoldenStats {
  const char *Name;
  const char *Hash;
};

/// Prints the routine name, for stable test names (see Golden's PrintTo).
void PrintTo(const GoldenStats &G, std::ostream *OS) { *OS << G.Name; }

// clang-format off
const GoldenStats Table1StatsHashes[] = {
  {"loop1", "138fb39669a24fa4"},
  {"loop2", "144c92aca8aec629"},
  {"loop3", "5bf96ab93ea526eb"},
  {"loop4", "15b63617dfd9e5c8"},
  {"loop5", "b36fbc5839e37c46"},
  {"loop6", "e80a7c39698467b0"},
  {"loop7", "99f84544106ff2e9"},
  {"loop9", "9889bf7daeee2a73"},
  {"loop10", "e45baf8a8c569800"},
  {"loop11", "7a285e6cf724b015"},
  {"loop12", "142d4350940e8e77"},
  {"loop21", "6debc82b22a76779"},
  {"loop22", "04d353a3fb144175"},
  {"daxpy", "935999e8fa621e9e"},
  {"ddot", "5faac82ac5b25e5c"},
  {"dscal", "746802788eaa9fea"},
  {"idamax", "55bcf33fd0b063ff"},
  {"dmxpy", "0516e6e979ef627a"},
  {"hsort", "2aaec9c28a2eac91"},
  {"hanoi", "83c71a5778525c79"},
  {"nsieve", "c46281c22a77f9a1"},
  {"sieve", "8d42cb03d21e0a44"},
  {"initmatrix", "bd65384934b0f4a7"},
  {"innerproduct", "a6dbd86456d7ee9f"},
  {"intmm", "f8d216a264912681"},
  {"permute", "860491d1df637338"},
  {"swap", "6124b247bf06886d"},
  {"initialize", "419ad5cfabdc6bd7"},
  {"perm", "22c6fd44e195eb8b"},
  {"fit", "7c31fca407aa0d39"},
  {"place", "ccfabe71249fd33a"},
  {"trial", "72e3019de8e23304"},
  {"remove", "aebde4859a32c91d"},
  {"puzzle", "d0b1c8168448b74d"},
  {"queens", "12b77dc057d9fd97"},
  {"try", "fa8bebdd383d03c6"},
  {"doit", "f77a352bdce52e5c"},
};
// clang-format on

class GoldenStatsTable1 : public ::testing::TestWithParam<GoldenStats> {};

TEST_P(GoldenStatsTable1, StatsAndTraceMatchRecordedHash) {
  const GoldenStats &G = GetParam();
  const BenchProgram *P = findBenchProgram(G.Name);
  ASSERT_NE(P, nullptr) << G.Name;
  EXPECT_EQ(statsHash(P->Source), G.Hash) << G.Name;
}

INSTANTIATE_TEST_SUITE_P(
    Table1, GoldenStatsTable1, ::testing::ValuesIn(Table1StatsHashes),
    [](const ::testing::TestParamInfo<GoldenStats> &Info) {
      return std::string(Info.param.Name);
    });

//===----------------------------------------------------------------------===//
// Random programs through the spill-code passes
//===----------------------------------------------------------------------===//

/// FNV hash of fuzz::RandomProgramBuilder seeds [FirstSeed, FirstSeed + 10)
/// allocated at k in {3, 5} under four configurations: RAP with its
/// defaults, RAP without movement, RAP without the dataflow cleanup, and
/// GRA with the Figure 6 peephole. Each compile adds its functions (see
/// hashFunctions) and the movement, peephole and cleanup counters.
std::string randomBlockHash(unsigned FirstSeed) {
  Hasher H;
  for (unsigned Seed = FirstSeed; Seed != FirstSeed + 10; ++Seed) {
    std::string Src = fuzz::RandomProgramBuilder(Seed).build();
    for (unsigned K : {3u, 5u}) {
      for (unsigned Config = 0; Config != 4; ++Config) {
        CompileOptions Options;
        Options.Allocator =
            Config == 3 ? AllocatorKind::Gra : AllocatorKind::Rap;
        Options.Alloc.K = K;
        Options.Alloc.SpillMovement = Config != 1;
        Options.Alloc.GlobalCleanup = Config != 2;
        Options.Alloc.PeepholeForGra = Config == 3;
        CompileResult CR = compileMiniC(Src, Options);
        EXPECT_TRUE(CR.ok() && !CR.degraded())
            << "seed " << Seed << " k=" << K << " config " << Config << ": "
            << CR.Errors;
        if (!CR.ok())
          return "";
        hashFunctions(H, *CR.Prog);
        const AllocStats &S = CR.Alloc;
        for (unsigned C :
             {S.HoistedLoads, S.SunkStores, S.MovementRemovedLoads,
              S.MovementRemovedStores, S.PeepholeRemovedLoads,
              S.PeepholeRemovedStores, S.PeepholeLoadsToCopies,
              S.CleanupRemovedLoads, S.CleanupRemovedStores,
              S.CleanupLoadsToCopies, S.CleanupIterations})
          H.u32(C);
      }
    }
  }
  return hashHex(H.value());
}

struct GoldenRandomBlock {
  unsigned FirstSeed;
  const char *Hash;
};

void PrintTo(const GoldenRandomBlock &G, std::ostream *OS) {
  *OS << "seeds " << G.FirstSeed << "-" << G.FirstSeed + 9;
}

// clang-format off
const GoldenRandomBlock RandomHashes[] = {
  {0, "ab7f3e6f7ca7d407"},  {10, "0a81fe5e619c1cd4"},
  {20, "e22d8dc631df273f"}, {30, "372af085bbbc846b"},
  {40, "5a5ae3598ce3fbce"}, {50, "972ef6e7dce90290"},
  {60, "b1c5760becff9a58"}, {70, "19a30bcedfe8c8e7"},
  {80, "ca4ca0cc1de168c0"}, {90, "408bdf30d06343b7"},
};
// clang-format on

class GoldenRandom : public ::testing::TestWithParam<GoldenRandomBlock> {};

TEST_P(GoldenRandom, AllocatedIlocAndPassCountersMatchRecordedHash) {
  const GoldenRandomBlock &G = GetParam();
  EXPECT_EQ(randomBlockHash(G.FirstSeed), G.Hash)
      << "seeds " << G.FirstSeed << "-" << G.FirstSeed + 9;
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, GoldenRandom, ::testing::ValuesIn(RandomHashes),
    [](const ::testing::TestParamInfo<GoldenRandomBlock> &Info) {
      return "seeds_" + std::to_string(Info.param.FirstSeed) + "_" +
             std::to_string(Info.param.FirstSeed + 9);
    });

//===----------------------------------------------------------------------===//
// The interpreter's decoded buffers
//===----------------------------------------------------------------------===//

/// Adds decodeFunction's output for every function of \p Prog to \p H:
/// each DecOp member by name (the struct has padding, so not its bytes),
/// each constant by kind and bits, and the argument pairs.
void hashDecoded(Hasher &H, const IlocProgram &Prog) {
  for (const auto &F : Prog.functions()) {
    const LinearCode Code = linearize(*F);
    const interp::DecodedFunc Dec = interp::decodeFunction(Prog, Code);
    H.u64(Dec.Ops.size());
    for (const interp::DecOp &D : Dec.Ops) {
      H.u32(static_cast<uint32_t>(D.Op));
      H.u32(D.NumInstrs);
      for (uint32_t Field : {D.Dst, D.A, D.B, D.Aux})
        H.u32(Field);
      for (int32_t Field : {D.X, D.Y, D.Z})
        H.u32(static_cast<uint32_t>(Field));
      H.u32(D.LinPos);
      H.u32(D.SuffixCycles);
    }
    H.u64(Dec.Consts.size());
    for (const RtValue &V : Dec.Consts) {
      H.boolean(V.isFloat());
      H.u64(V.isFloat() ? std::bit_cast<uint64_t>(V.rawFloat())
                        : static_cast<uint64_t>(V.rawInt()));
    }
    H.u64(Dec.ArgPairs.size());
    for (uint32_t P : Dec.ArgPairs)
      H.u32(P);
  }
}

/// FNV hash of the decoded buffers of \p Sources: unallocated, and under
/// RAP and GRA at every k in \p Ks.
std::string decodedHash(const std::vector<std::string> &Sources,
                        std::initializer_list<unsigned> Ks) {
  Hasher H;
  for (const std::string &Source : Sources) {
    for (AllocatorKind Kind :
         {AllocatorKind::None, AllocatorKind::Rap, AllocatorKind::Gra}) {
      for (unsigned K : Ks) {
        CompileOptions Options;
        Options.Allocator = Kind;
        Options.Alloc.K = K;
        CompileResult CR = compileMiniC(Source, Options);
        EXPECT_TRUE(CR.ok() && !CR.degraded()) << CR.Errors;
        if (!CR.ok())
          return "";
        hashDecoded(H, *CR.Prog);
        if (Kind == AllocatorKind::None)
          break; // k does not change unallocated code
      }
    }
  }
  return hashHex(H.value());
}

/// One Table 1 routine at k in {3, 5, 7, 9}, or (Routine null) the random
/// programs of seeds [FirstSeed, FirstSeed + 10) at k in {3, 5}, the block
/// that GoldenRandom pins.
struct GoldenDecoded {
  const char *Routine;
  unsigned FirstSeed;
  const char *Hash;
};

/// Prints the routine or the seed block, for stable test names (see
/// Golden's PrintTo).
void PrintTo(const GoldenDecoded &G, std::ostream *OS) {
  if (G.Routine)
    *OS << G.Routine;
  else
    *OS << "seeds " << G.FirstSeed << "-" << G.FirstSeed + 9;
}

// clang-format off
const GoldenDecoded Table1DecodeHashes[] = {
  {"loop1", 0, "b597e5e3bb117a3e"}, {"loop2", 0, "cb074cc2c669d4d2"},
  {"loop3", 0, "98b8f5a15d614b97"}, {"loop4", 0, "56629a2f7cc466a4"},
  {"loop5", 0, "94a83c4ebd8186ad"}, {"loop6", 0, "b257e41d15c1662d"},
  {"loop7", 0, "8a02524a4a891aac"}, {"loop9", 0, "3931bd812fb0a637"},
  {"loop10", 0, "20b6687c6a28d3ca"}, {"loop11", 0, "09a224697959d744"},
  {"loop12", 0, "66a64616ee5b4a48"}, {"loop21", 0, "288d70fc3b7f1e09"},
  {"loop22", 0, "3b97e64ac6e12653"}, {"daxpy", 0, "9070648c5166d70d"},
  {"ddot", 0, "9cc13037806f1de9"}, {"dscal", 0, "402d3e22f1728f25"},
  {"idamax", 0, "faaf276b9b86c9be"}, {"dmxpy", 0, "b1fe48b01596e68e"},
  {"hsort", 0, "f4448bb290e404cd"}, {"hanoi", 0, "15550eae2a75b825"},
  {"nsieve", 0, "291606afd61705f7"}, {"sieve", 0, "b3b02ae5bda30247"},
  {"initmatrix", 0, "0fb72b12e9a79ccb"}, {"innerproduct", 0, "e213e3edd85815a2"},
  {"intmm", 0, "9cc9528e6226362b"}, {"permute", 0, "b4ab6cffd25443e9"},
  {"swap", 0, "891c29de70561398"}, {"initialize", 0, "093f4c3250b26ac0"},
  {"perm", 0, "f1273fba3e1a8e99"}, {"fit", 0, "b1d84fc6aeaaa2d6"},
  {"place", 0, "48a9c06fc9e84171"}, {"trial", 0, "c1c1a69763cb8a84"},
  {"remove", 0, "c1624e6b77c60177"}, {"puzzle", 0, "43e77ae844b829ac"},
  {"queens", 0, "0e8d049ceef7671c"}, {"try", 0, "58cd1c82da4c4768"},
  {"doit", 0, "e6893463ece7562f"},
};
const GoldenDecoded RandomDecodeHashes[] = {
  {nullptr, 0, "b1a0ebbf4468d5c4"}, {nullptr, 10, "6c17d37cfae88030"},
  {nullptr, 20, "3ac61efca13c4735"}, {nullptr, 30, "b66db3438c94f3bb"},
  {nullptr, 40, "1cf1dd370dd46259"}, {nullptr, 50, "1ae9263f8efb8855"},
  {nullptr, 60, "fb4ad138313a5d7d"}, {nullptr, 70, "d5dcf8ac8448d3a3"},
  {nullptr, 80, "a05fd14742e3ccad"}, {nullptr, 90, "a0f0616b01191c73"},
};
// clang-format on

class GoldenDecode : public ::testing::TestWithParam<GoldenDecoded> {};

TEST_P(GoldenDecode, DecodedBuffersMatchRecordedHash) {
  const GoldenDecoded &G = GetParam();
  if (G.Routine) {
    const BenchProgram *P = findBenchProgram(G.Routine);
    ASSERT_NE(P, nullptr) << G.Routine;
    EXPECT_EQ(decodedHash({P->Source}, {3, 5, 7, 9}), G.Hash) << G.Routine;
    return;
  }
  std::vector<std::string> Sources;
  for (unsigned Seed = G.FirstSeed; Seed != G.FirstSeed + 10; ++Seed)
    Sources.push_back(fuzz::RandomProgramBuilder(Seed).build());
  EXPECT_EQ(decodedHash(Sources, {3, 5}), G.Hash)
      << "seeds " << G.FirstSeed << "-" << G.FirstSeed + 9;
}

std::string decodeTestName(const ::testing::TestParamInfo<GoldenDecoded> &I) {
  if (I.param.Routine)
    return I.param.Routine;
  return "seeds_" + std::to_string(I.param.FirstSeed) + "_" +
         std::to_string(I.param.FirstSeed + 9);
}

INSTANTIATE_TEST_SUITE_P(Table1, GoldenDecode,
                         ::testing::ValuesIn(Table1DecodeHashes),
                         decodeTestName);
INSTANTIATE_TEST_SUITE_P(Seeds, GoldenDecode,
                         ::testing::ValuesIn(RandomDecodeHashes),
                         decodeTestName);

TEST(GoldenOutput, Table1CoversEveryRoutine) {
  EXPECT_EQ(std::size(Table1Hashes), benchPrograms().size());
  EXPECT_EQ(std::size(Table1StatsHashes), benchPrograms().size());
  EXPECT_EQ(std::size(Table1DecodeHashes), benchPrograms().size());
}

TEST(GoldenOutput, SpillHeavyDeepFunction) {
  // Many regions under k=3 pressure: thousands of spill decisions, region
  // re-visits and outside-the-region fixups.
  fuzz::ScaleProgramConfig C;
  C.Seed = 7;
  C.DeepDepth = 4;
  C.DeepFanout = 3;
  C.PressureVars = 3;
  std::string Src = fuzz::ScaleProgramBuilder(C).buildDeepFunction();
  EXPECT_EQ(allocatedHash(Src, AllocatorKind::Rap, 3), "35efce1a69629777");
}

} // namespace
