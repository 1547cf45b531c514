//===- ir/RegionTree.cpp - PDG region hierarchy ---------------------------===//
//
// Part of the RAP reproduction of Norris & Pollock, PLDI 1994.
//
//===----------------------------------------------------------------------===//

#include "ir/RegionTree.h"

using namespace rap;

std::vector<Instr *> PdgNode::parentCode() const {
  assert(isRegion() && "parentCode is a region query");
  std::vector<Instr *> Out;
  for (const PdgNode *C : Children) {
    if (C->isStatement()) {
      Out.insert(Out.end(), C->Code.begin(), C->Code.end());
      continue;
    }
    if (C->isPredicate()) {
      Out.insert(Out.end(), C->Code.begin(), C->Code.end());
      if (C->Branch)
        Out.push_back(C->Branch);
    }
  }
  return Out;
}

std::vector<PdgNode *> PdgNode::subregions() const {
  assert(isRegion() && "subregions is a region query");
  std::vector<PdgNode *> Out;
  for (const PdgNode *C : Children) {
    if (C->isRegion()) {
      Out.push_back(const_cast<PdgNode *>(C));
      continue;
    }
    if (C->isPredicate()) {
      if (C->TrueRegion)
        Out.push_back(C->TrueRegion);
      if (C->FalseRegion)
        Out.push_back(C->FalseRegion);
    }
  }
  return Out;
}

void PdgNode::eraseInstrs(const std::set<Instr *> &Dead) {
  forEachNode([&](const PdgNode *N) {
    if (N->isStatement() || N->isPredicate())
      std::erase_if(const_cast<PdgNode *>(N)->Code,
                    [&](Instr *I) { return Dead.count(I) != 0; });
  });
}
