//===- ir/RegionTree.cpp - PDG region hierarchy ---------------------------===//
//
// Part of the RAP reproduction of Norris & Pollock, PLDI 1994.
//
//===----------------------------------------------------------------------===//

#include "ir/RegionTree.h"

using namespace rap;

void PdgNode::eraseInstrs(const std::set<Instr *> &Dead) {
  forEachNode([&](const PdgNode *N) {
    if (N->isStatement() || N->isPredicate())
      std::erase_if(const_cast<PdgNode *>(N)->Code,
                    [&](Instr *I) { return Dead.count(I) != 0; });
  });
}
