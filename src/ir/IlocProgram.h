//===- ir/IlocProgram.h - Whole-program container ---------------*- C++ -*-===//
//
// Part of the RAP reproduction of Norris & Pollock, PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A compiled program: its functions and the layout of global memory
/// (scalars and arrays). Function ids index the Functions vector and are the
/// Callee operand of Call instructions.
///
//===----------------------------------------------------------------------===//

#ifndef RAP_IR_ILOCPROGRAM_H
#define RAP_IR_ILOCPROGRAM_H

#include "ir/IlocFunction.h"

#include <memory>
#include <string>
#include <vector>

namespace rap {

/// One named object in global memory.
struct GlobalVar {
  std::string Name;
  int Addr = 0;      ///< first cell index in global memory
  int Size = 1;      ///< number of cells (1 for scalars)
  TypeKind Elem = TypeKind::Int;
  bool IsArray = false;
};

class IlocProgram {
public:
  IlocFunction *createFunction(std::string Name) {
    Functions.push_back(std::make_unique<IlocFunction>(std::move(Name)));
    return Functions.back().get();
  }

  const std::vector<std::unique_ptr<IlocFunction>> &functions() const {
    return Functions;
  }
  IlocFunction *function(int Id) const { return Functions[Id].get(); }

  /// Swaps function \p Id for \p F (same id, callers keep their Callee
  /// indices) and returns the new pointer. Used by the fault-isolated
  /// allocation driver to restore a pristine clone before falling back;
  /// safe to call concurrently for *distinct* ids (the vector itself is not
  /// resized).
  IlocFunction *replaceFunction(size_t Id, std::unique_ptr<IlocFunction> F) {
    Functions[Id] = std::move(F);
    return Functions[Id].get();
  }

  int functionId(const IlocFunction *F) const {
    for (int I = 0, E = static_cast<int>(Functions.size()); I != E; ++I)
      if (Functions[I].get() == F)
        return I;
    return -1;
  }

  IlocFunction *findFunction(const std::string &Name) const {
    for (const auto &F : Functions)
      if (F->name() == Name)
        return F.get();
    return nullptr;
  }

  /// Reserves \p Size cells of global memory for \p Name and returns the
  /// descriptor.
  const GlobalVar &addGlobal(std::string Name, int Size, TypeKind Elem,
                             bool IsArray) {
    GlobalVar G;
    G.Name = std::move(Name);
    G.Addr = GlobalSize;
    G.Size = Size;
    G.Elem = Elem;
    G.IsArray = IsArray;
    GlobalSize += Size;
    Globals.push_back(G);
    return Globals.back();
  }

  const std::vector<GlobalVar> &globals() const { return Globals; }
  int globalMemorySize() const { return GlobalSize; }

  const GlobalVar *findGlobal(const std::string &Name) const {
    for (const GlobalVar &G : Globals)
      if (G.Name == Name)
        return &G;
    return nullptr;
  }

private:
  std::vector<std::unique_ptr<IlocFunction>> Functions;
  std::vector<GlobalVar> Globals;
  int GlobalSize = 0;
};

} // namespace rap

#endif // RAP_IR_ILOCPROGRAM_H
