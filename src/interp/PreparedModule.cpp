//===- interp/PreparedModule.cpp ------------------------------------------===//

#include "interp/PreparedModule.h"

using namespace jtc;

PreparedModule::PreparedModule(const Module &Mod) : M(&Mod) {
  LeaderToBlock.resize(Mod.Methods.size());

  for (uint32_t MethodId = 0; MethodId < Mod.Methods.size(); ++MethodId) {
    const Method &Mth = Mod.Methods[MethodId];
    auto CodeSize = static_cast<uint32_t>(Mth.Code.size());
    assert(CodeSize > 0 && "prepared methods must have code");

    // Pass 1: mark leaders. Instruction 0 is a leader; so is every branch
    // or switch target, and the instruction after any block-ending
    // instruction (the fallthrough successor or call continuation).
    std::vector<bool> Leader(CodeSize, false);
    Leader[0] = true;
    for (uint32_t Pc = 0; Pc < CodeSize; ++Pc) {
      const Instruction &I = Mth.Code[Pc];
      switch (opKind(I.Op)) {
      case OpKind::Normal:
        break;
      case OpKind::Branch:
      case OpKind::Jump:
        assert(static_cast<uint32_t>(I.A) < CodeSize && "unverified target");
        Leader[static_cast<uint32_t>(I.A)] = true;
        if (Pc + 1 < CodeSize)
          Leader[Pc + 1] = true;
        break;
      case OpKind::Switch: {
        const SwitchTable &T = Mth.SwitchTables[I.A];
        Leader[T.DefaultTarget] = true;
        for (uint32_t Tgt : T.Targets)
          Leader[Tgt] = true;
        if (Pc + 1 < CodeSize)
          Leader[Pc + 1] = true;
        break;
      }
      case OpKind::Call:
      case OpKind::Ret:
      case OpKind::End:
        if (Pc + 1 < CodeSize)
          Leader[Pc + 1] = true;
        break;
      }
    }

    // Pass 2: cut blocks at leaders and block-ending instructions.
    LeaderToBlock[MethodId].assign(CodeSize, InvalidBlockId);
    uint32_t Start = 0;
    for (uint32_t Pc = 0; Pc < CodeSize; ++Pc) {
      bool LastInBlock =
          endsBlock(Mth.Code[Pc].Op) || Pc + 1 == CodeSize || Leader[Pc + 1];
      if (!LastInBlock)
        continue;
      auto Id = static_cast<BlockId>(Blocks.size());
      Blocks.push_back({MethodId, Start, Pc + 1});
      LeaderToBlock[MethodId][Start] = Id;
      Start = Pc + 1;
    }
    EntryBlocks.push_back(LeaderToBlock[MethodId][0]);
    MethodCode.push_back(Mth.Code.data());
  }

  // Pass 3: resolve each block's successors.
  for (BasicBlock &BB : Blocks) {
    const std::vector<BlockId> &Leaders = LeaderToBlock[BB.MethodId];
    if (BB.EndPc < Leaders.size())
      BB.Next = Leaders[BB.EndPc];
    const Instruction &Last = Mod.Methods[BB.MethodId].Code[BB.EndPc - 1];
    OpKind K = opKind(Last.Op);
    if (K == OpKind::Branch || K == OpKind::Jump)
      BB.Taken = Leaders[static_cast<uint32_t>(Last.A)];
  }
}

void PreparedModule::dump(std::ostream &OS) const {
  OS << "prepared module: " << Blocks.size() << " blocks\n";
  for (BlockId B = 0; B < Blocks.size(); ++B) {
    const BasicBlock &BB = Blocks[B];
    OS << "  block " << B << ": method #" << BB.MethodId << " ("
       << M->Methods[BB.MethodId].Name << ") pc [" << BB.StartPc << ", "
       << BB.EndPc << ")\n";
  }
}
