//===- tests/blockdiscovery_test.cpp - Basic-block preparation ------------===//

#include "interp/PreparedModule.h"

#include "TestPrograms.h"
#include "bytecode/Assembler.h"

#include <gtest/gtest.h>

#include <sstream>

using namespace jtc;

namespace {

Module singleMethod(std::vector<Instruction> Code, uint32_t Locals = 2) {
  Module M;
  Method Main;
  Main.Name = "main";
  Main.NumLocals = Locals;
  Main.Code = std::move(Code);
  M.Methods.push_back(std::move(Main));
  return M;
}

} // namespace

TEST(BlockDiscoveryTest, StraightLineIsOneBlock) {
  Module M = singleMethod({Instruction(Opcode::Iconst, 1),
                           Instruction(Opcode::Iconst, 2),
                           Instruction(Opcode::Iadd),
                           Instruction(Opcode::Pop),
                           Instruction(Opcode::Halt)});
  PreparedModule PM(M);
  EXPECT_EQ(PM.numBlocks(), 1u);
  EXPECT_EQ(PM.block(0).StartPc, 0u);
  EXPECT_EQ(PM.block(0).EndPc, 5u);
  EXPECT_EQ(PM.blockSize(0), 5u);
}

TEST(BlockDiscoveryTest, ConditionalBranchMakesThreeBlocks) {
  // 0: iconst, 1: ifeq ->4, 2: nop, 3: halt, 4: halt
  Module M = singleMethod({Instruction(Opcode::Iconst, 0),
                           Instruction(Opcode::IfEq, 4),
                           Instruction(Opcode::Nop),
                           Instruction(Opcode::Halt),
                           Instruction(Opcode::Halt)});
  PreparedModule PM(M);
  EXPECT_EQ(PM.numBlocks(), 3u);
  EXPECT_EQ(PM.block(0).EndPc, 2u);       // [0, 2): ends at the branch
  EXPECT_EQ(PM.blockStartingAt(0, 2), 1u); // fallthrough leader
  EXPECT_EQ(PM.blockStartingAt(0, 4), 2u); // branch target leader
}

TEST(BlockDiscoveryTest, CallEndsBlockAndContinuationLeads) {
  Module M = singleMethod({Instruction(Opcode::InvokeStatic, 1),
                           Instruction(Opcode::Halt)});
  Method F;
  F.Name = "f";
  F.Code = {Instruction(Opcode::Return)};
  M.Methods.push_back(std::move(F));
  PreparedModule PM(M);
  // main: [invoke], [halt]; f: [return]
  EXPECT_EQ(PM.numBlocks(), 3u);
  EXPECT_EQ(PM.block(0).EndPc, 1u);
  EXPECT_EQ(PM.blockStartingAt(0, 1), 1u);
  EXPECT_EQ(PM.methodEntryBlock(1), 2u);
}

TEST(BlockDiscoveryTest, FallthroughIntoBranchTargetSplitsBlock) {
  // A backward-branch target in the middle of straight-line code forces a
  // block boundary even though no control transfer precedes it.
  // 0: nop, 1: nop (target), 2: iconst, 3: ifeq -> 1, 4: halt
  Module M = singleMethod({Instruction(Opcode::Nop), Instruction(Opcode::Nop),
                           Instruction(Opcode::Iconst, 0),
                           Instruction(Opcode::IfEq, 1),
                           Instruction(Opcode::Halt)});
  PreparedModule PM(M);
  EXPECT_EQ(PM.numBlocks(), 3u);
  EXPECT_EQ(PM.block(0).EndPc, 1u) << "block falls through into the leader";
  EXPECT_EQ(PM.block(1).StartPc, 1u);
  EXPECT_EQ(PM.block(1).EndPc, 4u);
}

TEST(BlockDiscoveryTest, SwitchTargetsAllLead) {
  Module M = singleMethod({Instruction(Opcode::Iconst, 0),
                           Instruction(Opcode::Tableswitch, 0),
                           Instruction(Opcode::Halt),
                           Instruction(Opcode::Halt),
                           Instruction(Opcode::Halt)});
  SwitchTable T;
  T.Low = 0;
  T.Targets = {2, 3};
  T.DefaultTarget = 4;
  M.Methods[0].SwitchTables.push_back(T);
  PreparedModule PM(M);
  EXPECT_EQ(PM.numBlocks(), 4u);
  EXPECT_EQ(PM.blockStartingAt(0, 2), 1u);
  EXPECT_EQ(PM.blockStartingAt(0, 3), 2u);
  EXPECT_EQ(PM.blockStartingAt(0, 4), 3u);
}

TEST(BlockDiscoveryTest, BlocksPartitionEveryMethod) {
  // Property: blocks tile each method's code exactly, in order, with no
  // gaps or overlaps, and only the last instruction may transfer control.
  for (uint64_t Seed = 1; Seed <= 20; ++Seed) {
    testprog::RandomProgramBuilder Gen(Seed);
    Module M = Gen.build();
    PreparedModule PM(M);
    std::vector<uint32_t> NextStart(M.Methods.size(), 0);
    for (BlockId B = 0; B < PM.numBlocks(); ++B) {
      const BasicBlock &BB = PM.block(B);
      EXPECT_EQ(BB.StartPc, NextStart[BB.MethodId])
          << "seed " << Seed << " block " << B;
      EXPECT_GT(BB.EndPc, BB.StartPc);
      NextStart[BB.MethodId] = BB.EndPc;
      const Method &Mth = M.Methods[BB.MethodId];
      for (uint32_t Pc = BB.StartPc; Pc + 1 < BB.EndPc; ++Pc)
        EXPECT_FALSE(endsBlock(Mth.Code[Pc].Op))
            << "control transfer mid-block at pc " << Pc;
    }
    for (size_t I = 0; I < M.Methods.size(); ++I)
      EXPECT_EQ(NextStart[I], M.Methods[I].Code.size())
          << "method " << I << " not fully tiled";
  }
}

TEST(BlockDiscoveryTest, EntryBlockMatchesEntryMethod) {
  Module M = testprog::countingLoop(3);
  PreparedModule PM(M);
  EXPECT_EQ(PM.entryBlock(), PM.methodEntryBlock(M.EntryMethod));
  EXPECT_EQ(PM.block(PM.entryBlock()).StartPc, 0u);
}

TEST(BlockDiscoveryTest, DumpListsAllBlocks) {
  Module M = testprog::countingLoop(3);
  PreparedModule PM(M);
  std::ostringstream OS;
  PM.dump(OS);
  std::string Out = OS.str();
  EXPECT_NE(Out.find("prepared module"), std::string::npos);
  for (BlockId B = 0; B < PM.numBlocks(); ++B)
    EXPECT_NE(Out.find("block " + std::to_string(B)), std::string::npos);
}

//===----------------------------------------------------------------------===//
// The proof memo sessions share through the PreparedModule
//===----------------------------------------------------------------------===//

TEST(TraceProofMemoTest, KeysOnEntryBlocksAndConfig) {
  TraceProofMemo Memo;
  const std::vector<BlockId> Blocks = {3, 4, 5};
  EXPECT_EQ(Memo.findValidation(2, Blocks, 7), nullptr);
  Memo.addValidation(2, Blocks, 7, {false, 4, 1, "detail"});
  const ValidationProof *P = Memo.findValidation(2, Blocks, 7);
  ASSERT_NE(P, nullptr);
  EXPECT_FALSE(P->Accepted);
  EXPECT_EQ(P->ReasonCode, 4u);
  EXPECT_EQ(P->SegmentIndex, 1u);
  EXPECT_EQ(P->Detail, "detail");
  // Another configuration, entry or block sequence is another proof.
  EXPECT_EQ(Memo.findValidation(2, Blocks, 8), nullptr);
  EXPECT_EQ(Memo.findValidation(1, Blocks, 7), nullptr);
  EXPECT_EQ(Memo.findValidation(2, {3, 4}, 7), nullptr);
  // The first proof stored wins; the memo never changes an entry.
  Memo.addValidation(2, Blocks, 7, {true, 0, 0, ""});
  EXPECT_EQ(Memo.findValidation(2, Blocks, 7), P);
  EXPECT_FALSE(P->Accepted);

  EXPECT_EQ(Memo.findElisions(2, Blocks), nullptr);
  Memo.addElisions(2, Blocks, {{1, 6, MemElision::Full}});
  const std::vector<MemElision> *E = Memo.findElisions(2, Blocks);
  ASSERT_NE(E, nullptr);
  ASSERT_EQ(E->size(), 1u);
  EXPECT_EQ((*E)[0].Pc, 6u);
  EXPECT_EQ(Memo.size(), 2u);
}

TEST(TraceProofMemoTest, StopsAtItsEntryBudget) {
  TraceProofMemo Memo(3);
  EXPECT_EQ(Memo.budget(), 3u);
  Memo.addValidation(0, {1, 2}, 0, {});
  Memo.addElisions(0, {1, 2}, {});
  Memo.addValidation(0, {2, 3}, 0, {});
  EXPECT_EQ(Memo.size(), 3u);
  // Full: both maps refuse new entries, and what is stored stays.
  Memo.addValidation(0, {3, 4}, 0, {});
  Memo.addElisions(0, {2, 3}, {});
  EXPECT_EQ(Memo.size(), 3u);
  EXPECT_EQ(Memo.findValidation(0, {3, 4}, 0), nullptr);
  EXPECT_EQ(Memo.findElisions(0, {2, 3}), nullptr);
  EXPECT_NE(Memo.findValidation(0, {1, 2}, 0), nullptr);
  EXPECT_NE(Memo.findElisions(0, {1, 2}), nullptr);
  EXPECT_NE(Memo.findValidation(0, {2, 3}, 0), nullptr);
}

TEST(TraceProofMemoTest, EveryPreparedModuleGetsTheFixedBudget) {
  Module M = testprog::hotLoop(10);
  PreparedModule PM(M);
  EXPECT_EQ(PM.proofs().budget(), TraceProofMemo::ModuleBudget);
  EXPECT_EQ(PM.proofs().size(), 0u);
}
