// Tests for src/graph: cell definitions, shape inference, the interpreter,
// the type registry, per-request cell graphs, and JSON serialization.

#include <gtest/gtest.h>

#include <cmath>

#include "src/graph/cell_def.h"
#include "src/graph/cell_graph.h"
#include "src/graph/cell_registry.h"
#include "src/graph/executor.h"
#include "src/graph/serialize.h"
#include "src/util/rng.h"

namespace batchmaker {
namespace {

// A tiny affine+tanh cell: y = tanh(x @ W + b), x in R^2, y in R^3.
std::unique_ptr<CellDef> MakeAffineCell(float w_fill, const std::string& name = "affine") {
  auto def = std::make_unique<CellDef>(name);
  const int x = def->AddInput("x", Shape{2});
  const int w = def->AddParam("W", Tensor::Full(Shape{2, 3}, w_fill));
  const int b = def->AddParam("b", Tensor::Full(Shape{3}, 0.5f));
  const int mm = def->AddOp(OpKind::kMatMul, "mm", {x, w});
  const int lin = def->AddOp(OpKind::kAddBias, "lin", {mm, b});
  const int y = def->AddOp(OpKind::kTanh, "y", {lin});
  def->MarkOutput(y);
  def->Finalize();
  return def;
}

// ---------- CellDef / shape inference ----------

TEST(CellDefTest, FinalizeInfersTypes) {
  auto def = MakeAffineCell(1.0f);
  EXPECT_TRUE(def->finalized());
  EXPECT_EQ(def->NumInputs(), 1);
  EXPECT_EQ(def->NumOutputs(), 1);
  const ValueType& out = def->output_type(0);
  EXPECT_TRUE(out.batched);
  EXPECT_EQ(out.shape, Shape{3});
  EXPECT_EQ(out.dtype, DType::kF32);
}

TEST(CellDefTest, ParamTypeIsUnbatched) {
  auto def = MakeAffineCell(1.0f);
  // Op 1 is the weight param.
  const ValueType& w = def->value_type(1);
  EXPECT_FALSE(w.batched);
  EXPECT_EQ(w.shape, (Shape{2, 3}));
}

TEST(CellDefTest, ConcatAndSliceShapes) {
  auto def = std::make_unique<CellDef>("cs");
  const int a = def->AddInput("a", Shape{2});
  const int b = def->AddInput("b", Shape{3});
  const int cat = def->AddOp(OpKind::kConcat, "cat", {a, b});
  const int slc = def->AddOp(OpKind::kSlice, "slc", {cat}, 1, 4);
  def->MarkOutput(slc);
  def->Finalize();
  EXPECT_EQ(def->value_type(cat).shape, Shape{5});
  EXPECT_EQ(def->value_type(slc).shape, Shape{3});
}

TEST(CellDefTest, EmbedAndArgmaxTypes) {
  Rng rng(1);
  auto def = std::make_unique<CellDef>("ea");
  const int ids = def->AddInput("ids", Shape{1}, DType::kI32);
  const int table = def->AddParam("t", Tensor::RandomUniform(Shape{10, 4}, 1.0f, &rng));
  const int emb = def->AddOp(OpKind::kEmbedLookup, "emb", {table, ids});
  const int am = def->AddOp(OpKind::kArgmax, "am", {emb});
  def->MarkOutput(am);
  def->Finalize();
  EXPECT_EQ(def->value_type(emb).shape, Shape{4});
  EXPECT_EQ(def->value_type(am).dtype, DType::kI32);
  EXPECT_EQ(def->value_type(am).shape, Shape{1});
}

TEST(CellDefDeathTest, MatMulShapeMismatchAborts) {
  auto def = std::make_unique<CellDef>("bad");
  const int x = def->AddInput("x", Shape{2});
  const int w = def->AddParam("W", Tensor::Zeros(Shape{3, 3}));  // wants 2 rows
  def->AddOp(OpKind::kMatMul, "mm", {x, w});
  def->MarkOutput(0);
  EXPECT_DEATH(def->Finalize(), "matmul");
}

TEST(CellDefDeathTest, OutputsRequired) {
  auto def = std::make_unique<CellDef>("noout");
  def->AddInput("x", Shape{2});
  EXPECT_DEATH(def->Finalize(), "no outputs");
}

TEST(CellDefDeathTest, ForwardReferenceRejected) {
  auto def = std::make_unique<CellDef>("fwd");
  def->AddInput("x", Shape{2});
  EXPECT_DEATH(def->AddOp(OpKind::kTanh, "t", {5}), "earlier");
}

TEST(CellDefTest, ContentHashEqualityForIdenticalCells) {
  auto a = MakeAffineCell(1.0f);
  auto b = MakeAffineCell(1.0f);
  EXPECT_EQ(a->ContentHash(), b->ContentHash());
  EXPECT_TRUE(a->ContentEquals(*b));
}

TEST(CellDefTest, DifferentWeightsDifferentContent) {
  auto a = MakeAffineCell(1.0f);
  auto b = MakeAffineCell(2.0f);
  EXPECT_FALSE(a->ContentEquals(*b));
  EXPECT_NE(a->ContentHash(), b->ContentHash());
}

TEST(CellDefTest, FlopsPerRowCountsMatMul) {
  auto def = MakeAffineCell(1.0f);
  // matmul 2*2*3 = 12, bias 3, tanh 4*3 = 12.
  EXPECT_EQ(def->FlopsPerRow(), 12 + 3 + 12);
}

// ---------- Executor ----------

TEST(ExecutorTest, AffineCellComputesCorrectly) {
  auto def = MakeAffineCell(1.0f);
  const CellExecutor exec(def.get());
  const Tensor x = Tensor::FromVector(Shape{2, 2}, {1, 2, 0, 0});
  const auto outputs = exec.Execute({&x});
  ASSERT_EQ(outputs.size(), 1u);
  // Row 0: tanh(1+2+0.5) = tanh(3.5); row 1: tanh(0.5).
  EXPECT_NEAR(outputs[0].At(0, 0), std::tanh(3.5f), 1e-6f);
  EXPECT_NEAR(outputs[0].At(1, 0), std::tanh(0.5f), 1e-6f);
}

TEST(ExecutorTest, BatchRowsIndependent) {
  auto def = MakeAffineCell(0.25f);
  const CellExecutor exec(def.get());
  const Tensor one = Tensor::FromVector(Shape{1, 2}, {3, -1});
  const Tensor two = Tensor::FromVector(Shape{2, 2}, {9, 9, 3, -1});
  const auto single = exec.Execute({&one});
  const auto batched = exec.Execute({&two});
  // Row 1 of the batch matches the single-row run: batching is semantically
  // transparent (the core premise of batching cells across requests).
  for (int c = 0; c < 3; ++c) {
    EXPECT_NEAR(batched[0].At(1, c), single[0].At(0, c), 1e-6f);
  }
}

TEST(ExecutorDeathTest, WrongBatchSizesAbort) {
  Rng rng(2);
  auto def = std::make_unique<CellDef>("two_in");
  const int a = def->AddInput("a", Shape{2});
  const int b = def->AddInput("b", Shape{2});
  def->MarkOutput(def->AddOp(OpKind::kAdd, "s", {a, b}));
  def->Finalize();
  const CellExecutor exec(def.get());
  const Tensor x = Tensor::Zeros(Shape{2, 2});
  const Tensor y = Tensor::Zeros(Shape{3, 2});
  const std::vector<const Tensor*> inputs = {&x, &y};
  EXPECT_DEATH(exec.Execute(inputs), "batch");
}

// ---------- Registry ----------

TEST(RegistryTest, DeduplicatesIdenticalCells) {
  CellRegistry registry;
  const CellTypeId a = registry.Register(MakeAffineCell(1.0f));
  const CellTypeId b = registry.Register(MakeAffineCell(1.0f));
  EXPECT_EQ(a, b);
  EXPECT_EQ(registry.NumTypes(), 1);
}

TEST(RegistryTest, DistinguishesByWeights) {
  CellRegistry registry;
  const CellTypeId a = registry.Register(MakeAffineCell(1.0f));
  const CellTypeId b = registry.Register(MakeAffineCell(2.0f));
  EXPECT_NE(a, b);
  EXPECT_EQ(registry.NumTypes(), 2);
}

TEST(RegistryTest, InfoAndSetters) {
  CellRegistry registry;
  const CellTypeId id = registry.Register(MakeAffineCell(1.0f), /*priority=*/3,
                                          /*max_batch=*/64);
  EXPECT_EQ(registry.info(id).priority, 3);
  EXPECT_EQ(registry.info(id).max_batch, 64);
  registry.SetPriority(id, 9);
  registry.SetMaxBatch(id, 128);
  registry.SetMinBatch(id, 4);
  EXPECT_EQ(registry.info(id).priority, 9);
  EXPECT_EQ(registry.info(id).max_batch, 128);
  EXPECT_EQ(registry.info(id).min_batch, 4);
}

// A batch cap below 1 has no meaning: at 0 the scheduler never forms a
// task, so the request never completes, and at -1 task formation throws.
// Both registration (its dedup path included) and the setter reject it.
TEST(RegistryDeathTest, RegisterRejectsNonPositiveMaxBatch) {
  CellRegistry registry;
  EXPECT_DEATH(registry.Register(MakeAffineCell(1.0f), /*priority=*/0, /*max_batch=*/0),
               "max_batch");
  EXPECT_DEATH(registry.Register(MakeAffineCell(1.0f), /*priority=*/0, /*max_batch=*/-1),
               "max_batch");
  registry.Register(MakeAffineCell(1.0f));
  EXPECT_DEATH(registry.Register(MakeAffineCell(1.0f), /*priority=*/0, /*max_batch=*/0),
               "max_batch");
  EXPECT_DEATH(registry.SetMaxBatch(0, 0), "max_batch");
}

TEST(RegistryTest, FindByName) {
  CellRegistry registry;
  const CellTypeId id = registry.Register(MakeAffineCell(1.0f, "special"));
  EXPECT_EQ(registry.FindByName("special"), id);
  EXPECT_EQ(registry.FindByName("missing"), kInvalidCellType);
}

// ---------- CellGraph ----------

TEST(CellGraphTest, SuccessorsAndPredecessors) {
  CellRegistry registry;
  const CellTypeId t = registry.Register(MakeAffineCell(1.0f));
  CellGraph g;
  const int n0 = g.AddNode(t, {ValueRef::External(0)});
  const int n1 = g.AddNode(t, {ValueRef::Output(n0, 0)});
  const int n2 = g.AddNode(t, {ValueRef::Output(n0, 0)});
  EXPECT_EQ(g.NumNodes(), 3);
  EXPECT_EQ(g.Successors(n0).size(), 2u);
  EXPECT_EQ(g.NumNodePredecessors(n0), 0);
  EXPECT_EQ(g.NumNodePredecessors(n1), 1);
  EXPECT_EQ(g.NumNodePredecessors(n2), 1);
}

TEST(CellGraphTest, DuplicateEdgeCountsOnce) {
  CellRegistry registry;
  // Cell with two inputs of the same shape.
  auto def = std::make_unique<CellDef>("pair");
  const int a = def->AddInput("a", Shape{3});
  const int b = def->AddInput("b", Shape{3});
  def->MarkOutput(def->AddOp(OpKind::kAdd, "s", {a, b}));
  def->Finalize();
  const CellTypeId t = registry.Register(std::move(def));

  CellGraph g;
  const int n0 = g.AddNode(t, {ValueRef::External(0), ValueRef::External(1)});
  const int n1 = g.AddNode(t, {ValueRef::Output(n0, 0), ValueRef::Output(n0, 0)});
  EXPECT_EQ(g.NumNodePredecessors(n1), 1);
  EXPECT_EQ(g.Successors(n0).size(), 1u);
}

TEST(CellGraphDeathTest, ValidateCatchesBadExternal) {
  CellRegistry registry;
  const CellTypeId t = registry.Register(MakeAffineCell(1.0f));
  CellGraph g;
  g.AddNode(t, {ValueRef::External(5)});
  EXPECT_DEATH(g.Validate(registry, /*num_externals=*/1), "external");
}

TEST(CellGraphDeathTest, ValidateCatchesArityMismatch) {
  CellRegistry registry;
  const CellTypeId t = registry.Register(MakeAffineCell(1.0f));
  CellGraph g;
  g.AddNode(t, {ValueRef::External(0), ValueRef::External(1)});
  EXPECT_DEATH(g.Validate(registry, 2), "arity");
}

TEST(CellGraphTest, NumExternalsReferenced) {
  CellRegistry registry;
  const CellTypeId t = registry.Register(MakeAffineCell(1.0f));
  CellGraph g;
  g.AddNode(t, {ValueRef::External(4)});
  EXPECT_EQ(g.NumExternalsReferenced(), 5);
}

// ---------- Serialization ----------

TEST(SerializeTest, RoundTripPreservesContent) {
  auto def = MakeAffineCell(1.25f);
  const std::string text = CellDefToJsonText(*def);
  auto parsed = CellDefFromJsonText(text);
  EXPECT_TRUE(parsed->finalized());
  EXPECT_TRUE(def->ContentEquals(*parsed));
  EXPECT_EQ(def->ContentHash(), parsed->ContentHash());
}

TEST(SerializeTest, RoundTripExecutesIdentically) {
  Rng rng(7);
  auto def = std::make_unique<CellDef>("rt");
  const int ids = def->AddInput("ids", Shape{1}, DType::kI32);
  const int table = def->AddParam("t", Tensor::RandomUniform(Shape{6, 3}, 1.0f, &rng));
  const int emb = def->AddOp(OpKind::kEmbedLookup, "emb", {table, ids});
  def->MarkOutput(def->AddOp(OpKind::kTanh, "y", {emb}));
  def->Finalize();

  auto parsed = CellDefFromJsonText(CellDefToJsonText(*def));
  const CellExecutor exec_a(def.get());
  const CellExecutor exec_b(parsed.get());
  const Tensor in = Tensor::FromIntVector(Shape{2, 1}, {3, 5});
  const auto out_a = exec_a.Execute({&in});
  const auto out_b = exec_b.Execute({&in});
  EXPECT_TRUE(out_a[0].AllClose(out_b[0], 1e-6f));
}

TEST(SerializeTest, RegistryDeduplicatesAcrossSerializationBoundary) {
  CellRegistry registry;
  auto def = MakeAffineCell(0.75f);
  auto parsed = CellDefFromJsonText(CellDefToJsonText(*def));
  const CellTypeId a = registry.Register(std::move(def));
  const CellTypeId b = registry.Register(std::move(parsed));
  EXPECT_EQ(a, b);
}

TEST(SerializeDeathTest, RejectsWrongFormatTag) {
  EXPECT_DEATH(CellDefFromJsonText(R"({"name":"x","format":"other"})"), "batchmaker cell");
}

}  // namespace
}  // namespace batchmaker
