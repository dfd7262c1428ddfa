#include "src/graph/executor.h"

#include "src/tensor/gemm.h"
#include "src/tensor/ops.h"
#include "src/util/logging.h"

namespace batchmaker {

CellExecutor::CellExecutor(const CellDef* def) : def_(def) {
  BM_CHECK(def != nullptr);
  BM_CHECK(def->finalized());
  // Pre-pack every MatMul weight whose RHS is an embedded parameter (shape
  // inference guarantees the RHS is unbatched, which in the cell vocabulary
  // means a kParam node). Done once per CellDef, at registration.
  for (int id : def->TopoOrder()) {
    const OpNode& node = def->op(id);
    if (node.kind != OpKind::kMatMul) {
      continue;
    }
    const OpNode& rhs = def->op(node.inputs[1]);
    if (rhs.kind == OpKind::kParam) {
      packed_weights_.emplace(id, PackedMatrix::Pack(rhs.weight));
    }
  }

  // Fusions: a packed MatMul whose only reader is AddBias(matmul, param)
  // takes the bias into its GEMM epilogue; a Concat whose only reader is a
  // packed MatMul's LHS becomes that GEMM's split-K parts.
  const size_t num_ops = static_cast<size_t>(def->NumOps());
  std::vector<int> readers(num_ops, 0);
  for (int id = 0; id < def->NumOps(); ++id) {
    for (int input : def->op(id).inputs) {
      readers[static_cast<size_t>(input)]++;
    }
  }
  for (int i = 0; i < def->NumOutputs(); ++i) {
    readers[static_cast<size_t>(def->output_op(i))]++;  // an output is never fused
  }
  bias_fused_.assign(num_ops, false);
  concat_split_.assign(num_ops, false);
  for (int id = 0; id < def->NumOps(); ++id) {
    const OpNode& node = def->op(id);
    if (node.kind == OpKind::kAddBias && packed_weights_.count(node.inputs[0]) != 0 &&
        readers[static_cast<size_t>(node.inputs[0])] == 1 &&
        def->op(node.inputs[1]).kind == OpKind::kParam) {
      bias_fused_[static_cast<size_t>(node.inputs[0])] = true;
    }
    if (node.kind == OpKind::kMatMul && packed_weights_.count(id) != 0 &&
        def->op(node.inputs[0]).kind == OpKind::kConcat &&
        readers[static_cast<size_t>(node.inputs[0])] == 1) {
      concat_split_[static_cast<size_t>(node.inputs[0])] = true;
    }
  }
}

void CellExecutor::EnsurePacked(Precision p) const {
  if (p != Precision::kInt8) {
    return;
  }
  std::call_once(int8_once_, [this] {
    for (const auto& [id, packed] : packed_weights_) {
      (void)packed;
      const OpNode& rhs = def_->op(def_->op(id).inputs[1]);
      packed_int8_.emplace(id, PackedMatrix::PackInt8(rhs.weight));
    }
  });
}

std::vector<Tensor> CellExecutor::Execute(const std::vector<const Tensor*>& inputs,
                                          const ExecContext* ctx) const {
  const CellDef& def = *def_;
  BM_CHECK_EQ(static_cast<int>(inputs.size()), def.NumInputs());
  ThreadPool* pool = ctx != nullptr ? ctx->pool : nullptr;
  const Precision prec = ctx != nullptr ? ctx->precision : Precision::kF32;
  if (prec != Precision::kF32 && !packed_weights_.empty()) {
    EnsurePacked(prec);
  }
  // Packed weights at this precision, keyed like packed_weights_.
  const std::unordered_map<int, PackedMatrix>& packs =
      prec == Precision::kInt8 ? packed_int8_ : packed_weights_;
  // All intermediates below allocate from the worker's arena while this
  // scope is active; the output copies at the end materialize owned storage.
  ArenaScope arena_scope(ctx != nullptr ? ctx->arena : nullptr);

  // Validate inputs and determine the batch size.
  int64_t batch = -1;
  for (int i = 0; i < def.NumInputs(); ++i) {
    const CellInputSpec& spec = def.input_spec(i);
    const Tensor& t = *inputs[static_cast<size_t>(i)];
    BM_CHECK(t.dtype() == spec.dtype) << "input " << i << " dtype mismatch";
    BM_CHECK(t.shape().RowShape() == spec.row_shape)
        << "input " << i << " row shape " << t.shape().RowShape().ToString() << " != "
        << spec.row_shape.ToString();
    if (batch < 0) {
      batch = t.shape().Dim(0);
    } else {
      BM_CHECK_EQ(batch, t.shape().Dim(0)) << "inputs disagree on batch size";
    }
  }
  BM_CHECK_GT(batch, 0);

  // values[id] points at the tensor produced by op `id`. Computed values are
  // owned by `computed`; inputs and params are referenced in place.
  std::vector<const Tensor*> values(static_cast<size_t>(def.NumOps()), nullptr);
  std::vector<Tensor> computed(static_cast<size_t>(def.NumOps()));

  auto set_computed = [&](int id, Tensor t) {
    computed[static_cast<size_t>(id)] = std::move(t);
    values[static_cast<size_t>(id)] = &computed[static_cast<size_t>(id)];
  };
  const bool split_k = prec == Precision::kF32;
  // The packed GEMM of MatMul `mm_id`, + `bias` when non-null; at fp32 a
  // split Concat's inputs are its parts.
  auto run_gemm = [&](int mm_id, const Tensor* bias) {
    const int lhs = def.op(mm_id).inputs[0];
    std::vector<const Tensor*> parts;
    if (split_k && concat_split_[static_cast<size_t>(lhs)]) {
      for (int input : def.op(lhs).inputs) {
        parts.push_back(values[static_cast<size_t>(input)]);
      }
    } else {
      parts.push_back(values[static_cast<size_t>(lhs)]);
    }
    for (const Tensor* part : parts) {
      BM_CHECK(part != nullptr);
    }
    return MatMulPackedParts(parts, packs.at(mm_id), bias, pool);
  };

  for (int id : def.TopoOrder()) {
    const OpNode& node = def.op(id);
    auto in = [&](size_t i) -> const Tensor& {
      const Tensor* t = values[static_cast<size_t>(node.inputs[i])];
      BM_CHECK(t != nullptr);
      return *t;
    };
    switch (node.kind) {
      case OpKind::kInput:
        values[static_cast<size_t>(id)] = inputs[static_cast<size_t>(node.i0)];
        break;
      case OpKind::kParam:
        values[static_cast<size_t>(id)] = &node.weight;
        break;
      case OpKind::kMatMul:
        if (packed_weights_.count(id) == 0) {
          set_computed(id, MatMul(in(0), in(1)));
        } else if (!bias_fused_[static_cast<size_t>(id)]) {
          set_computed(id, run_gemm(id, nullptr));
        }  // else the reading AddBias runs it
        break;
      case OpKind::kAdd:
        set_computed(id, Add(in(0), in(1)));
        break;
      case OpKind::kSub:
        set_computed(id, Sub(in(0), in(1)));
        break;
      case OpKind::kMul:
        set_computed(id, Mul(in(0), in(1)));
        break;
      case OpKind::kAddBias:
        if (bias_fused_[static_cast<size_t>(node.inputs[0])]) {
          set_computed(id, run_gemm(node.inputs[0], &in(1)));
        } else {
          set_computed(id, AddBias(in(0), in(1)));
        }
        break;
      case OpKind::kSigmoid:
        set_computed(id, Sigmoid(in(0)));
        break;
      case OpKind::kTanh:
        set_computed(id, Tanh(in(0)));
        break;
      case OpKind::kRelu:
        set_computed(id, Relu(in(0)));
        break;
      case OpKind::kSoftmax:
        set_computed(id, Softmax(in(0)));
        break;
      case OpKind::kConcat: {
        if (split_k && concat_split_[static_cast<size_t>(id)]) {
          break;  // read in place by its MatMul
        }
        std::vector<const Tensor*> parts;
        parts.reserve(node.inputs.size());
        for (size_t i = 0; i < node.inputs.size(); ++i) {
          parts.push_back(&in(i));
        }
        set_computed(id, ConcatCols(parts));
        break;
      }
      case OpKind::kSlice:
        set_computed(id, SliceCols(in(0), node.i0, node.i1));
        break;
      case OpKind::kEmbedLookup:
        set_computed(id, EmbeddingLookup(in(0), in(1)));
        break;
      case OpKind::kArgmax:
        set_computed(id, ArgmaxRows(in(0)));
        break;
      case OpKind::kReduceSum:
        set_computed(id, RowSum(in(0)));
        break;
      case OpKind::kMax:
        set_computed(id, MaxElem(in(0), in(1)));
        break;
      case OpKind::kExp:
        set_computed(id, Exp(in(0)));
        break;
      case OpKind::kRecip:
        set_computed(id, Recip(in(0)));
        break;
      case OpKind::kScaleRows:
        set_computed(id, ScaleRows(in(0), in(1)));
        break;
    }
  }

  std::vector<Tensor> outputs;
  outputs.reserve(static_cast<size_t>(def.NumOutputs()));
  for (int i = 0; i < def.NumOutputs(); ++i) {
    const int op_id = def.output_op(i);
    const Tensor* value = values[static_cast<size_t>(op_id)];
    BM_CHECK(value != nullptr);
    // Copy: outputs outlive the executor call, and Tensor's copy
    // constructor materializes owned storage even for arena-backed values.
    outputs.push_back(*value);
  }
  return outputs;
}

}  // namespace batchmaker
