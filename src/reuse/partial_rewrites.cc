#include "reuse/partial_rewrites.h"

#include <cmath>

#include "common/timer.h"
#include "matrix/aggregates.h"
#include "matrix/elementwise.h"
#include "matrix/indexing.h"
#include "matrix/matmul.h"
#include "matrix/reorg.h"
#include "reuse/lineage_cache.h"
#include "runtime/kernels.h"

namespace lima {

namespace {

/// The lineage opcodes this rewrite pass pattern-matches on, interned once.
/// All structural probes below are O(1) id comparisons.
struct RewriteOps {
  OpcodeId fill = InternOpcode("fill");
  OpcodeId rbind = InternOpcode("rbind");
  OpcodeId cbind = InternOpcode("cbind");
  OpcodeId tsmm = InternOpcode("tsmm");
  OpcodeId mm = InternOpcode("mm");
  OpcodeId transpose = InternOpcode("t");
  OpcodeId rightindex = InternOpcode("rightindex");
  OpcodeId nrow = InternOpcode("nrow");
  OpcodeId add = InternOpcode("+");
  OpcodeId sub = InternOpcode("-");
  OpcodeId mul = InternOpcode("*");
  OpcodeId div = InternOpcode("/");
  OpcodeId min = InternOpcode("min");
  OpcodeId max = InternOpcode("max");
};

const RewriteOps& Op() {
  static const RewriteOps* ops = new RewriteOps();
  return *ops;
}

MatrixPtr PeekMatrix(LineageCache* cache, const LineageItemPtr& item) {
  DataPtr data = cache->Peek(item);
  if (data == nullptr || data->type() != DataType::kMatrix) return nullptr;
  return static_cast<const MatrixData*>(data.get())->matrix();
}

MatrixPtr InputMatrix(const DataPtr& data) {
  if (data == nullptr || data->type() != DataType::kMatrix) return nullptr;
  return static_cast<const MatrixData*>(data.get())->matrix();
}

/// Parses an integer literal lineage leaf ("I5"/"D5"), or -1.
int64_t LiteralInt(const LineageItemPtr& item) {
  if (item == nullptr || !item->is_literal()) return -1;
  Result<ScalarValue> value = ScalarValue::DecodeLineageLiteral(item->data());
  if (!value.ok() || !value.ValueOrDie().is_numeric()) return -1;
  double v = value.ValueOrDie().AsDouble();
  if (v != std::floor(v)) return -1;
  return static_cast<int64_t>(v);
}

/// Is this lineage a fill(1, r, 1) — i.e. a column of ones?
bool IsOnesColumn(const LineageItemPtr& item) {
  if (item == nullptr || item->opcode_id() != Op().fill) return false;
  if (item->inputs().size() != 3) return false;
  return LiteralInt(item->inputs()[0]) == 1 &&
         LiteralInt(item->inputs()[2]) == 1;
}

void PutMatrix(LineageCache* cache, const LineageItemPtr& key, Matrix value,
               double seconds) {
  cache->Put(key, MakeMatrixData(std::move(value)), seconds);
}

/// True when some node on the left spine of an rbind chain has a cached
/// tsmm (cheap precheck before engaging the recursive compensation).
bool SpineHasCachedTsmm(LineageCache* cache, const LineageItemPtr& item) {
  LineageItemPtr node = item;
  for (int depth = 0; depth < 16; ++depth) {
    if (node->opcode_id() != Op().rbind) break;
    const LineageItemPtr& prefix = node->inputs()[0];
    if (cache->Peek(LineageItem::Create(Op().tsmm, {prefix})) != nullptr) {
      return true;
    }
    node = prefix;
  }
  return false;
}

/// Depth of the left-deep rbind spine (0 for non-rbind items).
int RbindChainDepth(const LineageItemPtr& item) {
  int depth = 0;
  LineageItemPtr node = item;
  while (depth < 16 && node->opcode_id() == Op().rbind) {
    ++depth;
    node = node->inputs()[0];
  }
  return depth;
}

/// Computes tsmm(item) for `value`, descending left-deep rbind chains:
/// per-level results are probed from and inserted into the cache, and
/// `reused` reports whether any cached component was found.
MatrixPtr ComputeTsmmChain(LineageCache* cache, const LineageItemPtr& item,
                           const MatrixPtr& value, const ParallelContext* par, int depth,
                           bool* reused) {
  LineageItemPtr key = LineageItem::Create(Op().tsmm, {item});
  MatrixPtr cached = PeekMatrix(cache, key);
  if (cached != nullptr && cached->cols() == value->cols()) {
    *reused = true;
    return cached;
  }
  if (depth < 16 && item->opcode_id() == Op().rbind) {
    const LineageItemPtr& a_item = item->inputs()[0];
    const LineageItemPtr& b_item = item->inputs()[1];
    MatrixPtr a_val = PeekMatrix(cache, a_item);
    MatrixPtr b_val = PeekMatrix(cache, b_item);
    int64_t r1 = -1;
    if (a_val != nullptr) {
      r1 = a_val->rows();
    } else if (b_val != nullptr) {
      r1 = value->rows() - b_val->rows();
    }
    if (r1 > 0 && r1 < value->rows()) {
      if (a_val == nullptr) {
        Result<Matrix> slice = RightIndex(*value, 1, r1, 1, value->cols());
        if (slice.ok()) a_val = MakeMatrixPtr(std::move(slice).ValueOrDie());
      }
      if (b_val == nullptr) {
        Result<Matrix> slice =
            RightIndex(*value, r1 + 1, value->rows(), 1, value->cols());
        if (slice.ok()) b_val = MakeMatrixPtr(std::move(slice).ValueOrDie());
      }
      if (a_val != nullptr && b_val != nullptr &&
          a_val->cols() == value->cols() && b_val->cols() == value->cols()) {
        StopWatch watch;
        MatrixPtr ta =
            ComputeTsmmChain(cache, a_item, a_val, par, depth + 1, reused);
        MatrixPtr tb =
            ComputeTsmmChain(cache, b_item, b_val, par, depth + 1, reused);
        if (ta != nullptr && tb != nullptr) {
          Result<Matrix> sum = EwiseBinary(BinaryOp::kAdd, *ta, *tb);
          if (sum.ok()) {
            MatrixPtr out = MakeMatrixPtr(std::move(sum).ValueOrDie());
            cache->Put(key, MakeMatrixData(out), watch.ElapsedSeconds());
            return out;
          }
        }
      }
    }
  }
  StopWatch watch;
  MatrixPtr out = MakeMatrixPtr(Tsmm(*value, /*left=*/true, par));
  cache->Put(key, MakeMatrixData(out), watch.ElapsedSeconds());
  return out;
}

DataPtr RewriteTsmm(LineageCache* cache, const LineageItemPtr& key,
                    const std::vector<DataPtr>& inputs,
                    const ParallelContext* par) {
  const LineageItemPtr& composed = key->inputs()[0];
  MatrixPtr z = InputMatrix(inputs[0]);
  if (z == nullptr) return nullptr;

  if (composed->opcode_id() == Op().cbind) {
    // tsmm(cbind(A,B)) -> [[tsmm(A), t(A)B], [t(B)A, tsmm(B)]].
    const LineageItemPtr& a_item = composed->inputs()[0];
    const LineageItemPtr& b_item = composed->inputs()[1];
    LineageItemPtr taa_key = LineageItem::Create(Op().tsmm, {a_item});
    MatrixPtr taa = PeekMatrix(cache, taa_key);
    if (taa == nullptr) return nullptr;
    int64_t c1 = taa->cols();
    if (c1 <= 0 || c1 >= z->cols()) return nullptr;

    StopWatch watch;
    Result<Matrix> a = RightIndex(*z, 1, z->rows(), 1, c1);
    Result<Matrix> b = RightIndex(*z, 1, z->rows(), c1 + 1, z->cols());
    if (!a.ok() || !b.ok()) return nullptr;
    Result<Matrix> tab = TransposeMatMul(*a, *b, par);
    if (!tab.ok()) return nullptr;
    Matrix tbb = Tsmm(*b, /*left=*/true, par);
    double seconds = watch.ElapsedSeconds();
    PutMatrix(cache, LineageItem::Create(Op().tsmm, {b_item}), tbb, seconds);

    return MakeMatrixData(AssembleTsmmBlocks(*taa, *tab, tbb));
  }

  if (composed->opcode_id() == Op().rbind) {
    // tsmm(rbind(X,dX)) -> tsmm(X) + tsmm(dX), applied recursively down
    // left-deep rbind chains (the cross-validation fold composition,
    // Sec. 4.4): every chain level's tsmm is computed once and cached, so
    // later folds only compute the tsmm of their new fold. Deep chains
    // engage speculatively — computing by parts costs the same flops and
    // seeds the per-fold entries (the paper's reuse-aware rewrites "prefer
    // patterns that create additional reuse opportunities").
    const bool speculate = RbindChainDepth(composed) >= 2;
    if (!speculate && !SpineHasCachedTsmm(cache, composed)) return nullptr;
    bool reused = false;
    MatrixPtr result =
        ComputeTsmmChain(cache, composed, z, par, /*depth=*/0, &reused);
    if (result == nullptr || (!reused && !speculate)) return nullptr;
    return MakeMatrixData(result);
  }
  return nullptr;
}

/// mm(t(item), y_item) cache key.
LineageItemPtr TXyKey(const LineageItemPtr& x_item,
                      const LineageItemPtr& y_item) {
  return LineageItem::Create(Op().mm, {LineageItem::Create(Op().transpose, {x_item}),
                                    y_item});
}

/// True when some level of the paired left-deep rbind chains has a cached
/// t(prefix) %*% yprefix.
bool SpineHasCachedTXy(LineageCache* cache, const LineageItemPtr& x_item,
                       const LineageItemPtr& y_item) {
  LineageItemPtr x = x_item;
  LineageItemPtr y = y_item;
  for (int depth = 0; depth < 16; ++depth) {
    if (x->opcode_id() != Op().rbind || y->opcode_id() != Op().rbind) break;
    x = x->inputs()[0];
    y = y->inputs()[0];
    if (cache->Peek(TXyKey(x, y)) != nullptr) return true;
  }
  return false;
}

/// Computes t(X) %*% y for paired rbind chains (the cross-validation
/// t(Xtr)ytr pattern): t(rbind(A,B)) %*% rbind(ya,yb) = t(A)ya + t(B)yb,
/// applied recursively with per-level caching. `xt` is the materialized
/// t(X) (cols(X) x rows(X)); `y` is the stacked vector/matrix.
MatrixPtr ComputeTXyChain(LineageCache* cache, const LineageItemPtr& x_item,
                          const LineageItemPtr& y_item, const MatrixPtr& xt,
                          const MatrixPtr& y, const ParallelContext* par, int depth,
                          bool* reused) {
  LineageItemPtr key = TXyKey(x_item, y_item);
  MatrixPtr cached = PeekMatrix(cache, key);
  if (cached != nullptr && cached->rows() == xt->rows() &&
      cached->cols() == y->cols()) {
    *reused = true;
    return cached;
  }
  if (depth < 16 && x_item->opcode_id() == Op().rbind &&
      y_item->opcode_id() == Op().rbind) {
    const LineageItemPtr& a_item = x_item->inputs()[0];
    const LineageItemPtr& b_item = x_item->inputs()[1];
    const LineageItemPtr& ya_item = y_item->inputs()[0];
    const LineageItemPtr& yb_item = y_item->inputs()[1];
    // Row split of the chains, recovered from any cached component value.
    int64_t r1 = -1;
    MatrixPtr a_val = PeekMatrix(cache, a_item);
    MatrixPtr ya_val = PeekMatrix(cache, ya_item);
    MatrixPtr b_val = PeekMatrix(cache, b_item);
    if (a_val != nullptr) {
      r1 = a_val->rows();
    } else if (ya_val != nullptr) {
      r1 = ya_val->rows();
    } else if (b_val != nullptr) {
      r1 = xt->cols() - b_val->rows();
    }
    if (r1 > 0 && r1 < xt->cols()) {
      // t(X) splits by columns, y by rows.
      Result<Matrix> xta = RightIndex(*xt, 1, xt->rows(), 1, r1);
      Result<Matrix> xtb = RightIndex(*xt, 1, xt->rows(), r1 + 1, xt->cols());
      Result<Matrix> ya = RightIndex(*y, 1, r1, 1, y->cols());
      Result<Matrix> yb = RightIndex(*y, r1 + 1, y->rows(), 1, y->cols());
      if (xta.ok() && xtb.ok() && ya.ok() && yb.ok()) {
        StopWatch watch;
        MatrixPtr left = ComputeTXyChain(
            cache, a_item, ya_item, MakeMatrixPtr(std::move(xta).ValueOrDie()),
            MakeMatrixPtr(std::move(ya).ValueOrDie()), par, depth + 1,
            reused);
        MatrixPtr right = ComputeTXyChain(
            cache, b_item, yb_item, MakeMatrixPtr(std::move(xtb).ValueOrDie()),
            MakeMatrixPtr(std::move(yb).ValueOrDie()), par, depth + 1,
            reused);
        if (left != nullptr && right != nullptr) {
          Result<Matrix> sum = EwiseBinary(BinaryOp::kAdd, *left, *right);
          if (sum.ok()) {
            MatrixPtr out = MakeMatrixPtr(std::move(sum).ValueOrDie());
            cache->Put(key, MakeMatrixData(out), watch.ElapsedSeconds());
            return out;
          }
        }
      }
    }
  }
  StopWatch watch;
  Result<Matrix> product = MatMul(*xt, *y, par);
  if (!product.ok()) return nullptr;
  MatrixPtr out = MakeMatrixPtr(std::move(product).ValueOrDie());
  cache->Put(key, MakeMatrixData(out), watch.ElapsedSeconds());
  return out;
}

DataPtr RewriteMatMul(LineageCache* cache, const LineageItemPtr& key,
                      const std::vector<DataPtr>& inputs,
                    const ParallelContext* par) {
  const LineageItemPtr& x_item = key->inputs()[0];
  const LineageItemPtr& y_item = key->inputs()[1];
  MatrixPtr x = InputMatrix(inputs[0]);
  MatrixPtr y = InputMatrix(inputs[1]);
  if (x == nullptr || y == nullptr) return nullptr;

  // X %*% cbind(Y, dY) -> cbind(XY, X dY); ones column uses rowSums(X).
  if (y_item->opcode_id() == Op().cbind) {
    const LineageItemPtr& y1 = y_item->inputs()[0];
    const LineageItemPtr& y2 = y_item->inputs()[1];
    MatrixPtr cached = PeekMatrix(cache, LineageItem::Create(Op().mm, {x_item, y1}));
    if (cached != nullptr && cached->cols() < y->cols() &&
        cached->rows() == x->rows()) {
      int64_t c1 = cached->cols();
      StopWatch watch;
      Matrix extra(0, 0);
      if (IsOnesColumn(y2) && y->cols() == c1 + 1) {
        extra = RowSums(*x);
      } else {
        Result<Matrix> dy = RightIndex(*y, 1, y->rows(), c1 + 1, y->cols());
        if (!dy.ok()) return nullptr;
        Result<Matrix> product = MatMul(*x, *dy, par);
        if (!product.ok()) return nullptr;
        extra = std::move(product).ValueOrDie();
        PutMatrix(cache, LineageItem::Create(Op().mm, {x_item, y2}), extra,
                  watch.ElapsedSeconds());
      }
      Result<Matrix> out = CBind(*cached, extra);
      if (out.ok()) return MakeMatrixData(std::move(out).ValueOrDie());
    }
  }

  // rbind(X, dX) %*% Y -> rbind(XY, dX Y).
  if (x_item->opcode_id() == Op().rbind) {
    const LineageItemPtr& x1 = x_item->inputs()[0];
    const LineageItemPtr& x2 = x_item->inputs()[1];
    MatrixPtr cached = PeekMatrix(cache, LineageItem::Create(Op().mm, {x1, y_item}));
    if (cached != nullptr && cached->rows() < x->rows() &&
        cached->cols() == y->cols()) {
      int64_t r1 = cached->rows();
      StopWatch watch;
      Result<Matrix> dx = RightIndex(*x, r1 + 1, x->rows(), 1, x->cols());
      if (dx.ok()) {
        Result<Matrix> product = MatMul(*dx, *y, par);
        if (product.ok()) {
          PutMatrix(cache, LineageItem::Create(Op().mm, {x2, y_item}),
                    product.ValueOrDie(), watch.ElapsedSeconds());
          Result<Matrix> out = RBind(*cached, product.ValueOrDie());
          if (out.ok()) return MakeMatrixData(std::move(out).ValueOrDie());
        }
      }
    }
  }

  // X %*% (Y[, l:u]) -> (X %*% Ybase)[, l:u]  (full-row column slice).
  if (y_item->opcode_id() == Op().rightindex && y_item->inputs().size() == 5) {
    const LineageItemPtr& base = y_item->inputs()[0];
    int64_t rl = LiteralInt(y_item->inputs()[1]);
    int64_t ru = LiteralInt(y_item->inputs()[2]);
    int64_t cl = LiteralInt(y_item->inputs()[3]);
    int64_t cu = LiteralInt(y_item->inputs()[4]);
    // Full-row slice: literal ru == nrow(Ybase), or the traced nrow(Ybase)
    // item itself (the compiler emits nrow() for omitted row bounds).
    const LineageItemPtr& ru_item = y_item->inputs()[2];
    bool full_rows =
        ru == x->cols() ||
        (ru_item->opcode_id() == Op().nrow && ru_item->inputs().size() == 1 &&
         ru_item->inputs()[0]->Equals(*base));
    if (rl == 1 && full_rows && cl >= 1 && cu >= cl) {
      MatrixPtr cached =
          PeekMatrix(cache, LineageItem::Create(Op().mm, {x_item, base}));
      if (cached != nullptr && cached->cols() >= cu &&
          cached->rows() == x->rows()) {
        Result<Matrix> out = RightIndex(*cached, 1, cached->rows(), cl, cu);
        if (out.ok()) return MakeMatrixData(std::move(out).ValueOrDie());
      }
    }
  }

  // t(rbind-chain) %*% rbind-chain (cross-validation t(Xtr)ytr): recursive
  // per-fold computation with per-level caching.
  if (x_item->opcode_id() == Op().transpose && x_item->inputs()[0]->opcode_id() == Op().rbind &&
      y_item->opcode_id() == Op().rbind) {
    const bool speculate = RbindChainDepth(x_item->inputs()[0]) >= 2 &&
                           RbindChainDepth(y_item) >= 2;
    if (speculate || SpineHasCachedTXy(cache, x_item->inputs()[0], y_item)) {
      bool reused = false;
      MatrixPtr result = ComputeTXyChain(cache, x_item->inputs()[0], y_item,
                                         x, y, par, /*depth=*/0, &reused);
      if (result != nullptr && (reused || speculate)) {
        return MakeMatrixData(result);
      }
    }
  }

  // t(cbind(A,B)) %*% Y -> rbind(t(A)Y, t(B)Y).
  if (x_item->opcode_id() == Op().transpose &&
      x_item->inputs()[0]->opcode_id() == Op().cbind) {
    const LineageItemPtr& a_item = x_item->inputs()[0]->inputs()[0];
    const LineageItemPtr& b_item = x_item->inputs()[0]->inputs()[1];
    MatrixPtr cached = PeekMatrix(
        cache, LineageItem::Create(
                   Op().mm, {LineageItem::Create(Op().transpose, {a_item}), y_item}));
    if (cached != nullptr && cached->rows() < x->rows() &&
        cached->cols() == y->cols()) {
      int64_t r1 = cached->rows();
      StopWatch watch;
      Result<Matrix> bt = RightIndex(*x, r1 + 1, x->rows(), 1, x->cols());
      if (bt.ok()) {
        Result<Matrix> product = MatMul(*bt, *y, par);
        if (product.ok()) {
          PutMatrix(cache,
                    LineageItem::Create(
                        Op().mm, {LineageItem::Create(Op().transpose, {b_item}), y_item}),
                    product.ValueOrDie(), watch.ElapsedSeconds());
          Result<Matrix> out = RBind(*cached, product.ValueOrDie());
          if (out.ok()) return MakeMatrixData(std::move(out).ValueOrDie());
        }
      }
    }
  }
  return nullptr;
}

bool IsCellwiseOpcode(OpcodeId op) {
  return op == Op().add || op == Op().sub || op == Op().mul ||
         op == Op().div || op == Op().min || op == Op().max;
}

DataPtr RewriteEwise(LineageCache* cache, const LineageItemPtr& key,
                     const std::vector<DataPtr>& inputs) {
  // cbind(X,dX) (*) cbind(Y,dY) -> cbind(X*Y, dX*dY).
  const LineageItemPtr& a_item = key->inputs()[0];
  const LineageItemPtr& b_item = key->inputs()[1];
  if (a_item->opcode_id() != Op().cbind || b_item->opcode_id() != Op().cbind) {
    return nullptr;
  }
  MatrixPtr a = InputMatrix(inputs[0]);
  MatrixPtr b = InputMatrix(inputs[1]);
  if (a == nullptr || b == nullptr) return nullptr;
  if (a->rows() != b->rows() || a->cols() != b->cols()) return nullptr;

  MatrixPtr cached = PeekMatrix(
      cache, LineageItem::Create(key->opcode_id(),
                                 {a_item->inputs()[0], b_item->inputs()[0]}));
  if (cached == nullptr || cached->cols() >= a->cols() ||
      cached->rows() != a->rows()) {
    return nullptr;
  }
  int64_t c1 = cached->cols();
  Result<Matrix> da = RightIndex(*a, 1, a->rows(), c1 + 1, a->cols());
  Result<Matrix> db = RightIndex(*b, 1, b->rows(), c1 + 1, b->cols());
  if (!da.ok() || !db.ok()) return nullptr;

  const BinaryOp op = KernelRowOf(key->opcode_id()).binary;
  Result<Matrix> extra = EwiseBinary(op, *da, *db);
  if (!extra.ok()) return nullptr;
  Result<Matrix> out = CBind(*cached, extra.ValueOrDie());
  if (!out.ok()) return nullptr;
  return MakeMatrixData(std::move(out).ValueOrDie());
}

/// colAgg(cbind(X, dX)) -> cbind(colAgg(X), colAgg(dX)), and
/// rowAgg(rbind(X, dX)) -> rbind(rowAgg(X), rowAgg(dX)).
DataPtr RewriteAgg(LineageCache* cache, const LineageItemPtr& key,
                   const AggregateKernel& agg,
                   const std::vector<DataPtr>& inputs,
                   const ParallelContext* par) {
  const OpcodeId op = key->opcode_id();
  const LineageItemPtr& composed = key->inputs()[0];
  MatrixPtr z = InputMatrix(inputs[0]);
  if (z == nullptr) return nullptr;

  if (agg.axis == AggregateAxis::kCols &&
      composed->opcode_id() == Op().cbind) {
    MatrixPtr cached = PeekMatrix(
        cache, LineageItem::Create(op, {composed->inputs()[0]}));
    if (cached == nullptr || cached->cols() >= z->cols()) return nullptr;
    int64_t c1 = cached->cols();
    Result<Matrix> rest = RightIndex(*z, 1, z->rows(), c1 + 1, z->cols());
    if (!rest.ok()) return nullptr;
    Matrix extra = agg.partial(rest.ValueOrDie(), par);
    PutMatrix(cache, LineageItem::Create(op, {composed->inputs()[1]}), extra,
              0.0);
    Result<Matrix> out = CBind(*cached, extra);
    if (!out.ok()) return nullptr;
    return MakeMatrixData(std::move(out).ValueOrDie());
  }

  if (agg.axis == AggregateAxis::kRows &&
      composed->opcode_id() == Op().rbind) {
    MatrixPtr cached = PeekMatrix(
        cache, LineageItem::Create(op, {composed->inputs()[0]}));
    if (cached == nullptr || cached->rows() >= z->rows()) return nullptr;
    int64_t r1 = cached->rows();
    Result<Matrix> rest = RightIndex(*z, r1 + 1, z->rows(), 1, z->cols());
    if (!rest.ok()) return nullptr;
    Matrix extra = agg.partial(rest.ValueOrDie(), par);
    PutMatrix(cache, LineageItem::Create(op, {composed->inputs()[1]}), extra,
              0.0);
    Result<Matrix> out = RBind(*cached, extra);
    if (!out.ok()) return nullptr;
    return MakeMatrixData(std::move(out).ValueOrDie());
  }
  return nullptr;
}

}  // namespace

DataPtr TryPartialRewrites(LineageCache* cache, const LineageItemPtr& key,
                           const std::vector<DataPtr>& inputs,
                           const ParallelContext* par) {
  if (key == nullptr || key->inputs().empty()) return nullptr;
  const OpcodeId op = key->opcode_id();
  if (op == Op().tsmm && inputs.size() == 1) {
    return RewriteTsmm(cache, key, inputs, par);
  }
  if (op == Op().mm && inputs.size() == 2) {
    return RewriteMatMul(cache, key, inputs, par);
  }
  if (IsCellwiseOpcode(op) && inputs.size() == 2) {
    return RewriteEwise(cache, key, inputs);
  }
  const AggregateKernel* agg = KernelRowOf(op).aggregate;
  if (agg != nullptr && agg->axis != AggregateAxis::kFull &&
      inputs.size() == 1) {
    return RewriteAgg(cache, key, *agg, inputs, par);
  }
  return nullptr;
}

}  // namespace lima
