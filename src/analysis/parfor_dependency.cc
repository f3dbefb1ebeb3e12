#include "analysis/parfor_dependency.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <numeric>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "analysis/opcode_registry.h"
#include "runtime/block_visitor.h"
#include "runtime/instructions_misc.h"

namespace lima {
namespace {

// ---------------------------------------------------------------------------
// Multivariate integer polynomials.
//
// Subscript expressions are lowered to polynomials over the parfor loop
// variable, the active inner-loop variables, and loop-invariant scalar
// symbols. A monomial is the sorted multiset of its variable names; the
// zero polynomial is the empty term map. Integer coefficients are exact —
// any overflow or blow-up aborts the lowering and the access degrades to
// "unknown subscript" (conservative).
// ---------------------------------------------------------------------------

using Monomial = std::vector<std::string>;

struct Poly {
  std::map<Monomial, int64_t> terms;

  bool IsZero() const { return terms.empty(); }

  std::optional<int64_t> AsConst() const {
    if (terms.empty()) return 0;
    if (terms.size() == 1 && terms.begin()->first.empty()) {
      return terms.begin()->second;
    }
    return std::nullopt;
  }

  bool operator==(const Poly& other) const { return terms == other.terms; }

  bool ContainsVar(const std::string& var) const {
    for (const auto& [mono, coeff] : terms) {
      (void)coeff;
      if (std::find(mono.begin(), mono.end(), var) != mono.end()) return true;
    }
    return false;
  }
};

constexpr int kMaxTerms = 48;

Poly PolyConst(int64_t value) {
  Poly p;
  if (value != 0) p.terms[{}] = value;
  return p;
}

Poly PolyVar(const std::string& name) {
  Poly p;
  p.terms[{name}] = 1;
  return p;
}

bool AddInto(Poly* out, const Monomial& mono, int64_t coeff) {
  if (coeff == 0) return true;
  int64_t& slot = out->terms[mono];
  // Saturating-style overflow guard: fall back to "unknown" on overflow.
  if ((coeff > 0 && slot > std::numeric_limits<int64_t>::max() - coeff) ||
      (coeff < 0 && slot < std::numeric_limits<int64_t>::min() - coeff)) {
    return false;
  }
  slot += coeff;
  if (slot == 0) out->terms.erase(mono);
  return out->terms.size() <= kMaxTerms;
}

std::optional<Poly> PolyAdd(const Poly& a, const Poly& b) {
  Poly out = a;
  for (const auto& [mono, coeff] : b.terms) {
    if (!AddInto(&out, mono, coeff)) return std::nullopt;
  }
  return out;
}

Poly PolyNeg(const Poly& a) {
  Poly out;
  for (const auto& [mono, coeff] : a.terms) out.terms[mono] = -coeff;
  return out;
}

std::optional<Poly> PolySub(const Poly& a, const Poly& b) {
  return PolyAdd(a, PolyNeg(b));
}

std::optional<Poly> PolyMul(const Poly& a, const Poly& b) {
  Poly out;
  for (const auto& [ma, ca] : a.terms) {
    for (const auto& [mb, cb] : b.terms) {
      if (ca != 0 && std::abs(cb) >
                         std::numeric_limits<int64_t>::max() / std::abs(ca)) {
        return std::nullopt;
      }
      Monomial mono = ma;
      mono.insert(mono.end(), mb.begin(), mb.end());
      std::sort(mono.begin(), mono.end());
      if (mono.size() > 4) return std::nullopt;  // degree guard
      if (!AddInto(&out, mono, ca * cb)) return std::nullopt;
    }
  }
  return out;
}

/// Splits `p` as `A*var + B` requiring degree(var) <= 1; nullopt otherwise.
std::optional<std::pair<Poly, Poly>> SplitLinear(const Poly& p,
                                                const std::string& var) {
  Poly a;
  Poly b;
  for (const auto& [mono, coeff] : p.terms) {
    const auto count = std::count(mono.begin(), mono.end(), var);
    if (count == 0) {
      b.terms[mono] = coeff;
    } else if (count == 1) {
      Monomial rest;
      bool removed = false;
      for (const auto& name : mono) {
        if (!removed && name == var) {
          removed = true;
          continue;
        }
        rest.push_back(name);
      }
      a.terms[rest] = coeff;
    } else {
      return std::nullopt;
    }
  }
  return std::make_pair(std::move(a), std::move(b));
}

using FactSet = std::set<std::string>;  // variables/symbols known >= 1

/// Conservative proof of `p >= bound` under the ">= 1" facts: every
/// non-constant monomial needs a nonnegative coefficient and only fact'd
/// variables (each such monomial is then >= 1), giving the lower bound
/// constant + sum of non-constant coefficients.
bool PolyAtLeast(const Poly& p, int64_t bound, const FactSet& facts) {
  int64_t lower = 0;
  for (const auto& [mono, coeff] : p.terms) {
    if (mono.empty()) {
      lower += coeff;
      continue;
    }
    if (coeff < 0) return false;
    for (const auto& name : mono) {
      if (facts.count(name) == 0) return false;
    }
    lower += coeff;  // monomial >= 1
  }
  return lower >= bound;
}

bool PolyNonneg(const Poly& p, const FactSet& facts) {
  return PolyAtLeast(p, 0, facts);
}

bool PolyNonpos(const Poly& p, const FactSet& facts) {
  return PolyAtLeast(PolyNeg(p), 0, facts);
}

// ---------------------------------------------------------------------------
// Access model.
// ---------------------------------------------------------------------------

/// One active surrounding loop at an access site; bounds are nullopt when
/// they could not be lowered (the variable is then unbounded and any
/// subscript containing it fails the dependency tests).
struct LoopRange {
  std::string var;
  std::optional<Poly> lo;
  std::optional<Poly> hi;
};

enum class DimKind { kFull, kPoint, kRange, kUnknown };

struct DimAccess {
  DimKind kind = DimKind::kUnknown;
  Poly lo;
  Poly hi;
};

struct Access {
  bool is_write = false;
  std::vector<DimAccess> dims;
  int line = 0;
  std::vector<LoopRange> ranges;  ///< enclosing inner loops, outer->inner
  FactSet facts;                  ///< ">= 1" facts valid at this site
};

struct VarInfo {
  bool shared_full_read = false;
  int full_read_line = 0;
  bool shared_plain_write = false;
  int plain_write_line = 0;
  bool shared_read = false;
  int shared_read_line = 0;
  bool accum = false;
  int accum_line = 0;
  bool has_indexed_write = false;
  std::vector<Access> accesses;  ///< shared indexed reads and writes
};

void AddFinding(ParForDepInfo* info, bool blocking, std::string code,
                std::string message, int line) {
  ParForFinding finding;
  finding.blocking = blocking;
  finding.code = std::move(code);
  finding.message = std::move(message);
  finding.source_line = line;
  info->findings.push_back(std::move(finding));
}

// ---------------------------------------------------------------------------
// Dependency tests over one access pair.
// ---------------------------------------------------------------------------

enum class DimVerdict {
  kDisjoint,  ///< no two distinct iterations touch a common index
  kAlways,    ///< every pair of iterations overlaps in this dimension
  kCarried,   ///< proven cross-iteration overlap at a constant distance
  kUnknown,
};

struct DimResult {
  DimVerdict verdict = DimVerdict::kUnknown;
  int64_t distance = 0;       // for kCarried
  bool nonaffine = false;     // kUnknown because a subscript was not affine
};

/// Literal parfor bounds: iteration values are the consecutive integers of
/// [lo, hi] (EvaluateRange walks reversed ranges downward with step -1).
struct ParForBounds {
  bool literal = false;
  int64_t lo = 0;
  int64_t hi = 0;
};

/// Minimizes (dir=-1) or maximizes (dir=+1) `p` over the access's inner
/// loop ranges, eliminating variables innermost-first. Returns nullopt when
/// a coefficient sign is undeterminable or a range is unbounded.
std::optional<Poly> ExtremizePoly(Poly p, int dir,
                                 const std::vector<LoopRange>& ranges,
                                 const FactSet& facts) {
  for (auto it = ranges.rbegin(); it != ranges.rend(); ++it) {
    if (!p.ContainsVar(it->var)) continue;
    if (!it->lo.has_value() || !it->hi.has_value()) return std::nullopt;
    auto split = SplitLinear(p, it->var);
    if (!split.has_value()) return std::nullopt;
    const Poly& a = split->first;
    const Poly& b = split->second;
    // min(a*v + b) over lo <= v <= hi: a >= 0 -> a*lo + b; a <= 0 -> a*hi+b.
    const Poly* bound = nullptr;
    if (PolyNonneg(a, facts)) {
      bound = dir < 0 ? &*it->lo : &*it->hi;
    } else if (PolyNonpos(a, facts)) {
      bound = dir < 0 ? &*it->hi : &*it->lo;
    } else {
      return std::nullopt;
    }
    auto prod = PolyMul(a, *bound);
    if (!prod.has_value()) return std::nullopt;
    auto sum = PolyAdd(*prod, b);
    if (!sum.has_value()) return std::nullopt;
    p = std::move(*sum);
  }
  return p;
}

/// The window of one dimension access as a function of the parfor variable:
/// [c*t + lo, c*t + hi] with lo/hi free of loop variables.
struct Window {
  Poly c;
  Poly lo;
  Poly hi;
};

std::optional<Window> MakeWindow(const DimAccess& dim, const Access& access,
                                 const std::string& loop_var,
                                 const FactSet& facts) {
  auto lo_min = ExtremizePoly(dim.lo, -1, access.ranges, facts);
  auto hi_max = ExtremizePoly(dim.hi, +1, access.ranges, facts);
  if (!lo_min.has_value() || !hi_max.has_value()) return std::nullopt;
  auto lo_split = SplitLinear(*lo_min, loop_var);
  auto hi_split = SplitLinear(*hi_max, loop_var);
  if (!lo_split.has_value() || !hi_split.has_value()) return std::nullopt;
  if (!(lo_split->first == hi_split->first)) return std::nullopt;
  Window w;
  w.c = lo_split->first;
  w.lo = lo_split->second;
  w.hi = hi_split->second;
  // Residuals must be invariant: reject leftover loop variables.
  for (const auto& range : access.ranges) {
    if (w.lo.ContainsVar(range.var) || w.hi.ContainsVar(range.var) ||
        w.c.ContainsVar(range.var)) {
      return std::nullopt;
    }
  }
  return w;
}

int64_t Gcd(int64_t a, int64_t b) { return std::gcd(std::abs(a), std::abs(b)); }

/// Facts both access sites may rely on together. Facts about a loop
/// variable are site-specific (two sibling loops can reuse one name with
/// different ranges), so only facts about symbols that are a loop variable
/// at *neither* site survive the merge — those are loop-invariant, and a
/// collision scenario executes both sites, establishing the fact globally.
FactSet SharedInvariantFacts(const Access& a1, const Access& a2) {
  auto is_range_var = [](const Access& a, const std::string& name) {
    for (const auto& range : a.ranges) {
      if (range.var == name) return true;
    }
    return false;
  };
  FactSet shared;
  for (const FactSet* site : {&a1.facts, &a2.facts}) {
    for (const auto& name : *site) {
      if (!is_range_var(a1, name) && !is_range_var(a2, name)) {
        shared.insert(name);
      }
    }
  }
  return shared;
}

DimResult TestDim(const DimAccess& d1, const Access& a1, const DimAccess& d2,
                  const Access& a2, const std::string& loop_var,
                  const ParForBounds& bounds, const FactSet& facts) {
  DimResult result;
  if (d1.kind == DimKind::kUnknown || d2.kind == DimKind::kUnknown) {
    result.nonaffine = true;
    return result;
  }
  if (d1.kind == DimKind::kFull || d2.kind == DimKind::kFull) {
    result.verdict = DimVerdict::kAlways;
    return result;
  }

  // Each window is extremized under its own site's facts (plus the shared
  // invariant facts in `facts`); a sibling site's loop-variable facts must
  // not leak into the other site's coefficient-sign decisions.
  FactSet f1 = facts;
  f1.insert(a1.facts.begin(), a1.facts.end());
  FactSet f2 = facts;
  f2.insert(a2.facts.begin(), a2.facts.end());
  auto w1 = MakeWindow(d1, a1, loop_var, f1);
  auto w2 = MakeWindow(d2, a2, loop_var, f2);
  if (!w1.has_value() || !w2.has_value()) return result;

  if (w1->c == w2->c) {
    const Poly& c = w1->c;
    // Gap polynomials: "gap(x, y) = cc + lo_x - hi_y" is the separation of
    // window x at iteration t+1 above window y at iteration t when windows
    // move upward by cc per step; larger |dt| only widens it when cc >= 0.
    const bool positive = PolyNonneg(c, facts);
    const Poly cc = positive ? c : PolyNeg(c);
    auto gap = [&](const Poly& lo_x, const Poly& hi_y) -> std::optional<Poly> {
      auto base = PolyAdd(cc, lo_x);
      if (!base.has_value()) return std::nullopt;
      return PolySub(*base, hi_y);
    };
    if (c.IsZero()) {
      // Constant windows: disjoint when one lies strictly above the other
      // (no iteration pair can ever collide).
      auto up = gap(w2->lo, w1->hi);
      auto dn = gap(w1->lo, w2->hi);
      if ((up.has_value() && PolyAtLeast(*up, 1, facts)) ||
          (dn.has_value() && PolyAtLeast(*dn, 1, facts))) {
        result.verdict = DimVerdict::kDisjoint;
        return result;
      }
    } else if (positive || PolyNonpos(c, facts)) {
      // Moving windows: for |dt| >= 1 the windows separate when the
      // per-step shift exceeds the combined window extent both ways. With
      // negative c the roles of "above"/"below" swap, which the shared gap
      // form already captures via cc = |c|.
      auto up = positive ? gap(w2->lo, w1->hi) : gap(w1->lo, w2->hi);
      auto dn = positive ? gap(w1->lo, w2->hi) : gap(w2->lo, w1->hi);
      if (up.has_value() && dn.has_value() && PolyAtLeast(*up, 1, facts) &&
          PolyAtLeast(*dn, 1, facts)) {
        result.verdict = DimVerdict::kDisjoint;
        return result;
      }
    }

    // Point accesses with constant linear forms a*t + b: exact distance.
    auto c_const = c.AsConst();
    if (d1.kind == DimKind::kPoint && d2.kind == DimKind::kPoint &&
        w1->lo == w1->hi && w2->lo == w2->hi && c_const.has_value()) {
      auto b1 = w1->lo.AsConst();
      auto b2 = w2->lo.AsConst();
      if (b1.has_value() && b2.has_value()) {
        const int64_t a = *c_const;
        const int64_t diff = *b2 - *b1;
        if (a == 0) {
          if (diff == 0) {
            result.verdict = DimVerdict::kAlways;  // same cell, every pair
          } else {
            result.verdict = DimVerdict::kDisjoint;
          }
          return result;
        }
        if (diff % a != 0) {
          result.verdict = DimVerdict::kDisjoint;  // non-integer distance
          return result;
        }
        // a*t1 + b1 == a*t2 + b2 collides at t2 = t1 + (b1-b2)/a.
        const int64_t dist = -diff / a;
        if (dist == 0) {
          // Accesses collide only within one iteration — independent.
          result.verdict = DimVerdict::kDisjoint;
          return result;
        }
        if (bounds.literal && std::abs(dist) <= bounds.hi - bounds.lo) {
          result.verdict = DimVerdict::kCarried;
          result.distance = dist;
        }
        return result;
      }
    }
    // Identical constant windows (c == 0) overlap at every iteration pair.
    if (c.IsZero() && w1->lo == w2->lo && w1->hi == w2->hi) {
      result.verdict = DimVerdict::kAlways;
    }
    return result;
  }

  // Differing coefficients: GCD and Banerjee tests on constant point forms
  // a1*t1 + b1 = a2*t2 + b2.
  auto c1 = w1->c.AsConst();
  auto c2 = w2->c.AsConst();
  if (d1.kind == DimKind::kPoint && d2.kind == DimKind::kPoint &&
      w1->lo == w1->hi && w2->lo == w2->hi && c1.has_value() &&
      c2.has_value()) {
    auto b1 = w1->lo.AsConst();
    auto b2 = w2->lo.AsConst();
    if (b1.has_value() && b2.has_value() && *c1 != 0 && *c2 != 0) {
      const int64_t diff = *b2 - *b1;
      const int64_t g = Gcd(*c1, *c2);
      if (g != 0 && diff % g != 0) {
        result.verdict = DimVerdict::kDisjoint;  // GCD test
        return result;
      }
      if (bounds.literal) {
        // Banerjee bounds on a1*t1 - a2*t2 over the iteration box.
        auto range_of = [&](int64_t a) {
          const int64_t x = a * bounds.lo;
          const int64_t y = a * bounds.hi;
          return std::make_pair(std::min(x, y), std::max(x, y));
        };
        auto r1 = range_of(*c1);
        auto r2 = range_of(-*c2);
        const int64_t lo = r1.first + r2.first;
        const int64_t hi = r1.second + r2.second;
        if (diff < lo || diff > hi) {
          result.verdict = DimVerdict::kDisjoint;
          return result;
        }
      }
    }
  }
  return result;
}

enum class PairVerdict { kIndependent, kDependent, kUnknown };

struct PairResult {
  PairVerdict verdict = PairVerdict::kUnknown;
  int64_t distance = 0;
  bool nonaffine = false;
};

PairResult TestPair(const Access& a1, const Access& a2,
                    const std::string& loop_var, const ParForBounds& bounds) {
  PairResult result;
  if (a1.dims.empty() || a1.dims.size() != a2.dims.size()) return result;
  const FactSet facts = SharedInvariantFacts(a1, a2);

  std::vector<DimResult> dims;
  dims.reserve(a1.dims.size());
  for (size_t d = 0; d < a1.dims.size(); ++d) {
    DimResult r = TestDim(a1.dims[d], a1, a2.dims[d], a2, loop_var, bounds,
                          facts);
    if (r.verdict == DimVerdict::kDisjoint) {
      result.verdict = PairVerdict::kIndependent;
      return result;
    }
    result.nonaffine = result.nonaffine || r.nonaffine;
    dims.push_back(r);
  }

  // Dependence is only claimed when the per-dimension facts compose to a
  // simultaneous solution: at most one carried dimension (fixed distance),
  // all others overlapping at every iteration pair.
  int carried = 0;
  int always = 0;
  int64_t distance = 0;
  for (const auto& r : dims) {
    if (r.verdict == DimVerdict::kCarried) {
      ++carried;
      distance = r.distance;
    } else if (r.verdict == DimVerdict::kAlways) {
      ++always;
    }
  }
  if (carried + always == static_cast<int>(dims.size())) {
    if (carried == 1) {
      result.verdict = PairVerdict::kDependent;
      result.distance = distance;
      return result;
    }
    if (carried == 0 && bounds.literal && bounds.hi > bounds.lo) {
      // Every iteration pair touches the same region and there are at
      // least two iterations: write-write/read collision proven.
      result.verdict = PairVerdict::kDependent;
      result.distance = 0;
      return result;
    }
  }
  return result;
}

// ---------------------------------------------------------------------------
// AST walk: collects shared accesses and classifies written variables.
// ---------------------------------------------------------------------------

class BodyWalker {
 public:
  explicit BodyWalker(const StmtNode& parfor) : parfor_(parfor) {}
  BodyWalker(const StmtNode& parfor,
             const std::unordered_map<std::string, int64_t>* known_consts)
      : parfor_(parfor), known_consts_(known_consts) {}

  ParForDepInfo Run();

 private:
  void CollectWrites(const std::vector<StmtPtr>& stmts);
  void WalkStmts(const std::vector<StmtPtr>& stmts);
  void WalkStmt(const StmtNode& stmt);
  void WalkExprReads(const ExprNode& expr);
  void WalkDimReads(const std::vector<IndexDim>& dims);

  bool IsActiveLoopVar(const std::string& name) const;
  bool IsInvariantSymbol(const std::string& name) const;
  std::optional<Poly> ExprToPoly(const ExprNode& expr) const;
  DimAccess SubscriptToDim(const IndexDim& dim) const;
  std::vector<DimAccess> SubscriptsToDims(const std::vector<IndexDim>& dims)
      const;

  void RecordIndexedRead(const std::string& name,
                         const std::vector<IndexDim>& dims, int line);
  void RecordFullRead(const std::string& name, int line);
  void RecordIndexedWrite(const StmtNode& stmt);
  void RecordPlainWrite(const std::string& name, int line);
  void EnterLoop(const StmtNode& stmt, size_t* pushed_facts,
                 bool* pushed_range);
  void LeaveLoop(size_t pushed_facts, bool pushed_range);
  void Classify(ParForDepInfo* info);
  void TestVariable(const std::string& name, const VarInfo& vi,
                    ParForDepInfo* info);

  const StmtNode& parfor_;
  /// Loop-invariant symbols with statically proven integer values (shape
  /// inference facts); nullptr when analysis runs without a fact set.
  const std::unordered_map<std::string, int64_t>* known_consts_ = nullptr;
  std::set<std::string> assigned_;   ///< assignment targets anywhere in body
  std::set<std::string> loop_vars_;  ///< all loop variables of the body
  std::set<std::string> definite_;   ///< defined-this-iteration (path-aware)
  std::vector<LoopRange> ranges_;    ///< active inner loops, outer->inner
  std::vector<std::string> fact_stack_;
  FactSet facts_;
  std::map<std::string, VarInfo> vars_;
  ParForBounds bounds_;
  ParForDepInfo info_;
};

void BodyWalker::CollectWrites(const std::vector<StmtPtr>& stmts) {
  for (const auto& stmt : stmts) {
    switch (stmt->kind) {
      case StmtKind::kAssign:
        assigned_.insert(stmt->target);
        break;
      case StmtKind::kMultiAssign:
        for (const auto& t : stmt->targets) assigned_.insert(t);
        break;
      case StmtKind::kIf:
        CollectWrites(stmt->body);
        CollectWrites(stmt->else_body);
        break;
      case StmtKind::kFor:
        loop_vars_.insert(stmt->loop_var);
        CollectWrites(stmt->body);
        break;
      case StmtKind::kWhile:
        CollectWrites(stmt->body);
        break;
      default:
        break;
    }
  }
}

bool BodyWalker::IsActiveLoopVar(const std::string& name) const {
  if (name == parfor_.loop_var) return true;
  for (const auto& range : ranges_) {
    if (range.var == name) return true;
  }
  return false;
}

bool BodyWalker::IsInvariantSymbol(const std::string& name) const {
  return assigned_.count(name) == 0 && loop_vars_.count(name) == 0 &&
         name != parfor_.loop_var;
}

std::optional<Poly> BodyWalker::ExprToPoly(const ExprNode& expr) const {
  switch (expr.kind) {
    case ExprKind::kNumber: {
      const double v = expr.number;
      if (v != std::floor(v) || std::abs(v) > 1e15) return std::nullopt;
      return PolyConst(static_cast<int64_t>(v));
    }
    case ExprKind::kVar:
      if (IsActiveLoopVar(expr.text)) return PolyVar(expr.text);
      if (IsInvariantSymbol(expr.text)) {
        // Shape-inference fact environment: a proven integer value makes
        // the subscript concrete for the numeric dependency tests.
        if (known_consts_ != nullptr) {
          auto it = known_consts_->find(expr.text);
          if (it != known_consts_->end()) return PolyConst(it->second);
        }
        return PolyVar(expr.text);
      }
      return std::nullopt;  // body-local value: not affine in loop terms
    case ExprKind::kUnary: {
      const ExprNode* operand = expr.lhs ? expr.lhs.get() : expr.rhs.get();
      if (expr.text != "-" || operand == nullptr) return std::nullopt;
      auto p = ExprToPoly(*operand);
      if (!p.has_value()) return std::nullopt;
      return PolyNeg(*p);
    }
    case ExprKind::kBinary: {
      if (expr.lhs == nullptr || expr.rhs == nullptr) return std::nullopt;
      auto l = ExprToPoly(*expr.lhs);
      auto r = ExprToPoly(*expr.rhs);
      if (!l.has_value() || !r.has_value()) return std::nullopt;
      if (expr.text == "+") return PolyAdd(*l, *r);
      if (expr.text == "-") return PolySub(*l, *r);
      if (expr.text == "*") return PolyMul(*l, *r);
      return std::nullopt;
    }
    default:
      return std::nullopt;
  }
}

DimAccess BodyWalker::SubscriptToDim(const IndexDim& dim) const {
  DimAccess out;
  if (dim.is_range && dim.lower == nullptr && dim.upper == nullptr) {
    out.kind = DimKind::kFull;
    return out;
  }
  if (!dim.is_range && dim.lower != nullptr) {
    auto p = ExprToPoly(*dim.lower);
    if (p.has_value()) {
      out.kind = DimKind::kPoint;
      out.lo = *p;
      out.hi = *p;
    }
    return out;
  }
  if (dim.is_range && dim.lower != nullptr && dim.upper != nullptr) {
    auto lo = ExprToPoly(*dim.lower);
    auto hi = ExprToPoly(*dim.upper);
    if (lo.has_value() && hi.has_value()) {
      out.kind = DimKind::kRange;
      out.lo = *lo;
      out.hi = *hi;
    }
    return out;
  }
  return out;  // kUnknown
}

std::vector<DimAccess> BodyWalker::SubscriptsToDims(
    const std::vector<IndexDim>& dims) const {
  std::vector<DimAccess> out;
  out.reserve(dims.size());
  for (const auto& dim : dims) out.push_back(SubscriptToDim(dim));
  return out;
}

void BodyWalker::RecordIndexedRead(const std::string& name,
                                   const std::vector<IndexDim>& dims,
                                   int line) {
  if (definite_.count(name) > 0 || IsActiveLoopVar(name)) return;
  VarInfo& vi = vars_[name];
  vi.shared_read = true;
  if (vi.shared_read_line == 0) vi.shared_read_line = line;
  Access access;
  access.is_write = false;
  access.dims = SubscriptsToDims(dims);
  access.line = line;
  access.ranges = ranges_;
  access.facts = facts_;
  vi.accesses.push_back(std::move(access));
}

void BodyWalker::RecordFullRead(const std::string& name, int line) {
  if (definite_.count(name) > 0 || IsActiveLoopVar(name)) return;
  VarInfo& vi = vars_[name];
  vi.shared_read = true;
  if (vi.shared_read_line == 0) vi.shared_read_line = line;
  vi.shared_full_read = true;
  if (vi.full_read_line == 0) vi.full_read_line = line;
}

void BodyWalker::RecordIndexedWrite(const StmtNode& stmt) {
  const std::string& name = stmt.target;
  if (name == parfor_.loop_var || IsActiveLoopVar(name)) {
    AddFinding(&info_, /*blocking=*/false, "loop-var-write",
               "loop variable '" + name + "' is assigned inside the body",
               stmt.line);
    return;
  }
  if (definite_.count(name) > 0) return;  // iteration-private matrix
  VarInfo& vi = vars_[name];
  vi.has_indexed_write = true;
  Access access;
  access.is_write = true;
  access.dims = SubscriptsToDims(stmt.target_dims);
  access.line = stmt.line;
  access.ranges = ranges_;
  access.facts = facts_;
  vi.accesses.push_back(std::move(access));
}

void BodyWalker::RecordPlainWrite(const std::string& name, int line) {
  if (name == parfor_.loop_var || IsActiveLoopVar(name)) {
    AddFinding(&info_, /*blocking=*/false, "loop-var-write",
               "loop variable '" + name + "' is assigned inside the body",
               line);
    return;
  }
  if (definite_.count(name) == 0) {
    VarInfo& vi = vars_[name];
    vi.shared_plain_write = true;
    if (vi.plain_write_line == 0) vi.plain_write_line = line;
  }
  definite_.insert(name);
}

void BodyWalker::WalkDimReads(const std::vector<IndexDim>& dims) {
  for (const auto& dim : dims) {
    if (dim.lower != nullptr) WalkExprReads(*dim.lower);
    if (dim.upper != nullptr) WalkExprReads(*dim.upper);
  }
}

void BodyWalker::WalkExprReads(const ExprNode& expr) {
  switch (expr.kind) {
    case ExprKind::kVar:
      RecordFullRead(expr.text, expr.line);
      return;
    case ExprKind::kIndex:
      WalkDimReads(expr.dims);
      if (expr.target != nullptr && expr.target->kind == ExprKind::kVar &&
          expr.dims.size() == 2) {
        RecordIndexedRead(expr.target->text, expr.dims, expr.line);
      } else if (expr.target != nullptr) {
        WalkExprReads(*expr.target);
      }
      return;
    case ExprKind::kBinary:
    case ExprKind::kUnary:
      if (expr.lhs != nullptr) WalkExprReads(*expr.lhs);
      if (expr.rhs != nullptr) WalkExprReads(*expr.rhs);
      return;
    case ExprKind::kCall:
      for (const auto& arg : expr.args) {
        if (arg.value != nullptr) WalkExprReads(*arg.value);
      }
      return;
    default:
      return;
  }
}

void BodyWalker::EnterLoop(const StmtNode& stmt, size_t* pushed_facts,
                           bool* pushed_range) {
  *pushed_facts = 0;
  *pushed_range = false;

  // A loop variable that is also an ordinary assignment target escapes the
  // range model; leave it unbounded (conservative).
  const bool clean_var = assigned_.count(stmt.loop_var) == 0;

  std::optional<Poly> from;
  std::optional<Poly> to;
  if (stmt.from != nullptr) from = ExprToPoly(*stmt.from);
  if (stmt.to != nullptr) to = ExprToPoly(*stmt.to);
  const bool simple_step = stmt.step == nullptr;

  auto push_fact = [&](const std::string& name) {
    if (facts_.insert(name).second) {
      fact_stack_.push_back(name);
      ++*pushed_facts;
    }
  };

  // Invariant upper-bound fact under the forward-range assumption: the body
  // only executes after at least one iteration started, so to >= from >= 1
  // when the range runs forward (see docs/ANALYSIS.md).
  if (simple_step && from.has_value() && PolyAtLeast(*from, 1, facts_) &&
      to.has_value() && to->terms.size() == 1) {
    const auto& [mono, coeff] = *to->terms.begin();
    if (mono.size() == 1 && coeff == 1 && IsInvariantSymbol(mono[0])) {
      push_fact(mono[0]);
    }
  }

  // Range direction. EvaluateRange walks from..to *downward* when
  // from > to ('for (j in n:1)' runs n..1, not zero iterations), so a
  // symbolic range is only usable as a value hull once its direction is
  // provable under the active facts; otherwise the variable stays unbounded
  // and subscripts containing it degrade to unknown (serialize).
  enum class Dir { kUnknown, kForward, kReversed };
  Dir dir = Dir::kUnknown;
  if (simple_step && from.has_value() && to.has_value()) {
    auto fwd = PolySub(*to, *from);
    auto rev = PolySub(*from, *to);
    if (fwd.has_value() && PolyNonneg(*fwd, facts_)) {
      dir = Dir::kForward;
    } else if (rev.has_value() && PolyNonneg(*rev, facts_)) {
      dir = Dir::kReversed;
    }
  }

  // Loop-variable ">= 1" fact: the smallest iterate is the lower end of
  // the value hull — `from` forward (also the assumed direction while
  // unproven), but `to` on a proven-downward range.
  if (clean_var && simple_step) {
    const std::optional<Poly>& min_end = dir == Dir::kReversed ? to : from;
    if (min_end.has_value() && PolyAtLeast(*min_end, 1, facts_)) {
      push_fact(stmt.loop_var);
    }
  }

  if (clean_var) {
    LoopRange range;
    range.var = stmt.loop_var;
    if (dir == Dir::kForward) {
      range.lo = from;
      range.hi = to;
    } else if (dir == Dir::kReversed) {
      range.lo = to;
      range.hi = from;
    }
    ranges_.push_back(std::move(range));
    *pushed_range = true;
  }
}

void BodyWalker::LeaveLoop(size_t pushed_facts, bool pushed_range) {
  for (size_t i = 0; i < pushed_facts; ++i) {
    facts_.erase(fact_stack_.back());
    fact_stack_.pop_back();
  }
  if (pushed_range) ranges_.pop_back();
}

bool ExprReadsVar(const ExprNode& expr, const std::string& name) {
  switch (expr.kind) {
    case ExprKind::kVar:
      return expr.text == name;
    case ExprKind::kIndex:
      if (expr.target != nullptr && ExprReadsVar(*expr.target, name)) {
        return true;
      }
      for (const auto& dim : expr.dims) {
        if (dim.lower != nullptr && ExprReadsVar(*dim.lower, name)) {
          return true;
        }
        if (dim.upper != nullptr && ExprReadsVar(*dim.upper, name)) {
          return true;
        }
      }
      return false;
    case ExprKind::kBinary:
    case ExprKind::kUnary:
      return (expr.lhs != nullptr && ExprReadsVar(*expr.lhs, name)) ||
             (expr.rhs != nullptr && ExprReadsVar(*expr.rhs, name));
    case ExprKind::kCall:
      for (const auto& arg : expr.args) {
        if (arg.value != nullptr && ExprReadsVar(*arg.value, name)) {
          return true;
        }
      }
      return false;
    default:
      return false;
  }
}

void BodyWalker::WalkStmt(const StmtNode& stmt) {
  switch (stmt.kind) {
    case StmtKind::kAssign: {
      if (stmt.value != nullptr) WalkExprReads(*stmt.value);
      if (!stmt.target_dims.empty()) {
        WalkDimReads(stmt.target_dims);
        RecordIndexedWrite(stmt);
        return;
      }
      // Scalar accumulation: s = f(s, ...) against the pre-iteration value.
      if (definite_.count(stmt.target) == 0 && stmt.value != nullptr &&
          !IsActiveLoopVar(stmt.target) &&
          ExprReadsVar(*stmt.value, stmt.target)) {
        VarInfo& vi = vars_[stmt.target];
        vi.accum = true;
        if (vi.accum_line == 0) vi.accum_line = stmt.line;
      }
      RecordPlainWrite(stmt.target, stmt.line);
      return;
    }
    case StmtKind::kMultiAssign:
      if (stmt.value != nullptr) WalkExprReads(*stmt.value);
      for (const auto& target : stmt.targets) {
        RecordPlainWrite(target, stmt.line);
      }
      return;
    case StmtKind::kIf: {
      if (stmt.condition != nullptr) WalkExprReads(*stmt.condition);
      const std::set<std::string> before = definite_;
      WalkStmts(stmt.body);
      std::set<std::string> after_then = definite_;
      definite_ = before;
      WalkStmts(stmt.else_body);
      // Definite after the if = defined on both paths.
      std::set<std::string> merged;
      for (const auto& name : after_then) {
        if (definite_.count(name) > 0) merged.insert(name);
      }
      definite_ = std::move(merged);
      return;
    }
    case StmtKind::kFor: {  // inner for / nested parfor
      if (stmt.from != nullptr) WalkExprReads(*stmt.from);
      if (stmt.to != nullptr) WalkExprReads(*stmt.to);
      if (stmt.step != nullptr) WalkExprReads(*stmt.step);
      size_t pushed_facts = 0;
      bool pushed_range = false;
      EnterLoop(stmt, &pushed_facts, &pushed_range);
      const std::set<std::string> before = definite_;
      definite_.insert(stmt.loop_var);
      WalkStmts(stmt.body);
      definite_ = before;  // the loop may run zero iterations
      LeaveLoop(pushed_facts, pushed_range);
      return;
    }
    case StmtKind::kWhile: {
      if (stmt.condition != nullptr) WalkExprReads(*stmt.condition);
      const std::set<std::string> before = definite_;
      WalkStmts(stmt.body);
      definite_ = before;
      return;
    }
    case StmtKind::kExprStmt:
      if (stmt.value != nullptr) WalkExprReads(*stmt.value);
      return;
    case StmtKind::kFuncDef:
      return;  // compiled separately; does not touch loop state
  }
}

void BodyWalker::WalkStmts(const std::vector<StmtPtr>& stmts) {
  for (const auto& stmt : stmts) WalkStmt(*stmt);
}

void BodyWalker::TestVariable(const std::string& name, const VarInfo& vi,
                              ParForDepInfo* info) {
  const auto& accesses = vi.accesses;
  for (size_t i = 0; i < accesses.size(); ++i) {
    for (size_t j = i; j < accesses.size(); ++j) {
      const Access& a = accesses[i];
      const Access& b = accesses[j];
      if (!a.is_write && !b.is_write) continue;
      if (i == j && !a.is_write) continue;
      PairResult r = TestPair(a, b, parfor_.loop_var, bounds_);
      if (r.verdict == PairVerdict::kIndependent) continue;
      std::ostringstream msg;
      msg << "result '" << name << "': ";
      const char* kind_a = a.is_write ? "write" : "read";
      const char* kind_b = b.is_write ? "write" : "read";
      if (r.verdict == PairVerdict::kDependent) {
        msg << "cross-iteration dependence between " << kind_a << " at line "
            << a.line << " and " << kind_b << " at line " << b.line;
        if (r.distance != 0) msg << " (distance " << r.distance << ")";
        AddFinding(info, /*blocking=*/true, "carried-dependence", msg.str(),
                   a.line);
      } else {
        msg << "cannot prove " << kind_a << " at line " << a.line
            << " independent of " << kind_b << " at line " << b.line;
        if (r.nonaffine) msg << " (subscript not affine in the loop variable)";
        AddFinding(info, /*blocking=*/false, "possible-dependence", msg.str(),
                   a.line);
      }
    }
  }
}

void BodyWalker::Classify(ParForDepInfo* info) {
  for (const auto& [name, vi] : vars_) {
    if (vi.has_indexed_write) {
      if (vi.shared_plain_write) {
        AddFinding(info, /*blocking=*/false, "mixed-write",
                   "result '" + name +
                       "' is both indexed-written and whole-assigned in the "
                       "body",
                   vi.plain_write_line);
      }
      if (vi.shared_full_read) {
        AddFinding(info, /*blocking=*/false, "whole-read",
                   "result '" + name + "' is read whole at line " +
                       std::to_string(vi.full_read_line) +
                       " while iterations write slices of it",
                   vi.full_read_line);
      }
      TestVariable(name, vi, info);
      continue;
    }
    if (!vi.shared_plain_write) continue;  // pure input
    if (vi.accum) {
      AddFinding(info, /*blocking=*/false, "scalar-accumulation",
                 "shared variable '" + name +
                     "' is accumulated across iterations (" + name + " = ... " +
                     name + " ... at line " + std::to_string(vi.accum_line) +
                     ")",
                 vi.accum_line);
      continue;
    }
    if (vi.shared_read) {
      AddFinding(info, /*blocking=*/false, "read-overwritten",
                 "shared variable '" + name + "' is read at line " +
                     std::to_string(vi.shared_read_line) +
                     " before its per-iteration definition and overwritten "
                     "at line " +
                     std::to_string(vi.plain_write_line),
                 vi.shared_read_line);
      continue;
    }
    // Unread whole-variable overwrite: no finding — the loop may stay
    // parallel — but the merge must take the last writer wholesale (workers
    // merge in ascending chunk order, so last writer == highest iteration
    // that wrote == the sequential outcome). The cell-wise diff used for
    // sliced results would let an earlier worker's value survive whenever
    // the last write restores a cell's initial value, so annotate the
    // variable for ParForBlock's result merge.
    info->plain_overwrites.push_back(name);
  }
}

ParForDepInfo BodyWalker::Run() {
  info_.analyzed = true;
  CollectWrites(parfor_.body);

  // Literal parfor bounds enable the Banerjee test and exact trip counts.
  if (parfor_.from != nullptr && parfor_.to != nullptr &&
      parfor_.step == nullptr) {
    auto from = ExprToPoly(*parfor_.from);
    auto to = ExprToPoly(*parfor_.to);
    if (from.has_value() && to.has_value()) {
      auto fc = from->AsConst();
      auto tc = to->AsConst();
      if (fc.has_value() && tc.has_value()) {
        bounds_.literal = true;
        bounds_.lo = std::min(*fc, *tc);
        bounds_.hi = std::max(*fc, *tc);
      }
      // Base facts from the parfor header itself.
      if (fc.has_value() && *fc >= 1) {
        facts_.insert(parfor_.loop_var);
        if (to->terms.size() == 1) {
          const auto& [mono, coeff] = *to->terms.begin();
          if (mono.size() == 1 && coeff == 1 && IsInvariantSymbol(mono[0])) {
            facts_.insert(mono[0]);
          }
        }
      }
    }
  }

  definite_.insert(parfor_.loop_var);
  WalkStmts(parfor_.body);
  Classify(&info_);

  info_.verdict = ParForSafety::kSafe;
  for (const auto& finding : info_.findings) {
    if (finding.blocking) {
      info_.verdict = ParForSafety::kReject;
      break;
    }
    info_.verdict = ParForSafety::kSerialize;
  }
  return std::move(info_);
}

// ---------------------------------------------------------------------------
// Phase 2: instruction-level nondeterminism scan.
// ---------------------------------------------------------------------------

void ScanInstructions(const Program& program, const BasicBlock& block,
                      ParForDepInfo* info, std::set<std::string>* seen) {
  for (const auto& instruction : block.instructions()) {
    const std::string& opcode = instruction->opcode();
    if (!instruction->IsDeterministic()) {
      if (seen->insert("op:" + opcode).second) {
        AddFinding(info, /*blocking=*/false, "nondet-op",
                   "nondeterministic operation '" + opcode +
                       "' without a literal seed inside the parallel body",
                   instruction->source_line());
      }
      continue;
    }
    const OpcodeEffect* effect = LookupOpcode(instruction->opcode_id());
    if (effect != nullptr && effect->dynamic_dispatch) {
      if (seen->insert("dyn:" + opcode).second) {
        AddFinding(info, /*blocking=*/false, "nondet-call",
                   "dynamically dispatched call ('" + opcode +
                       "') inside the parallel body defeats the static "
                       "determinism analysis",
                   instruction->source_line());
      }
      continue;
    }
    if (opcode == "fcall") {
      const auto* call =
          static_cast<const FunctionCallInstruction*>(instruction.get());
      const Function* fn = program.GetFunction(call->function_name());
      if (fn != nullptr && !fn->deterministic() &&
          seen->insert("fn:" + call->function_name()).second) {
        AddFinding(info, /*blocking=*/false, "nondet-call",
                   "call to nondeterministic function '" +
                       call->function_name() + "' inside the parallel body",
                   instruction->source_line());
      }
    }
  }
}

/// Scans the body of every analyzed parfor — predicates included, they
/// run in the workers too — and settles its verdict from all findings.
struct ParForFinalizer {
  const Program& program;
  void Control(ParForBlock& parfor, const std::string&) {
    ParForDepInfo* info = parfor.mutable_dep_info();
    if (!info->analyzed) return;
    std::set<std::string> seen;
    WalkBlocks(parfor.body(), Predicates::kVisit,
               [&](const BasicBlock& body_block) {
                 ScanInstructions(program, body_block, info, &seen);
               });
    info->verdict = ParForSafety::kSafe;
    for (const auto& finding : info->findings) {
      if (finding.blocking) {
        info->verdict = ParForSafety::kReject;
        break;
      }
      info->verdict = ParForSafety::kSerialize;
    }
  }
};

struct ParForCollector {
  const std::string& function;
  std::vector<ParForBlockRef>* out;
  void Control(const ParForBlock& parfor, const std::string& loc) {
    out->push_back({&parfor, function, loc});
  }
};

}  // namespace

ParForDepInfo AnalyzeParForStatement(const StmtNode& stmt) {
  BodyWalker walker(stmt);
  return walker.Run();
}

ParForDepInfo AnalyzeParForStatement(
    const StmtNode& stmt,
    const std::unordered_map<std::string, int64_t>& known_consts) {
  BodyWalker walker(stmt, &known_consts);
  return walker.Run();
}

void FinalizeParForAnalysis(Program* program) {
  ParForFinalizer finalizer{*program};
  ForEachScope(program, [&](std::vector<BlockPtr>& body, const std::string&) {
    WalkBlocks(body, Predicates::kSkip, finalizer);
  });
}

std::vector<ParForBlockRef> CollectParForBlocks(const Program& program) {
  std::vector<ParForBlockRef> out;
  auto collect = [&out](const std::vector<BlockPtr>& body,
                        const std::string& scope) {
    ParForCollector collector{scope, &out};
    WalkBlocks(body, Predicates::kSkip, collector, scope);
  };
  std::vector<std::string> names;
  for (const auto& [name, fn] : program.functions()) {
    (void)fn;
    names.push_back(name);
  }
  std::sort(names.begin(), names.end());
  for (const auto& name : names) {
    collect(program.GetFunction(name)->body(), name);
  }
  collect(program.main(), "main");
  return out;
}

}  // namespace lima
