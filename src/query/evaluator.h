// DLRT-style expression evaluation over coordinated samples.
//
// Set expressions (union, intersection, difference — and Jaccard as
// |A & B| / |A | B|) over any number of coordinated operands, following
// "A Framework for Estimating Stream Expression Cardinalities"
// (Dasgupta–Lang–Rhodes–Thaler; PAPERS.md): because every operand sketch
// flips the SAME per-label coins (shared hash), restricting every sample
// to the common threshold level L = max over operands of level_j makes the
// samples comparable — S_j^L is exactly {x in set_j : level(x) >= L}. The
// candidate set C = union of the S_j^L then contains every sampled label of
// every bounded expression's support, each candidate's per-operand
// membership is exact, and
//
//   |E|  ~  2^L * |{x in C : x satisfies E}|
//
// with the count Binomial(|E|, 2^-L), giving the plug-in variance bound
//   Var = |E| * (2^L - 1)   =>   SE ~ sqrt(est * (2^L - 1)).
//
// Per copy, that's one scan over the operands' retained entries into a
// candidate table sized once per call, setting one bit per (operand,
// candidate); the compiled expression then decides 64 candidates per
// word and the copy's count is a popcount. The estimator's copies are
// medianed exactly like plain F0, and the reported SE is the median
// copy's plug-in. Accuracy degrades with the ratio |union of operands| /
// |E| — small intersections need capacity — which EXPERIMENTS.md E19
// quantifies against exact ground truth.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/dense_map.h"
#include "query/ast.h"
#include "query/parser.h"

namespace ustream::query {

struct QueryResult {
  double estimate = 0.0;
  double std_error = 0.0;     // plug-in SE: sqrt(estimate * (2^L - 1))
  int level = 0;              // common threshold level of the median copy
  std::size_t operands = 0;   // distinct operand leaves in the expression
  std::size_t candidates = 0; // candidate labels at level L (median copy)
};

// Maps each distinct operand leaf to its membership row; shared by the sketch
// and exact evaluators so their membership logic is identical by
// construction. Throws QueryError for >64 distinct operands or an
// unbounded expression.
class OperandTable {
 public:
  explicit OperandTable(const Expr& expr) : leaves_(collect_operands(expr)) {
    if (leaves_.size() > 64) {
      throw QueryError(expr.pos, "too many distinct operands (" +
                                     std::to_string(leaves_.size()) +
                                     ", max 64)");
    }
    if (!is_bounded(expr)) {
      throw QueryError(expr.pos,
                       "unbounded expression (complement without an "
                       "intersecting bounded operand): rewrite as e.g. "
                       "site:0 & !site:1");
    }
    for (const Expr* leaf : leaves_) keys_.push_back(operand_key(*leaf));
  }

  const std::vector<const Expr*>& leaves() const noexcept { return leaves_; }
  std::size_t size() const noexcept { return leaves_.size(); }

  std::uint32_t row_of(const Expr& leaf) const {
    const std::string key = operand_key(leaf);
    for (std::size_t i = 0; i < keys_.size(); ++i) {
      if (keys_[i] == key) return static_cast<std::uint32_t>(i);
    }
    throw QueryError(leaf.pos, "operand '" + key + "' missing from table");
  }

 private:
  std::vector<const Expr*> leaves_;
  std::vector<std::string> keys_;
};

// The expression compiled once to a postfix program over 64-bit words. Bit
// k of a word is candidate k's membership, so one pass decides 64
// candidates: `|` is OR, `&` AND, `\` AND-NOT, `!` NOT.
class WordProgram {
 public:
  WordProgram(const Expr& expr, const OperandTable& table);

  // Candidates among columns [0, n) of the operand rows (row j starts at
  // rows + j * stride) that satisfy the expression.
  std::size_t count(const std::uint64_t* rows, std::size_t stride,
                    std::size_t n);

 private:
  enum class Op : std::uint8_t { kLeaf, kUnion, kIntersect, kDifference, kComplement };
  struct Inst {
    Op op = Op::kLeaf;
    std::uint32_t row = 0;  // kLeaf: the operand's row
  };

  void compile(const Expr& e, const OperandTable& table);

  std::vector<Inst> prog_;
  std::vector<std::uint64_t> stack_;  // sized to prog_ once compiled
};

// The candidate labels of one evaluation pass, numbered densely in
// first-seen order, with one membership bitset row per operand. Sized once
// for `max_candidates`; reset() empties it for the next pass without ever
// regrowing the table.
class CandidateSet {
 public:
  CandidateSet(std::size_t operands, std::size_t max_candidates)
      : ids_(max_candidates),
        stride_((max_candidates + 63) / 64),
        rows_(operands * stride_, 0) {}

  // Marks `label` as present in operand `operand`.
  void add(std::size_t operand, std::uint64_t label) {
    const std::uint32_t id =
        ids_.try_emplace(label, static_cast<std::uint32_t>(ids_.size())).first->value;
    rows_[operand * stride_ + id / 64] |= std::uint64_t{1} << (id % 64);
  }

  std::size_t size() const noexcept { return ids_.size(); }

  std::size_t count(WordProgram& program) const {
    return program.count(rows_.data(), stride_, ids_.size());
  }

  void reset() {
    const std::size_t used = (ids_.size() + 63) / 64;
    for (std::size_t row = 0; row < rows_.size(); row += stride_) {
      std::fill_n(rows_.begin() + static_cast<std::ptrdiff_t>(row), used, 0);
    }
    ids_.reset();
  }

 private:
  DenseMap<std::uint32_t> ids_;  // label -> candidate id
  std::size_t stride_;           // words per operand row
  std::vector<std::uint64_t> rows_;
};

// Evaluates `expr` over sketches named by its operands. `resolve` returns
// the estimator for an operand leaf, or nullptr for an unknown name (which
// becomes a QueryError at that leaf's position). All resolved estimators
// must be pairwise mergeable (same params + seed — i.e. coordinated).
template <typename Est>
QueryResult evaluate(const Expr& expr,
                     const std::function<const Est*(const Expr&)>& resolve) {
  const OperandTable table(expr);
  std::vector<const Est*> ops;
  ops.reserve(table.size());
  for (const Expr* leaf : table.leaves()) {
    const Est* est = resolve(*leaf);
    if (est == nullptr) {
      throw QueryError(leaf->pos, "unknown operand '" + operand_key(*leaf) + "'");
    }
    if (!ops.empty() && !ops.front()->can_merge_with(*est)) {
      throw QueryError(leaf->pos, "operand '" + operand_key(*leaf) +
                                      "' is not coordinated with '" +
                                      operand_key(*table.leaves().front()) +
                                      "' (different parameters or seed)");
    }
    ops.push_back(est);
  }
  WordProgram program(expr, table);

  const std::size_t copies = ops.front()->num_copies();
  std::size_t max_entries = 0;
  for (std::size_t i = 0; i < copies; ++i) {
    std::size_t entries = 0;
    for (const Est* op : ops) entries += op->copy(i).entries().size();
    max_entries = std::max(max_entries, entries);
  }
  CandidateSet candidates(ops.size(), max_entries);
  struct CopyOutcome {
    double est = 0.0;
    int level = 0;
    std::size_t candidates = 0;
  };
  std::vector<CopyOutcome> outcomes(copies);
  for (std::size_t i = 0; i < copies; ++i) {
    int level = 0;
    for (const Est* op : ops) level = std::max(level, op->copy(i).level());
    for (std::size_t j = 0; j < ops.size(); ++j) {
      for (const auto& e : ops[j]->copy(i).entries()) {
        if (e.value.level >= level) candidates.add(j, e.key);
      }
    }
    const std::size_t count = candidates.count(program);
    outcomes[i] = {std::ldexp(static_cast<double>(count), level), level,
                   candidates.size()};
    candidates.reset();
  }
  // Median copy by estimate (lower middle for even copy counts, so the
  // reported level/candidates always come from a concrete copy).
  std::vector<std::size_t> order(copies);
  for (std::size_t i = 0; i < copies; ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return outcomes[a].est < outcomes[b].est;
  });
  const CopyOutcome& med = outcomes[order[(copies - 1) / 2]];

  QueryResult result;
  result.estimate = med.est;
  result.std_error =
      std::sqrt(med.est * (std::ldexp(1.0, med.level) - 1.0));
  result.level = med.level;
  result.operands = table.size();
  result.candidates = med.candidates;
  return result;
}

// Exact reference evaluator: operands resolve to full label sets. Same
// CandidateSet and WordProgram, no sampling — tests compare evaluate()
// against this within the DLRT error envelope.
double exact_evaluate(
    const Expr& expr,
    const std::function<const std::vector<std::uint64_t>*(const Expr&)>& resolve);

}  // namespace ustream::query
