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
// candidate table, setting one bit per (operand, candidate); the compiled
// expression then decides 64 candidates per word and the copy's count is
// a popcount. The estimator's copies are medianed exactly like plain F0,
// and the reported SE is the median copy's plug-in. Accuracy degrades
// with the ratio |union of operands| / |E| — small intersections need
// capacity — which EXPERIMENTS.md E19 quantifies against exact ground
// truth.
//
// A copy's count depends only on that copy's samples, so the copies run
// on a ThreadPool — by default MergeEngine::shared()'s, the one the
// referee's unions already use, so a query and a merge take turns on the
// same cores instead of oversubscribing them with a second pool. The pool
// runs min(copies, slots) chunks of contiguous copies; each chunk has its
// own copy of the compiled program and its thread's candidate table, and
// writes only its copies' outcomes, so every QueryResult field is
// bit-identical for any pool size (a 0-worker pool runs inline). Every
// QueryError is thrown on the caller before the job starts. The table is
// per thread and kept across queries, within kScratchSlack times what the
// current query needs (DESIGN.md §13.3).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/bits.h"
#include "common/dense_map.h"
#include "core/merge_engine.h"
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
// first-seen order, with one membership bitset row per operand. prepare()
// sizes it for a query: an open-addressing table of (label, id) slots at
// load <= 0.8 for up to `max_candidates` labels a pass, so a pass never
// regrows it. A slot belongs to the current pass only if it carries the
// pass's stamp, so reset() empties the table by bumping the stamp instead
// of clearing it. Outside a pass every row word is zero, so storage kept
// from a larger query is ready for any smaller shape.
class CandidateSet {
 public:
  // prepare() keeps storage up to this multiple of what a query needs.
  static constexpr std::size_t kScratchSlack = 4;

  CandidateSet() = default;
  CandidateSet(std::size_t operands, std::size_t max_candidates) {
    prepare(operands, max_candidates);
  }

  // bytes_used() of a set freshly sized for this shape.
  static std::size_t bytes_for(std::size_t operands, std::size_t max_candidates) noexcept {
    return table_size_for(max_candidates) * sizeof(Slot) +
           operands * ((max_candidates + 63) / 64) * sizeof(std::uint64_t);
  }

  // Readies the (empty) set for `operands` rows and at most
  // `max_candidates` distinct labels a pass. Storage is kept while it is at
  // most kScratchSlack times bytes_for(operands, max_candidates), grown to
  // fit if short, and otherwise released and allocated at exactly this
  // shape.
  void prepare(std::size_t operands, std::size_t max_candidates) {
    const std::size_t stride = (max_candidates + 63) / 64;
    const std::size_t words = operands * stride;
    const std::size_t table = table_size_for(max_candidates);
    const bool shrink = bytes_used() > kScratchSlack * bytes_for(operands, max_candidates);
    if (shrink || slots_.size() < table) {
      slots_ = std::vector<Slot>(table);
      stamp_ = 1;
    }
    if (shrink) {
      rows_ = std::vector<std::uint64_t>(words, 0);
    } else if (rows_.size() < words) {
      rows_.reserve(words);
      rows_.resize(words, 0);
    }
    mask_ = slots_.size() - 1;
    operands_ = operands;
    stride_ = stride;
  }

  // Marks `label` as present in operand `operand`.
  void add(std::size_t operand, std::uint64_t label) {
    std::size_t pos = detail::dense_map_mix(label) & mask_;
    std::uint32_t id;
    while (true) {
      Slot& slot = slots_[pos];
      if (slot.stamp != stamp_) {
        slot = {label, size_, stamp_};
        id = size_++;
        break;
      }
      if (slot.label == label) {
        id = slot.id;
        break;
      }
      pos = (pos + 1) & mask_;
    }
    rows_[operand * stride_ + id / 64] |= std::uint64_t{1} << (id % 64);
  }

  std::size_t size() const noexcept { return size_; }

  std::size_t count(WordProgram& program) const {
    return program.count(rows_.data(), stride_, size_);
  }

  void reset() {
    const std::size_t used = (size_ + 63) / 64;
    for (std::size_t j = 0; j < operands_; ++j) {
      std::fill_n(rows_.begin() + static_cast<std::ptrdiff_t>(j * stride_), used, 0);
    }
    size_ = 0;
    if (++stamp_ == 0) {  // wrapped: clear the stamps once, skipping 0
      for (Slot& slot : slots_) slot.stamp = 0;
      stamp_ = 1;
    }
  }

  std::size_t bytes_used() const noexcept {
    return slots_.capacity() * sizeof(Slot) + rows_.capacity() * sizeof(std::uint64_t);
  }

 private:
  struct Slot {
    std::uint64_t label = 0;
    std::uint32_t id = 0;
    std::uint32_t stamp = 0;  // the pass that filled it; 0 = never
  };

  static std::size_t table_size_for(std::size_t n) noexcept {
    return static_cast<std::size_t>(ceil_pow2(n + n / 4 + 16));
  }

  std::vector<Slot> slots_;
  std::size_t mask_ = 0;
  std::uint32_t stamp_ = 1;
  std::uint32_t size_ = 0;
  std::size_t operands_ = 0;  // rows in use
  std::size_t stride_ = 0;    // words per operand row
  std::vector<std::uint64_t> rows_;
};

// The calling thread's candidate set, kept across queries; evaluate()
// prepare()s it for each query. Never used by two passes at once: a chunk
// finishes its copies before its thread takes another chunk.
CandidateSet& thread_candidates();

// Evaluates `expr` over sketches named by its operands. `resolve` returns
// the estimator for an operand leaf, or nullptr for an unknown name (which
// becomes a QueryError at that leaf's position). All resolved estimators
// must be pairwise mergeable (same params + seed — i.e. coordinated). The
// copies run on `pool`; the resolved sketches must stay unchanged until
// the call returns.
template <typename Est>
QueryResult evaluate(const Expr& expr,
                     const std::function<const Est*(const Expr&)>& resolve,
                     ThreadPool& pool = MergeEngine::shared().pool()) {
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
  const WordProgram program(expr, table);

  const std::size_t copies = ops.front()->num_copies();
  std::size_t max_entries = 0;
  for (std::size_t i = 0; i < copies; ++i) {
    std::size_t entries = 0;
    for (const Est* op : ops) entries += op->copy(i).entries().size();
    max_entries = std::max(max_entries, entries);
  }
  struct CopyOutcome {
    double est = 0.0;
    int level = 0;
    std::size_t candidates = 0;
  };
  std::vector<CopyOutcome> outcomes(copies);
  const std::size_t chunks = std::min(copies, pool.worker_count() + 1);
  pool.parallel_for(chunks, [&](std::size_t c) {
    WordProgram chunk_program = program;  // count() uses its stack as scratch
    CandidateSet& candidates = thread_candidates();
    candidates.prepare(ops.size(), max_entries);
    for (std::size_t i = c * copies / chunks; i < (c + 1) * copies / chunks; ++i) {
      int level = 0;
      for (const Est* op : ops) level = std::max(level, op->copy(i).level());
      for (std::size_t j = 0; j < ops.size(); ++j) {
        for (const auto& e : ops[j]->copy(i).entries()) {
          if (e.value.level >= level) candidates.add(j, e.key);
        }
      }
      const std::size_t count = candidates.count(chunk_program);
      outcomes[i] = {std::ldexp(static_cast<double>(count), level), level,
                     candidates.size()};
      candidates.reset();
    }
  });
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
