// CNF formula container with pooled clause storage, plus order domains.
//
// The encoder (Φ(Se), §V-A) can emit hundreds of thousands of clauses per
// entity; storing every clause as its own vector would fragment the heap,
// so literals live in one contiguous pool with an offset table — the same
// layout database engines use for packed row storage. The strict-order
// axioms of Φ(Se) are not clauses here: the formula carries one order
// domain per attribute (src/sat/order_domain.h), and the formula means
// its clauses plus the asymmetry and transitivity axioms of every domain.

#ifndef CCR_SAT_CNF_H_
#define CCR_SAT_CNF_H_

#include <cstdint>
#include <initializer_list>
#include <span>
#include <string>
#include <vector>

#include "src/sat/literal.h"
#include "src/sat/order_domain.h"

namespace ccr::sat {

/// \brief An immutable-after-append list of clauses over vars [0, num_vars),
/// and the order domains whose axioms hold beside them.
class Cnf {
 public:
  Cnf() = default;

  /// Grows the variable universe to at least `n` variables.
  void EnsureVars(int n) {
    if (n > num_vars_) num_vars_ = n;
  }

  /// Allocates one fresh variable; returns its id.
  Var NewVar() { return num_vars_++; }

  int num_vars() const { return num_vars_; }
  int num_clauses() const { return static_cast<int>(starts_.size()) - 1; }

  /// Total number of literal slots across clauses.
  int64_t num_literals() const {
    return static_cast<int64_t>(pool_.size());
  }

  /// Appends a clause (disjunction of `lits`). Empty clauses are allowed
  /// and make the formula trivially unsatisfiable.
  void AddClause(std::span<const Lit> lits);
  void AddClause(std::initializer_list<Lit> lits) {
    AddClause(std::span<const Lit>(lits.begin(), lits.size()));
  }

  /// Convenience: unit / binary / ternary clauses.
  void AddUnit(Lit a) { AddClause({a}); }
  void AddBinary(Lit a, Lit b) { AddClause({a, b}); }
  void AddTernary(Lit a, Lit b, Lit c) { AddClause({a, b, c}); }

  /// View of clause `i`'s literals.
  std::span<const Lit> clause(int i) const {
    return std::span<const Lit>(pool_.data() + starts_[i],
                                starts_[i + 1] - starts_[i]);
  }

  /// Order domains: domain k's asymmetry and transitivity axioms are part
  /// of the formula without being clauses. The encoder keeps domain k for
  /// attribute k.
  int num_order_domains() const {
    return static_cast<int>(order_domains_.size());
  }
  const OrderDomain& order_domain(int k) const { return order_domains_[k]; }

  /// Grows the list of order domains to at least `n` (new ones empty).
  void EnsureOrderDomains(int n) {
    if (n > num_order_domains()) order_domains_.resize(n);
  }

  /// Appends a value to order domain `k`; `vars` holds x_{i new} then
  /// x_{new i} for each earlier value i (OrderDomain::ValueVars layout).
  void AppendOrderValue(int k, std::span<const Var> vars);

  /// Renders a compact textual summary ("p cnf V C" plus clause list when
  /// small) for diagnostics.
  std::string ToString() const;

  /// Removes every variable, clause and order domain but keeps the literal pool's and
  /// offset table's capacity, so a recycled formula (SessionScratch) can
  /// be refilled without re-growing its buffers from cold.
  void Clear() {
    num_vars_ = 0;
    pool_.clear();
    starts_.clear();
    starts_.push_back(0);
    order_domains_.clear();
  }

 private:
  int num_vars_ = 0;
  std::vector<Lit> pool_;
  std::vector<uint32_t> starts_{0};
  std::vector<OrderDomain> order_domains_;
};

}  // namespace ccr::sat

#endif  // CCR_SAT_CNF_H_
