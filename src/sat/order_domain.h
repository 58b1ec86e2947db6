// Strict-partial-order domains and the one rule set that enforces them.
//
// Φ(Se) (§V-A) asks each value-level currency order ≺^v_A to be a strict
// partial order: asymmetry (¬x_ab ∨ ¬x_ba) and transitivity
// (¬x_ab ∨ ¬x_bc ∨ x_ac) over the order variables x_ab of A's value
// pairs. Written out as clauses that is O(d³) per attribute. A Cnf instead
// carries each attribute's order domain — the variables x_ab, appended as
// values arrive — and every consumer enforces the axioms through
// PropagateOrderLit: the solver's propagator, DeduceOrder's unit
// propagation and the solver's witness check. Only ToDimacs writes the
// axioms out as clauses, so exported formulas stay standalone.

#ifndef CCR_SAT_ORDER_DOMAIN_H_
#define CCR_SAT_ORDER_DOMAIN_H_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "src/common/status.h"
#include "src/sat/literal.h"

namespace ccr::sat {

/// \brief The order variables x_ij of one attribute's value pairs.
///
/// Values are appended one at a time; value n brings the 2n variables
/// pairing it with every earlier value, so the variables of values
/// [0, n) never move.
class OrderDomain {
 public:
  /// Number of values.
  int size() const { return size_; }

  /// x_ij ("value i is less current than value j") for distinct i, j.
  Var VarOf(int i, int j) const {
    CCR_DCHECK(i != j && i >= 0 && j >= 0 && i < size_ && j < size_);
    const int hi = std::max(i, j);
    return vars_[static_cast<size_t>(hi) * (hi - 1) + 2 * std::min(i, j) +
                 (i > j ? 1 : 0)];
  }

  /// The variables value n brought: x_{i n} then x_{n i}, for each i < n.
  std::span<const Var> ValueVars(int n) const {
    return std::span<const Var>(vars_).subspan(
        static_cast<size_t>(n) * (n - 1), 2 * static_cast<size_t>(n));
  }

  /// Appends value size(); `vars` is laid out as ValueVars(size()).
  void AppendValue(std::span<const Var> vars) {
    CCR_CHECK(vars.size() == 2 * static_cast<size_t>(size_));
    vars_.insert(vars_.end(), vars.begin(), vars.end());
    ++size_;
  }

  void Clear() {
    size_ = 0;
    vars_.clear();
  }

 private:
  int size_ = 0;
  std::vector<Var> vars_;
};

/// \brief The current values of one order domain's variables, as bit
/// rows and columns: bit k of value a's true row is set iff x_ak is true,
/// bit k of value b's true column iff x_kb is true, and likewise for
/// false. The rules then test rows against columns 64 values at a time.
class OrderState {
 public:
  /// Grows to `d` values, the new variables unassigned.
  void Grow(int d) {
    if (d <= size_) return;
    const int words = (d + 63) / 64;
    if (words > words_) {
      const int wider = std::max(words, 2 * words_);
      for (std::vector<uint64_t>& m : bits_) {
        std::vector<uint64_t> moved(static_cast<size_t>(size_) * wider, 0);
        for (int r = 0; r < size_; ++r) {
          std::copy_n(m.begin() + static_cast<size_t>(r) * words_, words_,
                      moved.begin() + static_cast<size_t>(r) * wider);
        }
        m.swap(moved);
      }
      words_ = wider;
    }
    size_ = d;
    for (std::vector<uint64_t>& m : bits_) {
      m.resize(static_cast<size_t>(size_) * words_, 0);
    }
  }

  void Clear() {
    size_ = 0;
    for (std::vector<uint64_t>& m : bits_) m.clear();
  }

  /// x_ab becomes `value`.
  void Assign(int a, int b, bool value) {
    SetBit(value ? kTrueRow : kFalseRow, a, b);
    SetBit(value ? kTrueCol : kFalseCol, b, a);
  }
  /// x_ab becomes unassigned.
  void Unassign(int a, int b) {
    for (int m : {kTrueRow, kFalseRow}) ClearBit(m, a, b);
    for (int m : {kTrueCol, kFalseCol}) ClearBit(m, b, a);
  }

  Lbool ValueOf(int a, int b) const {
    if (TestBit(kTrueRow, a, b)) return Lbool::kTrue;
    if (TestBit(kFalseRow, a, b)) return Lbool::kFalse;
    return Lbool::kUndef;
  }

 private:
  template <typename OnUnit, typename OnConflict>
  friend bool PropagateOrderLit(const OrderDomain& dom,
                                const OrderState& state, int a, int b,
                                bool x_ab, OnUnit&& on_unit,
                                OnConflict&& on_conflict);

  enum { kTrueRow, kFalseRow, kTrueCol, kFalseCol };

  const uint64_t* Row(int m, int r) const {
    return bits_[m].data() + static_cast<size_t>(r) * words_;
  }
  void SetBit(int m, int r, int k) {
    bits_[m][static_cast<size_t>(r) * words_ + (k >> 6)] |= uint64_t{1}
                                                             << (k & 63);
  }
  void ClearBit(int m, int r, int k) {
    bits_[m][static_cast<size_t>(r) * words_ + (k >> 6)] &=
        ~(uint64_t{1} << (k & 63));
  }
  bool TestBit(int m, int r, int k) const {
    return (Row(m, r)[k >> 6] >> (k & 63)) & 1;
  }

  // Calls visit(k) for every k other than a and b whose bit is set in
  // mask(w), the w-th word of a row-sized bit vector; stops when visit
  // returns false.
  template <typename Mask, typename Visit>
  bool ForEachK(int a, int b, Mask&& mask, Visit&& visit) const {
    const int n_words = (size_ + 63) / 64;
    for (int w = 0; w < n_words; ++w) {
      uint64_t m = mask(w);
      if (w == (a >> 6)) m &= ~(uint64_t{1} << (a & 63));
      if (w == (b >> 6)) m &= ~(uint64_t{1} << (b & 63));
      while (m != 0) {
        const int k = w * 64 + std::countr_zero(m);
        m &= m - 1;
        if (!visit(k)) return false;
      }
    }
    return true;
  }

  int size_ = 0;
  int words_ = 0;  // words per row
  std::vector<uint64_t> bits_[4];
};

/// The order rule set: unit propagation over the axiom clauses of `dom`
/// that the literal p on x_ab falsifies, just after p became true
/// (`x_ab` is p's polarity), under the values in `state`. The rules, for
/// every k other than a and b:
///   x_ab true  ⇒ x_ba false;
///              x_bk true ⇒ x_ak true;   x_ak false ⇒ x_bk false;
///              x_ka true ⇒ x_kb true;   x_kb false ⇒ x_ka false;
///   x_ab false ⇒ x_ak true ⇒ x_kb false; x_kb true ⇒ x_ak false.
/// These are exactly the units the clauses (¬x_ab ∨ ¬x_ba),
/// (¬x_ab ∨ ¬x_bk ∨ x_ak), (¬x_ka ∨ ¬x_ab ∨ x_kb) and
/// (¬x_ak ∨ ¬x_kb ∨ x_ab) yield once ¬p is false, so running this for
/// every literal that becomes true derives what unit propagation over
/// the written-out axioms derives, no more and no less.
///
/// A clause (¬p ∨ u ∨ w) left with one open literal calls
/// `on_unit(q, r)`: q is implied and r is the clause's other false
/// literal besides ¬p (kLitUndef for asymmetry, whose clause has two
/// literals). A clause with every literal false calls
/// `on_conflict(u, w)` (w kLitUndef for asymmetry); propagation stops
/// and returns false when it returns false. Conflicts are reported
/// before units. A caller that assigns a unit at once must record it in
/// `state` before returning from on_unit.
template <typename OnUnit, typename OnConflict>
bool PropagateOrderLit(const OrderDomain& dom, const OrderState& state,
                       int a, int b, bool x_ab, OnUnit&& on_unit,
                       OnConflict&& on_conflict) {
  using S = OrderState;
  // The clauses (¬p ∨ u_k ∨ w_k) for every k: bit k of ut / uf says u_k
  // is true / false, and likewise wt / wf for w_k.
  const auto clauses = [&](const uint64_t* ut, const uint64_t* uf, auto u,
                           const uint64_t* wt, const uint64_t* wf, auto w) {
    return state.ForEachK(
               a, b, [&](int i) { return uf[i] & wf[i]; },
               [&](int k) { return on_conflict(u(k), w(k)); }) &&
           state.ForEachK(
               a, b, [&](int i) { return uf[i] & ~wt[i] & ~wf[i]; },
               [&](int k) {
                 on_unit(w(k), u(k));
                 return true;
               }) &&
           state.ForEachK(
               a, b, [&](int i) { return wf[i] & ~ut[i] & ~uf[i]; },
               [&](int k) {
                 on_unit(u(k), w(k));
                 return true;
               });
  };
  const auto pos = [&dom](int i, int j) { return Lit::Pos(dom.VarOf(i, j)); };
  const auto neg = [&dom](int i, int j) { return Lit::Neg(dom.VarOf(i, j)); };
  const uint64_t* t_a = state.Row(S::kTrueRow, a);
  const uint64_t* f_a = state.Row(S::kFalseRow, a);
  const uint64_t* tc_b = state.Row(S::kTrueCol, b);
  const uint64_t* fc_b = state.Row(S::kFalseCol, b);
  if (!x_ab) {
    // (¬x_ak ∨ ¬x_kb ∨ x_ab)
    return clauses(f_a, t_a, [&](int k) { return neg(a, k); }, fc_b, tc_b,
                   [&](int k) { return neg(k, b); });
  }
  // (¬x_ab ∨ ¬x_ba)
  const Lbool ba = state.ValueOf(b, a);
  if (ba == Lbool::kTrue && !on_conflict(neg(b, a), kLitUndef)) return false;
  if (ba == Lbool::kUndef) on_unit(neg(b, a), kLitUndef);
  // (¬x_ab ∨ ¬x_bk ∨ x_ak) and (¬x_ka ∨ ¬x_ab ∨ x_kb)
  return clauses(state.Row(S::kFalseRow, b), state.Row(S::kTrueRow, b),
                 [&](int k) { return neg(b, k); }, t_a, f_a,
                 [&](int k) { return pos(a, k); }) &&
         clauses(state.Row(S::kFalseCol, a), state.Row(S::kTrueCol, a),
                 [&](int k) { return neg(k, a); }, tc_b, fc_b,
                 [&](int k) { return pos(k, b); });
}

}  // namespace ccr::sat

#endif  // CCR_SAT_ORDER_DOMAIN_H_
