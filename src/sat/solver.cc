#include "src/sat/solver.h"

#include <algorithm>
#include <string>

#include "src/common/status.h"

namespace ccr::sat {

namespace {

// VSIDS: variable and learnt-clause activity increments grow by 1/decay
// per conflict, so older bumps fade geometrically (MiniSat's defaults).
constexpr double kVarDecay = 0.95;
constexpr double kClauseDecay = 0.999;
// Restart after kRestartBase * Luby(i) conflicts in the i-th search run.
constexpr int64_t kRestartBase = 100;

// Vivification budget per Simplify() call (trail literals), so the
// between-round pass stays a small fraction of the round's solve time.
constexpr int64_t kVivifyPropBudget = 200'000;

// A relocated clause leaves this in its header slot, with the forwarding
// reference in the next word. No live header can collide: the smallest
// stored clause has size 2, so every real header is >= (2 << 3) = 16.
constexpr uint32_t kMovedHeader = 7;

}  // namespace

std::span<const SolverPreset> SolverPresets() {
  static const std::vector<SolverPreset> presets = [] {
    SolverOptions nogc;
    nogc.use_arena_gc = false;
    SolverOptions nosls;
    nosls.use_sls_seeding = false;
    SolverOptions nobackbone;
    nobackbone.use_backbone_deduce = false;
    return std::vector<SolverPreset>{
        {"modern", {}},
        {"sls", {}},
        {"legacy", SolverOptions::LegacyHeuristics()},
        {"nogc", nogc},
        {"nosls", nosls},
        {"nobackbone", nobackbone},
    };
  }();
  return presets;
}

Result<SolverOptions> SolverOptionsForPreset(std::string_view name) {
  for (const SolverPreset& p : SolverPresets()) {
    if (p.name == name) return p.options;
  }
  return Status::InvalidArgument("unknown solver preset '" +
                                 std::string(name) + "'");
}

Solver::Solver(SolverOptions options) : options_(options) {}

Var Solver::NewVar() {
  const Var v = static_cast<Var>(assigns_.size());
  assigns_.push_back(Lbool::kUndef);
  polarity_.push_back(false);
  frozen_.push_back(0);
  level_.push_back(0);
  reason_.push_back(kRefUndef);
  activity_.push_back(0.0);
  heap_pos_.push_back(-1);
  seen_.push_back(0);
  // 2 watch lists (and 2 binary implication lists) per var; after a Reset
  // the lists (already cleared) are still there and keep their buffers.
  while (watches_.size() < 2 * static_cast<size_t>(v) + 2) {
    watches_.emplace_back();
  }
  while (bins_.size() < 2 * static_cast<size_t>(v) + 2) {
    bins_.emplace_back();
  }
  HeapInsert(v);
  return v;
}

void Solver::Reset(SolverOptions options) {
  options_ = options;
  stats_ = {};
  last_call_ = {};
  ok_ = true;
  arena_.clear();
  clauses_.clear();
  learnts_.clear();
  // Keep the outer vectors (and each inner list's buffer); NewVar re-adopts
  // the lists as the variable universe regrows.
  for (std::vector<Watcher>& ws : watches_) ws.clear();
  for (std::vector<Lit>& bs : bins_) bs.clear();
  learnt_binaries_.clear();
  bin_conflict_[0] = bin_conflict_[1] = kLitUndef;
  assigns_.clear();
  polarity_.clear();
  frozen_.clear();
  level_.clear();
  reason_.clear();
  trail_.clear();
  trail_lim_.clear();
  qhead_ = 0;
  bhead_ = 0;
  activity_.clear();
  var_inc_ = 1.0;
  clause_inc_ = 1.0;
  heap_.clear();
  heap_pos_.clear();
  seen_.clear();
  analyze_toclear_.clear();
  model_.clear();
  conflict_core_.clear();
  max_learnts_ = 0;
  vivify_primed_ = false;
  arena_dead_words_ = 0;
  arena_peak_words_ = 0;
  arena_tmp_.clear();
  model_fresh_ = false;
  model_pool_.clear();
  model_pool_next_ = 0;
  probe_base_level_ = -1;
}

Solver::ClauseRef Solver::AllocClause(const std::vector<Lit>& lits,
                                      bool learnt) {
  const ClauseRef ref = static_cast<ClauseRef>(arena_.size());
  // Arena references must leave bit 31 free for the literal-encoded
  // binary reasons.
  CCR_CHECK(ref < kRefBinaryFlag);
  arena_.push_back((static_cast<uint32_t>(lits.size()) << 3) |
                   (learnt ? 1u : 0u));
  arena_.push_back(0);  // activity bits
  for (Lit l : lits) {
    arena_.push_back(static_cast<uint32_t>(l.index()));
  }
  arena_peak_words_ = std::max(arena_peak_words_, arena_.size());
  return ref;
}

void Solver::AttachClause(ClauseRef c) {
  CCR_DCHECK(ClauseSize(c) >= 3);
  const Lit* lits = ClauseLits(c);
  watches_[(~lits[0]).index()].push_back({c, lits[1]});
  watches_[(~lits[1]).index()].push_back({c, lits[0]});
}

void Solver::DetachClause(ClauseRef c) {
  const Lit* lits = ClauseLits(c);
  for (int i = 0; i < 2; ++i) {
    auto& ws = watches_[(~lits[i]).index()];
    for (size_t j = 0; j < ws.size(); ++j) {
      if (ws[j].cref == c) {
        ws[j] = ws.back();
        ws.pop_back();
        break;
      }
    }
  }
}

void Solver::AttachBinary(Lit a, Lit b) {
  bins_[(~a).index()].push_back(b);
  bins_[(~b).index()].push_back(a);
}

bool Solver::AddClause(std::vector<Lit> lits) {
  if (!ok_) return false;
  CCR_DCHECK(DecisionLevel() == 0);
  InvalidateModelCache();
  for (Lit l : lits) {
    while (l.var() >= num_vars()) NewVar();
  }
  // Simplify: drop duplicate/false literals; detect tautology/satisfied.
  std::sort(lits.begin(), lits.end());
  std::vector<Lit> out;
  Lit prev = kLitUndef;
  for (Lit l : lits) {
    if (l == prev) continue;
    if (l == ~prev) return true;  // tautology: p ∨ ~p
    const Lbool v = ValueOf(l);
    if (v == Lbool::kTrue) return true;  // already satisfied at level 0
    if (v == Lbool::kFalse) continue;    // already false at level 0
    out.push_back(l);
    prev = l;
  }
  if (out.empty()) {
    ok_ = false;
    return false;
  }
  if (out.size() == 1) {
    UncheckedEnqueue(out[0], kRefUndef);
    ok_ = (Propagate() == kRefUndef);
    return ok_;
  }
  if (out.size() == 2) {
    // Binaries never touch the arena: they live in the implicit
    // implication lists and propagate with literal-encoded reasons.
    AttachBinary(out[0], out[1]);
    return true;
  }
  const ClauseRef c = AllocClause(out, /*learnt=*/false);
  clauses_.push_back(c);
  AttachClause(c);
  return true;
}

void Solver::AddCnfFrom(const Cnf& cnf, int first_clause) {
  while (num_vars() < cnf.num_vars()) NewVar();
  std::vector<Lit> scratch;
  for (int i = first_clause; i < cnf.num_clauses(); ++i) {
    auto span = cnf.clause(i);
    scratch.assign(span.begin(), span.end());
    AddClause(std::move(scratch));
    scratch.clear();
  }
}

void Solver::UncheckedEnqueue(Lit p, ClauseRef from) {
  CCR_DCHECK(ValueOf(p) == Lbool::kUndef);
  assigns_[p.var()] = p.negated() ? Lbool::kFalse : Lbool::kTrue;
  level_[p.var()] = DecisionLevel();
  reason_[p.var()] = from;
  trail_.push_back(p);
}

Solver::ClauseRef Solver::Propagate() {
  ClauseRef conflict = kRefUndef;
  while (qhead_ < trail_.size()) {
    // Binary-first BFS: drain every pending binary implication before
    // touching a long clause. Binaries resolve with one contiguous list
    // scan — no arena access, no watcher juggling.
    while (bhead_ < trail_.size()) {
      const Lit bp = trail_[bhead_++];
      for (const Lit q : bins_[bp.index()]) {
        const Lbool v = ValueOf(q);
        if (v == Lbool::kTrue) continue;
        if (v == Lbool::kFalse) {
          bin_conflict_[0] = q;
          bin_conflict_[1] = ~bp;
          qhead_ = bhead_ = trail_.size();
          return kRefBinConflict;
        }
        ++stats_.binary_propagations;
        UncheckedEnqueue(q, MakeBinaryRef(~bp));
      }
    }
    const Lit p = trail_[qhead_++];
    ++stats_.propagations;
    auto& ws = watches_[p.index()];
    size_t i = 0, j = 0;
    const size_t n = ws.size();
    while (i < n) {
      Watcher w = ws[i];
      if (ValueOf(w.blocker) == Lbool::kTrue) {
        ws[j++] = ws[i++];
        continue;
      }
      const ClauseRef c = w.cref;
      Lit* lits = ClauseLits(c);
      const int size = ClauseSize(c);
      // Normalize so the false literal (~p) is at position 1.
      const Lit not_p = ~p;
      if (lits[0] == not_p) std::swap(lits[0], lits[1]);
      CCR_DCHECK(lits[1] == not_p);
      ++i;
      // 0th watch true => clause satisfied.
      if (lits[0] != w.blocker && ValueOf(lits[0]) == Lbool::kTrue) {
        ws[j++] = {c, lits[0]};
        continue;
      }
      // Look for a new literal to watch.
      bool found = false;
      for (int k = 2; k < size; ++k) {
        if (ValueOf(lits[k]) != Lbool::kFalse) {
          std::swap(lits[1], lits[k]);
          watches_[(~lits[1]).index()].push_back({c, lits[0]});
          found = true;
          break;
        }
      }
      if (found) continue;
      // Clause is unit or conflicting.
      ws[j++] = {c, lits[0]};
      if (ValueOf(lits[0]) == Lbool::kFalse) {
        conflict = c;
        qhead_ = bhead_ = trail_.size();
        while (i < n) ws[j++] = ws[i++];
      } else {
        UncheckedEnqueue(lits[0], c);
      }
    }
    ws.resize(j);
    if (conflict != kRefUndef) break;
  }
  return conflict;
}

void Solver::VarBump(Var v) {
  activity_[v] += var_inc_;
  if (activity_[v] > 1e100) {
    for (double& a : activity_) a *= 1e-100;
    var_inc_ *= 1e-100;
  }
  if (heap_pos_[v] >= 0) HeapDecrease(v);
}

void Solver::ClauseBump(ClauseRef c) {
  const float act = ClauseActivity(c) + static_cast<float>(clause_inc_);
  SetClauseActivity(c, act);
  if (act > 1e20f) {
    for (ClauseRef l : learnts_) {
      SetClauseActivity(l, ClauseActivity(l) * 1e-20f);
    }
    clause_inc_ *= 1e-20;
  }
}

void Solver::Analyze(ClauseRef conflict, std::vector<Lit>* out_learnt,
                     int* out_btlevel) {
  int path_count = 0;
  Lit p = kLitUndef;
  out_learnt->clear();
  out_learnt->push_back(kLitUndef);  // slot for the asserting literal
  size_t index = trail_.size();

  ClauseRef c = conflict;
  do {
    CCR_DCHECK(c != kRefUndef);
    Lit bin_buf[2];
    const Lit* lits;
    int size;
    if (c == kRefBinConflict) {
      bin_buf[0] = bin_conflict_[0];
      bin_buf[1] = bin_conflict_[1];
      lits = bin_buf;
      size = 2;
    } else if (RefIsBinary(c)) {
      // Reason clause of p is (p ∨ other); position 0 mirrors the arena
      // invariant that lits[0] is the asserting literal.
      bin_buf[0] = p;
      bin_buf[1] = RefLit(c);
      lits = bin_buf;
      size = 2;
    } else {
      if (ClauseLearnt(c)) ClauseBump(c);
      lits = ClauseLits(c);
      size = ClauseSize(c);
    }
    for (int k = (p == kLitUndef) ? 0 : 1; k < size; ++k) {
      const Lit q = lits[k];
      const Var v = q.var();
      if (!seen_[v] && level_[v] > 0) {
        seen_[v] = 1;
        VarBump(v);
        if (level_[v] >= DecisionLevel()) {
          ++path_count;
        } else {
          out_learnt->push_back(q);
        }
      }
    }
    // Select next literal on the current level to resolve on.
    while (!seen_[trail_[--index].var()]) {
    }
    p = trail_[index];
    c = reason_[p.var()];
    seen_[p.var()] = 0;
    --path_count;
  } while (path_count > 0);
  (*out_learnt)[0] = ~p;

  // Conflict-clause minimization (one-step): drop a literal when its
  // reason's other literals are all already in the learnt clause (or at
  // level 0). Snapshot the pre-minimization literals first: the loop below
  // compacts the clause in place, so dropped literals are overwritten and
  // only this snapshot can clear their seen_ marks afterwards. A stale
  // seen_ bit would make every later Analyze skip that variable entirely —
  // producing learnt clauses that are not implied by the formula.
  std::vector<Lit>& learnt = *out_learnt;
  analyze_toclear_.assign(learnt.begin(), learnt.end());
  size_t keep = 1;
  for (size_t k = 1; k < learnt.size(); ++k) {
    const Var v = learnt[k].var();
    const ClauseRef r = reason_[v];
    bool redundant = false;
    if (r != kRefUndef) {
      if (RefIsBinary(r)) {
        const Lit other = RefLit(r);
        redundant = seen_[other.var()] || level_[other.var()] == 0;
      } else {
        redundant = true;
        const Lit* rl = ClauseLits(r);
        const int rs = ClauseSize(r);
        for (int m = 1; m < rs; ++m) {
          const Var w = rl[m].var();
          if (!seen_[w] && level_[w] > 0) {
            redundant = false;
            break;
          }
        }
      }
    }
    if (!redundant) learnt[keep++] = learnt[k];
  }
  stats_.learnt_literals += static_cast<int64_t>(keep);
  learnt.resize(keep);

  // Backtrack level: highest level among the non-asserting literals.
  if (learnt.size() == 1) {
    *out_btlevel = 0;
  } else {
    size_t max_i = 1;
    for (size_t k = 2; k < learnt.size(); ++k) {
      if (level_[learnt[k].var()] > level_[learnt[max_i].var()]) max_i = k;
    }
    std::swap(learnt[1], learnt[max_i]);
    *out_btlevel = level_[learnt[1].var()];
  }
  // The snapshot covers every kept literal and every dropped one.
  for (Lit l : analyze_toclear_) seen_[l.var()] = 0;
  analyze_toclear_.clear();
}

void Solver::AnalyzeFinal(Lit p, std::vector<Lit>* out_core) {
  out_core->clear();
  out_core->push_back(p);
  if (DecisionLevel() == 0) return;
  seen_[p.var()] = 1;
  for (size_t i = trail_.size();
       i-- > static_cast<size_t>(trail_lim_[0]);) {
    const Var v = trail_[i].var();
    if (!seen_[v]) continue;
    const ClauseRef r = reason_[v];
    if (r == kRefUndef) {
      if (level_[v] > 0) out_core->push_back(~trail_[i]);
    } else if (RefIsBinary(r)) {
      const Lit other = RefLit(r);
      if (level_[other.var()] > 0) seen_[other.var()] = 1;
    } else {
      const Lit* lits = ClauseLits(r);
      const int size = ClauseSize(r);
      for (int k = 1; k < size; ++k) {
        if (level_[lits[k].var()] > 0) seen_[lits[k].var()] = 1;
      }
    }
    seen_[v] = 0;
  }
  seen_[p.var()] = 0;
}

void Solver::CancelUntil(int target) {
  if (DecisionLevel() <= target) return;
  const size_t keep = static_cast<size_t>(trail_lim_[target]);
  for (size_t i = trail_.size(); i-- > keep;) {
    const Var v = trail_[i].var();
    assigns_[v] = Lbool::kUndef;
    polarity_[v] = trail_[i].negated();
    reason_[v] = kRefUndef;
    if (heap_pos_[v] < 0) HeapInsert(v);
  }
  trail_.resize(trail_lim_[target]);
  trail_lim_.resize(target);
  qhead_ = trail_.size();
  bhead_ = qhead_;
}

// --- decision heap -------------------------------------------------------

void Solver::HeapInsert(Var v) {
  // Released scope variables are frozen false at level 0 and must never
  // come back as decision candidates.
  CCR_DCHECK(!frozen_[v]);
  heap_pos_[v] = static_cast<int>(heap_.size());
  heap_.push_back(v);
  HeapDecrease(v);
}

void Solver::HeapDecrease(Var v) {
  // Percolate up by activity.
  int i = heap_pos_[v];
  while (i > 0) {
    const int parent = (i - 1) / 2;
    if (activity_[heap_[parent]] >= activity_[v]) break;
    heap_[i] = heap_[parent];
    heap_pos_[heap_[i]] = i;
    i = parent;
  }
  heap_[i] = v;
  heap_pos_[v] = i;
}

Var Solver::HeapPop() {
  const Var top = heap_[0];
  heap_pos_[top] = -1;
  const Var last = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) {
    // Percolate `last` down from the root.
    int i = 0;
    const int n = static_cast<int>(heap_.size());
    while (true) {
      int child = 2 * i + 1;
      if (child >= n) break;
      if (child + 1 < n &&
          activity_[heap_[child + 1]] > activity_[heap_[child]]) {
        ++child;
      }
      if (activity_[heap_[child]] <= activity_[last]) break;
      heap_[i] = heap_[child];
      heap_pos_[heap_[i]] = i;
      i = child;
    }
    heap_[i] = last;
    heap_pos_[last] = i;
  }
  return top;
}

Lit Solver::PickBranchLit() {
  Var next = kVarUndef;
  while (!HeapEmpty()) {
    next = HeapPop();
    if (assigns_[next] == Lbool::kUndef) break;
    next = kVarUndef;
  }
  if (next == kVarUndef) return kLitUndef;
  CCR_DCHECK(!frozen_[next]);
  return Lit(next, polarity_[next]);
}

void Solver::RecordLearnt(const std::vector<Lit>& learnt) {
  if (learnt.size() == 1) {
    UncheckedEnqueue(learnt[0], kRefUndef);
    return;
  }
  if (learnt.size() == 2) {
    AttachBinary(learnt[0], learnt[1]);
    // Recorded only for the LearntClauses() debug accessor; capped so a
    // conflict-heavy production solve cannot grow it without bound.
    if (learnt_binaries_.size() < 4096) {
      learnt_binaries_.emplace_back(learnt[0], learnt[1]);
    }
    UncheckedEnqueue(learnt[0], MakeBinaryRef(learnt[1]));
    return;
  }
  const ClauseRef c = AllocClause(learnt, /*learnt=*/true);
  learnts_.push_back(c);
  AttachClause(c);
  ClauseBump(c);
  UncheckedEnqueue(learnt[0], c);
}

void Solver::ReduceDb() {
  // Keep the most active half of the learnt clauses; never drop a clause
  // that is the reason of a current assignment.
  std::sort(learnts_.begin(), learnts_.end(),
            [this](ClauseRef a, ClauseRef b) {
              return ClauseActivity(a) > ClauseActivity(b);
            });
  const size_t keep = learnts_.size() / 2;
  size_t j = 0;
  for (size_t i = 0; i < learnts_.size(); ++i) {
    const ClauseRef c = learnts_[i];
    const Lit first = ClauseLits(c)[0];
    const bool is_reason = assigns_[first.var()] != Lbool::kUndef &&
                           reason_[first.var()] == c;
    if (i < keep || is_reason) {
      learnts_[j++] = c;
    } else {
      DetachClause(c);
      MarkClauseDead(c);
    }
  }
  learnts_.resize(j);
}

void Solver::SweepSatisfiedLearnts() {
  size_t j = 0;
  for (ClauseRef c : learnts_) {
    if (ClauseDead(c)) continue;
    const Lit* lits = ClauseLits(c);
    const int size = ClauseSize(c);
    bool satisfied = false;
    for (int k = 0; k < size && !satisfied; ++k) {
      satisfied = ValueOf(lits[k]) == Lbool::kTrue;
    }
    if (satisfied) {
      DetachClause(c);
      MarkClauseDead(c);
    } else {
      learnts_[j++] = c;
    }
  }
  learnts_.resize(j);
}

void Solver::SweepSatisfiedProblem() {
  CCR_DCHECK(DecisionLevel() == 0);
  for (ClauseRef c : clauses_) {
    if (ClauseDead(c)) continue;
    const Lit* lits = ClauseLits(c);
    const int size = ClauseSize(c);
    bool satisfied = false;
    for (int k = 0; k < size && !satisfied; ++k) {
      satisfied = ValueOf(lits[k]) == Lbool::kTrue;
    }
    if (satisfied) {
      DetachClause(c);
      MarkClauseDead(c);
    }
  }
  CompactProblemClauses();
}

void Solver::CompactProblemClauses() {
  std::erase_if(clauses_, [this](ClauseRef c) { return ClauseDead(c); });
}

void Solver::SweepBinaries() {
  // An entry (p -> q) is dead once either variable is fixed at level 0:
  // p fixed means the list is never scanned again (or was fully
  // propagated), q fixed true means the clause is satisfied, and q fixed
  // false implies p's var was fixed by the same propagation. This is what
  // sweeps the binary clauses of released ScopedVars scopes.
  CCR_DCHECK(DecisionLevel() == 0);
  for (size_t i = 0; i < bins_.size(); ++i) {
    std::vector<Lit>& list = bins_[i];
    if (list.empty()) continue;
    const Lit p = Lit::FromIndex(static_cast<int32_t>(i));
    if (assigns_[p.var()] != Lbool::kUndef) {
      list.clear();
      continue;
    }
    size_t j = 0;
    for (Lit q : list) {
      if (assigns_[q.var()] == Lbool::kUndef) list[j++] = q;
    }
    list.resize(j);
  }
}

bool Solver::Simplify() {
  CCR_DCHECK(DecisionLevel() == 0);
  if (!ok_) return false;
  if (Propagate() != kRefUndef) {
    ok_ = false;
    return false;
  }
  SweepSatisfiedLearnts();
  SweepSatisfiedProblem();
  SweepBinaries();
  if (options_.use_inprocessing) VivificationPass();
  MaybeGarbageCollect();
  return ok_;
}

void Solver::PrimeInprocessing() {
  for (ClauseRef c : clauses_) SetClauseVivified(c, true);
  vivify_primed_ = true;
}

bool Solver::FreezeScope(Lit activation, std::span<const Var> vars) {
  if (!ok_) return false;
  CCR_DCHECK(DecisionLevel() == 0);
  InvalidateModelCache();
  // One batched multi-literal pass: enqueue ¬activation and every ¬v,
  // then run a single propagation fixpoint — instead of one unit clause
  // (each with its own propagation round) per variable.
  const Lit neg_act = ~activation;
  const Lbool av = ValueOf(neg_act);
  if (av == Lbool::kFalse) {
    ok_ = false;
    return false;
  }
  if (av == Lbool::kUndef) UncheckedEnqueue(neg_act, kRefUndef);
  frozen_[activation.var()] = 1;
  for (Var v : vars) {
    const Lbool val = assigns_[v];
    if (val == Lbool::kTrue) {
      // A scope var fixed true at level 0 means the formula already
      // contradicts the freeze — only possible if it is UNSAT.
      ok_ = false;
      return false;
    }
    if (val == Lbool::kUndef) UncheckedEnqueue(Lit::Neg(v), kRefUndef);
    frozen_[v] = 1;
  }
  ok_ = (Propagate() == kRefUndef);
  return ok_;
}

bool Solver::BeginProbe(std::span<const Lit> base) {
  CCR_DCHECK(probe_base_level_ < 0);
  if (!ok_) return false;
  CancelUntil(0);
  if (Propagate() != kRefUndef) {
    ok_ = false;
    return false;
  }
  // One decision level holds the whole base, so every failed-literal
  // probe backtracks to here instead of re-propagating the guards.
  trail_lim_.push_back(static_cast<int>(trail_.size()));
  for (const Lit a : base) {
    CCR_CHECK(a.var() < num_vars());
    const Lbool v = ValueOf(a);
    if (v == Lbool::kFalse) {
      CancelUntil(0);
      return false;
    }
    if (v == Lbool::kUndef) UncheckedEnqueue(a, kRefUndef);
  }
  if (Propagate() != kRefUndef) {
    CancelUntil(0);
    return false;
  }
  probe_base_level_ = DecisionLevel();
  return true;
}

bool Solver::ProbeLitFails(Lit p) {
  CCR_DCHECK(probe_base_level_ >= 0);
  CCR_DCHECK(DecisionLevel() == probe_base_level_);
  const Lbool v = ValueOf(p);
  if (v == Lbool::kTrue) return false;
  if (v == Lbool::kFalse) return true;
  trail_lim_.push_back(static_cast<int>(trail_.size()));
  UncheckedEnqueue(p, kRefUndef);
  const bool failed = Propagate() != kRefUndef;
  CancelUntil(probe_base_level_);
  return failed;
}

void Solver::EndProbe() {
  CCR_DCHECK(probe_base_level_ >= 0);
  CancelUntil(0);
  probe_base_level_ = -1;
}

std::vector<const std::vector<Lbool>*> Solver::CachedWitnesses(
    std::span<const Lit> assumptions) const {
  std::vector<const std::vector<Lbool>*> out;
  if (!options_.use_model_cache) return out;
  if (model_fresh_ && !model_.empty() &&
      ModelWitnesses(model_, assumptions)) {
    out.push_back(&model_);
  }
  for (const std::vector<Lbool>& m : model_pool_) {
    if (ModelWitnesses(m, assumptions)) out.push_back(&m);
  }
  return out;
}

std::vector<std::vector<Lit>> Solver::LearntClauses() const {
  std::vector<std::vector<Lit>> out;
  for (ClauseRef c : learnts_) {
    if (ClauseDead(c)) continue;
    const Lit* lits = ClauseLits(c);
    out.emplace_back(lits, lits + ClauseSize(c));
  }
  for (const auto& [a, b] : learnt_binaries_) {
    out.push_back({a, b});
  }
  return out;
}

int64_t Solver::Luby(int64_t i) {
  // Luby sequence: 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 ... Find the complete
  // subsequence (of length 2^(seq+1) - 1, ending in 2^seq) that holds
  // index i, then descend into the half that holds it.
  int64_t size = 1;
  int seq = 0;
  while (size < i + 1) {
    ++seq;
    size = 2 * size + 1;
  }
  while (size - 1 != i) {
    size = (size - 1) >> 1;
    --seq;
    i %= size;
  }
  return int64_t{1} << seq;
}

SolveResult Solver::Search(int64_t conflict_budget,
                           std::span<const Lit> assumptions) {
  int64_t conflicts_here = 0;
  std::vector<Lit> learnt;
  while (true) {
    const ClauseRef conflict = Propagate();
    if (conflict != kRefUndef) {
      ++stats_.conflicts;
      ++conflicts_here;
      if (DecisionLevel() == 0) {
        ok_ = false;
        return SolveResult::kUnsat;
      }
      int bt_level = 0;
      Analyze(conflict, &learnt, &bt_level);
      // Backjumping may pop assumption pseudo-decisions; the
      // honor-assumptions step below re-establishes them, and an
      // assumption forced false there yields kUnsat with a core.
      CancelUntil(bt_level);
      RecordLearnt(learnt);
      var_inc_ /= kVarDecay;
      clause_inc_ /= kClauseDecay;
      continue;
    }

    if (conflicts_here >= conflict_budget) {
      CancelUntil(0);
      return SolveResult::kUnknown;  // restart
    }
    if (DecisionLevel() == 0) SweepSatisfiedLearnts();
    if (static_cast<double>(learnts_.size()) >= max_learnts_) {
      ReduceDb();
      max_learnts_ *= 1.1;
      MaybeGarbageCollect();
    }

    Lit next = kLitUndef;
    // Honor assumptions first.
    while (DecisionLevel() < static_cast<int>(assumptions.size())) {
      const Lit a = assumptions[DecisionLevel()];
      const Lbool av = ValueOf(a);
      if (av == Lbool::kTrue) {
        trail_lim_.push_back(static_cast<int>(trail_.size()));
      } else if (av == Lbool::kFalse) {
        AnalyzeFinal(~a, &conflict_core_);
        return SolveResult::kUnsat;
      } else {
        next = a;
        break;
      }
    }
    if (next == kLitUndef) {
      next = PickBranchLit();
      if (next == kLitUndef) {
        // All variables assigned: model found.
        CacheCurrentModel();
        model_.assign(assigns_.begin(), assigns_.end());
        return SolveResult::kSat;
      }
      ++stats_.decisions;
    }
    trail_lim_.push_back(static_cast<int>(trail_.size()));
    UncheckedEnqueue(next, kRefUndef);
  }
}

void Solver::CacheCurrentModel() {
  if (!options_.use_model_cache) return;
  // Rotate the previous newest model into the ring.
  if (model_fresh_ && !model_.empty()) PushWitness(model_);
  model_fresh_ = true;
}

void Solver::PushWitness(std::vector<Lbool> m) {
  if (model_pool_.size() < kModelPoolSize) {
    model_pool_.push_back(std::move(m));
  } else {
    model_pool_[model_pool_next_] = std::move(m);
    model_pool_next_ = (model_pool_next_ + 1) % kModelPoolSize;
  }
}

bool Solver::SeedFromLocalSearch(std::span<const Lit> assumptions) {
  CCR_DCHECK(DecisionLevel() == 0);
  if (!ok_) return false;
  // The level-0 trail, then the assumptions, then the saved phases.
  std::vector<Lbool> m(assigns_);
  for (Var v = 0; v < num_vars(); ++v) {
    if (m[v] == Lbool::kUndef) {
      m[v] = polarity_[v] ? Lbool::kFalse : Lbool::kTrue;
    }
  }
  for (Lit a : assumptions) {
    if (a.var() >= num_vars()) return false;
    if (assigns_[a.var()] == Lbool::kUndef) {
      m[a.var()] = a.negated() ? Lbool::kFalse : Lbool::kTrue;
    }
  }
  // Fails when an assumption contradicts the trail or another assumption.
  if (!ModelWitnesses(m, assumptions) || !SatisfiesLive(m)) return false;
  if (options_.use_model_cache) {
    PushWitness(std::move(m));
    ++stats_.sls_seeded_models;
  }
  return true;
}

bool Solver::SatisfiesLive(const std::vector<Lbool>& m) const {
  for (ClauseRef c : clauses_) {
    if (ClauseDead(c)) continue;
    bool sat = false;
    const Lit* lits = ClauseLits(c);
    const int sz = ClauseSize(c);
    for (int i = 0; i < sz && !sat; ++i) {
      sat = LboolOf(m[lits[i].var()], lits[i].negated()) == Lbool::kTrue;
    }
    if (!sat) return false;
  }
  // Each binary (u ∨ q) sits in two implication lists; check it once.
  for (int32_t i = 0; i < 2 * num_vars(); ++i) {
    const Lit u = ~Lit::FromIndex(i);
    for (Lit q : bins_[i]) {
      if (u.index() > q.index()) continue;
      if (LboolOf(m[u.var()], u.negated()) != Lbool::kTrue &&
          LboolOf(m[q.var()], q.negated()) != Lbool::kTrue) {
        return false;
      }
    }
  }
  return true;
}

SolveResult Solver::SolveInternal(std::span<const Lit> assumptions) {
  const SolverStats before = stats_;
  if (!assumptions.empty()) ++stats_.assumption_solves;
  // Witness reuse: a recent model satisfying every assumption already
  // decides the call — kSat, with that model, zero search.
  if (options_.use_model_cache && ok_) {
    bool hit = false;
    if (model_fresh_ && ModelWitnesses(model_, assumptions)) {
      hit = true;  // model_ stays the answer
    } else {
      for (size_t k = model_pool_.size(); k-- > 0 && !hit;) {
        if (ModelWitnesses(model_pool_[k], assumptions)) {
          // Trade places: the witness becomes model_, the displaced
          // newest model stays cached in the witness's slot. (Rotating
          // via CacheCurrentModel here could overwrite the very slot
          // being read when the ring is full.) The swap is only legal
          // while model_ is itself a model of the current formula; a
          // stale model_ (invalidated, pool since repopulated by local
          // search) must not re-enter the ring, so copy instead.
          if (model_fresh_) {
            std::swap(model_, model_pool_[k]);
          } else {
            model_ = model_pool_[k];
          }
          model_fresh_ = true;
          hit = true;
        }
      }
    }
    if (hit) {
      ++stats_.model_cache_hits;
      conflict_core_.clear();
      last_call_ = stats_ - before;
      return SolveResult::kSat;
    }
  }
  const SolveResult r = SolveLoop(assumptions);
  last_call_ = stats_ - before;
  return r;
}

SolveResult Solver::SolveLoop(std::span<const Lit> assumptions) {
  conflict_core_.clear();
  if (!ok_) return SolveResult::kUnsat;
  for (Lit a : assumptions) CCR_CHECK(a.var() < num_vars());
  CancelUntil(0);
  max_learnts_ =
      std::max(1000.0, static_cast<double>(clauses_.size()) / 3.0);

  for (int64_t restart_round = 0;; ++restart_round) {
    const SolveResult r =
        Search(kRestartBase * Luby(restart_round), assumptions);
    if (r != SolveResult::kUnknown) {
      CancelUntil(0);
      return r;
    }
    // Search returned kUnknown at level 0: a restart boundary.
    ++stats_.restarts;
  }
}

// --- inprocessing --------------------------------------------------------

void Solver::ShrinkClause(ClauseRef c, std::span<const Lit> lits) {
  // `c` is detached. Re-home the shortened clause by its new size.
  if (lits.empty()) {
    MarkClauseDead(c);
    ok_ = false;
    return;
  }
  if (lits.size() == 1) {
    MarkClauseDead(c);
    const Lbool v = ValueOf(lits[0]);
    if (v == Lbool::kFalse) {
      ok_ = false;
    } else if (v == Lbool::kUndef) {
      UncheckedEnqueue(lits[0], kRefUndef);  // propagated by the caller
    }
    return;
  }
  CCR_DCHECK(!ClauseLearnt(c));
  const int old_size = ClauseSize(c);
  Lit* dst = ClauseLits(c);
  std::copy(lits.begin(), lits.end(), dst);
  SetClauseSize(c, static_cast<int>(lits.size()));
  // The abandoned tail words are dead arena weight from here on.
  arena_dead_words_ += static_cast<size_t>(old_size) - lits.size();
  SetClauseVivified(c, false);  // a changed clause is worth revisiting
  if (lits.size() == 2) {
    MarkClauseDead(c);  // migrated out of the arena into the bin lists
    AttachBinary(lits[0], lits[1]);
    return;
  }
  AttachClause(c);
}

void Solver::VivificationPass() {
  CCR_DCHECK(DecisionLevel() == 0);
  if (!ok_) return;
  // Clause vivification (distillation): for problem clause C = (l1..ln),
  // assume ¬l1, ¬l2, ... one at a time with full propagation (C itself
  // detached). A conflict — or a literal already decided by the prefix —
  // proves a strict subclause is implied, and C shrinks to it.
  //
  // Scope: only the round's delta. The first pass stamps the initial
  // encoding as vivified WITHOUT distilling it (wholesale distillation of
  // a generator-canonical encoding costs far more propagation than every
  // solve of the session combined); later passes distill exactly the
  // clauses appended or shortened since, under a propagation budget as a
  // backstop.
  if (!vivify_primed_) {
    vivify_primed_ = true;
    for (ClauseRef c : clauses_) SetClauseVivified(c, true);
    return;
  }
  const int64_t start_props = stats_.propagations;
  std::vector<Lit> kept;
  for (size_t n = clauses_.size(); n-- > 0;) {
    if (!ok_) break;
    if (stats_.propagations - start_props > kVivifyPropBudget) break;
    const ClauseRef c = clauses_[n];
    if (ClauseDead(c) || ClauseVivified(c)) continue;
    SetClauseVivified(c, true);
    const Lit* lits = ClauseLits(c);
    const int size = ClauseSize(c);
    bool satisfied = false;
    for (int k = 0; k < size && !satisfied; ++k) {
      satisfied = ValueOf(lits[k]) == Lbool::kTrue;
    }
    if (satisfied) {
      DetachClause(c);
      MarkClauseDead(c);
      continue;
    }
    DetachClause(c);
    kept.clear();
    for (int k = 0; k < size; ++k) {
      const Lit l = lits[k];
      const Lbool v = ValueOf(l);
      if (v == Lbool::kTrue) {
        // ¬(prefix) forces l: C shrinks to (prefix ∨ l).
        kept.push_back(l);
        break;
      }
      if (v == Lbool::kFalse) continue;  // redundant literal
      kept.push_back(l);
      if (k == size - 1) break;  // asserting the last literal proves nothing
      trail_lim_.push_back(static_cast<int>(trail_.size()));
      UncheckedEnqueue(~l, kRefUndef);
      if (Propagate() != kRefUndef) break;  // ¬(prefix) is contradictory
    }
    CancelUntil(0);
    if (kept.size() == static_cast<size_t>(size)) {
      AttachClause(c);
      continue;
    }
    stats_.vivified += size - static_cast<int64_t>(kept.size());
    ShrinkClause(c, kept);
    // Keep the level-0 fixpoint before the next clause's decisions.
    if (ok_ && Propagate() != kRefUndef) ok_ = false;
  }
  CompactProblemClauses();
}

// --- arena garbage collection --------------------------------------------

Solver::ClauseRef Solver::RelocateClause(ClauseRef c) {
  if (arena_[c] == kMovedHeader) return arena_[c + 1];
  const ClauseRef nc = static_cast<ClauseRef>(arena_tmp_.size());
  CCR_CHECK(nc < kRefBinaryFlag);
  const size_t words = kHeaderWords + static_cast<size_t>(ClauseSize(c));
  arena_tmp_.insert(arena_tmp_.end(), arena_.begin() + c,
                    arena_.begin() + c + words);
  arena_[c] = kMovedHeader;
  arena_[c + 1] = nc;
  return nc;
}

void Solver::GarbageCollect() {
  if (arena_.empty()) return;
  const size_t old_words = arena_.size();
  arena_tmp_.clear();
  arena_tmp_.reserve(old_words - std::min(arena_dead_words_, old_words));
  // Relocate in list order: clause order — and with it watcher order —
  // is identical before and after, which keeps the collection
  // search-neutral.
  size_t j = 0;
  for (ClauseRef c : clauses_) {
    if (!ClauseDead(c)) clauses_[j++] = RelocateClause(c);
  }
  clauses_.resize(j);
  size_t k = 0;
  for (ClauseRef c : learnts_) {
    if (ClauseDead(c)) continue;
    learnts_[k++] = RelocateClause(c);
  }
  learnts_.resize(k);
  // Every watched clause is live (each MarkClauseDead site detaches), so
  // every watcher's target has a forwarding ref by now.
  for (std::vector<Watcher>& ws : watches_) {
    for (Watcher& w : ws) {
      CCR_DCHECK(arena_[w.cref] == kMovedHeader);
      w.cref = arena_[w.cref + 1];
    }
  }
  for (Var v = 0; v < num_vars(); ++v) {
    const ClauseRef r = reason_[v];
    if (r == kRefUndef || r == kRefBinConflict || RefIsBinary(r)) continue;
    if (arena_[r] == kMovedHeader) {
      reason_[v] = arena_[r + 1];
    } else {
      // A dead reason can only hang off an unassigned or level-0
      // variable (live reasons are pinned by the reduce passes, and the
      // level-0 sweeps run with no deeper assignments outstanding), and
      // conflict analysis never dereferences level-0 reasons.
      CCR_DCHECK(assigns_[v] == Lbool::kUndef || level_[v] == 0);
      reason_[v] = kRefUndef;
    }
  }
  arena_.swap(arena_tmp_);
  arena_tmp_.clear();
  arena_tmp_.shrink_to_fit();
  stats_.gc_reclaimed_words += static_cast<int64_t>(old_words - arena_.size());
  ++stats_.gc_runs;
  arena_dead_words_ = 0;
}

void Solver::MaybeGarbageCollect() {
  if (!options_.use_arena_gc || arena_dead_words_ == 0) return;
  if (static_cast<double>(arena_dead_words_) <=
      options_.gc_frac * static_cast<double>(arena_.size())) {
    return;
  }
  GarbageCollect();
}

}  // namespace ccr::sat
