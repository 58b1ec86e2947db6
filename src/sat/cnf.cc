#include "src/sat/cnf.h"

#include "src/common/status.h"

namespace ccr::sat {

void Cnf::AddClause(std::span<const Lit> lits) {
  for (Lit l : lits) {
    CCR_DCHECK(l.var() >= 0);
    EnsureVars(l.var() + 1);
    pool_.push_back(l);
  }
  starts_.push_back(static_cast<uint32_t>(pool_.size()));
}

void Cnf::AppendOrderValue(int k, std::span<const Var> vars) {
  for (Var v : vars) {
    CCR_DCHECK(v >= 0);
    EnsureVars(v + 1);
  }
  order_domains_[k].AppendValue(vars);
}

std::string Cnf::ToString() const {
  std::string out = "p cnf " + std::to_string(num_vars_) + " " +
                    std::to_string(num_clauses()) + "\n";
  for (int k = 0; k < num_order_domains(); ++k) {
    out += "order domain " + std::to_string(k) + ": " +
           std::to_string(order_domains_[k].size()) + " values\n";
  }
  if (num_clauses() > 200) return out + "(too many clauses to print)\n";
  for (int i = 0; i < num_clauses(); ++i) {
    for (Lit l : clause(i)) {
      out += l.ToString();
      out += " ";
    }
    out += "\n";
  }
  return out;
}

}  // namespace ccr::sat
