#include "src/sat/dimacs.h"

#include <cstdint>
#include <span>
#include <sstream>
#include <vector>

#include "src/common/strings.h"

namespace ccr::sat {

namespace {

void AppendClause(std::span<const Lit> lits, std::string* out) {
  for (Lit l : lits) {
    const int signed_var = (l.var() + 1) * (l.negated() ? -1 : 1);
    *out += std::to_string(signed_var);
    *out += " ";
  }
  *out += "0\n";
}

}  // namespace

std::string ToDimacs(const Cnf& cnf) {
  // The order domains' axioms are written out as clauses after the
  // formula's own: asymmetry per unordered pair, then transitivity per
  // ordered triple of distinct values.
  int64_t axioms = 0;
  for (int di = 0; di < cnf.num_order_domains(); ++di) {
    const int64_t d = cnf.order_domain(di).size();
    axioms += d * (d - 1) / 2 + d * (d - 1) * (d - 2);
  }
  std::string out = "p cnf " + std::to_string(cnf.num_vars()) + " " +
                    std::to_string(cnf.num_clauses() + axioms) + "\n";
  for (int c = 0; c < cnf.num_clauses(); ++c) {
    AppendClause(cnf.clause(c), &out);
  }
  for (int di = 0; di < cnf.num_order_domains(); ++di) {
    const OrderDomain& dom = cnf.order_domain(di);
    const int d = dom.size();
    for (int i = 0; i < d; ++i) {
      for (int j = i + 1; j < d; ++j) {
        const Lit asymmetry[] = {Lit::Neg(dom.VarOf(i, j)),
                                 Lit::Neg(dom.VarOf(j, i))};
        AppendClause(asymmetry, &out);
      }
    }
    for (int i = 0; i < d; ++i) {
      for (int j = 0; j < d; ++j) {
        if (j == i) continue;
        for (int k = 0; k < d; ++k) {
          if (k == i || k == j) continue;
          const Lit transitivity[] = {Lit::Neg(dom.VarOf(i, j)),
                                      Lit::Neg(dom.VarOf(j, k)),
                                      Lit::Pos(dom.VarOf(i, k))};
          AppendClause(transitivity, &out);
        }
      }
    }
  }
  return out;
}

Result<Cnf> FromDimacs(const std::string& text) {
  Cnf cnf;
  std::istringstream in(text);
  std::string line;
  std::vector<Lit> clause;
  while (std::getline(in, line)) {
    std::string_view sv = StripWhitespace(line);
    if (sv.empty() || sv[0] == 'c') continue;
    if (sv[0] == 'p') {
      // "p cnf V C": pre-size the variable universe.
      auto parts = Split(sv, ' ');
      for (const auto& p : parts) {
        int64_t v = 0;
        if (ParseInt64(StripWhitespace(p), &v) && v > 0) {
          cnf.EnsureVars(static_cast<int>(v));
          break;
        }
      }
      continue;
    }
    std::istringstream ls{std::string(sv)};
    int64_t x = 0;
    while (ls >> x) {
      if (x == 0) {
        cnf.AddClause(std::span<const Lit>(clause.data(), clause.size()));
        clause.clear();
      } else {
        const Var v = static_cast<Var>((x > 0 ? x : -x) - 1);
        // Headerless input must still satisfy the Cnf invariant that every
        // clause ranges over [0, num_vars).
        cnf.EnsureVars(v + 1);
        clause.push_back(Lit(v, x < 0));
      }
    }
  }
  if (!clause.empty()) {
    return Status::InvalidArgument("unterminated clause in DIMACS input");
  }
  return cnf;
}

}  // namespace ccr::sat
