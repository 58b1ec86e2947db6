#include "src/data/person_generator.h"

#include <algorithm>
#include <cstdio>
#include <string>
#include <unordered_set>

#include "src/common/rng.h"
#include "src/common/status.h"

namespace ccr {

namespace {

// Attribute positions in the Person schema (Fig. 2).
enum PersonAttr {
  kName = 0,
  kStatus,
  kJob,
  kKids,
  kCity,
  kAC,
  kZip,
  kCounty,
  kPersonAttrCount,
};

std::string Label(const char* prefix, int i) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%s%04d", prefix, i);
  return buf;
}

// One state of the hidden version history.
struct PersonState {
  int status_idx = 0;
  int job_idx = 0;
  int kids = 0;
  int city_idx = 0;
  int zip_serial = 0;  // entity-local move counter
};

}  // namespace

Dataset GeneratePerson(const PersonOptions& options) {
  Dataset ds;
  ds.name = "Person";
  auto schema = Schema::Make({"name", "status", "job", "kids", "city", "AC",
                              "zip", "county"});
  CCR_CHECK(schema.ok());
  ds.schema = std::move(schema).value();

  // --- Σ: 983 currency constraints of the paper's forms -----------------
  // (a) status transition chain: consecutive-pair constraints like ϕ1/ϕ2.
  for (int i = 0; i + 1 < options.status_chain; ++i) {
    CurrencyConstraint phi(kStatus);
    phi.AddConstCompare(1, kStatus, CmpOp::kEq, Value::Str(Label("st", i)));
    phi.AddConstCompare(2, kStatus, CmpOp::kEq,
                        Value::Str(Label("st", i + 1)));
    ds.sigma.push_back(std::move(phi));
  }
  // (b) job transition chain, like ϕ3 of Fig. 3.
  for (int i = 0; i + 1 < options.job_chain; ++i) {
    CurrencyConstraint phi(kJob);
    phi.AddConstCompare(1, kJob, CmpOp::kEq, Value::Str(Label("jb", i)));
    phi.AddConstCompare(2, kJob, CmpOp::kEq, Value::Str(Label("jb", i + 1)));
    ds.sigma.push_back(std::move(phi));
  }
  // (c) monotone kids (ϕ4).
  {
    CurrencyConstraint phi(kKids);
    phi.AddAttrCompare(kKids, CmpOp::kLt);
    ds.sigma.push_back(std::move(phi));
  }
  // (d) propagation rules ϕ5–ϕ8.
  for (int target : {kJob, kAC, kZip}) {
    CurrencyConstraint phi(target);
    phi.AddOrder(kStatus);
    ds.sigma.push_back(std::move(phi));
  }
  {
    CurrencyConstraint phi(kCounty);
    phi.AddOrder(kCity);
    phi.AddOrder(kZip);
    ds.sigma.push_back(std::move(phi));
  }

  // --- Γ: AC → city, 1000 constant patterns (ψ1/ψ2 style) ---------------
  // City i has area code 200+i and county Label("cn", i).
  for (int i = 0; i < options.num_cities; ++i) {
    ds.gamma.emplace_back(
        std::vector<std::pair<int, Value>>{{kAC, Value::Int(200 + i)}},
        kCity, Value::Str(Label("ct", i)));
  }

  // --- entities ----------------------------------------------------------
  Rng master(options.seed);
  ds.entities.reserve(options.num_entities);
  for (int e = 0; e < options.num_entities; ++e) {
    Rng rng = master.Fork();
    const int s = static_cast<int>(
        rng.Range(options.min_tuples, options.max_tuples));
    // The hidden history grows with the instance, capped so the value
    // domains (and the order variables over them) stay bounded.
    const int versions = std::clamp(4 + s / 8, 4, 30);

    // Start low enough in the chains that gap steps never overflow.
    const int status_start = static_cast<int>(rng.Range(
        0, std::max(1, options.status_chain - 2 * versions - 4)));
    const int job_start = static_cast<int>(
        rng.Range(0, std::max(1, options.job_chain - 2 * versions - 4)));

    std::unordered_set<int> used_cities;
    auto fresh_city = [&]() {
      for (int tries = 0; tries < 64; ++tries) {
        const int c = static_cast<int>(rng.Below(options.num_cities));
        if (used_cities.insert(c).second) return c;
      }
      return static_cast<int>(rng.Below(options.num_cities));
    };

    PersonState st;
    st.status_idx = status_start;
    st.job_idx = job_start;
    st.kids = static_cast<int>(rng.Range(0, 2));
    st.city_idx = fresh_city();

    const std::string name = "Person_" + std::to_string(e);
    auto snapshot = [&](const PersonState& v) {
      return Tuple({Value::Str(name), Value::Str(Label("st", v.status_idx)),
                    Value::Str(Label("jb", v.job_idx)), Value::Int(v.kids),
                    Value::Str(Label("ct", v.city_idx)),
                    Value::Int(200 + v.city_idx),
                    Value::Str("zp" + std::to_string(e) + "_" +
                               std::to_string(v.zip_serial)),
                    Value::Str(Label("cn", v.city_idx))});
    };

    // Hidden history: versions[0..versions-1]; the final state is the
    // paper's t_c and is *excluded* from the instance (E \ {t_c}).
    std::vector<Tuple> history;
    history.push_back(snapshot(st));
    for (int v = 1; v < versions; ++v) {
      if (rng.Chance(options.p_move_only)) {
        // Mid-stage move: a new address within the same life stage.
        st.city_idx = fresh_city();
        ++st.zip_serial;
        history.push_back(snapshot(st));
        continue;
      }
      if (rng.Chance(options.p_status_gap)) {
        // Break step: status and job both skip a chain link, leaving no
        // constraint (direct or contrapositive) across this cut.
        st.status_idx += 2;
        st.job_idx += 2;
      } else {
        st.status_idx += 1;
        if (rng.Chance(0.7)) {
          st.job_idx += rng.Chance(options.p_job_gap) ? 2 : 1;
        }
      }
      if (rng.Chance(0.3)) ++st.kids;
      if (rng.Chance(options.p_move)) {
        st.city_idx = fresh_city();
        ++st.zip_serial;
      }
      history.push_back(snapshot(st));
    }

    // Sample s tuples from versions [0, versions-2].
    EntityCase ec;
    ec.instance = EntityInstance(ds.schema, name);
    int max_version = -1;
    std::vector<int> sampled;
    sampled.reserve(s);
    for (int t = 0; t < s; ++t) {
      sampled.push_back(static_cast<int>(rng.Below(versions - 1)));
    }
    // Guarantee at least two distinct versions (conflicts must exist).
    if (s >= 2) {
      sampled[0] = 0;
      sampled[1] = versions - 2;
    }
    // Misspell some city values (never the first clean occurrence, so
    // every city's true spelling stays present in the instance).
    std::unordered_set<std::string> clean_seen;
    for (int v : sampled) {
      Tuple t = history[v];
      const std::string& city = t[kCity].as_string();
      if (clean_seen.count(city) && rng.Chance(options.p_city_dirt)) {
        t[kCity] = Value::Str(city + "*");
      } else {
        clean_seen.insert(city);
      }
      CCR_CHECK(ec.instance.Add(std::move(t)).ok());
      max_version = std::max(max_version, v);
    }

    // Ghost tuple: stale values from an unconnected region of the chains.
    if (rng.Chance(options.p_ghost) && status_start > 12) {
      PersonState ghost;
      ghost.status_idx = static_cast<int>(rng.Range(3, status_start - 8));
      ghost.job_idx =
          static_cast<int>(rng.Range(0, std::max(1, job_start - 8)));
      ghost.kids = 0;
      ghost.city_idx = fresh_city();
      ghost.zip_serial = 1000;  // fresh zip, never a real one
      Tuple g = snapshot(ghost);
      g[kKids] = Value::Null();  // never outrank the real kids count
      CCR_CHECK(ec.instance.Add(std::move(g)).ok());
    }

    // Ground truth: the most current values present in the instance are
    // those of the highest sampled version (all attributes evolve
    // monotonically along the hidden history).
    ec.truth = history[max_version].values();
    ds.entities.push_back(std::move(ec));
  }
  return ds;
}

}  // namespace ccr
