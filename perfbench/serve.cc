// serve-evict: the resolution service under a closed loop of conversations.
//
// An in-process Server + SessionManager with default options (2 workers,
// resident cap 64) listens on a loopback port and two client threads each
// hold one connection. A conversation is OPEN → ROUND → ANSWER (≤ 2
// attributes from the ground truth) → … → SNAPSHOT → CLOSE, with an EVICT
// after every other round, so the next ROUND rehydrates the session by
// replaying its snapshot. Each client runs one conversation at a time and
// closes it, so at most two sessions are resident: the resident cap never
// binds, the LRU eviction path never runs, and every eviction and
// rehydration comes from an explicit EVICT. Every
// conversation's script and expected ROUND / SNAPSHOT reply bytes are
// computed before the timed phase; the clients only compare bytes. The
// timed phase runs in segments, with the set-up sampled between them
// (bench.h).
//
// Traced run, pass after pass over the corpus: an untraced socket pass, a
// socket pass with a span around every ServiceClient::Call, a pass through
// SessionManager::Call without the socket, and an offline pass that runs
// each conversation through the traced engine mirror and times
// SnapshotToJson / SnapshotFromJson / ReplaySnapshot on every snapshot an
// EVICT would freeze.

#include <atomic>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/bench.h"
#include "perfbench/corpus.h"
#include "perfbench/traced_session.h"
#include "src/common/json.h"
#include "src/service/client.h"
#include "src/service/server.h"
#include "src/service/session_manager.h"
#include "src/service/session_runtime.h"
#include "src/service/snapshot.h"

namespace ccr::perfbench {

namespace {

using service::ErrorCode;
using service::RequestType;
using service::SessionOp;
using service::SessionSnapshot;

constexpr int kClients = 2;
constexpr int kMaxRounds = 8;
constexpr int kMaxAnswers = 2;

// One conversation, precomputed on a local never-evicted session.
struct Script {
  int tuples = 0;
  std::string open_body;
  std::vector<std::string> rounds;   // expected ROUND reply bodies
  std::vector<std::string> answers;  // ANSWER bodies, after rounds[r]
  std::string snapshot;              // expected SNAPSHOT reply body
  /// The full op log (a ROUND op, then an EXTEND op per answered round).
  SessionSnapshot log;
  /// Rounds after whose ANSWER the client sends EVICT: every other one.
  std::vector<size_t> evict_after;
};

std::string AnswersJson(const std::vector<UserOracle::Answer>& answers) {
  json::Writer w(0);
  w.BeginObject();
  w.Key("answers");
  w.BeginArray();
  for (size_t i = 0; i < answers.size(); ++i) {
    w.ArraySep(i == 0);
    w.BeginArray();
    w.Value(answers[i].attr);
    w.ArraySep(false);
    service::WriteValue(answers[i].value, &w);
    w.EndArray();
  }
  w.EndArray();
  w.EndObject();
  return std::move(w).Take();
}

Result<Script> MakeScript(const Specification& spec,
                          const std::vector<Value>& truth) {
  Script s;
  s.tuples = spec.instance().size();
  s.log.spec = spec;
  s.open_body = service::SnapshotToJson(s.log, /*indent=*/0);
  CCR_ASSIGN_OR_RETURN(const ResolveOptions opts,
                       service::MakeResolveOptions(s.log.engine, nullptr));
  CCR_ASSIGN_OR_RETURN(ResolutionSession local,
                       ResolutionSession::Create(spec, opts));
  for (int r = 0; r < kMaxRounds; ++r) {
    const service::RoundOutcome out = service::RunSessionRound(&local);
    s.log.ops.push_back(SessionOp{SessionOp::Kind::kRound, {}});
    s.rounds.push_back(service::RoundOutcomeToJson(out));
    if (!out.valid || out.complete || !out.has_suggestion ||
        r + 1 == kMaxRounds) {
      break;
    }
    std::vector<UserOracle::Answer> answers;
    for (const int attr : out.suggested_attrs) {
      if (!truth[attr].is_null()) answers.push_back({attr, truth[attr]});
      if (answers.size() == kMaxAnswers) break;
    }
    if (answers.empty()) break;
    CCR_ASSIGN_OR_RETURN(PartialTemporalOrder delta,
                         MakeAnswerDelta(local.spec(), answers));
    CCR_RETURN_NOT_OK(local.ExtendWith(delta));
    s.log.ops.push_back(SessionOp{SessionOp::Kind::kExtend, std::move(delta)});
    s.answers.push_back(AnswersJson(answers));
    if (r % 2 == 0) s.evict_after.push_back(static_cast<size_t>(r));
  }
  s.snapshot = service::SnapshotToJson(s.log, /*indent=*/0);
  return s;
}

// A request path: the socket client or the manager called directly.
using CallFn = std::function<std::optional<std::string>(
    RequestType, const std::string&, const std::string&)>;

CallFn SocketCall(service::ServiceClient* client) {
  return [client](RequestType type, const std::string& id,
                  const std::string& body) -> std::optional<std::string> {
    Result<service::Frame> reply = client->Call(type, id, body);
    if (!reply.ok() || reply.value().status != ErrorCode::kOk) {
      return std::nullopt;
    }
    return std::move(reply.value().body);
  };
}

CallFn ManagerCall(service::SessionManager* manager) {
  return [manager](RequestType type, const std::string& id,
                   const std::string& body) -> std::optional<std::string> {
    service::ServiceRequest request;
    request.type = type;
    request.session_id = id;
    request.payload = body;
    service::ServiceReply reply = manager->Call(std::move(request));
    if (reply.code != ErrorCode::kOk) return std::nullopt;
    return std::move(reply.payload);
  };
}

// Span names per request type, for the socket and the manager paths.
struct SpanNames {
  const char* open;
  const char* round;
  const char* answer;
  const char* evict;
  const char* snapshot;
  const char* close;
};
constexpr SpanNames kSocketSpans = {
    "service.open",  "service.round",    "service.answer",
    "service.evict", "service.snapshot", "service.close"};
constexpr SpanNames kManagerSpans = {
    "manager.open",  "manager.round",    "manager.answer",
    "manager.evict", "manager.snapshot", "manager.close"};

// What one client thread measured.
struct Tally {
  std::vector<double> conversation_ms;
  std::vector<double> round_ms;
  std::vector<double> answer_ms;
  int64_t tuples = 0;
  int64_t requests = 0;
  int64_t failed = 0;
};

// Runs one conversation. A request that fails abandons the conversation;
// a reply that differs from its expected bytes counts as failed but the
// conversation goes on.
void Converse(const Script& s, const std::string& id, const CallFn& call,
              const SpanNames& names, Tracer* tracer, int64_t span_id,
              Tally* tally) {
  const Clock::time_point start = Clock::now();
  ScopedSpan conversation(tracer, "conversation", span_id);
  auto request = [&](RequestType type, const char* span,
                     const std::string& body, const std::string* expected,
                     std::vector<double>* latencies) {
    ++tally->requests;
    std::optional<std::string> reply;
    const Clock::time_point t0 = Clock::now();
    {
      ScopedSpan timed(tracer, span, span_id);
      reply = call(type, id, body);
    }
    if (latencies != nullptr) {
      latencies->push_back(MsBetween(t0, Clock::now()));
    }
    if (!reply.has_value() || (expected != nullptr && *reply != *expected)) {
      ++tally->failed;
    }
    return reply.has_value();
  };
  if (!request(RequestType::kOpen, names.open, s.open_body, nullptr,
               nullptr)) {
    return;
  }
  size_t evicts = 0;
  for (size_t r = 0; r < s.rounds.size(); ++r) {
    if (!request(RequestType::kRound, names.round, "", &s.rounds[r],
                 &tally->round_ms)) {
      return;
    }
    if (r >= s.answers.size()) break;
    if (!request(RequestType::kAnswer, names.answer, s.answers[r], nullptr,
                 &tally->answer_ms)) {
      return;
    }
    if (evicts < s.evict_after.size() && s.evict_after[evicts] == r) {
      ++evicts;
      if (!request(RequestType::kEvict, names.evict, "", nullptr, nullptr)) {
        return;
      }
    }
  }
  if (!request(RequestType::kSnapshot, names.snapshot, "", &s.snapshot,
               nullptr) ||
      !request(RequestType::kClose, names.close, "", nullptr, nullptr)) {
    return;
  }
  tally->conversation_ms.push_back(MsBetween(start, Clock::now()));
  tally->tuples += s.tuples;
}

// The server under test: manager plus loopback socket front end.
struct Service {
  Service() = default;
  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;
  ~Service() { Stop(); }

  std::unique_ptr<service::SessionManager> manager;
  std::unique_ptr<service::Server> server;
  std::string address;

  Status Start() {
    manager = std::make_unique<service::SessionManager>(
        service::ServiceOptions{});
    server = std::make_unique<service::Server>(manager.get(),
                                               service::ServerOptions{});
    CCR_RETURN_NOT_OK(server->Start());
    address = "tcp:" + std::to_string(server->port());
    return Status::OK();
  }

  void Stop() {
    if (server != nullptr) server->Shutdown();
    if (manager != nullptr) manager->Shutdown();
    server.reset();
    manager.reset();
  }
};

struct ServiceCounters {
  int64_t rehydrations = 0;
  int64_t evictions = 0;
  int64_t rejected_overload = 0;
  bool ok = false;

  bool operator==(const ServiceCounters&) const = default;
};

ServiceCounters ReadStats(const std::string& address) {
  ServiceCounters out;
  Result<service::ServiceClient> client =
      service::ServiceClient::Dial(address);
  if (!client.ok()) return out;
  Result<service::Frame> reply =
      client.value().Call(RequestType::kStats, "", "");
  if (!reply.ok() || reply.value().status != ErrorCode::kOk) return out;
  json::Reader rd(reply.value().body, "stats reply");
  const Status st = rd.ParseObject([&](const std::string& field) -> Status {
    int64_t v = 0;
    CCR_RETURN_NOT_OK(rd.ParseInt64(&v));
    if (field == "rehydrations") {
      out.rehydrations = v;
    } else if (field == "evictions_lru" || field == "evictions_explicit") {
      out.evictions += v;
    } else if (field == "rejected_overload") {
      out.rejected_overload = v;
    }
    return Status::OK();
  });
  out.ok = st.ok();
  return out;
}

struct Conversations {
  Corpus corpus;
  std::vector<Script> scripts;
};

// Client threads, each with its own connection (or the manager), running
// conversations until `keep_going` says stop. Conversation k goes to
// entity k mod corpus size.
struct LoadResult {
  std::vector<Tally> tallies;
  Tracer tracer;
  double wall_s = 0;
};

LoadResult RunClients(const Conversations& c,
                      const std::function<CallFn(int)>& dial,
                      const std::function<bool(int64_t)>& keep_going,
                      const SpanNames& names, bool trace) {
  LoadResult out;
  out.tallies.resize(kClients);
  std::vector<Tracer> tracers(kClients);
  std::atomic<int64_t> next{0};
  const int n = static_cast<int>(c.scripts.size());
  const Clock::time_point start = Clock::now();
  std::vector<std::thread> threads;
  for (int t = 0; t < kClients; ++t) {
    threads.emplace_back([&, t] {
      Tally& tally = out.tallies[static_cast<size_t>(t)];
      const CallFn call = dial(t);
      if (!call) {
        ++tally.requests;
        ++tally.failed;
        return;
      }
      for (;;) {
        const int64_t k = next.fetch_add(1);
        if (!keep_going(k)) break;
        const int entity = static_cast<int>(k % n);
        std::string id = "c";
        id += std::to_string(k);
        Tracer* tracer = trace ? &tracers[static_cast<size_t>(t)] : nullptr;
        Converse(c.scripts[static_cast<size_t>(entity)], id, call, names,
                 tracer, k, &tally);
      }
    });
  }
  for (std::thread& th : threads) th.join();
  out.wall_s = SecondsSince(start);
  for (const Tracer& tr : tracers) out.tracer.Append(tr);
  return out;
}

// Dials one socket client per thread; the clients live as long as `pool`.
std::function<CallFn(int)> SocketDialer(
    const std::string& address,
    std::vector<std::unique_ptr<service::ServiceClient>>* pool) {
  pool->clear();
  pool->resize(kClients);
  return [address, pool](int t) -> CallFn {
    Result<service::ServiceClient> client =
        service::ServiceClient::Dial(address);
    if (!client.ok()) return nullptr;
    (*pool)[static_cast<size_t>(t)] =
        std::make_unique<service::ServiceClient>(std::move(client).value());
    return SocketCall((*pool)[static_cast<size_t>(t)].get());
  };
}

Status BuildScripts(Conversations* c) {
  for (size_t i = 0; i < c->corpus.specs.size(); ++i) {
    CCR_ASSIGN_OR_RETURN(
        Script s, MakeScript(c->corpus.specs[i], c->corpus.truths[i]));
    c->scripts.push_back(std::move(s));
  }
  return Status::OK();
}

void Merge(const LoadResult& load, Tally* total) {
  for (const Tally& t : load.tallies) {
    total->conversation_ms.insert(total->conversation_ms.end(),
                                  t.conversation_ms.begin(),
                                  t.conversation_ms.end());
    total->round_ms.insert(total->round_ms.end(), t.round_ms.begin(),
                           t.round_ms.end());
    total->answer_ms.insert(total->answer_ms.end(), t.answer_ms.begin(),
                            t.answer_ms.end());
    total->tuples += t.tuples;
    total->requests += t.requests;
    total->failed += t.failed;
  }
}

void RunTimed(const RunConfig& cfg, RunReport* report) {
  // A set-up as a user pays it: generate the corpus and start a server.
  SetUpSampler sampler([&]() -> double {
    const Clock::time_point t0 = Clock::now();
    const Corpus corpus = GenerateCorpus(ServeCorpus(), cfg.seed);
    Service probe;
    if (!probe.Start().ok()) return -1;
    return SecondsSince(t0);
  });
  std::vector<double> setup_s;
  sampler.Sample(&setup_s, report);
  Conversations c;
  c.corpus = GenerateCorpus(ServeCorpus(), cfg.seed);
  Service svc;
  if (!svc.Start().ok() || !BuildScripts(&c).ok()) {
    ++report->attempted;
    ++report->failed;
    return;
  }
  const int n = static_cast<int>(c.scripts.size());

  std::vector<std::unique_ptr<service::ServiceClient>> clients;
  // Warm-up: one conversation per entity.
  LoadResult warm = RunClients(
      c, SocketDialer(svc.address, &clients),
      [n](int64_t k) { return k < n; }, kSocketSpans, false);
  Tally total;
  Merge(warm, &total);

  Tally timed;
  double wall_s = 0;
  const double segment_s = cfg.seconds / (kSetupPoints - 1);
  for (int segment = 0; segment < kSetupPoints - 1; ++segment) {
    if (segment > 0) sampler.Sample(&setup_s, report);
    const Clock::time_point start = Clock::now();
    LoadResult load = RunClients(
        c, SocketDialer(svc.address, &clients),
        [&](int64_t) { return SecondsSince(start) < segment_s; },
        kSocketSpans, false);
    Merge(load, &timed);
    wall_s += load.wall_s;
  }
  report->Set("peak_rss_mb", PeakRssMb(), "MB");
  clients.clear();
  const ServiceCounters stats = ReadStats(svc.address);
  svc.Stop();
  sampler.Sample(&setup_s, report);
  report->Set("setup_s", Median(setup_s), "s",
              static_cast<int64_t>(setup_s.size()));

  report->attempted += total.requests + timed.requests + 1;
  report->failed += total.failed + timed.failed +
                    (stats.ok ? stats.rejected_overload : 1);
  const int64_t done = static_cast<int64_t>(timed.conversation_ms.size());
  const int64_t rounds = static_cast<int64_t>(timed.round_ms.size());
  report->Set("entity_ms_p50", Percentile(timed.conversation_ms, 0.5), "ms",
              done);
  report->Set("entity_ms_p90", Percentile(timed.conversation_ms, 0.9), "ms",
              done);
  report->Set("tuples_per_s", static_cast<double>(timed.tuples) / wall_s,
              "tuples/s", done);
  report->Set("sessions_per_s", static_cast<double>(done) / wall_s,
              "1/s", done);
  report->Set("round_ms_p50", Percentile(timed.round_ms, 0.5), "ms", rounds);
  report->Set("round_ms_p99", Percentile(timed.round_ms, 0.99), "ms",
              rounds);
  report->Set("answer_ms_p50", Percentile(timed.answer_ms, 0.5), "ms",
              static_cast<int64_t>(timed.answer_ms.size()));
  report->facts["timed_wall_s"] = wall_s;
  report->facts["rehydrations"] = static_cast<double>(stats.rehydrations);
  report->facts["evictions"] = static_cast<double>(stats.evictions);
}

// The offline pass: each conversation through the traced engine mirror,
// plus the snapshot codec and replay on every snapshot an EVICT freezes.
void RunOfflinePass(const Conversations& c, Tracer* engine, Tracer* codec,
                    LayerCounts* counts, RunReport* report) {
  ResolveOptions opts = service::MakeResolveOptions({}, nullptr).value();
  SessionScratch scratch;
  opts.scratch = &scratch;
  for (size_t i = 0; i < c.scripts.size(); ++i) {
    const Script& s = c.scripts[i];
    const int64_t id = static_cast<int64_t>(i);
    ++report->attempted;
    TracedSession session(opts, engine, id);
    bool ok = true;
    {
      ScopedSpan root(engine, "session", id);
      ok = session.Create(s.log.spec).ok();
      size_t extend = 0;
      for (size_t op = 0; ok && op < s.log.ops.size(); ++op) {
        if (s.log.ops[op].kind == SessionOp::Kind::kExtend) {
          ok = session.ExtendWith(s.log.ops[op].delta).ok();
          continue;
        }
        const std::string reply =
            service::RoundOutcomeToJson(TracedRound(&session));
        ok = reply == s.rounds[extend++];
      }
    }
    if (ok) session.AddCounts(counts);
    for (const size_t round : s.evict_after) {
      // What the server freezes on that EVICT: the log up to and
      // including the round's EXTEND op.
      SessionSnapshot frozen;
      frozen.spec = s.log.spec;
      frozen.ops.assign(s.log.ops.begin(),
                        s.log.ops.begin() + static_cast<long>(2 * round + 2));
      std::string text;
      {
        ScopedSpan span(codec, "service.snapshot_encode", id);
        text = service::SnapshotToJson(frozen, /*indent=*/0);
      }
      Result<SessionSnapshot> decoded = Status::Internal("not decoded");
      {
        ScopedSpan span(codec, "service.snapshot_decode", id);
        decoded = service::SnapshotFromJson(text);
      }
      if (!decoded.ok()) {
        ok = false;
        continue;
      }
      ScopedSpan span(codec, "service.replay", id);
      ok = ok && service::ReplaySnapshot(decoded.value(), nullptr).ok();
    }
    if (!ok) ++report->failed;
  }
}

void RunTraced(const RunConfig& cfg, RunReport* report) {
  Conversations c;
  c.corpus = GenerateCorpus(ServeCorpus(), cfg.seed);
  if (!BuildScripts(&c).ok()) {
    ++report->attempted;
    ++report->failed;
    return;
  }
  const int n = static_cast<int>(c.scripts.size());
  auto one_pass = [n](int64_t k) { return k < n; };

  Tracer socket_spans, manager_spans, engine_spans, codec_spans;
  Tally total;
  LayerCounts first_counts;
  ServiceCounters first_stats;
  double untraced_s = 0, traced_s = 0;
  int passes = 0;
  constexpr int kMaxPasses = 10;
  const Clock::time_point start = Clock::now();
  while (passes < kMaxPasses &&
         (passes == 0 || SecondsSince(start) < cfg.seconds)) {
    std::vector<std::unique_ptr<service::ServiceClient>> clients;
    for (const bool traced : {false, true}) {
      Service svc;
      if (!svc.Start().ok()) {
        ++total.requests;
        ++total.failed;
        continue;
      }
      LoadResult load =
          RunClients(c, SocketDialer(svc.address, &clients), one_pass,
                     kSocketSpans, traced);
      clients.clear();
      Merge(load, &total);
      (traced ? traced_s : untraced_s) += load.wall_s;
      if (!traced) continue;
      socket_spans.Append(load.tracer);
      const ServiceCounters stats = ReadStats(svc.address);
      ++total.requests;
      if (!stats.ok || stats.rejected_overload != 0) ++total.failed;
      if (passes == 0) {
        first_stats = stats;
      } else if (!(stats == first_stats)) {
        ++total.failed;  // counts must repeat exactly
      }
    }
    {
      service::SessionManager manager{service::ServiceOptions{}};
      LoadResult load = RunClients(
          c, [&manager](int) { return ManagerCall(&manager); }, one_pass,
          kManagerSpans, true);
      manager.Shutdown();
      Merge(load, &total);
      manager_spans.Append(load.tracer);
    }
    LayerCounts counts;
    RunOfflinePass(c, &engine_spans, &codec_spans, &counts, report);
    if (passes == 0) {
      first_counts = counts;
    } else if (!(counts == first_counts)) {
      ++total.failed;
    }
    ++passes;
  }
  report->attempted += total.requests;
  report->failed += total.failed;

  ReportLayerMetrics(engine_spans, passes, first_counts, report);
  const std::pair<const char*, const char*> kP50s[] = {
      {"service.open_ms_p50", "service.open"},
      {"service.round_ms_p50", "service.round"},
      {"service.answer_ms_p50", "service.answer"},
      {"service.evict_ms_p50", "service.evict"},
      {"service.snapshot_ms_p50", "service.snapshot"},
      {"service.close_ms_p50", "service.close"},
  };
  for (const auto& [metric, span] : kP50s) {
    const std::vector<double> d = socket_spans.DurationsMs(span);
    report->Set(metric, Median(d), "ms", static_cast<int64_t>(d.size()));
  }
  const std::vector<double> rounds = socket_spans.DurationsMs("service.round");
  report->Set("service.round_ms_p99", Percentile(rounds, 0.99), "ms",
              static_cast<int64_t>(rounds.size()));
  const std::vector<double> manager_round =
      manager_spans.DurationsMs("manager.round");
  report->Set("service.manager_round_ms_p50", Median(manager_round), "ms",
              static_cast<int64_t>(manager_round.size()));
  const std::map<std::string, double> codec = codec_spans.TotalMs();
  for (const char* name : {"service.replay", "service.snapshot_encode",
                           "service.snapshot_decode"}) {
    const auto it = codec.find(name);
    report->Set(std::string(name) + "_ms",
                (it == codec.end() ? 0.0 : it->second) / passes, "ms",
                static_cast<int64_t>(codec_spans.DurationsMs(name).size()));
  }
  report->Set("service.rehydrations",
              static_cast<double>(first_stats.rehydrations), "count");
  report->Set("service.evictions", static_cast<double>(first_stats.evictions),
              "count");
  report->Set("service.rejected_overload",
              static_cast<double>(first_stats.rejected_overload), "count");
  const std::map<std::string, double> total_ms = socket_spans.TotalMs();
  const std::map<std::string, double> self_ms = socket_spans.SelfMs();
  const double conversation_ms = total_ms.at("conversation");
  report->Set("trace.coverage",
              1.0 - self_ms.at("conversation") / conversation_ms, "ratio",
              static_cast<int64_t>(passes) * n);
  report->Set("trace.overhead", traced_s / untraced_s, "ratio", passes);
  report->facts["passes"] = passes;
  if (!cfg.trace_dir.empty()) {
    Tracer all;
    all.Append(socket_spans);
    all.Append(manager_spans);
    all.Append(engine_spans);
    all.Append(codec_spans);
    all.WriteJsonl(cfg.trace_dir + "/serve-evict-seed" +
                       std::to_string(cfg.seed) + ".jsonl",
                   start);
  }
}

}  // namespace

bool RunServeWorkload(const RunConfig& config, RunReport* report) {
  if (config.workload != "serve-evict") return false;
  if (config.trace) {
    RunTraced(config, report);
  } else {
    RunTimed(config, report);
  }
  return true;
}

}  // namespace ccr::perfbench
