// The three benchmark workloads. Each times the program's public calls
// from here, runs its checks outside the timed calls, and reports metrics
// by the names in BENCHMARK.json.
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "baseline/offline_tuner.h"
#include "bench.h"
#include "checks.h"
#include "core/colt.h"
#include "core/serve.h"
#include "exec/executor.h"
#include "harness/experiment.h"
#include "harness/workloads.h"
#include "query/parser.h"
#include "query/workload.h"
#include "storage/database.h"
#include "storage/tpch_schema.h"

namespace perfbench {

namespace {

using colt::ColtTuner;
using colt::Query;
using colt::TuningStep;

/// Scale of the physical single-instance TPC-H used by serve_read and
/// htap_mixed (lineitem 60,000 rows).
constexpr double kPhysicalScale = 0.05;
/// Storage budget of the physical workloads.
constexpr int64_t kPhysicalBudgetBytes = 8LL * 1024 * 1024;
/// serve_read: distinct statements in the dashboard pool, statements per
/// ServeWorkload call (a multiple of the tuner's epoch length, so serving
/// epochs stay aligned with tuner epochs across calls), client threads.
constexpr int kPoolSize = 1000;
constexpr int kServeChunk = 500;
constexpr int kServeClients = 3;
/// htap_mixed: INSERT batch sizes of ExperimentWorkloads::HtapPhases are
/// divided by this, so one round's bulk inserts stay within the size of
/// lineitem itself.
constexpr int64_t kInsertScaleDown = 20;
/// htap_mixed: statements per phase (the trace is 3 phases and two
/// 50-statement transitions), and distinct draws of the trace, one per
/// round in turn.
constexpr int kHtapPhaseLength = 600;
constexpr int kHtapDraws = 4;
/// tune_shifting: distinct draws of the Fig. 4 schedule, and schedule
/// cycles per round (100 x 1,350 = 135,000 statements).
constexpr int kTuneDraws = 4;
constexpr int kTuneRoundCycles = 100;
/// End-to-end timings are taken over this many windows of a run.
constexpr int kWindows = 80;

double Seconds(int64_t ns) { return static_cast<double>(ns) / 1e9; }

/// Model-time totals over TuningSteps: the paper's cost currency.
struct TunerTotals {
  int64_t statements = 0;
  int64_t whatif_calls = 0;
  int64_t builds = 0;
  int64_t drops = 0;
  double exec = 0.0;
  double profile = 0.0;
  double build = 0.0;  // successful and wasted builds
  double maintenance = 0.0;

  void Add(const TuningStep& step) {
    ++statements;
    whatif_calls += step.whatif_calls;
    exec += step.execution_seconds;
    profile += step.profiling_seconds;
    build += step.build_seconds + step.wasted_build_seconds;
    maintenance += step.maintenance_seconds;
    for (const colt::IndexAction& a : step.actions) {
      if (a.type == colt::IndexActionType::kMaterialize) ++builds;
      if (a.type == colt::IndexActionType::kDrop) ++drops;
    }
  }
  double ModelSecondsPerStmt() const {
    return statements > 0 ? (exec + profile + build) /
                                static_cast<double>(statements)
                          : 0.0;
  }
};

uint16_t StepTags(const TuningStep& step, bool write) {
  uint16_t tags = write ? kTagWrite : 0;
  if (step.epoch_ended) tags |= kTagEpochEnd;
  for (const colt::IndexAction& a : step.actions) {
    if (a.type == colt::IndexActionType::kMaterialize) tags |= kTagBuild;
  }
  return tags;
}

/// Per-layer metrics of the tuner, from core.on_query spans and the steps'
/// model-time split. Build calls happen at epoch ends, so epoch_end_us
/// covers the epoch ends without a build and build_on_query_us the rest.
void AddCoreLayerMetrics(const Tracer& tracer, const TunerTotals& totals,
                         RunResult* res) {
  const std::vector<double> all = tracer.DurationsUs(SpanName::kOnQuery);
  const std::vector<double> epoch_end =
      tracer.DurationsUs(SpanName::kOnQuery, kTagEpochEnd);
  auto& m = res->per_layer;
  m["core.on_query_us_p50"] = Percentile(all, 50);
  m["core.on_query_us_p99"] = Percentile(all, 99);
  m["core.epoch_end_us"] = Percentile(
      tracer.DurationsUs(SpanName::kOnQuery, kTagEpochEnd, kTagBuild), 50);
  m["core.epoch_end_share"] = Sum(all) > 0 ? Sum(epoch_end) / Sum(all) : 0.0;
  m["core.read_on_query_us"] = Percentile(
      tracer.DurationsUs(SpanName::kOnQuery, 0, kTagEpochEnd | kTagWrite), 50);
  m["core.write_on_query_us"] = Percentile(
      tracer.DurationsUs(SpanName::kOnQuery, kTagWrite, kTagEpochEnd), 50);
  m["core.build_on_query_us"] =
      Percentile(tracer.DurationsUs(SpanName::kOnQuery, kTagBuild), 50);
  const double n = static_cast<double>(std::max<int64_t>(1, totals.statements));
  m["core.whatif_calls_per_kstmt"] =
      1000.0 * static_cast<double>(totals.whatif_calls) / n;
  m["core.index_builds"] = 1000.0 * static_cast<double>(totals.builds) / n;
  m["core.index_drops"] = 1000.0 * static_cast<double>(totals.drops) / n;
  m["core.model_exec_s"] = totals.exec / n;
  m["core.model_profile_s"] = totals.profile / n;
  m["core.model_build_s"] = totals.build / n;
  m["core.model_maintenance_s"] = totals.maintenance / n;
}

/// Renders each query to SQL text: the form the program receives.
std::vector<std::string> RenderSql(const colt::Catalog& catalog,
                                   const std::vector<Query>& queries) {
  std::vector<std::string> sql;
  sql.reserve(queries.size());
  for (const Query& q : queries) sql.push_back(q.ToString(catalog));
  return sql;
}

/// Parses every statement under a query.parse span. A statement that does
/// not parse, or does not render back to its own text, fails the run.
std::vector<Query> ParseAll(const colt::Catalog& catalog,
                            const std::vector<std::string>& sql,
                            Tracer* tracer, RunResult* res) {
  const colt::QueryParser parser(&catalog);
  std::vector<Query> out;
  out.reserve(sql.size());
  for (size_t i = 0; i < sql.size(); ++i) {
    const int32_t span =
        tracer->Begin(SpanName::kParse, static_cast<int64_t>(i));
    colt::Result<Query> q = parser.Parse(sql[i]);
    tracer->End(span);
    if (!q.ok()) {
      res->Fail("parse failed: " + sql[i]);
      out.emplace_back();
      continue;
    }
    if (q->ToString(catalog) != sql[i]) {
      res->Fail("parse round trip changed: " + sql[i]);
    }
    out.push_back(std::move(*q));
  }
  return out;
}

double SpanSeconds(const Tracer& tracer, SpanName name) {
  return Sum(tracer.DurationsUs(name)) / 1e6;
}

/// Storage-side end state of a physical database.
int64_t LiveRows(const colt::Database& db) {
  int64_t live = 0;
  for (colt::TableId t = 0; t < db.catalog().table_count(); ++t) {
    if (db.HasData(t)) live += db.data(t).live_row_count();
  }
  return live;
}

void AddStorageEndMetrics(const colt::Database& db, RunResult* res) {
  int64_t entries = 0;
  const std::vector<colt::IndexId> built = db.BuiltIndexIds();
  for (colt::IndexId id : built) entries += db.index(id).entry_count();
  res->per_layer["index.built_count_end"] = static_cast<double>(built.size());
  res->per_layer["index.entries_end"] = static_cast<double>(entries);
  res->per_layer["storage.live_rows_end"] = static_cast<double>(LiveRows(db));
}

/// Page and tuple accounting over executed reads.
struct ReadTotals {
  int64_t reads = 0;
  int64_t heap_pages = 0;
  int64_t index_pages = 0;
  int64_t tuples = 0;

  void Add(const colt::ExecutionResult& r) {
    ++reads;
    heap_pages += r.pages_seq + r.pages_random + r.pages_bitmap;
    index_pages += r.pages_index;
    tuples += r.tuples_processed;
  }
  void AddLayerMetrics(RunResult* res) const {
    const double n = static_cast<double>(std::max<int64_t>(1, reads));
    res->per_layer["exec.heap_pages_per_read"] =
        static_cast<double>(heap_pages) / n;
    res->per_layer["index.pages_per_read"] =
        static_cast<double>(index_pages) / n;
    res->per_layer["exec.tuples_per_read"] = static_cast<double>(tuples) / n;
  }
};

void AddWindowMetrics(const WindowStats& windows, RunResult* res) {
  res->end_to_end["stmts_per_s"] = windows.Throughput();
  res->end_to_end["stmt_p50_us"] = windows.P50();
  res->end_to_end["stmt_p99_us"] = windows.P99();
}

colt::Result<int64_t> Fig4Budget(
    colt::Catalog* catalog, const std::vector<colt::QueryDistribution>& dists) {
  // As bench/fig4_shifting: a fixed mining sample, so the budget is the
  // paper figure's whatever the run's seed.
  colt::QueryOptimizer probe(catalog);
  colt::OfflineTuner miner(catalog, &probe);
  colt::WorkloadGenerator gen(catalog, 1234);
  std::vector<Query> sample;
  for (const auto& d : dists) {
    for (int i = 0; i < 200; ++i) sample.push_back(gen.Sample(d));
  }
  colt::Result<std::vector<colt::IndexId>> relevant =
      miner.MineRelevantIndexes(sample);
  if (!relevant.ok()) return relevant.status();
  return colt::BudgetForIndexes(*catalog, *relevant, 4.0);
}

}  // namespace

// ---------------------------------------------------------------------------
// tune_shifting: statistics-only COLT on the paper's Fig. 4 schedule.

RunResult RunTuneShifting(const Options& options, int64_t process_start_ns) {
  RunResult res;
  Tracer tracer(options.trace);
  const int32_t setup_span = tracer.Begin(SpanName::kSetup);
  colt::Catalog catalog = colt::MakeTpchCatalog();
  const std::vector<colt::QueryDistribution> dists =
      colt::ExperimentWorkloads::ShiftingPhases(&catalog);
  const colt::Result<int64_t> budget = Fig4Budget(&catalog, dists);
  if (!budget.ok()) {
    res.Fail("budget mining failed: " + budget.status().ToString());
    return res;
  }
  std::vector<std::string> sql;
  {
    SpanScope span(&tracer, SpanName::kTraceGen);
    std::vector<colt::WorkloadPhase> phases;
    for (const auto& d : dists) phases.push_back({d, 300});
    colt::WorkloadGenerator gen(&catalog, options.seed);
    for (int draw = 0; draw < kTuneDraws; ++draw) {
      for (std::string& s : RenderSql(
               catalog, colt::GeneratePhasedWorkload(gen, phases, 50))) {
        sql.push_back(std::move(s));
      }
    }
  }
  const std::vector<Query> trace = ParseAll(catalog, sql, &tracer, &res);
  colt::ColtConfig config;
  config.storage_budget_bytes = *budget;
  colt::QueryOptimizer reference(&catalog);
  const colt::IndexConfiguration empty;
  std::vector<double> untuned(trace.size(), -1.0);
  tracer.End(setup_span);

  res.end_to_end["setup_s"] = Seconds(NowNs() - process_start_ns);
  const int64_t run_ns = static_cast<int64_t>(options.seconds * 1e9);
  WindowStats windows(options.seconds / kWindows);
  TunerTotals totals;
  double tuned_total = 0.0;
  double untuned_total = 0.0;
  int64_t timed_ns = 0;
  // Rounds: a fresh tuner cycles the schedule draws kTuneRoundCycles
  // times, so the tuner's history (one EpochReport per epoch) is bounded
  // by a round whatever the run's speed.
  const size_t round_statements =
      trace.size() / kTuneDraws * kTuneRoundCycles;
  while (timed_ns < run_ns) {
    colt::QueryOptimizer optimizer(&catalog);
    ColtTuner tuner(&catalog, &optimizer, config);
    for (size_t i = 0; i < round_statements && timed_ns < run_ns; ++i) {
      const size_t k = i % trace.size();
      const Query& q = trace[k];
      const int32_t span = tracer.Begin(SpanName::kOnQuery, totals.statements);
      const int64_t t0 = NowNs();
      const TuningStep step = tuner.OnQuery(q);
      const int64_t t1 = NowNs();
      tracer.End(span, StepTags(step, q.is_write()));
      timed_ns += t1 - t0;
      windows.Add(static_cast<double>(t1 - t0) / 1e3);
      windows.Advance(timed_ns);
      totals.Add(step);

      // Optimizer monotonicity: no statement may cost more than under an
      // empty configuration, and tuning must pay off over the run.
      if (untuned[k] < 0) {
        untuned[k] = reference.cost_model().ToSeconds(
            reference.Optimize(q, empty).cost);
      }
      if (step.execution_seconds > untuned[k]) {
        res.Fail("statement " + std::to_string(k) + " costs " +
                 std::to_string(step.execution_seconds) + " s tuned, " +
                 std::to_string(untuned[k]) + " s untuned");
      }
      tuned_total += step.execution_seconds;
      untuned_total += untuned[k];
    }
    // Budget bound at every epoch, from the catalog's index sizes.
    for (const colt::EpochReport& e : tuner.epoch_reports()) {
      int64_t bytes = 0;
      for (colt::IndexId id : e.materialized_ids) {
        bytes += catalog.index(id).size_bytes;
      }
      if (bytes > config.storage_budget_bytes) {
        res.Fail("epoch " + std::to_string(e.epoch) + " holds " +
                 std::to_string(bytes) + " bytes over the budget");
      }
    }
  }
  windows.Finish(timed_ns);
  res.attempted = totals.statements;
  if (!(tuned_total < untuned_total)) {
    res.Fail("tuned total " + std::to_string(tuned_total) +
             " s is not below untuned " + std::to_string(untuned_total));
  }

  AddWindowMetrics(windows, &res);
  res.end_to_end["model_s_per_stmt"] = totals.ModelSecondsPerStmt();
  if (tracer.enabled()) {
    res.per_layer["query.trace_gen_s"] =
        SpanSeconds(tracer, SpanName::kTraceGen);
    res.per_layer["query.parse_us"] =
        Percentile(tracer.DurationsUs(SpanName::kParse), 50);
    AddCoreLayerMetrics(tracer, totals, &res);
    if (!tracer.WriteCsv(std::string(kSpanDir) + "/spans_tune_shifting.csv")) {
      res.Fail("could not write spans");
    }
  }
  return res;
}

// ---------------------------------------------------------------------------
// serve_read: a dashboard pool served by three clients while COLT tunes.

namespace {

/// The model time a serving run charged, rebuilt from what ServeWorkload
/// exposes (it returns no TuningSteps): executed plans' estimated cost,
/// the epochs' what-if calls, and the build cost of each index an epoch
/// added. Covers the first `epochs` tuner epochs.
TunerTotals ServeModelTotals(const ColtTuner& tuner,
                             const colt::QueryOptimizer& optimizer,
                             const std::vector<double>& estimated_cost,
                             size_t epochs) {
  TunerTotals t;
  const size_t statements =
      std::min(estimated_cost.size(),
               epochs * static_cast<size_t>(tuner.config().epoch_length));
  for (size_t i = 0; i < statements; ++i) {
    t.exec += optimizer.cost_model().ToSeconds(estimated_cost[i]);
  }
  t.statements = static_cast<int64_t>(statements);
  const std::vector<colt::EpochReport>& reports = tuner.epoch_reports();
  std::vector<colt::IndexId> previous;
  for (size_t e = 0; e < std::min(epochs, reports.size()); ++e) {
    t.whatif_calls += reports[e].whatif_used;
    t.profile += reports[e].whatif_used * tuner.config().whatif_call_seconds;
    for (colt::IndexId id : reports[e].materialized_ids) {
      if (std::find(previous.begin(), previous.end(), id) == previous.end()) {
        t.build += tuner.scheduler().BuildSeconds(id);
        ++t.builds;
      }
    }
    for (colt::IndexId id : previous) {
      const auto& now = reports[e].materialized_ids;
      if (std::find(now.begin(), now.end(), id) == now.end()) ++t.drops;
    }
    previous = reports[e].materialized_ids;
  }
  return t;
}

/// Splits `total` slots over `weights` by largest remainder.
std::vector<int> Apportion(const std::vector<double>& weights, int total) {
  const double sum = Sum(weights);
  std::vector<int> counts;
  std::vector<std::pair<double, size_t>> remainders;
  int assigned = 0;
  for (size_t i = 0; i < weights.size(); ++i) {
    const double exact = weights[i] / sum * total;
    counts.push_back(static_cast<int>(exact));
    assigned += counts.back();
    remainders.push_back({exact - counts.back(), i});
  }
  std::sort(remainders.rbegin(), remainders.rend());
  for (int i = 0; i < total - assigned; ++i) {
    ++counts[remainders[static_cast<size_t>(i)].second];
  }
  return counts;
}

bool NearlyEqual(double a, double b) {
  return std::abs(a - b) <= 1e-9 * std::max({1.0, std::abs(a), std::abs(b)});
}

}  // namespace

RunResult RunServeRead(const Options& options, int64_t process_start_ns) {
  RunResult res;
  Tracer tracer(options.trace);
  const int32_t setup_span = tracer.Begin(SpanName::kSetup);
  colt::TpchOptions tpch;
  tpch.instances = 1;
  tpch.scale = kPhysicalScale;
  colt::Database db(colt::MakeTpchCatalog(tpch), options.seed);
  {
    SpanScope span(&tracer, SpanName::kMaterialize);
    const colt::Status st = db.MaterializeAll(/*refresh_stats=*/true);
    if (!st.ok()) {
      res.Fail("materialize failed: " + st.ToString());
      return res;
    }
  }
  std::vector<std::string> pool_sql;
  {
    SpanScope span(&tracer, SpanName::kTraceGen);
    // Each Focused(0) template fills a share of the pool set by its weight,
    // so the pool's mix of statement shapes, and with it the work per
    // statement, is the same for every seed; the seed draws each
    // statement's constants and the reissue order.
    const colt::QueryDistribution dist =
        colt::ExperimentWorkloads::Focused(&db.mutable_catalog(), 0);
    colt::WorkloadGenerator gen(&db.catalog(), options.seed);
    std::set<std::string> seen;
    const std::vector<int> counts = Apportion(dist.weights, kPoolSize);
    for (size_t t = 0; t < counts.size(); ++t) {
      for (int c = 0; c < counts[t]; ++c) {
        for (int tries = 0; tries < 100; ++tries) {
          std::string s =
              gen.Instantiate(dist.templates[t]).ToString(db.catalog());
          if (seen.insert(s).second) {
            pool_sql.push_back(std::move(s));
            break;
          }
        }
      }
    }
  }
  const std::vector<Query> pool =
      ParseAll(db.catalog(), pool_sql, &tracer, &res);
  colt::Rng pick(options.seed ^ 0x9e3779b97f4a7c15ULL);
  colt::QueryOptimizer optimizer(&db.catalog());
  colt::ColtConfig config;
  config.storage_budget_bytes = kPhysicalBudgetBytes;
  ColtTuner tuner(&db.mutable_catalog(), &optimizer, config, &db);
  colt::ServeOptions serve_options;
  serve_options.client_threads = kServeClients;
  // Unpinned: on a shared host the scheduler can move a client off a busy
  // core, where a pinned client would stall the epoch barrier.
  serve_options.pin_threads = false;
  std::vector<int64_t> epoch_end_ns;
  if (tracer.enabled()) {
    serve_options.on_epoch_end = [&epoch_end_ns](int) {
      epoch_end_ns.push_back(NowNs());
    };
  }
  tracer.End(setup_span);

  const int64_t timed_start = NowNs();
  res.end_to_end["setup_s"] = Seconds(timed_start - process_start_ns);
  // Per served statement, in trace order across all chunks.
  std::vector<int32_t> issued;
  std::vector<int64_t> output_rows;
  std::vector<double> latency_us;
  std::vector<double> estimated_cost;
  std::vector<int32_t> client_of;
  ReadTotals reads;
  // Traced mode: wall time of each serving epoch.
  std::vector<int64_t> epoch_start_ns;
  int64_t timed_ns = 0;
  WindowStats windows(options.seconds / kWindows);
  std::vector<Query> chunk;
  while (Seconds(timed_ns) < options.seconds) {
    chunk.clear();
    for (int i = 0; i < kServeChunk; ++i) {
      const int32_t p = static_cast<int32_t>(pick.NextBelow(pool.size()));
      issued.push_back(p);
      chunk.push_back(pool[static_cast<size_t>(p)]);
    }
    const size_t first_epoch = epoch_end_ns.size();
    const int64_t t0 = NowNs();
    const colt::ServeResult served =
        colt::ServeWorkload(&db, &optimizer, &tuner, chunk, serve_options);
    const int64_t t1 = NowNs();
    timed_ns += t1 - t0;
    tracer.Add(SpanName::kServe, t0, t1);
    for (size_t e = first_epoch; e < epoch_end_ns.size(); ++e) {
      const int64_t start = e == first_epoch ? t0 : epoch_end_ns[e - 1];
      epoch_start_ns.push_back(start);
      tracer.Add(SpanName::kServeEpoch, start, epoch_end_ns[e]);
    }
    for (const colt::ServedQuery& q : served.queries) {
      latency_us.push_back(q.latency_seconds * 1e6);
      windows.Add(q.latency_seconds * 1e6);
      estimated_cost.push_back(q.estimated_cost);
      client_of.push_back(q.client);
      output_rows.push_back(q.ok ? q.result.output_rows : -1);
      if (!q.ok) {
        ++res.failed;
        if (res.errors.size() < 10) res.errors.push_back(q.error);
        continue;
      }
      reads.Add(q.result);
    }
    windows.Advance(timed_ns);
  }
  windows.Finish(timed_ns);
  res.attempted = static_cast<int64_t>(issued.size());
  const TableSet tables = TablesOf(db);

  {
    SpanScope span(&tracer, SpanName::kCheck);
    std::vector<int64_t> expected(pool.size(), -1);
    for (size_t i = 0; i < issued.size(); ++i) {
      if (output_rows[i] < 0) continue;  // failed, counted in `failed`
      int64_t& want = expected[static_cast<size_t>(issued[i])];
      if (want < 0) {
        const colt::Result<int64_t> ref =
            ReferenceCount(tables, pool[static_cast<size_t>(issued[i])]);
        if (!ref.ok()) {
          res.Fail("reference count failed: " + ref.status().ToString());
          continue;
        }
        want = *ref;
      }
      if (output_rows[i] != want) {
        res.Fail("served statement " + std::to_string(i) + " returned " +
                 std::to_string(output_rows[i]) + " rows, reference " +
                 std::to_string(want) + ": " +
                 pool_sql[static_cast<size_t>(issued[i])]);
      }
    }
  }

  AddWindowMetrics(windows, &res);
  const size_t epochs = tuner.epoch_reports().size();
  res.end_to_end["model_s_per_stmt"] =
      ServeModelTotals(tuner, optimizer, estimated_cost, epochs)
          .ModelSecondsPerStmt();
  if (!tracer.enabled()) return res;

  auto& m = res.per_layer;
  m["storage.materialize_s"] = SpanSeconds(tracer, SpanName::kMaterialize);
  m["query.trace_gen_s"] = SpanSeconds(tracer, SpanName::kTraceGen);
  m["query.parse_us"] = Percentile(tracer.DurationsUs(SpanName::kParse), 50);
  m["exec.execute_us_p50"] = Percentile(latency_us, 50);
  m["exec.execute_us_p99"] = Percentile(latency_us, 99);
  reads.AddLayerMetrics(&res);
  m["exec.tuples_per_s"] =
      static_cast<double>(reads.tuples) / (Sum(latency_us) / 1e6);
  AddStorageEndMetrics(db, &res);
  // Serving epochs: wall time, and each client's wait at the barrier (the
  // epoch's wall time less the client's own execute time in it).
  std::vector<double> epoch_ms;
  for (size_t e = 0; e < epoch_start_ns.size(); ++e) {
    epoch_ms.push_back(
        static_cast<double>(epoch_end_ns[e] - epoch_start_ns[e]) / 1e6);
  }
  const size_t epoch_len = static_cast<size_t>(config.epoch_length);
  double wait_ms = 0.0;
  std::vector<double> client_busy_us(kServeClients, 0.0);
  for (size_t e = 0; e < epoch_ms.size(); ++e) {
    std::vector<double> busy_ms(kServeClients, 0.0);
    const size_t end = std::min((e + 1) * epoch_len, latency_us.size());
    for (size_t i = e * epoch_len; i < end; ++i) {
      busy_ms[static_cast<size_t>(client_of[i])] += latency_us[i] / 1e3;
      client_busy_us[static_cast<size_t>(client_of[i])] += latency_us[i];
    }
    for (double b : busy_ms) wait_ms += epoch_ms[e] - b;
  }
  m["serve.epoch_ms_p50"] = Percentile(epoch_ms, 50);
  m["serve.epoch_ms_p99"] = Percentile(epoch_ms, 99);
  m["serve.barrier_wait_ms"] =
      epoch_ms.empty()
          ? 0.0
          : wait_ms / static_cast<double>(epoch_ms.size() * kServeClients);
  m["serve.client_busy_share"] =
      Sum(client_busy_us) / 1e6 / kServeClients / Seconds(timed_ns);

  // Serial replay of the same statements with a fresh tuner, to split the
  // owner's work into plan, execute and OnQuery. Tuner decisions do not
  // depend on the client count, so the replay must charge exactly the
  // model time the serving run did over the same epochs.
  for (colt::IndexId id : db.BuiltIndexIds()) db.DropIndex(id);
  colt::QueryOptimizer replay_optimizer(&db.catalog());
  ColtTuner replay_tuner(&db.mutable_catalog(), &replay_optimizer, config,
                         &db);
  colt::Executor executor(&db);
  TunerTotals replay_totals;
  const int64_t replay_deadline =
      NowNs() + static_cast<int64_t>(options.seconds * 1e9);
  size_t i = 0;
  for (; i < issued.size(); ++i) {
    if (i % epoch_len == 0 && NowNs() >= replay_deadline) break;
    const Query& q = pool[static_cast<size_t>(issued[i])];
    const int64_t request = static_cast<int64_t>(i);
    SpanScope statement(&tracer, SpanName::kStatement, request);
    const int32_t plan_span = tracer.Begin(SpanName::kPlan, request);
    const colt::PlanResult plan =
        replay_optimizer.Optimize(q, replay_tuner.materialized());
    tracer.End(plan_span);
    const int32_t exec_span = tracer.Begin(SpanName::kExecute, request);
    const colt::Result<colt::ExecutionResult> r = executor.Execute(*plan.plan);
    tracer.End(exec_span);
    if (!r.ok() || r->output_rows != output_rows[i]) {
      res.Fail("replayed statement " + std::to_string(i) +
               " differs from the served one");
    }
    const int32_t span = tracer.Begin(SpanName::kOnQuery, request);
    const TuningStep step = replay_tuner.OnQuery(q);
    tracer.End(span, StepTags(step, false));
    replay_totals.Add(step);
  }
  const TunerTotals served_totals =
      ServeModelTotals(tuner, optimizer, estimated_cost, i / epoch_len);
  if (served_totals.statements != replay_totals.statements ||
      !NearlyEqual(served_totals.exec, replay_totals.exec) ||
      !NearlyEqual(served_totals.profile, replay_totals.profile) ||
      !NearlyEqual(served_totals.build, replay_totals.build)) {
    res.Fail("serial replay charged other model time than serving: exec " +
             std::to_string(replay_totals.exec) + " vs " +
             std::to_string(served_totals.exec) + ", profile " +
             std::to_string(replay_totals.profile) + " vs " +
             std::to_string(served_totals.profile) + ", build " +
             std::to_string(replay_totals.build) + " vs " +
             std::to_string(served_totals.build));
  }
  m["optimizer.plan_us"] = Percentile(tracer.DurationsUs(SpanName::kPlan), 50);
  AddCoreLayerMetrics(tracer, replay_totals, &res);
  if (!tracer.WriteCsv(std::string(kSpanDir) + "/spans_serve_read.csv")) {
    res.Fail("could not write spans");
  }
  return res;
}

// ---------------------------------------------------------------------------
// htap_mixed: parse, plan, execute and tune a read/write/read trace.

namespace {

std::vector<colt::QueryDistribution> HtapDistributions(
    colt::Catalog* catalog) {
  std::vector<colt::QueryDistribution> dists =
      colt::ExperimentWorkloads::HtapPhases(catalog);
  for (colt::QueryDistribution& d : dists) {
    for (colt::QueryTemplate& t : d.templates) {
      if (t.kind != colt::StatementKind::kInsert) continue;
      t.min_insert_rows =
          std::max<int64_t>(1, t.min_insert_rows / kInsertScaleDown);
      t.max_insert_rows =
          std::max<int64_t>(1, t.max_insert_rows / kInsertScaleDown);
    }
  }
  // The write phase also updates and deletes lineitem rows located through
  // l_shipdate, so erases and in-place updates run beside the inserts.
  const colt::TableId li = catalog->FindTable("lineitem_0");
  const colt::TableSchema& schema = catalog->table(li);
  colt::SelectionSpec where;
  where.column = {li, schema.FindColumn("l_shipdate")};
  where.min_selectivity = 0.0005;
  where.max_selectivity = 0.002;
  colt::QueryTemplate update;
  update.name = "bench_li_update";
  update.kind = colt::StatementKind::kUpdate;
  update.tables = {li};
  update.set_columns = {{li, schema.FindColumn("l_partkey")}};
  update.selections = {where};
  colt::QueryTemplate del;
  del.name = "bench_li_delete";
  del.kind = colt::StatementKind::kDelete;
  del.tables = {li};
  del.selections = {where};
  dists[1].templates.push_back(update);
  dists[1].weights.push_back(1.0);
  dists[1].templates.push_back(del);
  dists[1].weights.push_back(1.0);
  return dists;
}

}  // namespace

RunResult RunHtapMixed(const Options& options, int64_t process_start_ns) {
  RunResult res;
  Tracer tracer(options.trace);
  const int32_t setup_span = tracer.Begin(SpanName::kSetup);
  colt::TpchOptions tpch;
  tpch.instances = 1;
  tpch.scale = kPhysicalScale;
  auto db = std::make_unique<colt::Database>(colt::MakeTpchCatalog(tpch),
                                             options.seed);
  {
    SpanScope span(&tracer, SpanName::kMaterialize);
    const colt::Status st = db->MaterializeAll(/*refresh_stats=*/true);
    if (!st.ok()) {
      res.Fail("materialize failed: " + st.ToString());
      return res;
    }
  }
  // Several draws of the trace, run one per round in turn, so a run
  // averages over more statement constants than one draw holds.
  std::vector<std::vector<std::string>> draws(kHtapDraws);
  std::vector<std::vector<int>> phase_of(kHtapDraws);
  {
    SpanScope span(&tracer, SpanName::kTraceGen);
    std::vector<colt::WorkloadPhase> phases;
    for (const auto& d : HtapDistributions(&db->mutable_catalog())) {
      phases.push_back({d, kHtapPhaseLength});
    }
    colt::WorkloadGenerator gen(&db->catalog(), options.seed);
    for (int d = 0; d < kHtapDraws; ++d) {
      draws[d] = RenderSql(db->catalog(), colt::GeneratePhasedWorkload(
                                              gen, phases, 50, &phase_of[d]));
    }
  }
  colt::ColtConfig config;
  config.storage_budget_bytes = kPhysicalBudgetBytes;
  tracer.End(setup_span);

  res.end_to_end["setup_s"] = Seconds(NowNs() - process_start_ns);
  const int64_t run_ns = static_cast<int64_t>(options.seconds * 1e9);
  WindowStats windows(options.seconds / kWindows);
  TunerTotals totals;
  ReadTotals reads;
  int64_t timed_ns = 0;
  int64_t statement = 0;
  // Rounds: each runs one draw on freshly materialized data with a fresh
  // tuner, so inserts grow the heap by at most one trace's worth.
  // Re-materializing between rounds is not timed.
  for (int round = 0; timed_ns < run_ns; ++round) {
    if (round > 0) {
      db.reset();
      db = std::make_unique<colt::Database>(colt::MakeTpchCatalog(tpch),
                                            options.seed);
      const colt::Status st = db->MaterializeAll(/*refresh_stats=*/true);
      if (!st.ok()) {
        res.Fail("materialize failed: " + st.ToString());
        break;
      }
    }
    const std::vector<std::string>& sql = draws[round % kHtapDraws];
    const std::vector<int>& phase = phase_of[round % kHtapDraws];
    const colt::QueryParser parser(&db->catalog());
    colt::QueryOptimizer optimizer(&db->catalog());
    ColtTuner tuner(&db->mutable_catalog(), &optimizer, config, db.get());
    colt::Executor executor(db.get());
    const TableSet tables = TablesOf(*db);
    const int64_t initial_live = LiveRows(*db);
    int64_t inserted = 0;
    int64_t deleted = 0;

    for (size_t k = 0; k < sql.size() && timed_ns < run_ns;
         ++k, ++statement) {
      ++res.attempted;
      SpanScope root(&tracer, SpanName::kStatement, statement);
      const int64_t t0 = NowNs();
      const int32_t parse_span = tracer.Begin(SpanName::kParse, statement);
      colt::Result<Query> parsed = parser.Parse(sql[k]);
      tracer.End(parse_span);
      if (!parsed.ok()) {
        ++res.failed;
        if (res.errors.size() < 10) res.errors.push_back("parse: " + sql[k]);
        continue;
      }
      const Query& q = *parsed;
      colt::Result<colt::ExecutionResult> executed = colt::ExecutionResult{};
      if (!q.is_write()) {
        const int32_t plan_span = tracer.Begin(SpanName::kPlan, statement);
        const colt::PlanResult plan =
            optimizer.Optimize(q, tuner.materialized());
        tracer.End(plan_span);
        const int32_t exec_span = tracer.Begin(SpanName::kExecute, statement);
        executed = executor.Execute(*plan.plan);
        tracer.End(exec_span);
      }
      const int64_t t1 = NowNs();

      // Checks, against the data as this statement sees it.
      {
        SpanScope check(&tracer, SpanName::kCheck, statement);
        if (!executed.ok()) {
          ++res.failed;
          if (res.errors.size() < 10) {
            res.errors.push_back(executed.status().ToString());
          }
        } else if (!q.is_write()) {
          reads.Add(*executed);
          const colt::Result<int64_t> ref = ReferenceCount(tables, q);
          if (!ref.ok() || *ref != executed->output_rows) {
            res.Fail("read returned " +
                     std::to_string(executed->output_rows) +
                     " rows, reference " +
                     (ref.ok() ? std::to_string(*ref)
                               : ref.status().ToString()) +
                     ": " + sql[k]);
          }
        } else if (q.kind() == colt::StatementKind::kInsert) {
          inserted += q.insert_rows();
        } else if (q.kind() == colt::StatementKind::kDelete) {
          // Rows this DELETE must remove, counted just before it runs.
          const colt::Result<int64_t> ref = ReferenceCount(tables, q);
          if (ref.ok()) {
            deleted += *ref;
          } else {
            res.Fail("reference count failed: " + ref.status().ToString());
          }
        }
      }

      const int32_t span = tracer.Begin(SpanName::kOnQuery, statement);
      const int64_t t2 = NowNs();
      const TuningStep step = tuner.OnQuery(q);
      const int64_t t3 = NowNs();
      tracer.End(span, StepTags(step, q.is_write()));
      totals.Add(step);
      timed_ns += (t1 - t0) + (t3 - t2);
      windows.Add(static_cast<double>((t1 - t0) + (t3 - t2)) / 1e3);
      windows.Advance(timed_ns);

      // Index-content audit at each phase boundary and at the end.
      const bool last = k + 1 == sql.size() || timed_ns >= run_ns;
      if (last || phase[k + 1] != phase[k]) {
        SpanScope check(&tracer, SpanName::kCheck, statement);
        for (const std::string& err : AuditAllIndexes(*db)) {
          res.Fail("index audit: " + err);
        }
      }
    }
    // Row conservation over the round.
    const int64_t live = LiveRows(*db);
    if (live != initial_live + inserted - deleted) {
      res.Fail("live rows " + std::to_string(live) + " != " +
               std::to_string(initial_live) + " + " +
               std::to_string(inserted) + " inserted - " +
               std::to_string(deleted) + " deleted");
    }
  }
  windows.Finish(timed_ns);

  AddWindowMetrics(windows, &res);
  res.end_to_end["model_s_per_stmt"] = totals.ModelSecondsPerStmt();
  if (!tracer.enabled()) return res;
  auto& m = res.per_layer;
  const std::vector<double> execute = tracer.DurationsUs(SpanName::kExecute);
  m["storage.materialize_s"] = SpanSeconds(tracer, SpanName::kMaterialize);
  m["query.trace_gen_s"] = SpanSeconds(tracer, SpanName::kTraceGen);
  m["query.parse_us"] = Percentile(tracer.DurationsUs(SpanName::kParse), 50);
  m["optimizer.plan_us"] = Percentile(tracer.DurationsUs(SpanName::kPlan), 50);
  m["exec.execute_us_p50"] = Percentile(execute, 50);
  m["exec.execute_us_p99"] = Percentile(execute, 99);
  reads.AddLayerMetrics(&res);
  m["exec.tuples_per_s"] =
      static_cast<double>(reads.tuples) / (Sum(execute) / 1e6);
  AddStorageEndMetrics(*db, &res);
  AddCoreLayerMetrics(tracer, totals, &res);
  if (!tracer.WriteCsv(std::string(kSpanDir) + "/spans_htap_mixed.csv")) {
    res.Fail("could not write spans");
  }
  return res;
}

}  // namespace perfbench
