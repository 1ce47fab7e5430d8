#include "bench/cfq_bench/ladder.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <map>
#include <numeric>

#include "common/simd.h"
#include "common/thread_pool.h"
#include "core/executor.h"
#include "core/optimizer.h"
#include "fpgrowth/fp_growth.h"
#include "mining/candidate_gen.h"
#include "mining/cap.h"
#include "mining/counter.h"
#include "obs/metrics.h"
#include "parser/parser.h"
#include "server/catalog.h"
#include "server/client.h"
#include "server/service.h"

namespace cfq::cfqbench {

namespace {

using Clock = std::chrono::steady_clock;
using server::JsonValue;

constexpr int kLadderLane = 100;
// Repetitions for the microsecond-scale calls (parse, canonicalize,
// plan), so one sample is not a single clock tick.
constexpr int kMicroRepeats = 50;
constexpr size_t kMaxCandidates = 50000;
constexpr size_t kPings = 200;
// Stream units fed from a batch workload's dataset.
constexpr size_t kLadderUnits = 16;

double Median(std::vector<double> v) { return Percentile(std::move(v), 50); }

double Sum(const std::vector<double>& v) {
  return std::accumulate(v.begin(), v.end(), 0.0);
}

// Runs fn() as span `name` (child of `parent`) of request `id`;
// returns its wall seconds.
template <typename Fn>
double Timed(SpanLog* spans, const std::string& id, const std::string& name,
             const std::string& parent, Fn&& fn) {
  const double start_us = spans->NowUs();
  const Clock::time_point t0 = Clock::now();
  fn();
  const double seconds =
      std::chrono::duration<double>(Clock::now() - t0).count();
  spans->Add({name, id, parent, start_us, spans->NowUs() - start_us,
              kLadderLane});
  return seconds;
}

void BindDomains(CfqQuery* query, size_t num_items) {
  query->s_domain.clear();
  query->t_domain.clear();
  for (ItemId i = 0; i < num_items; ++i) {
    query->s_domain.push_back(i);
    query->t_domain.push_back(i);
  }
}

// The batch layers answer a stream query's constraints over the whole
// stream: the window goes and the thresholds keep their share of the
// transactions they cover.
CfqQuery BatchQuery(CfqQuery query, uint64_t units) {
  if (units == 0) return query;  // Already a batch query.
  const uint64_t covered = query.window_units == 0
                               ? units
                               : std::min(query.window_units, units);
  const double scale =
      static_cast<double>(units) / static_cast<double>(covered);
  query.min_support_s = static_cast<uint64_t>(
      std::ceil(static_cast<double>(query.min_support_s) * scale));
  query.min_support_t = static_cast<uint64_t>(
      std::ceil(static_cast<double>(query.min_support_t) * scale));
  query.window_units = 0;
  return query;
}

Dataset CopyDataset(const Dataset& d) { return Dataset{d.db, d.catalog}; }

// Per-request measurements, one vector entry per replayed request.
struct Series {
  std::vector<double> service_miss_s, service_self_s, service_hit_s, tcp_hit_s;
  std::vector<double> parse_s, canonicalize_s, plan_s;
  std::vector<double> exec_total_s, exec_mine_s, exec_pair_s, telemetry_s;
  std::vector<double> exec_sets, exec_checks, exec_pairs;
  std::map<std::string, std::vector<double>> miner_s;  // "cap.s", ...
  std::map<std::string, std::vector<double>> miner_counted, miner_valid;
  std::vector<double> count_s, count_candidates;
  std::vector<double> simd_s, simd_bytes;
};

// Counts the level-2 and level-3 candidates over the frequent items of
// a mined side, as CAP's counter sees them; also runs the fused kernel
// over the level-2 item bitmaps.
void CounterAndKernel(TransactionDb* db, ThreadPool* pool,
                      const std::vector<FrequentSet>& mined,
                      uint64_t min_support, const std::string& id,
                      SpanLog* spans, Series* out) {
  std::vector<Itemset> level1;
  for (const FrequentSet& f : mined) {
    if (f.items.size() == 1) level1.push_back(f.items);
  }
  std::vector<Itemset> level2 = GenerateCandidatesJoinPrune(level1);
  if (level2.size() > kMaxCandidates) level2.resize(kMaxCandidates);
  if (level2.empty()) return;

  auto counter = MakeCounter(CounterKind::kBitmap, db, pool);
  CccStats stats;
  std::vector<uint64_t> supports2;
  double seconds = Timed(spans, id, "counter.bitmap.count2", "replay",
                         [&] { supports2 = counter->Count(level2, &stats); });
  std::vector<Itemset> frequent2;
  for (size_t i = 0; i < level2.size(); ++i) {
    if (supports2[i] >= min_support) frequent2.push_back(level2[i]);
  }
  std::vector<Itemset> level3 = GenerateCandidatesJoinPrune(frequent2);
  if (level3.size() > kMaxCandidates) level3.resize(kMaxCandidates);
  if (!level3.empty()) {
    seconds += Timed(spans, id, "counter.bitmap.count3", "replay",
                     [&] { (void)counter->Count(level3, &stats); });
  }
  out->count_s.push_back(seconds);
  out->count_candidates.push_back(
      static_cast<double>(level2.size() + level3.size()));

  // Level-2 candidates are sorted, so each run sharing a first item is
  // one AndCountMany call: base = that item's bitmap.
  const size_t words = db->vertical(0).num_words();
  std::vector<const uint64_t*> others;
  std::vector<uint64_t> counts;
  double bytes = 0;
  const auto kernel = [&] {
    for (size_t begin = 0; begin < level2.size();) {
      size_t end = begin;
      others.clear();
      while (end < level2.size() && level2[end][0] == level2[begin][0]) {
        others.push_back(db->vertical(level2[end][1]).words());
        ++end;
      }
      counts.resize(others.size());
      simd::AndCountMany(db->vertical(level2[begin][0]).words(), others.data(),
                         others.size(), words, counts.data());
      bytes += static_cast<double>(others.size() * words * sizeof(uint64_t));
      begin = end;
    }
  };
  const double kernel_s =
      Timed(spans, id, "simd.and_count_many", "replay", kernel);
  out->simd_s.push_back(kernel_s);
  out->simd_bytes.push_back(bytes);
}

Status ReplayRequest(const Workload& w, const Sample& sample, uint64_t units,
                     Dataset* data, const stream::StreamIngestor* ingestor,
                     server::QueryService* service, server::Client* client,
                     ThreadPool* pool, SpanLog* spans, Series* out) {
  const Request& r = *sample.request;
  const std::string& id = sample.id;
  const double root_start = spans->NowUs();
  auto request = JsonValue::Parse(r.line);
  if (!request.ok()) return request.status();

  // Service: a miss (cache cleared first — panels repeat), then a hit.
  JsonValue miss;
  service->cache().Clear();
  const double miss_s = Timed(spans, id, "service.handle_miss", "replay",
                              [&] { miss = service->Handle(*request); });
  if (miss.GetString("status", "") != "OK") {
    return Status::Internal("in-process replay failed: " + miss.Write());
  }
  double execute_s = 0;
  if (const JsonValue* trace = miss.Find("trace")) {
    if (const JsonValue* phases = trace->Find("phases")) {
      execute_s = phases->GetNumber("execute", 0);
    }
  }
  out->service_miss_s.push_back(miss_s);
  out->service_self_s.push_back(miss_s - execute_s);
  out->service_hit_s.push_back(Timed(spans, id, "service.handle_hit", "replay",
                                     [&] { (void)service->Handle(*request); }));
  // The service's own account of this execution: the daemon's execute
  // phase when the TCP request missed, else the in-process miss's. A
  // stream has moved on since its TCP request, so there only the
  // in-process answer describes the state the bench replays.
  out->telemetry_s.push_back(
      ingestor == nullptr && sample.execute_s > 0 ? sample.execute_s
                                                  : execute_s);

  // Wire: the same request twice over TCP; the second is a cache hit.
  if (!client->CallRaw(r.line).ok()) {
    return Status::Internal("TCP replay failed");
  }
  Result<std::string> hit = Status::Internal("unset");
  const double tcp_s = Timed(spans, id, "wire.tcp_hit", "replay",
                             [&] { hit = client->CallRaw(r.line); });
  if (!hit.ok() || hit->find("\"cached\":true") == std::string::npos) {
    return Status::Internal("TCP replay was not a cache hit");
  }
  out->tcp_hit_s.push_back(tcp_s);

  // Parser, canonicalizer, optimizer.
  Result<CfqQuery> parsed = Status::Internal("unset");
  out->parse_s.push_back(Timed(spans, id, "parser.parse", "replay", [&] {
                           for (int i = 0; i < kMicroRepeats; ++i) {
                             parsed = ParseCfq(r.query);
                           }
                         }) /
                         kMicroRepeats);
  if (!parsed.ok()) return parsed.status();
  CfqQuery query = std::move(parsed).value();
  const size_t num_items = ingestor != nullptr
                               ? ingestor->options().num_items
                               : data->db.num_items();
  BindDomains(&query, num_items);
  std::string canonical;
  out->canonicalize_s.push_back(
      Timed(spans, id, "parser.canonicalize", "replay", [&] {
        for (int i = 0; i < kMicroRepeats; ++i) {
          canonical = CanonicalizeQuery(query);
        }
      }) /
      kMicroRepeats);
  PlanOptions plan_options;
  plan_options.threads = w.threads;
  Result<CfqPlan> plan = Status::Internal("unset");
  out->plan_s.push_back(Timed(spans, id, "optimizer.build_plan", "replay", [&] {
                          for (int i = 0; i < kMicroRepeats; ++i) {
                            plan = BuildPlan(query, plan_options);
                          }
                        }) /
                        kMicroRepeats);
  if (!plan.ok()) return plan.status();

  // Executor: the call the daemon makes for this request.
  Result<CfqResult> result = Status::Internal("unset");
  const double exec_s = Timed(spans, id, "executor", "replay", [&] {
    if (ingestor != nullptr) {
      stream::StreamWindowInfo info;
      result = ingestor->Query(*w.stream_attrs, query, {}, &info);
    } else {
      result = ExecutePlan(&data->db, data->catalog, plan.value());
    }
  });
  if (!result.ok()) return result.status();
  out->exec_total_s.push_back(exec_s);
  out->exec_mine_s.push_back(result->stats.mining_seconds);
  out->exec_pair_s.push_back(result->stats.pair_seconds);
  out->exec_sets.push_back(static_cast<double>(
      result->stats.s.sets_counted + result->stats.t.sets_counted));
  out->exec_checks.push_back(static_cast<double>(result->stats.pair_checks));
  out->exec_pairs.push_back(static_cast<double>(result->pairs.size()));

  // Miners, per side, on the batch data.
  const CfqQuery batch = BatchQuery(query, ingestor != nullptr ? units : 0);
  CapOptions cap_options;
  cap_options.pool = pool;
  FpGrowthOptions fp_options;
  fp_options.pool = pool;
  std::vector<FrequentSet> s_mined;
  for (const Var var : {Var::kS, Var::kT}) {
    const char* side = var == Var::kS ? "s" : "t";
    const Itemset& domain = var == Var::kS ? batch.s_domain : batch.t_domain;
    const uint64_t minsup =
        var == Var::kS ? batch.min_support_s : batch.min_support_t;
    Result<CapResult> cap = Status::Internal("unset");
    out->miner_s[std::string("cap.") + side].push_back(
        Timed(spans, id, std::string("miner.cap.") + side, "replay", [&] {
          cap = RunCap(&data->db, data->catalog, domain, var, batch.one_var,
                       minsup, cap_options);
        }));
    if (!cap.ok()) return cap.status();
    out->miner_counted["cap"].push_back(
        static_cast<double>(cap->stats.sets_counted));
    out->miner_valid["cap"].push_back(
        static_cast<double>(cap->valid_frequent.size()));
    Result<FpGrowthResult> fp = Status::Internal("unset");
    out->miner_s[std::string("fpgrowth.") + side].push_back(
        Timed(spans, id, std::string("miner.fpgrowth.") + side, "replay", [&] {
          fp = RunFpGrowth(&data->db, data->catalog, domain, var, batch.one_var,
                           minsup, fp_options);
        }));
    if (!fp.ok()) return fp.status();
    out->miner_counted["fpgrowth"].push_back(
        static_cast<double>(fp->stats.sets_counted));
    out->miner_valid["fpgrowth"].push_back(
        static_cast<double>(fp->valid_frequent.size()));
    if (var == Var::kS) s_mined = std::move(cap->valid_frequent);
  }

  // Counter and kernel, on the S side's level-2/3 candidates.
  CounterAndKernel(&data->db, pool, s_mined, batch.min_support_s, id, spans,
                   out);
  spans->Add({"replay", id, "", root_start, spans->NowUs() - root_start,
              kLadderLane});
  return Status::Ok();
}

// The first `units` stream-sized slices of `db`.
std::vector<Batch> Slices(const TransactionDb& db, size_t units) {
  std::vector<Batch> batches;
  for (size_t u = 0; u < units; ++u) {
    batches.push_back(Slice(db, u * kStreamBatch, kStreamBatch));
  }
  return batches;
}

}  // namespace

const std::vector<std::pair<std::string, std::string>>& LayerMetricNames() {
  static const std::vector<std::pair<std::string, std::string>> kNames = {
      {"data.load_ms", "ms"},
      {"data.vertical_index_ms", "ms"},
      {"catalog.append_ms", "ms"},
      {"simd.and_count_many_gbps", "GB/s"},
      {"counter.bitmap.count_ms", "ms"},
      {"counter.bitmap.candidates_per_s", "1/s"},
      {"miner.cap.s_ms", "ms"},
      {"miner.cap.t_ms", "ms"},
      {"miner.cap.sets_counted", "count"},
      {"miner.cap.valid_per_counted", "ratio"},
      {"miner.fpgrowth.s_ms", "ms"},
      {"miner.fpgrowth.t_ms", "ms"},
      {"miner.fpgrowth.sets_counted", "count"},
      {"miner.fpgrowth.valid_per_counted", "ratio"},
      {"optimizer.build_plan_us", "us"},
      {"executor.total_ms", "ms"},
      {"executor.mine_ms", "ms"},
      {"executor.pair_ms", "ms"},
      {"executor.mine_share", "ratio"},
      {"executor.pair_share", "ratio"},
      {"executor.sets_counted", "count"},
      {"executor.pair_checks", "count"},
      {"executor.pairs_per_check", "ratio"},
      {"parser.parse_us", "us"},
      {"parser.canonicalize_us", "us"},
      {"service.hit_us", "us"},
      {"service.cold_self_ms", "ms"},
      {"cache.hit_ratio", "ratio"},
      {"wire.ping_us", "us"},
      {"wire.hit_self_us", "us"},
      {"wire.response_kb", "KiB"},
      {"stream.ingest_ms", "ms"},
      {"stream.batch_mine_ms", "ms"},
      {"stream.fold_ms", "ms"},
      {"stream.query_ms.w1", "ms"},
      {"stream.query_ms.w4", "ms"},
      {"stream.query_ms.w16", "ms"},
      {"stream.query_ms.wall", "ms"},
      {"stream.nodes_per_txn", "ratio"},
      {"trace.overhead_pct", "%"},
      {"xcheck.execute_ratio", "ratio"},
  };
  return kNames;
}

Result<FedStream> FeedStream(const std::vector<Batch>& batches,
                             size_t num_items) {
  stream::StreamOptions options;
  auto ttw = stream::TtwDefinition::Parse(kStreamTtw);
  if (!ttw.ok()) return ttw.status();
  options.ttw = std::move(ttw).value();
  options.eps = kStreamEps;
  options.num_items = num_items;
  FedStream fed;
  fed.ingestor = std::make_unique<stream::StreamIngestor>(options);
  for (const Batch& batch : batches) {
    const Clock::time_point t0 = Clock::now();
    auto stats = fed.ingestor->Ingest(batch);
    fed.ingest_s.push_back(
        std::chrono::duration<double>(Clock::now() - t0).count());
    if (!stats.ok()) return stats.status();
  }
  return fed;
}

Result<std::vector<Metric>> RunLadder(const LadderInput& input, SpanLog* spans,
                                      size_t* replayed) {
  const Workload& w = *input.workload;
  const bool is_stream = w.data == nullptr;
  std::map<std::string, double> m;

  // --- Data and catalog: the dataset files, loaded and indexed. -------
  Dataset base = [&] {
    if (!is_stream) return CopyDataset(*w.data);
    TransactionDb db(w.stream_attrs->num_items());
    for (size_t b = 0; b < input.units; ++b) db.Append(w.batches[b]);
    return Dataset{std::move(db), *w.stream_attrs};
  }();
  const std::string db_path = input.work_dir + "/ladder.db";
  const std::string catalog_path = input.work_dir + "/ladder.cat";
  CFQ_RETURN_IF_ERROR(
      SaveDataset(base.db, base.catalog, db_path, catalog_path));
  Result<Dataset> loaded = Status::Internal("unset");
  m["data.load_ms"] = 1e3 * Timed(spans, "run", "data.load", "", [&] {
                        loaded = LoadDataset(db_path, catalog_path);
                      });
  if (!loaded.ok()) return loaded.status();
  Dataset data = std::move(loaded).value();
  m["data.vertical_index_ms"] =
      1e3 * Timed(spans, "run", "data.vertical_index", "",
                  [&] { data.db.BuildVerticalIndex(); });

  server::DatasetCatalog catalog;
  catalog.Register("append", CopyDataset(data));
  // 500 transactions, as one dashboard append; re-appending the
  // dataset's own head costs what fresh ones would.
  const Batch append_batch = Slice(data.db, 0, 500);
  Result<uint64_t> generation = Status::Internal("unset");
  m["catalog.append_ms"] =
      1e3 * Timed(spans, "run", "catalog.append", "", [&] {
        generation = catalog.Append("append", append_batch);
      });
  if (!generation.ok()) return generation.status();

  // --- Stream layer. --------------------------------------------------
  FedStream local;
  const FedStream* fed = input.stream;
  size_t fed_units = input.units;
  const ItemCatalog& attrs = is_stream ? *w.stream_attrs : data.catalog;
  if (!is_stream) {
    fed_units =
        std::min(kLadderUnits, data.db.num_transactions() / kStreamBatch);
    auto fresh = FeedStream(Slices(data.db, fed_units), data.db.num_items());
    if (!fresh.ok()) return fresh.status();
    local = std::move(fresh).value();
    fed = &local;
  }
  m["stream.ingest_ms"] = 1e3 * Median(fed->ingest_s);
  {
    std::vector<double> mine_s;
    const std::vector<Batch> batches =
        is_stream ? std::vector<Batch>() : Slices(data.db, fed_units);
    const std::vector<Batch>& source = is_stream ? w.batches : batches;
    const uint64_t threshold = std::max<uint64_t>(
        1, static_cast<uint64_t>(std::ceil(kStreamEps / 2 * kStreamBatch)));
    Itemset all;
    for (ItemId i = 0; i < attrs.num_items(); ++i) all.push_back(i);
    for (size_t b = 0; b < fed_units; b += 4) {
      TransactionDb batch_db(attrs.num_items());
      batch_db.Append(source[b]);
      Result<FpGrowthResult> mined = Status::Internal("unset");
      mine_s.push_back(Timed(spans, "run", "stream.batch_mine", "", [&] {
        mined = RunFpGrowth(&batch_db, attrs, all, Var::kS, {}, threshold);
      }));
      if (!mined.ok()) return mined.status();
    }
    m["stream.batch_mine_ms"] = 1e3 * Median(mine_s);
    m["stream.fold_ms"] = m["stream.ingest_ms"] - m["stream.batch_mine_ms"];
  }
  {
    const std::vector<Request> queries =
        is_stream ? w.closed : StreamQueries(input.seed, fed_units, "ladder");
    std::map<int, std::vector<double>> by_window;
    for (const Request& r : queries) {
      auto query = ParseCfq(r.query);
      if (!query.ok()) return query.status();
      BindDomains(&query.value(), attrs.num_items());
      Result<CfqResult> answer = Status::Internal("unset");
      by_window[r.tag].push_back(Timed(spans, "run", "stream.query", "", [&] {
        stream::StreamWindowInfo info;
        answer = fed->ingestor->Query(attrs, query.value(), {}, &info);
      }));
      if (!answer.ok()) return answer.status();
    }
    for (size_t wi = 0; wi < std::size(kStreamWindows); ++wi) {
      const uint64_t window = kStreamWindows[wi];
      const std::string name =
          "stream.query_ms." + (window == 0 ? std::string("wall")
                                            : "w" + std::to_string(window));
      m[name] = 1e3 * Median(by_window[static_cast<int>(wi)]);
    }
    const auto mark = fed->ingestor->watermark();
    m["stream.nodes_per_txn"] =
        static_cast<double>(mark.tree_nodes) /
        static_cast<double>(std::max<uint64_t>(1, mark.transactions));
  }

  // --- From the traced TCP phase. -------------------------------------
  {
    double hits = 0, queries = 0, bytes = 0;
    std::vector<double> traced, bare;
    for (const Sample& s : input.phase->samples) {
      if (s.request->op != Op::kQuery || !s.ok) continue;
      queries += 1;
      hits += s.cached ? 1 : 0;
      bytes += static_cast<double>(s.bytes);
      (s.traced ? traced : bare).push_back(s.latency_s);
    }
    m["cache.hit_ratio"] = queries > 0 ? hits / queries : 0;
    m["wire.response_kb"] = queries > 0 ? bytes / queries / 1024 : 0;
    m["trace.overhead_pct"] =
        bare.empty() ? 0 : 100 * (Median(traced) / Median(bare) - 1);
  }

  // --- Wire and service set-up. -----------------------------------------
  auto client = server::Client::Connect("127.0.0.1", input.port);
  if (!client.ok()) return client.status();
  {
    std::vector<double> pings;
    const std::string ping = "{\"cmd\":\"ping\"}";
    for (size_t i = 0; i < kPings; ++i) {
      pings.push_back(Timed(spans, "run", "wire.ping", "",
                            [&] { (void)client->CallRaw(ping); }));
    }
    m["wire.ping_us"] = 1e6 * Median(pings);
  }
  obs::MetricsRegistry registry;
  server::ServiceOptions options;
  options.threads = w.threads;
  server::QueryService service(options, &registry);
  if (is_stream) {
    std::vector<std::string> lines = {SetupLine(w, "", "")};
    for (const Request& r : w.open) {
      if (r.batch < input.units) lines.push_back(r.line);
    }
    for (const std::string& line : lines) {
      auto request = JsonValue::Parse(line);
      if (!request.ok()) return request.status();
      const JsonValue response = service.Handle(*request);
      if (response.GetString("status", "") != "OK") {
        return Status::Internal("in-process ingest failed: " +
                                response.Write());
      }
    }
  } else {
    service.catalog().Register(w.source, CopyDataset(data));
  }

  // --- Per-request replays, within the budget. -------------------------
  std::vector<const Sample*> sampled;
  for (const Sample& s : input.phase->samples) {
    if (s.request->op == Op::kQuery && s.ok && s.index % 10 == 0) {
      sampled.push_back(&s);
    }
  }
  std::sort(sampled.begin(), sampled.end(),
            [](const Sample* a, const Sample* b) {
              return a->closed_loop != b->closed_loop ? a->closed_loop
                                                      : a->index < b->index;
            });
  ThreadPool pool(w.threads);
  Series series;
  const Clock::time_point start = Clock::now();
  for (const Sample* s : sampled) {
    if (!series.exec_total_s.empty() &&
        std::chrono::duration<double>(Clock::now() - start).count() >
            input.budget_s) {
      break;
    }
    CFQ_RETURN_IF_ERROR(ReplayRequest(
        w, *s, input.units, &data,
        is_stream ? input.stream->ingestor.get() : nullptr, &service,
        &client.value(), &pool, spans, &series));
  }
  *replayed = series.exec_total_s.size();
  if (*replayed == 0) return Status::Internal("no sampled request to replay");

  m["service.hit_us"] = 1e6 * Median(series.service_hit_s);
  m["service.cold_self_ms"] = 1e3 * Median(series.service_self_s);
  m["wire.hit_self_us"] = 1e6 * Median(series.tcp_hit_s) - m["service.hit_us"];
  m["parser.parse_us"] = 1e6 * Median(series.parse_s);
  m["parser.canonicalize_us"] = 1e6 * Median(series.canonicalize_s);
  m["optimizer.build_plan_us"] = 1e6 * Median(series.plan_s);
  m["executor.total_ms"] = 1e3 * Median(series.exec_total_s);
  m["executor.mine_ms"] = 1e3 * Median(series.exec_mine_s);
  m["executor.pair_ms"] = 1e3 * Median(series.exec_pair_s);
  const double exec_total = std::max(1e-12, Sum(series.exec_total_s));
  m["executor.mine_share"] = Sum(series.exec_mine_s) / exec_total;
  m["executor.pair_share"] = Sum(series.exec_pair_s) / exec_total;
  m["executor.sets_counted"] = Median(series.exec_sets);
  m["executor.pair_checks"] = Median(series.exec_checks);
  m["executor.pairs_per_check"] =
      Sum(series.exec_pairs) / std::max(1.0, Sum(series.exec_checks));
  m["xcheck.execute_ratio"] =
      Median(series.telemetry_s) / Median(series.exec_total_s);
  for (const char* miner : {"cap", "fpgrowth"}) {
    const std::string prefix = std::string("miner.") + miner;
    for (const char* side : {".s", ".t"}) {
      m[prefix + side + "_ms"] =
          1e3 * Median(series.miner_s[std::string(miner) + side]);
    }
    std::vector<double> per_request;
    const std::vector<double>& counted = series.miner_counted[miner];
    for (size_t i = 0; i + 1 < counted.size(); i += 2) {
      per_request.push_back(counted[i] + counted[i + 1]);
    }
    m[prefix + ".sets_counted"] = Median(per_request);
    m[prefix + ".valid_per_counted"] =
        Sum(series.miner_valid[miner]) / std::max(1.0, Sum(counted));
  }
  m["counter.bitmap.count_ms"] = 1e3 * Median(series.count_s);
  m["counter.bitmap.candidates_per_s"] =
      Sum(series.count_candidates) / std::max(1e-12, Sum(series.count_s));
  m["simd.and_count_many_gbps"] =
      Sum(series.simd_bytes) / std::max(1e-12, Sum(series.simd_s)) / 1e9;

  std::vector<Metric> out;
  for (const auto& [name, unit] : LayerMetricNames()) {
    out.push_back({name, m[name], unit});
  }
  return out;
}

}  // namespace cfq::cfqbench
