#include "bench/cfq_bench/workload.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <utility>

#include "common/rng.h"
#include "data/synthetic_gen.h"
#include "server/catalog.h"
#include "server/json.h"

namespace cfq::cfqbench {

namespace {

using server::JsonValue;

// The datasets are fixed corpora: the run seed draws the traffic
// (queries, constants, popularity and arrival times), not the data.
// Query costs depend strongly on the Quest pattern table, so a
// per-seed dataset would move every latency by tens of percent between
// seeds and drown the regressions the bounds are meant to catch.
constexpr uint64_t kDataSeed = 42;

// Independent seed streams per input, so adding a request to one list
// never shifts another list's draws.
enum SeedStream : uint64_t {
  kQuerySeed = 1,
  kWarmupSeed = 2,
  kScheduleSeed = 3,
};

// One seed per input stream, folded to 31 bits.
uint64_t DeriveSeed(uint64_t seed, SeedStream stream) {
  return Mix64(seed + 0x9e3779b97f4a7c15ULL * (uint64_t{stream} + 1)) &
         0x7fffffffULL;
}

// Quasi-random query constants. The k-th query's i-th constant is
// frac(offset_i + k * sqrt(p_i)) scaled into its range (an additive
// Weyl sequence, p_i the i-th prime) with the offsets drawn from the
// seed. Every prefix of a list then spreads each constant evenly over
// its range, so latency percentiles move little from seed to seed,
// while every seed still draws different queries.
class Draws {
 public:
  explicit Draws(uint64_t seed) : rng_(seed) {}

  // Starts the next query; its constants are dimensions 0, 1, ...
  void Next() {
    ++k_;
    dim_ = 0;
  }
  int64_t UniformInt(int64_t lo, int64_t hi) {
    const double span = static_cast<double>(hi - lo + 1);
    return lo + std::min(hi - lo, static_cast<int64_t>(Unit() * span));
  }
  double UniformReal(double lo, double hi) { return lo + Unit() * (hi - lo); }

 private:
  double Unit() {
    static constexpr double kPrimes[] = {2, 3, 5, 7, 11, 13, 17, 19};
    if (dim_ == offsets_.size()) offsets_.push_back(rng_.UniformReal(0, 1));
    const double step = std::sqrt(kPrimes[dim_ % std::size(kPrimes)]);
    const double x = offsets_[dim_] + static_cast<double>(k_) * step;
    ++dim_;
    return x - std::floor(x);
  }

  Rng rng_;
  std::vector<double> offsets_;
  uint64_t k_ = 0;
  size_t dim_ = 0;
};

// Closed-loop olap lists are long enough that no commit in sight can
// exhaust them within a run: every query text stays new, so every
// request misses the result cache.
constexpr size_t kOlapQueries = 4000;
constexpr size_t kOlapWarmup = 8;
constexpr size_t kDashboardPanels = 96;
constexpr double kDashboardRate = 800;
constexpr double kZipfS = 1.1;
constexpr size_t kPopularityBlock = 800;  // One second of requests.
constexpr double kAppendIntervalS = 5;
constexpr size_t kAppendTransactions = 500;
// Enough texts that one pass of the readers spans more than a unit, so
// most reads re-run the windowed query instead of hitting the cache,
// and that a seed's draws average out: with 64, the seed moved qps by 5%.
constexpr size_t kStreamQueriesPerWindow = 256;

std::string Num(int64_t v) { return std::to_string(v); }

// One conjunct list; `decimal` spells every constraint constant as
// "N.0" (the freq thresholds stay integral, as the grammar wants).
struct Conjuncts {
  uint64_t min_support = 0;
  uint64_t window = 0;
  std::vector<std::pair<std::string, int64_t>> parts;  // "<text> " + const

  std::string Render(bool decimal) const {
    std::string out = "freq(S, " + Num(static_cast<int64_t>(min_support)) +
                      ") & freq(T, " +
                      Num(static_cast<int64_t>(min_support)) + ")";
    if (window > 0) {
      out += " & window(" + Num(static_cast<int64_t>(window)) + ")";
    }
    for (const auto& [text, constant] : parts) {
      out += " & " + text;
      if (constant >= 0) out += " " + Num(constant) + (decimal ? ".0" : "");
    }
    return out;
  }
};

void Add(Conjuncts* c, std::string text, int64_t constant = -1) {
  c->parts.emplace_back(std::move(text), constant);
}

// S ranges over [a, a + ws]; T over [c, c + wt].
void AddRanges(Conjuncts* c, int64_t a, int64_t ws, int64_t t_lo,
               int64_t wt) {
  Add(c, "S.Price >=", a);
  Add(c, "S.Price <=", a + ws);
  Add(c, "T.Price >=", t_lo);
  Add(c, "T.Price <=", t_lo + wt);
}

// olap-mine: the paper's three query families plus a 1-var-only cross
// product, sized so support counting dominates execute. The T side is
// kept narrow so pair formation (|S| x |T| checks) stays small, and
// the S range narrows as the support threshold drops, which keeps each
// query's cost within a few times the median.
Conjuncts OlapMineQuery(int tmpl, Draws* draws) {
  Conjuncts c;
  const int64_t m = draws->UniformInt(60, 150);
  c.min_support = static_cast<uint64_t>(m);
  const int64_t ws = draws->UniformInt(200, 300) + (m - 60) * 2;
  switch (tmpl) {
    case 0:    // Fig. 8(a): quasi-succinct, ranges overlapping <= 10%.
    case 1: {  // Fig. 8(b): the same plus an anti-monotone sum cap.
      const int64_t wt = draws->UniformInt(6, 15);
      const int64_t a = draws->UniformInt(1, 1000 - ws - wt);
      const int64_t overlap = draws->UniformInt(0, wt / 10);
      AddRanges(&c, a, ws, a + ws - overlap, wt);
      Add(&c, "max(S.Price) <= min(T.Price)");
      if (tmpl == 1) Add(&c, "sum(S.Price) <=", draws->UniformInt(800, 2000));
      break;
    }
    case 2: {  // 1-var only: the answer is a cross product.
      const int64_t wt = draws->UniformInt(10, 60);
      AddRanges(&c, draws->UniformInt(1, 1000 - ws), ws,
                draws->UniformInt(1, 1000 - wt), wt);
      break;
    }
    default:  // Jmax: sum vs sum, T capped (the S cap rarely binds).
      Add(&c, "sum(S.Price) <= sum(T.Price)");
      Add(&c, "T.Price <=", draws->UniformInt(20, 35) + (m - 60) / 4);
      Add(&c, "S.Price <=", draws->UniformInt(500, 1000));
      break;
  }
  return c;
}

// olap-pair: 2-var constraints that are neither reducible nor
// pushable, so every (S, T) combination is checked at pair formation.
// The 1-var caps bound |S| x |T| to 0.03-3 M checks, about 1 M at the
// median, so pair formation is three quarters of execute; without them
// these shapes run into the daemon's deadline. The caps' ranges are
// narrow: a heavier tail made query_p95_ms swing by 10% between runs.
// avg-vs-avg also makes candidate generation expensive, so it gets one
// slot in nine.
constexpr int kPairCycle[] = {0, 1, 0, 1, 2, 0, 1, 0, 1};

Conjuncts OlapPairQuery(int tmpl, Draws* draws) {
  Conjuncts c;
  // Thresholds lean towards 280, where the sides are dense: pair
  // checks grow with the square of the sets per item, counting only
  // with the items.
  const double u = draws->UniformReal(0, 1);
  c.min_support = 280 + static_cast<uint64_t>(300 * u * u);
  switch (tmpl) {
    case 0:
      Add(&c, "S.Type = T.Type");
      Add(&c, "avg(S.Price) <=", draws->UniformInt(200, 300));
      Add(&c, "S.Price <=", draws->UniformInt(280, 320));
      Add(&c, "T.Price >=", draws->UniformInt(640, 680));
      break;
    case 1: {
      const int64_t ws = draws->UniformInt(180, 220);
      const int64_t a = draws->UniformInt(1, 600 - ws);
      Add(&c, "sum(S.Price) <= sum(T.Price)");
      Add(&c, "S.Price >=", a);
      Add(&c, "S.Price <=", a + ws);
      Add(&c, "T.Price >=", draws->UniformInt(620, 660));
      break;
    }
    default: {
      const int64_t ws = draws->UniformInt(100, 160);
      const int64_t wt = draws->UniformInt(100, 160);
      const int64_t a = draws->UniformInt(1, 550 - ws);
      AddRanges(&c, a, ws, a + draws->UniformInt(0, 100), wt);
      Add(&c, "avg(S.Price) <= avg(T.Price)");
      break;
    }
  }
  return c;
}

// dashboard: six panel shapes over dash-20k, each a few milliseconds
// to mine single-threaded, so a miss costs about ten to a hundred hits.
Conjuncts PanelQuery(int shape, Draws* draws) {
  Conjuncts c;
  c.min_support = static_cast<uint64_t>(draws->UniformInt(180, 240));
  switch (shape) {
    case 0: {
      const int64_t ws = draws->UniformInt(150, 200);
      const int64_t wt = draws->UniformInt(60, 100);
      const int64_t a = draws->UniformInt(1, 1000 - ws - wt);
      AddRanges(&c, a, ws, a + ws - draws->UniformInt(0, wt / 10), wt);
      Add(&c, "max(S.Price) <= min(T.Price)");
      break;
    }
    case 1:
      Add(&c, "S.Price <=", draws->UniformInt(300, 400));
      Add(&c, "T.Price >=", draws->UniformInt(600, 700));
      break;
    case 2:
      Add(&c, "S.Type = T.Type");
      Add(&c, "S.Price <=", draws->UniformInt(250, 300));
      Add(&c, "T.Price >=", draws->UniformInt(700, 750));
      break;
    case 3:
      Add(&c, "sum(S.Price) <= sum(T.Price)");
      Add(&c, "T.Price <=", draws->UniformInt(100, 150));
      break;
    case 4:
      Add(&c, "avg(S.Price) <=", draws->UniformInt(300, 400));
      Add(&c, "T.Price >=", draws->UniformInt(600, 700));
      break;
    default:
      Add(&c, "count(S.Price) <=", 2);
      Add(&c, "min(T.Price) >=", draws->UniformInt(650, 750));
      Add(&c, "max(S.Price) <= min(T.Price)");
      break;
  }
  return c;
}

// stream-window: thresholds are a share of the window's transactions
// (a window of everything is sized by the whole stream, `all_units`
// long at the end of the run). A window's cover can overshoot it many
// times over — after the first level-2 tilt (unit 100) a 16-unit window
// resolves to about 100 units — so the share the tree sees can drop to
// a sixth. The 2-var shapes therefore cap T to a few dozen sets: pair
// checks stay bounded however many S sets qualify, and no query holds
// the stream's reader lock for long.
Conjuncts StreamQuery(uint64_t window, uint64_t all_units, bool two_var,
                      int variant, Draws* draws) {
  Conjuncts c;
  const uint64_t units = window == 0 ? all_units : window;
  const double share =
      two_var ? draws->UniformReal(0.05, 0.07) : draws->UniformReal(0.03, 0.08);
  c.min_support = static_cast<uint64_t>(
      std::ceil(share * static_cast<double>(units * kStreamBatch)));
  c.window = window;
  if (!two_var) {
    Add(&c, "S.Price <=", draws->UniformInt(300, 700));
    Add(&c, "T.Price >=", draws->UniformInt(300, 700));
  } else if (variant % 2 == 0) {
    Add(&c, "max(S.Price) <= min(T.Price)");
    Add(&c, "T.Price >=", draws->UniformInt(880, 920));
  } else {
    Add(&c, "sum(S.Price) <= sum(T.Price)");
    Add(&c, "T.Price <=", draws->UniformInt(50, 150));
  }
  return c;
}

JsonValue::Array BatchJson(const Batch& batch) {
  JsonValue::Array txns;
  txns.reserve(batch.size());
  for (const std::vector<ItemId>& txn : batch) {
    JsonValue::Array items;
    items.reserve(txn.size());
    for (ItemId item : txn) items.emplace_back(static_cast<int64_t>(item));
    txns.emplace_back(std::move(items));
  }
  return txns;
}

Request QueryRequest(const std::string& source, std::string text, int tag,
                     uint64_t max_rows, bool stream) {
  Request r;
  r.op = Op::kQuery;
  r.query = std::move(text);
  r.tag = tag;
  JsonValue::Object line;
  line["cmd"] = "query";
  line["dataset"] = source;
  line["query"] = r.query;
  line["max_rows"] = static_cast<int64_t>(max_rows);
  if (stream) line["strategy"] = "stream";
  r.line = JsonValue(std::move(line)).Write();
  return r;
}

Request WriteRequest(Op op, const std::string& source, const Batch& batch,
                     size_t batch_index, double due_s, int connection) {
  Request r;
  r.op = op;
  r.batch = batch_index;
  r.due_s = due_s;
  r.connection = connection;
  JsonValue::Object line;
  line["cmd"] = op == Op::kAppend ? "append" : "ingest";
  line[op == Op::kAppend ? "dataset" : "stream"] = source;
  line["transactions"] = BatchJson(batch);
  r.line = JsonValue(std::move(line)).Write();
  return r;
}

// A Quest database whose first `base` transactions form the dataset
// and whose remainder is cut into `tail_batches` batches of
// `batch_size` — one pattern table for both, so appended or streamed
// data looks like the data already there.
struct Generated {
  std::unique_ptr<TransactionDb> base;
  std::vector<Batch> tail;
};

Result<Generated> Generate(QuestParams params, size_t base,
                           size_t tail_batches, size_t batch_size) {
  params.num_transactions = base + tail_batches * batch_size;
  auto db = GenerateQuestDb(params);
  if (!db.ok()) return db.status();
  Generated out;
  out.base = std::make_unique<TransactionDb>(params.num_items);
  out.base->Append(Slice(*db, 0, base));
  for (size_t b = 0; b < tail_batches; ++b) {
    out.tail.push_back(Slice(*db, base + b * batch_size, batch_size));
  }
  return out;
}

Result<Workload> MakeOlap(const std::string& name, uint64_t seed) {
  const bool mine = name == "olap-mine";
  Workload w;
  w.name = name;
  w.source = "quest-100k";
  w.threads = 2;
  w.daemon_flags = {"--threads=2", "--max_concurrent=2"};
  w.closed_connections = 2;
  w.tags = mine ? std::vector<std::string>{"fig8a", "fig8b", "cross", "jmax"}
                : std::vector<std::string>{"type-avg", "sum", "avg"};

  QuestParams params;
  params.num_items = 1000;
  params.avg_transaction_size = 20;
  params.avg_pattern_size = 6;
  params.num_patterns = 1000;
  params.seed = kDataSeed;
  auto generated = Generate(params, 100000, 0, 0);
  if (!generated.ok()) return generated.status();
  auto catalog = server::MakeDemoCatalog(params.num_items, params.seed);
  if (!catalog.ok()) return catalog.status();
  w.data = std::make_unique<Dataset>(
      Dataset{std::move(*generated->base), std::move(catalog).value()});

  std::set<std::string> seen;
  const auto fill = [&](std::vector<Request>* out, size_t count,
                        SeedStream stream) {
    std::vector<Draws> draws;
    for (size_t t = 0; t < w.tags.size(); ++t) {
      draws.emplace_back(DeriveSeed(seed + t * 1000003, stream));
    }
    while (out->size() < count) {
      // Round-robin templates: every prefix of the list has the same
      // mix, so a faster commit that gets further is measured on the
      // same blend.
      const size_t slot = out->size();
      const int tmpl = mine ? static_cast<int>(slot % 4)
                            : kPairCycle[slot % std::size(kPairCycle)];
      Draws* d = &draws[static_cast<size_t>(tmpl)];
      d->Next();
      const Conjuncts c =
          mine ? OlapMineQuery(tmpl, d) : OlapPairQuery(tmpl, d);
      std::string text = c.Render(false);
      if (!seen.insert(text).second) continue;
      out->push_back(QueryRequest(w.source, std::move(text), tmpl, 100, false));
    }
  };
  fill(&w.warmup, kOlapWarmup, kWarmupSeed);
  fill(&w.closed, kOlapQueries, kQuerySeed);
  return w;
}

Result<Workload> MakeDashboard(uint64_t seed, double seconds) {
  Workload w;
  w.name = "dashboard";
  w.source = "dash-20k";
  w.daemon_flags = {"--threads=1", "--max_concurrent=4"};
  w.open_connections = 4;

  const size_t appends = static_cast<size_t>(seconds / kAppendIntervalS);
  QuestParams params;
  params.num_items = 200;
  params.avg_transaction_size = 10;
  params.avg_pattern_size = 4;
  params.num_patterns = 500;
  params.seed = kDataSeed;
  auto generated = Generate(params, 20000, appends, kAppendTransactions);
  if (!generated.ok()) return generated.status();
  auto catalog = server::MakeDemoCatalog(params.num_items, params.seed);
  if (!catalog.ok()) return catalog.status();
  w.data = std::make_unique<Dataset>(
      Dataset{std::move(*generated->base), std::move(catalog).value()});
  w.batches = std::move(generated->tail);

  // Panels, most popular first. Shape and row cap follow the
  // popularity rank (shape = rank % 6, cap cycling every six ranks), so
  // every seed has the same mix at every popularity; the seed draws the
  // constants. A panel keeps its cap in all spellings (the cap is part
  // of the cache key).
  constexpr uint64_t kRowCaps[] = {50, 100, 200, 500};
  std::vector<Draws> draws;
  for (uint64_t shape = 0; shape < 6; ++shape) {
    draws.emplace_back(DeriveSeed(seed + shape * 1000003, kQuerySeed));
  }
  std::vector<std::vector<Request>> spellings(kDashboardPanels);
  std::set<std::string> seen;
  for (size_t panel = 0; panel < kDashboardPanels;) {
    Draws* d = &draws[panel % 6];
    d->Next();
    const Conjuncts c = PanelQuery(static_cast<int>(panel % 6), d);
    const uint64_t rows = kRowCaps[(panel / 6) % std::size(kRowCaps)];
    if (!seen.insert(c.Render(false)).second) continue;
    Conjuncts reversed = c;
    std::reverse(reversed.parts.begin(), reversed.parts.end());
    std::string compact = c.Render(false);
    compact.erase(std::remove(compact.begin(), compact.end(), ' '),
                  compact.end());
    const int tag = static_cast<int>(panel);
    for (std::string text : {c.Render(false), reversed.Render(false),
                             std::move(compact), c.Render(true)}) {
      spellings[panel].push_back(
          QueryRequest(w.source, std::move(text), tag, rows, false));
    }
    w.tags.push_back("panel-" + std::to_string(panel));
    ++panel;
  }
  for (size_t panel = 0; panel < kDashboardPanels; ++panel) {
    w.warmup.push_back(spellings[panel][0]);
  }

  // Zipf(s) over the popularity ranks, drawn from an urn: every block of
  // kPopularityBlock requests holds each panel's Zipf share exactly
  // (largest remainders), in a seeded random order. Independent draws
  // let the cache's miss count vary by 7% from seed to seed, and since
  // misses are a tenth of the requests, query_p95_ms sits on the edge of
  // the miss costs and moved by 30%.
  std::vector<double> weight(kDashboardPanels);
  double total = 0;
  for (size_t r = 0; r < kDashboardPanels; ++r) {
    weight[r] = std::pow(static_cast<double>(r + 1), -kZipfS);
    total += weight[r];
  }
  std::vector<size_t> block;
  std::vector<std::pair<double, size_t>> remainders;
  for (size_t r = 0; r < kDashboardPanels; ++r) {
    const double share = weight[r] / total * kPopularityBlock;
    block.insert(block.end(), static_cast<size_t>(share), r);
    remainders.emplace_back(share - std::floor(share), r);
  }
  std::sort(remainders.rbegin(), remainders.rend());
  for (size_t j = 0; block.size() < kPopularityBlock; ++j) {
    block.push_back(remainders[j].second);
  }

  // Poisson arrivals at kDashboardRate, round-robin over connections;
  // one append every kAppendIntervalS.
  Rng schedule(DeriveSeed(seed, kScheduleSeed));
  std::vector<size_t> urn;
  double t = 0;
  size_t next_append = 0;
  for (size_t i = 0;; ++i) {
    t += schedule.Exponential(1.0 / kDashboardRate);
    while (next_append < appends &&
           (next_append + 1) * kAppendIntervalS <= t) {
      const double due =
          static_cast<double>(next_append + 1) * kAppendIntervalS;
      w.open.push_back(WriteRequest(
          Op::kAppend, w.source, w.batches[next_append], next_append, due,
          static_cast<int>(next_append % w.open_connections)));
      ++next_append;
    }
    if (t >= seconds) break;
    if (urn.empty()) {
      urn = block;
      std::shuffle(urn.begin(), urn.end(), schedule.engine());
    }
    const size_t panel = urn.back();
    urn.pop_back();
    Request r = spellings[panel][schedule.UniformInt(0, 3)];
    r.due_s = t;
    r.connection = static_cast<int>(i % w.open_connections);
    w.open.push_back(std::move(r));
  }
  return w;
}

Result<Workload> MakeStream(uint64_t seed, double seconds) {
  Workload w;
  w.name = "stream-window";
  w.source = "clicks";
  w.daemon_flags = {"--threads=1"};
  w.closed_connections = 2;
  w.open_connections = 1;

  const size_t ingests =
      static_cast<size_t>(std::floor(seconds / kIngestIntervalS));
  QuestParams params;
  params.num_items = 1000;
  params.avg_transaction_size = 15;
  params.avg_pattern_size = 6;
  params.num_patterns = 100;
  params.seed = kDataSeed;
  auto generated = Generate(params, 0, ingests + 1, kStreamBatch);
  if (!generated.ok()) return generated.status();
  w.batches = std::move(generated->tail);
  w.stream_seed = params.seed;
  auto attrs = server::MakeDemoCatalog(params.num_items, w.stream_seed);
  if (!attrs.ok()) return attrs.status();
  w.stream_attrs = std::make_unique<ItemCatalog>(std::move(attrs).value());

  w.closed = StreamQueries(seed, w.batches.size(), w.source);
  for (uint64_t window : kStreamWindows) {
    w.tags.push_back(window == 0 ? "wall" : "w" + std::to_string(window));
  }
  for (size_t wi = 0; wi < std::size(kStreamWindows); ++wi) {
    for (const Request& r : w.closed) {
      if (r.tag == static_cast<int>(wi)) {
        w.warmup.push_back(r);
        break;
      }
    }
  }
  for (size_t b = 1; b <= ingests; ++b) {
    w.open.push_back(WriteRequest(
        Op::kIngest, w.source, w.batches[b], b,
        static_cast<double>(b - 1) * kIngestIntervalS, 0));
  }
  return w;
}

}  // namespace

const char* OpName(Op op) {
  switch (op) {
    case Op::kQuery:
      return "query";
    case Op::kAppend:
      return "append";
    case Op::kIngest:
      return "ingest";
  }
  return "?";
}

std::vector<Request> StreamQueries(uint64_t seed, uint64_t all_units,
                                   const std::string& source) {
  std::vector<Request> out;
  for (size_t wi = 0; wi < std::size(kStreamWindows); ++wi) {
    const uint64_t window = kStreamWindows[wi];
    Draws draws(DeriveSeed(seed + wi * 1000003, kQuerySeed));
    for (size_t q = 0; q < kStreamQueriesPerWindow; ++q) {
      draws.Next();
      const Conjuncts c = StreamQuery(window, all_units, q % 2 == 1,
                                      static_cast<int>(q / 2), &draws);
      out.push_back(QueryRequest(source, c.Render(false),
                                 static_cast<int>(wi), 100, true));
    }
  }
  // Readers walk one shuffled order, so every unit sees every window
  // and shape.
  Rng order(DeriveSeed(seed, kScheduleSeed));
  std::shuffle(out.begin(), out.end(), order.engine());
  return out;
}

uint64_t Mix64(uint64_t x) {
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

Batch Slice(const TransactionDb& db, size_t begin, size_t count) {
  Batch batch;
  batch.reserve(count);
  for (size_t tid = begin; tid < begin + count; ++tid) {
    const Itemset& txn = db.transaction(tid);
    batch.emplace_back(txn.begin(), txn.end());
  }
  return batch;
}

Result<Workload> MakeWorkload(const std::string& name, uint64_t seed,
                              double seconds) {
  if (name == "olap-mine" || name == "olap-pair") return MakeOlap(name, seed);
  if (name == "dashboard") return MakeDashboard(seed, seconds);
  if (name == "stream-window") return MakeStream(seed, seconds);
  return Status::InvalidArgument("unknown workload '" + name +
                                 "' (want olap-mine|olap-pair|dashboard|"
                                 "stream-window)");
}

std::string SetupLine(const Workload& workload, const std::string& db_path,
                      const std::string& catalog_path) {
  JsonValue::Object line;
  if (workload.data != nullptr) {
    line["cmd"] = "load";
    line["dataset"] = workload.source;
    line["db"] = db_path;
    line["catalog"] = catalog_path;
  } else {
    line["cmd"] = "ingest";
    line["stream"] = workload.source;
    line["transactions"] = BatchJson(workload.batches.front());
    line["ttw"] = kStreamTtw;
    line["eps"] = kStreamEps;
    line["num_items"] =
        static_cast<int64_t>(workload.stream_attrs->num_items());
    line["seed"] = static_cast<int64_t>(workload.stream_seed);
  }
  return JsonValue(std::move(line)).Write();
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
  const size_t index = static_cast<size_t>(std::max(rank, 1.0)) - 1;
  return values[std::min(index, values.size() - 1)];
}

}  // namespace cfq::cfqbench
