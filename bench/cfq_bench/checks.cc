#include "bench/cfq_bench/checks.h"

#include <map>
#include <utility>

#include "core/analyze.h"
#include "core/cfq.h"
#include "core/executor.h"
#include "parser/parser.h"
#include "server/json.h"

namespace cfq::cfqbench {

namespace {

using server::JsonValue;

// cfq_served's default --max_rows: the most rows one response carries.
constexpr int64_t kDaemonRowCap = 100000;
// FP-Growth takes a few hundred milliseconds per query on quest-100k;
// four per template keep the check under a quarter of the run.
constexpr size_t kChecksPerTemplate = 4;
// Stream reader texts checked per window; checking all 256 would add
// half the run.
constexpr size_t kChecksPerWindow = 64;

// `request` re-spelled with the full row cap.
std::string FullRowsLine(const Request& request) {
  auto parsed = JsonValue::Parse(request.line);
  JsonValue::Object line = parsed->as_object();
  line["max_rows"] = kDaemonRowCap;
  return JsonValue(std::move(line)).Write();
}

uint64_t NumPairs(const CfqResult& result) {
  if (!result.cross_product) return result.pairs.size();
  return static_cast<uint64_t>(result.s_sets.size()) * result.t_sets.size();
}

// Compares one daemon answer with a reference result.
void Compare(const std::string& what, const Result<JsonValue>& response,
             const Result<CfqResult>& reference, CheckTally* tally) {
  if (!reference.ok()) {
    tally->Expect(false,
                  what + ": reference: " + reference.status().ToString());
    return;
  }
  if (!response.ok() || response->GetString("status", "") != "OK") {
    tally->Expect(false, what + ": " +
                             (response.ok() ? response->Write()
                                            : response.status().ToString()));
    return;
  }
  const uint64_t pairs =
      static_cast<uint64_t>(response->GetInt("num_pairs", -1));
  const bool complete = pairs <= static_cast<uint64_t>(kDaemonRowCap);
  tally->Expect(pairs == NumPairs(*reference),
                what + ": num_pairs " + std::to_string(pairs) + " vs " +
                    std::to_string(NumPairs(*reference)));
  if (complete) {
    const std::string digest = response->GetString("digest", "");
    tally->Expect(digest == DigestCfqResult(*reference),
                  what + ": digest " + digest + " vs " +
                      DigestCfqResult(*reference));
  }
}

}  // namespace

void CheckWorkloadContract(const Workload& workload, uint64_t seed,
                           double seconds, CheckTally* tally) {
  const auto lines = [](const Workload& w) {
    std::vector<std::string> out;
    for (const auto* list : {&w.warmup, &w.closed, &w.open}) {
      for (const Request& r : *list) {
        out.push_back(std::to_string(r.due_s) + ' ' +
                      std::to_string(r.connection) + ' ' + r.line);
      }
    }
    return out;
  };
  auto again = MakeWorkload(workload.name, seed, seconds);
  auto other = MakeWorkload(workload.name, seed + 1, seconds);
  tally->Expect(again.ok() && lines(*again) == lines(workload),
                "same seed gives identical requests and schedule");
  tally->Expect(other.ok() && lines(*other) != lines(workload),
                "another seed gives different requests");

  std::map<int, std::vector<std::string>> canonical_by_tag;
  bool all_parse = true, fixed_points = true;
  for (const auto* list :
       {&workload.warmup, &workload.closed, &workload.open}) {
    for (const Request& r : *list) {
      if (r.op != Op::kQuery) continue;
      auto query = ParseCfq(r.query);
      if (!query.ok()) {
        all_parse = false;
        tally->failures.push_back("unparseable: " + r.query);
        continue;
      }
      const std::string canonical = CanonicalizeQuery(*query);
      auto reparsed = ParseCfq(canonical);
      if (!reparsed.ok() || CanonicalizeQuery(*reparsed) != canonical) {
        fixed_points = false;
      }
      canonical_by_tag[r.tag].push_back(canonical);
    }
  }
  tally->Expect(all_parse, "every generated query parses");
  tally->Expect(fixed_points, "CanonicalizeQuery is a fixed point");
  if (workload.name == "dashboard") {
    bool one_string = true;
    for (const auto& [panel, forms] : canonical_by_tag) {
      for (const std::string& form : forms) one_string &= form == forms.front();
    }
    tally->Expect(one_string, "a panel's spellings canonicalize to one string");
  }
  tally->Expect(Percentile({15, 20, 35, 40, 50}, 30) == 20 &&
                    Percentile({15, 20, 35, 40, 50}, 40) == 20 &&
                    Percentile({15, 20, 35, 40, 50}, 50) == 35 &&
                    Percentile({15, 20, 35, 40, 50}, 100) == 50 &&
                    Percentile({3, 6, 7, 8, 8, 10, 13, 15, 16, 20}, 25) == 7 &&
                    Percentile({3, 6, 7, 8, 8, 10, 13, 15, 16, 20}, 75) == 15,
                "nearest-rank percentile");
}

void CheckOlapAnswers(const Workload& workload, server::Client* client,
                      CheckTally* tally) {
  std::map<int, size_t> taken;
  for (const Request& r : workload.closed) {
    if (taken[r.tag]++ >= kChecksPerTemplate) continue;
    auto response = client->Call(*JsonValue::Parse(FullRowsLine(r)));
    auto query = ParseCfq(r.query);
    Result<CfqResult> reference = query.status();
    if (query.ok()) {
      for (ItemId i = 0; i < workload.data->db.num_items(); ++i) {
        query->s_domain.push_back(i);
        query->t_domain.push_back(i);
      }
      PlanOptions options;
      options.threads = workload.threads;
      reference = ExecuteFpGrowth(&workload.data->db, workload.data->catalog,
                                  *query, options);
    }
    Compare(workload.tags[static_cast<size_t>(r.tag)] + " " + r.query,
            response, reference, tally);
  }
}

void CheckDashboardAnswers(const PhaseResult& phase, int64_t stats_hits,
                           int64_t stats_misses, CheckTally* tally) {
  std::map<std::pair<int, int64_t>, std::string> digests;
  int64_t hits = 0, misses = 0;
  bool consistent = true;
  for (const Sample& s : phase.samples) {
    if (s.request->op != Op::kQuery || !s.ok) continue;
    (s.cached ? hits : misses) += 1;
    auto [it, fresh] =
        digests.try_emplace({s.request->tag, s.generation}, s.digest);
    if (!fresh && it->second != s.digest) {
      consistent = false;
      tally->failures.push_back("panel " + std::to_string(s.request->tag) +
                                " generation " + std::to_string(s.generation) +
                                ": digest " + s.digest + " vs " + it->second);
    }
  }
  tally->Expect(consistent, "one digest per panel and generation");
  tally->Expect(hits == stats_hits && misses == stats_misses,
                "cached flags (" + std::to_string(hits) + " hits, " +
                    std::to_string(misses) +
                    " misses) match the stats delta (" +
                    std::to_string(stats_hits) + ", " +
                    std::to_string(stats_misses) + ")");
}

void CheckStreamAnswers(const Workload& workload, const FedStream& reference,
                        server::Client* client, CheckTally* tally) {
  std::map<int, size_t> taken;
  for (const Request& r : workload.closed) {
    if (taken[r.tag]++ >= kChecksPerWindow) continue;
    auto response = client->Call(*JsonValue::Parse(FullRowsLine(r)));
    auto query = ParseCfq(r.query);
    Result<CfqResult> expected = query.status();
    if (query.ok()) {
      for (ItemId i = 0; i < workload.stream_attrs->num_items(); ++i) {
        query->s_domain.push_back(i);
        query->t_domain.push_back(i);
      }
      stream::StreamWindowInfo info;
      expected = reference.ingestor->Query(*workload.stream_attrs, *query, {},
                                           &info);
    }
    Compare(workload.tags[static_cast<size_t>(r.tag)] + " " + r.query,
            response, expected, tally);
  }
}

}  // namespace cfq::cfqbench
