// Answer and telemetry checks run after every measured phase. Each
// failed check counts in the run's `failed` total and marks the run
// incorrect; the messages say what disagreed.

#ifndef CFQ_BENCH_CFQ_BENCH_CHECKS_H_
#define CFQ_BENCH_CFQ_BENCH_CHECKS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "bench/cfq_bench/drive.h"
#include "bench/cfq_bench/ladder.h"
#include "bench/cfq_bench/workload.h"
#include "server/client.h"

namespace cfq::cfqbench {

struct CheckTally {
  size_t attempted = 0;
  size_t failed = 0;
  std::vector<std::string> failures;

  void Expect(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      failures.push_back(what);
    }
  }
};

// The workload generator's own contract: same seed -> byte-identical
// lines, another seed -> different ones; every query parses and its
// canonical form is a fixed point; a dashboard panel's four spellings
// canonicalize to one string; the percentile helper matches
// hand-computed values.
void CheckWorkloadContract(const Workload& workload, uint64_t seed,
                           double seconds, CheckTally* tally);

// olap-*: the first 4 queries per template, resent with the daemon's
// full row cap, against an in-process ExecuteFpGrowth (an engine
// independent of the daemon's default plan): digests where every row
// fits the cap, pair counts otherwise.
void CheckOlapAnswers(const Workload& workload, server::Client* client,
                      CheckTally* tally);

// dashboard: every answer for one panel at one generation carries one
// digest, and the share of cached answers equals the hits / (hits +
// misses) delta of the daemon's own `stats` counters.
void CheckDashboardAnswers(const PhaseResult& phase, int64_t stats_hits,
                           int64_t stats_misses, CheckTally* tally);

// stream-window: the first 64 reader queries per window (in the readers'
// shuffled order) against the reference ingestor fed the same batches.
void CheckStreamAnswers(const Workload& workload, const FedStream& reference,
                        server::Client* client, CheckTally* tally);

}  // namespace cfq::cfqbench

#endif  // CFQ_BENCH_CFQ_BENCH_CHECKS_H_
