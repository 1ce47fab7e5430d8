// The cfq_bench workloads: everything a run sends, generated from the
// workload seed alone.
//
// A Workload holds the inputs of one run: the dataset the daemon loads
// (or the stream batches it ingests), the warm-up requests, the
// closed-loop request list and the open-loop schedule. MakeWorkload is
// a pure function of (name, seed, seconds): the same arguments give
// byte-identical protocol lines, so two commits measured with one seed
// receive exactly the same traffic. The daemon never sees the seed —
// only the files and request lines made from it.
//
// The four workloads and why each exists are described in README.md;
// the constants below size them.

#ifndef CFQ_BENCH_CFQ_BENCH_WORKLOAD_H_
#define CFQ_BENCH_CFQ_BENCH_WORKLOAD_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/itemset.h"
#include "common/result.h"
#include "data/serialize.h"

namespace cfq::cfqbench {

// Stream-window shape, shared by the daemon's stream and the in-process
// reference ingestor.
inline constexpr const char* kStreamTtw = "4,24,7";
inline constexpr double kStreamEps = 0.05;
inline constexpr size_t kStreamBatch = 2000;
inline constexpr double kIngestIntervalS = 0.1;
// Windows the stream queries ask for; 0 = everything retained.
inline constexpr uint64_t kStreamWindows[] = {1, 4, 16, 0};

using Batch = std::vector<std::vector<ItemId>>;

enum class Op { kQuery, kAppend, kIngest };

const char* OpName(Op op);

struct Request {
  Op op = Op::kQuery;
  // Queries: the CFQ text (the line also carries the row cap and, for
  // stream queries, strategy=stream).
  std::string query;
  // Query template (olap-*), panel (dashboard) or window index
  // (stream-window); indexes Workload::tags.
  int tag = 0;
  // Appends and ingests: index into Workload::batches.
  size_t batch = 0;
  // Open-loop schedule: due time from the start of the measured phase
  // and the connection that sends it.
  double due_s = 0;
  int connection = 0;
  // The protocol line sent, without the trailing newline.
  std::string line;
};

struct Workload {
  std::string name;
  // Flags cfq_served runs with (besides --host/--port), and its
  // per-query mining threads (also used for in-process replays).
  std::vector<std::string> daemon_flags;
  size_t threads = 1;
  // The dataset or stream every request addresses.
  std::string source;
  // Batch workloads: the dataset written to disk and `load`ed.
  std::unique_ptr<Dataset> data;
  // Dashboard: append batches. Stream-window: ingest batches; batch 0
  // is ingested during set-up, the rest by the schedule.
  std::vector<Batch> batches;
  // Stream-window: the attribute catalog the daemon derives from the
  // stream seed (server::MakeDemoCatalog).
  std::unique_ptr<ItemCatalog> stream_attrs;
  uint64_t stream_seed = 0;
  // Requests sent before measuring; never counted.
  std::vector<Request> warmup;
  // Closed loop: `closed_connections` connections each take the next
  // request of `closed` (cycling) until the phase ends.
  std::vector<Request> closed;
  int closed_connections = 0;
  // Open loop: `open` is sorted by due time over `open_connections`.
  std::vector<Request> open;
  int open_connections = 0;
  std::vector<std::string> tags;
};

// Builds the named workload. `seconds` sizes the open-loop schedule;
// closed-loop lists have a fixed length.
Result<Workload> MakeWorkload(const std::string& name, uint64_t seed,
                              double seconds);

// The stream-window reader list: 256 query texts per window of
// kStreamWindows (tag = window index), half with a 2-var constraint,
// thresholds sized for a stream `all_units` units long.
std::vector<Request> StreamQueries(uint64_t seed, uint64_t all_units,
                                   const std::string& source);

// The set-up request that brings a fresh daemon to the workload's
// starting state: `load` of the dataset files (paths as given), or the
// stream's first `ingest`.
std::string SetupLine(const Workload& workload, const std::string& db_path,
                      const std::string& catalog_path);

// The splitmix64 finalizer: a well-mixed 64-bit hash of `x`.
uint64_t Mix64(uint64_t x);

// `db`'s transactions [begin, begin + count) as one batch.
Batch Slice(const TransactionDb& db, size_t begin, size_t count);

// Nearest-rank percentile (p in (0, 100]) of `values`; 0 when empty.
double Percentile(std::vector<double> values, double p);

}  // namespace cfq::cfqbench

#endif  // CFQ_BENCH_CFQ_BENCH_WORKLOAD_H_
