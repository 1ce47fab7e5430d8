// The traced run's layer ladder.
//
// Replays a deterministic sample of the measured requests — every
// request whose index is a multiple of ten — through the library's
// public calls, layer by layer, from the wire down to the counting
// kernel, and times each call from here. Every timed call is a span
// under the request's id. A layer's own cost is its total minus the
// layer below: wire = TCP hit - in-process hit; service = Handle -
// execute; executor = mine + pair.
//
// The batch layers (data, catalog, counter, miner, executor) run on the
// workload's dataset; stream-window's dataset is its ingested batches.
// The stream layer runs on the workload's transactions cut into
// stream units. So every layer metric exists on every workload, and a
// change to one layer shows up on the workloads that stress it while
// the others stay flat.

#ifndef CFQ_BENCH_CFQ_BENCH_LADDER_H_
#define CFQ_BENCH_CFQ_BENCH_LADDER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "bench/cfq_bench/drive.h"
#include "bench/cfq_bench/workload.h"
#include "stream/ingestor.h"

namespace cfq::cfqbench {

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

// The per-layer metric names and units, in report order.
const std::vector<std::pair<std::string, std::string>>& LayerMetricNames();

// A reference StreamIngestor fed `batches` in order, with the wall time
// of every Ingest call.
struct FedStream {
  std::unique_ptr<stream::StreamIngestor> ingestor;
  std::vector<double> ingest_s;
};
Result<FedStream> FeedStream(const std::vector<Batch>& batches,
                             size_t num_items);

struct LadderInput {
  const Workload* workload = nullptr;
  uint64_t seed = 0;
  const PhaseResult* phase = nullptr;
  uint16_t port = 0;
  // Stream-window: the reference stream fed every acknowledged batch.
  const FedStream* stream = nullptr;
  size_t units = 0;  // Batches that stream holds.
  // Wall-time budget for the per-request replays.
  double budget_s = 0;
  // Scratch directory for the dataset files the data layer loads.
  std::string work_dir;
};

// Runs the ladder and returns every metric of LayerMetricNames() in
// that order; `*replayed` is the number of requests replayed.
Result<std::vector<Metric>> RunLadder(const LadderInput& input, SpanLog* spans,
                                      size_t* replayed);

}  // namespace cfq::cfqbench

#endif  // CFQ_BENCH_CFQ_BENCH_LADDER_H_
