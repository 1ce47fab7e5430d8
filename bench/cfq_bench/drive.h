// Load generation against a running daemon, and the bench-side spans.
//
// RunPhase drives one measured phase from this process: the workload's
// closed-loop connections each on their own thread (next request only
// after the previous answer), and its open-loop schedule from the
// calling thread over non-blocking, pipelined connections (each request
// written when due, whatever is still outstanding). Open-loop latency
// runs from the due time, so a stall is charged to every request it
// delays; the generator's own lateness is recorded beside it.

#ifndef CFQ_BENCH_CFQ_BENCH_DRIVE_H_
#define CFQ_BENCH_CFQ_BENCH_DRIVE_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "bench/cfq_bench/workload.h"

namespace cfq::cfqbench {

// One bench-side span: a Chrome "X" event on lane `lane`. `id` names
// the request the span belongs to ("c<k>" for the k-th closed-loop
// request, "o<i>" for open-loop schedule entry i); `parent` is the
// enclosing span's name, empty for a request's root span.
struct Span {
  std::string name;
  std::string id;
  std::string parent;
  double start_us = 0;
  double dur_us = 0;
  int lane = 0;
};

// Spans kept in memory until the run ends. Thread-safe.
class SpanLog {
 public:
  void Add(Span span);
  // Microseconds since this log was created.
  double NowUs() const;
  // Writes Chrome trace_event JSON; false when the file cannot be
  // written.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  const double origin_us_ = NowAbsUs();
  static double NowAbsUs();
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

// What happened to one request.
struct Sample {
  const Request* request = nullptr;
  std::string id;
  size_t index = 0;
  bool closed_loop = true;
  // Send time (closed loop) or due time (open loop), from phase start.
  double start_s = 0;
  double latency_s = 0;
  double lateness_s = 0;  // Open loop: send time minus due time.
  bool traced = false;
  bool ok = false;
  std::string error;
  size_t bytes = 0;
  // From the response (queries).
  bool cached = false;
  int64_t generation = -1;
  double execute_s = 0;  // trace.phases.execute; 0 on a cache hit.
  std::string digest;
};

struct PhaseResult {
  std::vector<Sample> samples;
  double wall_s = 0;
};

// Runs the measured phase for `seconds`. With `spans` non-null half the
// requests, picked by a hash of their number, get a span around their
// client call; the rest run bare, the baseline for the tracing
// overhead.
PhaseResult RunPhase(const Workload& workload, uint16_t port, double seconds,
                     SpanLog* spans);

// Reads one response line into `sample`: status, cache flag,
// generation, digest and execute phase.
void ReadResponse(const std::string& line, Sample* sample);

}  // namespace cfq::cfqbench

#endif  // CFQ_BENCH_CFQ_BENCH_DRIVE_H_
