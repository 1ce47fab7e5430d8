// cfq_bench: the repository's end-to-end benchmark.
//
//   cfq_bench --workload=olap-mine|olap-pair|dashboard|stream-window
//             --served=PATH/cfq_served [--seed=1] [--seconds=20]
//             [--trace=0|1] [--work_dir=DIR] [--out=FILE]
//             [--trace_out=FILE]
//
// One run: generate the workload's inputs from --seed, start cfq_served
// five times cold (set-up time), warm up, drive the measured phase
// over TCP, check the answers, and print every metric as
// "<workload> <metric> <value> <unit>" followed by one JSON line
// {"correct", "attempted", "failed", "metrics"}. --trace=1 runs the
// phase traced for half the time and spends the other half replaying a
// sample through the layer ladder (ladder.h); it prints the per-layer
// metrics instead and writes the spans as a Chrome trace. --out writes
// the run as a BENCH_*.json file (tools/bench_diff schema) with the
// commit and hardware.
//
// Exit codes: 0 ok, 2 bad flags, 3 a measured request or an answer or
// telemetry check failed (the JSON line says correct=false), 1 anything
// else.

#include <sched.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "bench/cfq_bench/checks.h"
#include "bench/cfq_bench/daemon.h"
#include "bench/cfq_bench/drive.h"
#include "bench/cfq_bench/ladder.h"
#include "bench/cfq_bench/workload.h"
#include "common/simd.h"
#include "common/version.h"
#include "server/client.h"
#include "server/json.h"

namespace cfq::cfqbench {
namespace {

using Clock = std::chrono::steady_clock;
using server::JsonValue;

constexpr int kColdStarts = 5;
// An open-loop run whose generator fell this far behind its schedule
// measured the generator, not the daemon. The rule needs a sample
// large enough for its p99 to ignore one host stall: the dashboard's
// ~16,000 sends, not the stream writer's 200 (there the p99 is the
// third-worst send; its lateness is reported, not judged).
constexpr double kMaxLatenessP99S = 0.001;
constexpr size_t kMinLatenessSamples = 1000;

struct Flags {
  std::string workload;
  std::string served;
  uint64_t seed = 1;
  double seconds = 20;
  bool trace = false;
  std::string work_dir = ".";
  std::string out;
  std::string trace_out;
};

[[noreturn]] void Usage(const std::string& error) {
  std::cerr << "error: " << error
            << "\nusage: cfq_bench --workload=NAME --served=PATH [--seed=N]"
               " [--seconds=S] [--trace=0|1] [--work_dir=DIR] [--out=FILE]"
               " [--trace_out=FILE]\n";
  std::exit(2);
}

Flags ParseFlags(int argc, char** argv) {
  Flags f;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const size_t eq = arg.find('=');
    if (arg.rfind("--", 0) != 0 || eq == std::string::npos) {
      Usage("expected --key=value, got '" + arg + "'");
    }
    const std::string key = arg.substr(2, eq - 2);
    const std::string value = arg.substr(eq + 1);
    try {
      if (key == "workload") f.workload = value;
      else if (key == "served") f.served = value;
      else if (key == "seed") f.seed = std::stoull(value);
      else if (key == "seconds") f.seconds = std::stod(value);
      else if (key == "trace") f.trace = value == "1";
      else if (key == "work_dir") f.work_dir = value;
      else if (key == "out") f.out = value;
      else if (key == "trace_out") f.trace_out = value;
      else Usage("unknown flag --" + key);
    } catch (const std::exception&) {
      Usage("bad value for --" + key);
    }
  }
  if (f.workload.empty() || f.served.empty()) {
    Usage("--workload and --served are required");
  }
  if (!(f.seconds > 0)) Usage("--seconds must be positive");
  if (f.trace_out.empty()) {
    f.trace_out = f.work_dir + "/trace-" + f.workload + ".json";
  }
  return f;
}

double Ms(double seconds) { return seconds * 1e3; }

std::string CpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      return line.substr(line.find(':') + 2);
    }
  }
  return "unknown";
}

// Sends `line` and requires an OK answer.
Status CallOk(server::Client* client, const std::string& line) {
  auto response = client->CallRaw(line);
  if (!response.ok()) return response.status();
  if (response->find("\"status\":\"OK\"") == std::string::npos) {
    return Status::Internal("request failed: " + response->substr(0, 300));
  }
  return Status::Ok();
}

Result<std::pair<int64_t, int64_t>> CacheCounters(server::Client* client) {
  auto stats = client->Call(*JsonValue::Parse("{\"cmd\":\"stats\"}"));
  if (!stats.ok()) return stats.status();
  const JsonValue* cache = stats->Find("cache");
  if (cache == nullptr) return Status::Internal("stats without cache section");
  return std::make_pair(cache->GetInt("hits", -1), cache->GetInt("misses", -1));
}

// Writes the run in the tools/bench_diff schema: one sample per metric,
// named "<workload>/<metric>", with the commit and hardware.
bool WriteBenchJson(const Flags& flags, const std::vector<Metric>& metrics) {
  bench::Reporter reporter("cfq_bench");
  reporter.SetConfig("workload", flags.workload);
  reporter.SetConfig("seed", static_cast<int64_t>(flags.seed));
  reporter.SetConfig("seconds", server::JsonNumber(flags.seconds));
  reporter.SetConfig("trace", flags.trace ? "1" : "0");
  reporter.SetConfig("cpu_model", CpuModel());
  reporter.SetConfig("nproc",
                     static_cast<int64_t>(std::thread::hardware_concurrency()));
  reporter.SetConfig("simd_kernel", simd::KernelName(simd::ActiveKernel()));
  reporter.SetConfig("build_type", BuildType());
  for (const Metric& m : metrics) {
    reporter.Add(flags.workload + "/" + m.name, m.value);
  }
  // The reporter takes the commit from CFQ_COMMIT unless CI set one.
  setenv("CFQ_COMMIT", BuildGitDescribe(), 0);
  return reporter.WriteJson(flags.out);
}

// Splits `allowed`: the first CPU for the load generator (this process
// and its threads), the rest for the daemon. A generator sharing a CPU
// with the daemon makes each run's latencies depend on where the
// scheduler happened to put the threads; with the split, repeated runs
// agree. Returns the daemon's CPUs; empty (no split) on a single CPU.
std::vector<int> PinGenerator(const cpu_set_t& allowed) {
  std::vector<int> cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) cpus.push_back(cpu);
  }
  if (cpus.size() < 2) return {};
  cpu_set_t generator;
  CPU_ZERO(&generator);
  CPU_SET(cpus.front(), &generator);
  if (sched_setaffinity(0, sizeof(generator), &generator) != 0) return {};
  return std::vector<int>(cpus.begin() + 1, cpus.end());
}

// One thread per CPU in `cpus` spinning at SCHED_IDLE until Stop(). On
// a virtual machine an idle CPU halts, and a request that wakes it
// waits until the hypervisor runs that CPU again: how long depends on
// the host's load, and it moved the dashboard's hit latency by 50%
// between back-to-back runs. A SCHED_IDLE thread takes no time from any
// other thread (one that wakes preempts it at once), so the CPUs never
// halt, much as on a host booted with idle=poll. The preemption itself
// costs olap-* 5-10%, the same on every run.
class CpusAwake {
 public:
  explicit CpusAwake(const cpu_set_t& cpus) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (!CPU_ISSET(cpu, &cpus)) continue;
      spinners_.emplace_back([this, cpu] {
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpu, &one);
        sched_setaffinity(0, sizeof(one), &one);
        sched_param idle{};
        sched_setscheduler(0, SCHED_IDLE, &idle);
        while (!done_.load(std::memory_order_relaxed)) {
        }
      });
    }
  }
  ~CpusAwake() { Stop(); }

  void Stop() {
    done_.store(true);
    for (std::thread& spinner : spinners_) spinner.join();
    spinners_.clear();
  }

 private:
  std::atomic<bool> done_{false};
  std::vector<std::thread> spinners_;
};

int Run(const Flags& flags) {
  cpu_set_t all_cpus;
  CPU_ZERO(&all_cpus);
  sched_getaffinity(0, sizeof(all_cpus), &all_cpus);
  const std::vector<int> daemon_cpus = PinGenerator(all_cpus);
  auto made = MakeWorkload(flags.workload, flags.seed, flags.seconds);
  if (!made.ok()) Usage(made.status().ToString());
  const Workload& w = made.value();
  CheckTally tally;
  CheckWorkloadContract(w, flags.seed, flags.seconds, &tally);

  const std::string db_path = flags.work_dir + "/" + w.source + ".db";
  const std::string catalog_path = flags.work_dir + "/" + w.source + ".cat";
  if (w.data != nullptr) {
    if (Status s =
            SaveDataset(w.data->db, w.data->catalog, db_path, catalog_path);
        !s.ok()) {
      std::cerr << "error: " << s << "\n";
      return 1;
    }
  }
  const std::string setup_line = SetupLine(w, db_path, catalog_path);
  const std::string log_path =
      flags.work_dir + "/cfq_served-" + w.name + ".log";

  // Set-up: cold starts; the last daemon stays up for the measurement.
  SpanLog spans;
  std::vector<double> setup_s, setup_rss_mb;
  std::unique_ptr<Daemon> daemon;
  std::unique_ptr<server::Client> client;
  for (int start = 0; start < kColdStarts; ++start) {
    if (daemon != nullptr) {
      client.reset();
      if (Status s = daemon->Stop(); !s.ok()) {
        std::cerr << "error: " << s << "\n";
        return 1;
      }
    }
    const double span_start = spans.NowUs();
    const Clock::time_point t0 = Clock::now();
    auto started =
        Daemon::Start(flags.served, w.daemon_flags, log_path, daemon_cpus);
    if (!started.ok()) {
      std::cerr << "error: " << started.status() << "\n";
      return 1;
    }
    daemon = std::move(started).value();
    auto connected = server::Client::Connect("127.0.0.1", daemon->port());
    if (!connected.ok()) {
      std::cerr << "error: " << connected.status() << "\n";
      return 1;
    }
    client = std::make_unique<server::Client>(std::move(connected).value());
    for (const std::string& line :
         {setup_line, std::string("{\"cmd\":\"ping\"}")}) {
      if (Status s = CallOk(client.get(), line); !s.ok()) {
        std::cerr << "error: set-up: " << s << "\n";
        return 1;
      }
    }
    setup_s.push_back(std::chrono::duration<double>(Clock::now() - t0).count());
    setup_rss_mb.push_back(daemon->MemoryMb("VmRSS:"));
    spans.Add({"setup", "start" + std::to_string(start), "", span_start,
               spans.NowUs() - span_start, 0});
  }

  for (const Request& r : w.warmup) {
    if (Status s = CallOk(client.get(), r.line); !s.ok()) {
      std::cerr << "error: warm-up: " << s << "\n";
      return 1;
    }
  }

  auto cache_before = CacheCounters(client.get());
  const double cpu_before = daemon->CpuSeconds();
  const double phase_seconds = flags.trace ? flags.seconds / 2 : flags.seconds;
  // Awake through the checks and the ladder too, so the ladder times
  // its calls on the machine the phase ran on.
  CpusAwake awake(all_cpus);
  const PhaseResult phase = RunPhase(w, daemon->port(), phase_seconds,
                                     flags.trace ? &spans : nullptr);
  const double cpu_s = daemon->CpuSeconds() - cpu_before;
  auto cache_after = CacheCounters(client.get());
  const double rss_peak_mb = daemon->MemoryMb("VmHWM:");
  // The checks and the ladder time in-process calls: every CPU again.
  sched_setaffinity(0, sizeof(all_cpus), &all_cpus);

  // Per-op latencies of the measured phase.
  std::vector<double> query, hit, miss, append, ingest, lateness;
  size_t failed_requests = 0, completed = 0;
  for (const Sample& s : phase.samples) {
    if (!s.closed_loop) lateness.push_back(s.lateness_s);
    if (!s.ok) {
      ++failed_requests;
      if (failed_requests <= 5) {
        std::cerr << "failed " << OpName(s.request->op) << " " << s.id << ": "
                  << s.error << "\n";
      }
      continue;
    }
    ++completed;
    switch (s.request->op) {
      case Op::kQuery:
        query.push_back(s.latency_s);
        (s.cached ? hit : miss).push_back(s.latency_s);
        break;
      case Op::kAppend:
        append.push_back(s.latency_s);
        break;
      case Op::kIngest:
        ingest.push_back(s.latency_s);
        break;
    }
  }
  if (lateness.size() >= kMinLatenessSamples) {
    tally.Expect(Percentile(lateness, 99) <= kMaxLatenessP99S,
                 "open-loop generator lateness p99 " +
                     std::to_string(Ms(Percentile(lateness, 99))) + " ms");
  }

  // Answer and telemetry checks.
  FedStream reference;
  size_t units = 0;
  if (w.name == "olap-mine" || w.name == "olap-pair") {
    CheckOlapAnswers(w, client.get(), &tally);
  } else if (w.name == "dashboard") {
    const bool have = cache_before.ok() && cache_after.ok();
    tally.Expect(have, "stats command answers");
    if (have) {
      CheckDashboardAnswers(phase, cache_after->first - cache_before->first,
                            cache_after->second - cache_before->second, &tally);
    }
  } else {
    // The daemon holds the set-up batch plus every acknowledged ingest,
    // in schedule order.
    std::vector<size_t> acked;
    for (const Sample& s : phase.samples) {
      if (s.request->op == Op::kIngest && s.ok) {
        acked.push_back(s.request->batch);
      }
    }
    std::sort(acked.begin(), acked.end());
    std::vector<Batch> fed = {w.batches.front()};
    for (size_t b : acked) fed.push_back(w.batches[b]);
    units = fed.size();
    auto stream = FeedStream(fed, w.stream_attrs->num_items());
    if (!stream.ok()) {
      std::cerr << "error: reference stream: " << stream.status() << "\n";
      return 1;
    }
    reference = std::move(stream).value();
    CheckStreamAnswers(w, reference, client.get(), &tally);
  }

  std::vector<Metric> metrics;
  size_t replayed = 0;
  if (flags.trace) {
    LadderInput input;
    input.workload = &w;
    input.seed = flags.seed;
    input.phase = &phase;
    input.port = daemon->port();
    input.stream = w.data == nullptr ? &reference : nullptr;
    input.units = units;
    input.budget_s = flags.seconds / 2;
    input.work_dir = flags.work_dir;
    auto layers = RunLadder(input, &spans, &replayed);
    if (!layers.ok()) {
      std::cerr << "error: layer ladder: " << layers.status() << "\n";
      return 1;
    }
    metrics = std::move(layers).value();
    if (!spans.WriteChromeTrace(flags.trace_out)) {
      std::cerr << "error: cannot write " << flags.trace_out << "\n";
      return 1;
    }
  } else {
    metrics = {
        {"setup_s", Percentile(setup_s, 50), "s"},
        {"query_p50_ms", Ms(Percentile(query, 50)), "ms"},
        {"query_p95_ms", Ms(Percentile(query, 95)), "ms"},
        {"miss_p50_ms", Ms(Percentile(miss, 50)), "ms"},
        {"qps", static_cast<double>(query.size()) / phase.wall_s, "1/s"},
        {"cpu_ms_per_req", Ms(cpu_s) / std::max<double>(1, completed), "ms"},
        {"setup_rss_mb", Percentile(setup_rss_mb, 50), "MB"},
    };
  }
  awake.Stop();

  client.reset();
  tally.Expect(daemon->Stop().ok(), "cfq_served drains and exits 0");

  // Context beside the gated metrics: sample counts, the write paths,
  // the cache and the generator.
  const size_t attempted = phase.samples.size() + tally.attempted;
  const size_t failed = failed_requests + tally.failed;
  std::vector<Metric> context = {
      {"queries", static_cast<double>(query.size()), "count"},
      {"rss_peak_mb", rss_peak_mb, "MB"},
      {"failed_ratio",
       static_cast<double>(failed) / static_cast<double>(attempted),
       "fraction"},
  };
  if (!hit.empty()) {
    context.push_back({"hit_p50_ms", Ms(Percentile(hit, 50)), "ms"});
  }
  if (!append.empty()) {
    context.push_back({"append_p50_ms", Ms(Percentile(append, 50)), "ms"});
  }
  if (!ingest.empty()) {
    context.push_back({"ingest_p50_ms", Ms(Percentile(ingest, 50)), "ms"});
    context.push_back({"ingest_p95_ms", Ms(Percentile(ingest, 95)), "ms"});
  }
  if (!lateness.empty()) {
    context.push_back({"lateness_p99_ms", Ms(Percentile(lateness, 99)), "ms"});
  }
  if (flags.trace) {
    context.push_back({"replayed", static_cast<double>(replayed), "count"});
  }
  for (const std::string& failure : tally.failures) {
    std::cerr << "check failed: " << failure << "\n";
  }

  JsonValue::Object json_metrics;
  for (const Metric& m : metrics) {
    std::cout << w.name << " " << m.name << " " << server::JsonNumber(m.value)
              << " " << m.unit << "\n";
    JsonValue::Object entry;
    entry["value"] = m.value;
    entry["unit"] = m.unit;
    json_metrics[m.name] = std::move(entry);
  }
  for (const Metric& m : context) {
    std::cout << w.name << " " << m.name << " " << server::JsonNumber(m.value)
              << " " << m.unit << "\n";
  }
  if (!flags.out.empty()) {
    std::vector<Metric> all = metrics;
    all.insert(all.end(), context.begin(), context.end());
    if (!WriteBenchJson(flags, all)) return 1;
  }
  // A request that failed fast would otherwise pass as a latency gain.
  const bool correct = failed == 0;
  JsonValue::Object result;
  result["correct"] = correct;
  result["attempted"] = static_cast<int64_t>(attempted);
  result["failed"] = static_cast<int64_t>(failed);
  result["metrics"] = std::move(json_metrics);
  std::cout << JsonValue(std::move(result)).Write() << std::endl;
  return correct ? 0 : 3;
}

}  // namespace
}  // namespace cfq::cfqbench

int main(int argc, char** argv) {
  return cfq::cfqbench::Run(cfq::cfqbench::ParseFlags(argc, argv));
}
