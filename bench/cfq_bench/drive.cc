#include "bench/cfq_bench/drive.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <pthread.h>
#include <sched.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <deque>
#include <fstream>
#include <string_view>
#include <thread>

#include "server/client.h"
#include "server/json.h"

namespace cfq::cfqbench {

namespace {

using Clock = std::chrono::steady_clock;

double Since(Clock::time_point start, Clock::time_point t) {
  return std::chrono::duration<double>(t - start).count();
}

// Which requests of a traced phase get a span: a hash of the request
// number, so traced and bare requests carry the same mix of templates
// (a parity rule would alias with the round-robin template cycle).
bool Traced(const SpanLog* spans, size_t index) {
  return spans != nullptr &&
         (Mix64(index * 0x9e3779b97f4a7c15ULL) & 1) == 0;
}

// "c<k>" for the k-th closed-loop request, "o<i>" for open-loop entry i.
std::string RequestId(char loop, size_t index) {
  std::string id(1, loop);
  id += std::to_string(index);
  return id;
}

// Open-loop stragglers get this long after the last due time.
constexpr double kDrainSeconds = 30;

// The raw value of `key` in a response line. The daemon writes one
// object per line, and the keys read here are unique across nesting
// levels, so a scan finds them without building every answer's rows
// on the generator's thread.
std::string_view Field(std::string_view line, std::string_view key) {
  std::string pattern = "\"";
  pattern += key;
  pattern += "\":";
  const size_t at = line.find(pattern);
  if (at == std::string_view::npos) return {};
  const size_t begin = at + pattern.size();
  size_t end = begin;
  if (end < line.size() && line[end] == '"') {
    end = line.find('"', begin + 1);
    if (end == std::string_view::npos) return {};
    return line.substr(begin + 1, end - begin - 1);
  }
  while (end < line.size() && line[end] != ',' && line[end] != '}') ++end;
  return line.substr(begin, end - begin);
}

double Number(std::string_view raw) {
  return raw.empty() ? 0 : std::strtod(std::string(raw).c_str(), nullptr);
}

void ClosedLoop(const Workload& workload, uint16_t port,
                Clock::time_point start, Clock::time_point end,
                std::atomic<size_t>* next,
                SpanLog* spans, int lane, std::vector<Sample>* out) {
  auto client = server::Client::Connect("127.0.0.1", port);
  while (true) {
    const size_t k = next->fetch_add(1);
    const Clock::time_point t0 = Clock::now();
    if (t0 >= end) break;
    Sample s;
    s.request = &workload.closed[k % workload.closed.size()];
    s.index = k;
    s.id = RequestId('c', k);
    s.start_s = Since(start, t0);
    s.traced = Traced(spans, k);
    const double span_start = s.traced ? spans->NowUs() : 0;
    if (!client.ok()) {
      s.error = client.status().ToString();
      out->push_back(std::move(s));
      break;
    }
    auto line = client->CallRaw(s.request->line);
    const Clock::time_point t1 = Clock::now();
    s.latency_s = Since(t0, t1);
    if (s.traced) {
      spans->Add({OpName(s.request->op), s.id, "", span_start,
                  spans->NowUs() - span_start, lane});
    }
    if (line.ok()) {
      s.bytes = line->size();
      ReadResponse(*line, &s);
    } else {
      s.error = line.status().ToString();
      // A broken connection fails this request; reconnect for the next.
      client = server::Client::Connect("127.0.0.1", port);
    }
    out->push_back(std::move(s));
  }
}

// One pipelined open-loop connection.
struct Conn {
  int fd = -1;
  std::string out;                // Bytes written when the socket allows.
  std::string in;                 // Bytes of a partial response line.
  std::deque<size_t> in_flight;   // Sample indexes, in send order.
};

int ConnectNonBlocking(uint16_t port) {
  const int fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    close(fd);
    return -1;
  }
  const int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  fcntl(fd, F_SETFL, fcntl(fd, F_GETFL) | O_NONBLOCK);
  return fd;
}

void OpenLoop(const Workload& workload, uint16_t port, double seconds,
              SpanLog* spans, std::vector<Sample>* out) {
  // The generator sleeps between sends; a real-time priority lets it
  // wake on time while the daemon's threads hold every core (a cache
  // invalidation re-mines dozens of panels at once). Without it the
  // schedule, not the daemon, sets the tail.
  int old_policy = SCHED_OTHER;
  sched_param old_priority{};
  pthread_getschedparam(pthread_self(), &old_policy, &old_priority);
  sched_param priority{};
  priority.sched_priority = 1;
  if (pthread_setschedparam(pthread_self(), SCHED_FIFO, &priority) != 0) {
    std::fprintf(stderr, "warning: no real-time priority for the open-loop "
                         "generator; its lateness may fail the run\n");
  }
  std::vector<Conn> conns(static_cast<size_t>(workload.open_connections));
  for (Conn& c : conns) c.fd = ConnectNonBlocking(port);
  std::vector<double> span_start(workload.open.size(), 0);
  // The schedule starts once the generator is connected and ready.
  const Clock::time_point start = Clock::now();

  size_t next = 0;
  size_t outstanding = 0;
  const auto finish = [&](size_t i, Clock::time_point at,
                          const std::string* line, const std::string& error) {
    Sample& s = (*out)[i];
    s.latency_s = Since(start, at) - s.start_s;
    if (s.traced) {
      spans->Add({OpName(s.request->op), s.id, "", span_start[s.index],
                  spans->NowUs() - span_start[s.index],
                  1 + s.request->connection});
    }
    if (line != nullptr) {
      s.bytes = line->size();
      ReadResponse(*line, &s);
    } else {
      s.error = error;
    }
    --outstanding;
  };

  while (true) {
    Clock::time_point now = Clock::now();
    // Enqueue everything due; the phase ends at `seconds`.
    while (next < workload.open.size() && workload.open[next].due_s < seconds &&
           Since(start, now) >= workload.open[next].due_s) {
      const Request& r = workload.open[next];
      Sample s;
      s.request = &r;
      s.index = next;
      s.id = RequestId('o', next);
      s.closed_loop = false;
      s.start_s = r.due_s;
      s.lateness_s = Since(start, now) - r.due_s;
      s.traced = Traced(spans, next);
      if (s.traced) span_start[next] = spans->NowUs();
      Conn& c = conns[static_cast<size_t>(r.connection)];
      out->push_back(std::move(s));
      ++outstanding;
      if (c.fd < 0) {
        finish(out->size() - 1, now, nullptr, "not connected");
      } else {
        c.out += r.line;
        c.out += '\n';
        c.in_flight.push_back(out->size() - 1);
      }
      ++next;
    }
    const bool schedule_done = next >= workload.open.size() ||
                               workload.open[next].due_s >= seconds;
    if (schedule_done && outstanding == 0) break;
    const double due_next =
        schedule_done ? seconds + kDrainSeconds : workload.open[next].due_s;
    if (schedule_done && Since(start, now) > seconds + kDrainSeconds) {
      for (Conn& c : conns) {
        for (size_t i : c.in_flight) finish(i, now, nullptr, "no response");
        c.in_flight.clear();
      }
      break;
    }

    std::vector<pollfd> fds;
    for (Conn& c : conns) {
      if (c.fd < 0) continue;
      if (!c.out.empty()) {
        const ssize_t n = send(c.fd, c.out.data(), c.out.size(), MSG_NOSIGNAL);
        if (n > 0) c.out.erase(0, static_cast<size_t>(n));
      }
      const short events = c.out.empty() ? POLLIN : POLLIN | POLLOUT;
      fds.push_back({c.fd, events, 0});
    }
    const double wait_s = std::max(0.0, due_next - Since(start, Clock::now()));
    timespec timeout{static_cast<time_t>(wait_s),
                     static_cast<long>(std::fmod(wait_s, 1.0) * 1e9)};
    ppoll(fds.data(), fds.size(), &timeout, nullptr);
    now = Clock::now();
    for (Conn& c : conns) {
      if (c.fd < 0) continue;
      char buf[1 << 16];
      ssize_t n;
      while ((n = recv(c.fd, buf, sizeof(buf), 0)) > 0) {
        c.in.append(buf, static_cast<size_t>(n));
      }
      size_t newline;
      while ((newline = c.in.find('\n')) != std::string::npos) {
        const std::string line = c.in.substr(0, newline);
        c.in.erase(0, newline + 1);
        if (c.in_flight.empty()) continue;
        finish(c.in_flight.front(), now, &line, "");
        c.in_flight.pop_front();
      }
      if (n == 0) {  // Peer closed: everything outstanding failed.
        for (size_t i : c.in_flight) {
          finish(i, now, nullptr, "connection closed");
        }
        c.in_flight.clear();
        close(c.fd);
        c.fd = -1;
      }
    }
  }
  for (Conn& c : conns) {
    if (c.fd >= 0) close(c.fd);
  }
  pthread_setschedparam(pthread_self(), old_policy, &old_priority);
}

}  // namespace

double SpanLog::NowAbsUs() {
  return std::chrono::duration<double, std::micro>(
             Clock::now().time_since_epoch())
      .count();
}

double SpanLog::NowUs() const { return NowAbsUs() - origin_us_; }

void SpanLog::Add(Span span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(span));
}

bool SpanLog::WriteChromeTrace(const std::string& path) const {
  std::ofstream os(path);
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  std::lock_guard<std::mutex> lock(mu_);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    server::JsonValue::Object args;
    args["id"] = s.id;
    args["parent"] = s.parent;
    server::JsonValue::Object event;
    event["name"] = s.name;
    event["ph"] = "X";
    event["pid"] = int64_t{1};
    event["tid"] = static_cast<int64_t>(s.lane);
    event["ts"] = s.start_us;
    event["dur"] = s.dur_us;
    event["args"] = std::move(args);
    os << (i == 0 ? "\n" : ",\n")
       << server::JsonValue(std::move(event)).Write();
  }
  os << "\n]}\n";
  return os.good();
}

void ReadResponse(const std::string& line, Sample* sample) {
  if (line.empty() || line.front() != '{') {
    sample->error = "unparseable response";
    return;
  }
  const std::string_view status = Field(line, "status");
  if (status != "OK") {
    sample->error =
        std::string(status) + ": " + std::string(Field(line, "error"));
    return;
  }
  sample->ok = true;
  sample->cached = Field(line, "cached") == "true";
  const std::string_view generation = Field(line, "generation");
  sample->generation =
      generation.empty() ? -1 : static_cast<int64_t>(Number(generation));
  sample->digest = std::string(Field(line, "digest"));
  sample->execute_s = Number(Field(line, "execute"));
}

PhaseResult RunPhase(const Workload& workload, uint16_t port, double seconds,
                     SpanLog* spans) {
  const Clock::time_point start = Clock::now();
  const Clock::time_point end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  std::atomic<size_t> next{0};
  std::vector<std::vector<Sample>> closed(
      static_cast<size_t>(workload.closed_connections));
  std::vector<std::thread> threads;
  for (size_t t = 0; t < closed.size(); ++t) {
    threads.emplace_back(ClosedLoop, std::cref(workload), port, start, end,
                         &next, spans, 10 + static_cast<int>(t), &closed[t]);
  }
  PhaseResult result;
  if (workload.open_connections > 0) {
    OpenLoop(workload, port, seconds, spans, &result.samples);
  }
  for (std::thread& t : threads) t.join();
  result.wall_s = Since(start, Clock::now());
  for (std::vector<Sample>& part : closed) {
    for (Sample& s : part) result.samples.push_back(std::move(s));
  }
  return result;
}

}  // namespace cfq::cfqbench
